(** The {!Gofree_api} facade and the {!Gofree_obs.Schema} registry.

    The facade is the only surface [bin/gofreec.ml] is allowed to touch,
    so these tests pin its behaviour against the underlying pipeline:
    same insertions, same outputs, same error discipline. *)

module Json = Gofree_obs.Json
module Schema = Gofree_obs.Schema

let src_free =
  {|
func localSum(n int) int {
	xs := make([]int, n)
	s := 0
	for i := range xs {
		xs[i] = i
		s = s + xs[i]
	}
	return s
}

func main() {
	println(localSum(64))
}
|}

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "api error: %s" (Gofree_api.error_message e)

(* ---- facade vs pipeline ---- *)

let test_insertions_match_pipeline () =
  let c = ok (Gofree_api.compile_string src_free) in
  let via_api =
    List.map
      (fun i ->
        ( i.Gofree_api.ins_function,
          i.Gofree_api.ins_variable,
          Gofree_api.free_kind_name i.Gofree_api.ins_kind ))
      (Gofree_api.insertions c)
  in
  let direct =
    Helpers.inserted_vars (Gofree_core.Pipeline.compile src_free)
  in
  Alcotest.(check (list (triple string string string)))
    "facade reports the pipeline's insertions" direct via_api

let test_run_matches_interpreter () =
  let outcome = ok (Gofree_api.run_string src_free) in
  let expected = Helpers.output src_free in
  Alcotest.(check string) "facade run output" expected
    outcome.Gofree_api.output;
  Alcotest.(check bool) "no panic" false outcome.Gofree_api.panicked

let test_presets () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Gofree_api.preset_name p ^ " round-trips")
        true
        (Gofree_api.preset_of_name (Gofree_api.preset_name p) = Some p))
    [ Gofree_api.Gofree; Gofree_api.Go; Gofree_api.All_targets;
      Gofree_api.No_ipa ];
  (* --go really disables insertion *)
  let c =
    ok
      (Gofree_api.compile_string
         ~config:(Gofree_api.config_of_preset Gofree_api.Go)
         src_free)
  in
  Alcotest.(check int) "stock Go inserts nothing" 0
    (List.length (Gofree_api.insertions c))

(* ---- Preset builder and the config <-> JSON codec ---- *)

let test_preset_builders () =
  let module P = Gofree_api.Preset in
  let module C = Gofree_core.Config in
  (* every named preset resolves and its name round-trips *)
  List.iter
    (fun (name, cfg) ->
      match P.of_name name with
      | None -> Alcotest.failf "preset %S not resolvable" name
      | Some p ->
        Alcotest.(check string)
          (name ^ " resolves to itself")
          (C.signature (P.to_config p))
          (C.signature cfg))
    P.named;
  Alcotest.(check bool) "unknown preset rejected" true
    (P.of_name "nope" = None);
  (* combinators compose left to right over the default *)
  let built =
    P.(
      default |> with_targets C.All_pointers
      |> with_field_sensitivity true
      |> with_placement C.Last_use |> to_config)
  in
  Alcotest.(check bool) "with_targets applied" true
    (built.C.targets = C.All_pointers);
  Alcotest.(check bool) "with_field_sensitivity applied" true
    built.C.precision.C.field_sensitive;
  Alcotest.(check bool) "with_placement applied" true
    (built.C.precision.C.placement = C.Last_use);
  (* precise = field-sensitive + last-use *)
  Alcotest.(check bool) "precise == field-sensitive + last-use" true
    (C.precise_precision
    = { C.field_sensitive = true; C.placement = C.Last_use })

let test_config_json_roundtrip () =
  let module P = Gofree_api.Preset in
  let module C = Gofree_core.Config in
  List.iter
    (fun (name, cfg) ->
      match Gofree_api.config_of_json (Gofree_api.config_to_json cfg) with
      | Ok cfg' ->
        Alcotest.(check string)
          (name ^ " config json round-trips")
          (C.signature cfg) (C.signature cfg')
      | Error m -> Alcotest.failf "%s: %s" name m)
    P.named;
  (* partial objects default to the paper's configuration *)
  (match
     Gofree_api.config_of_json
       (Json.Obj
          [ ( "precision",
              Json.Obj [ ("field_sensitive", Json.Bool true) ] ) ])
   with
  | Ok c ->
    Alcotest.(check string) "partial config defaults"
      (C.signature P.(to_config (with_field_sensitivity true default)))
      (C.signature c)
  | Error m -> Alcotest.failf "partial config rejected: %s" m);
  (* unknown fields are schema errors, not silently dropped *)
  (match Gofree_api.config_of_json (Json.Obj [ ("bogus", Json.Bool true) ])
   with
  | Ok _ -> Alcotest.fail "unknown config field accepted"
  | Error _ -> ());
  match
    Gofree_api.config_of_json
      (Json.Obj
         [ ("precision", Json.Obj [ ("placement", Json.Str "sometime") ]) ])
  with
  | Ok _ -> Alcotest.fail "unknown placement accepted"
  | Error _ -> ()

let test_error_discipline () =
  (match Gofree_api.compile_string "func main( {}" with
  | Ok _ -> Alcotest.fail "garbage compiled"
  | Error e ->
    Alcotest.(check int) "compile errors exit 1" 1
      (Gofree_api.error_exit_code e));
  match
    Gofree_api.run_string
      "func main() {\n\tvar xs []int\n\tprintln(xs[3])\n}\n"
  with
  | Ok o ->
    (* out-of-range is a panic, reported in the outcome, not an error *)
    Alcotest.(check bool) "index panic reported" true o.Gofree_api.panicked
  | Error e ->
    Alcotest.(check int) "runtime errors exit 2" 2
      (Gofree_api.error_exit_code e)

(* ---- content keys ---- *)

let test_source_key () =
  let config = Gofree_api.config_of_preset Gofree_api.Gofree in
  let k1 = Gofree_api.source_key ~config src_free in
  Alcotest.(check string) "key is deterministic" k1
    (Gofree_api.source_key ~config src_free);
  Alcotest.(check bool) "key covers the source" true
    (k1 <> Gofree_api.source_key ~config (src_free ^ "\n// edit\n"));
  Alcotest.(check bool) "key covers the config" true
    (k1
    <> Gofree_api.source_key
         ~config:(Gofree_api.config_of_preset Gofree_api.Go)
         src_free)

(* ---- schema registry ---- *)

let all_schemas =
  [ Schema.Metrics; Schema.Samples; Schema.Build_stats; Schema.Explain;
    Schema.Bench; Schema.Rpc; Schema.Load; Schema.Telemetry;
    Schema.Precision ]

(* Exhaustive by construction: adding a [Schema.t] constructor breaks
   this match, which forces [all_schemas] (and the registry list it is
   checked against) to keep up. *)
let constructor_index : Schema.t -> int = function
  | Schema.Metrics -> 0
  | Schema.Samples -> 1
  | Schema.Build_stats -> 2
  | Schema.Explain -> 3
  | Schema.Bench -> 4
  | Schema.Rpc -> 5
  | Schema.Load -> 6
  | Schema.Telemetry -> 7
  | Schema.Precision -> 8

let test_schema_tags () =
  let indexes = List.sort_uniq compare (List.map constructor_index all_schemas) in
  Alcotest.(check (list int))
    "all_schemas lists every constructor once"
    (List.init (List.length all_schemas) Fun.id)
    indexes;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Schema.tag s ^ " round-trips")
        true
        (Schema.of_tag (Schema.tag s) = Some s))
    all_schemas;
  (* every tag is distinct, and the local list tracks the registry *)
  Alcotest.(check int) "registry covered" (List.length Schema.all)
    (List.length all_schemas);
  let tags = List.sort_uniq compare (List.map Schema.tag all_schemas) in
  Alcotest.(check int) "all tags distinct" (List.length all_schemas)
    (List.length tags)

let check_msg s j =
  match Schema.check s j with
  | Ok () -> Alcotest.fail "bad document accepted"
  | Error m -> m

let test_schema_check () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Schema.tag s ^ " accepts itself")
        true
        (Schema.check s (Json.Obj [ Schema.field s ]) = Ok ()))
    all_schemas;
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let m = check_msg Schema.Metrics (Json.Obj [ ("x", Json.Int 1) ]) in
  Alcotest.(check bool) "missing tag names the expectation" true
    (contains "gofree-metrics-v1" m);
  let m =
    check_msg Schema.Metrics
      (Json.Obj [ ("schema", Json.Str "gofree-samples-v1") ])
  in
  Alcotest.(check bool) "wrong family names both tags" true
    (contains "gofree-samples-v1" m && contains "gofree-metrics-v1" m);
  let m =
    check_msg Schema.Metrics
      (Json.Obj [ ("schema", Json.Str "gofree-metrics-v9") ])
  in
  Alcotest.(check bool) "version mismatch mentions version" true
    (contains "version" m)

let test_schema_guards_parsers () =
  (* of_json refuses a samples document where metrics are expected *)
  let m = Gofree_api.run_string src_free in
  let doc =
    match m with
    | Ok o -> Json.get "metrics" o.Gofree_api.metrics_json
    | Error _ -> Alcotest.fail "run failed"
  in
  (* the real document parses back *)
  ignore (Gofree_runtime.Metrics.of_json doc);
  match
    Gofree_runtime.Metrics.of_json
      (Json.Obj [ ("schema", Json.Str "gofree-samples-v1") ])
  with
  | _ -> Alcotest.fail "wrong-schema document parsed"
  | exception Json.Parse_error _ -> ()

(* Two engines; the retired closure engine's name no longer parses. *)
let test_engine_names () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Gofree_api.engine_name e ^ " round-trips")
        true
        (Gofree_api.engine_of_name (Gofree_api.engine_name e) = Some e))
    [ Gofree_api.Eng_reference; Gofree_api.Eng_bytecode ];
  Alcotest.(check bool) "closure is not an engine" true
    (Gofree_api.engine_of_name "closure" = None)

let suite =
  [
    Alcotest.test_case "insertions match pipeline" `Quick
      test_insertions_match_pipeline;
    Alcotest.test_case "run matches interpreter" `Quick
      test_run_matches_interpreter;
    Alcotest.test_case "presets" `Quick test_presets;
    Alcotest.test_case "preset builders" `Quick test_preset_builders;
    Alcotest.test_case "config json round-trip" `Quick
      test_config_json_roundtrip;
    Alcotest.test_case "error discipline" `Quick test_error_discipline;
    Alcotest.test_case "engine names" `Quick test_engine_names;
    Alcotest.test_case "source key" `Quick test_source_key;
    Alcotest.test_case "schema tags" `Quick test_schema_tags;
    Alcotest.test_case "schema check diagnostics" `Quick test_schema_check;
    Alcotest.test_case "schema guards parsers" `Quick
      test_schema_guards_parsers;
  ]
