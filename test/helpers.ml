(** Shared helpers for the test suites. *)

let compile ?(config = Gofree_core.Config.gofree) src =
  Gofree_core.Pipeline.compile ~config src

let compile_go src = Gofree_core.Pipeline.compile_go src

let parse_check src = Gofree_core.Pipeline.parse_and_check src

(** Run a source string; returns (output, metrics). *)
let run ?(config = Gofree_core.Config.gofree) ?run_config src =
  let r =
    Gofree_interp.Runner.compile_and_run ~gofree_config:config ?run_config
      src
  in
  (r.Gofree_interp.Runner.output, r.Gofree_interp.Runner.metrics)

(** The mock poison tcfree of §6.8: any wrong free raises
    {!Gofree_interp.Value.Corruption}. *)
let poison_run_config =
  {
    Gofree_interp.Interp.default_config with
    heap_config =
      { Gofree_runtime.Heap.default_config with poison_on_free = true };
  }

(** Run under {!poison_run_config}. *)
let run_poison ?(config = Gofree_core.Config.gofree) src =
  run ~config ~run_config:poison_run_config src

let output ?config src = fst (run ?config src)

(** [contains s sub] — plain substring test, keeps error-message checks
    robust to wording around the key phrase. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Resolve golden files next to the test binary so the cases work under
   both [dune runtest] (cwd = test dir) and [dune exec] (cwd = root). *)
let golden name =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) in
  if Sys.file_exists (beside "golden") then
    Filename.concat (beside "golden") name
  else Filename.concat "golden" name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let free_kind_str = function
  | Minigo.Tast.Free_slice -> "slice"
  | Minigo.Tast.Free_map -> "map"
  | Minigo.Tast.Free_obj -> "obj"

(** Everything a multi-package build promises: every insertion with its
    absolute variable id and field, the program's output and the runtime
    metrics JSON.  Two builds with equal fingerprints are observationally
    identical. *)
let build_fingerprint ?run_config (r : Gofree_build.Driver.result) =
  let insertions =
    List.sort compare
      (List.map
         (fun { Gofree_core.Instrument.ins_func; ins_var; ins_field;
                ins_kind } ->
           Printf.sprintf "%s/%d%s/%s/%s" ins_func ins_var.Minigo.Tast.v_id
             (match ins_field with
             | Some (idx, fname) -> Printf.sprintf ".%d:%s" idx fname
             | None -> "")
             ins_var.Minigo.Tast.v_name (free_kind_str ins_kind))
         r.Gofree_build.Driver.b_inserted)
  in
  let run =
    Gofree_interp.Runner.run_program ?config:run_config
      ~decisions:
        {
          Gofree_interp.Decisions.site_heap = r.Gofree_build.Driver.b_site_heap;
          var_boxed = r.Gofree_build.Driver.b_var_boxed;
        }
      r.Gofree_build.Driver.b_program
  in
  String.concat "\n" insertions
  ^ "\n---\n" ^ run.Gofree_interp.Runner.output ^ "\n---\n"
  ^ Gofree_obs.Json.to_string
      (Gofree_runtime.Metrics.to_json run.Gofree_interp.Runner.metrics)

(** Assert that the program produces the same output under stock Go,
    GoFree, and GoFree-with-poison — the robustness check. *)
let check_all_settings_agree ~name src =
  let go = output ~config:Gofree_core.Config.go src in
  let gf = output ~config:Gofree_core.Config.gofree src in
  let gp = fst (run_poison src) in
  Alcotest.(check string) (name ^ ": Go vs GoFree") go gf;
  Alcotest.(check string) (name ^ ": Go vs GoFree+poison") go gp

(** Names of variables with tcfree inserted, per function (field frees
    show as ["var.field"]). *)
let inserted_vars compiled =
  List.map
    (fun { Gofree_core.Instrument.ins_func; ins_var; ins_field; ins_kind }
         ->
      ( ins_func,
        (ins_var.Minigo.Tast.v_name
        ^
        match ins_field with
        | Some (_, fname) -> "." ^ fname
        | None -> ""),
        match ins_kind with
        | Minigo.Tast.Free_slice -> "slice"
        | Minigo.Tast.Free_map -> "map"
        | Minigo.Tast.Free_obj -> "obj" ))
    compiled.Gofree_core.Pipeline.c_inserted

let var_props compiled ~func ~var =
  match
    Gofree_core.Report.var_properties
      compiled.Gofree_core.Pipeline.c_analysis ~func ~var
  with
  | Some l -> l
  | None -> Alcotest.failf "no location for %s.%s" func var

let points_to compiled ~func ~var =
  Gofree_core.Report.points_to_of_var
    compiled.Gofree_core.Pipeline.c_analysis ~func ~var
