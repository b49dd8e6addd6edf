(** Differential suite for the precision frontier: every precision mode
    (baseline, field-sensitive, last-use, precise) must behave like a
    {e mode} of one compiler, not a fork —

    - the three execution engines stay byte-identical to each other
      {e within} each mode (output, step count, metrics JSON);
    - analysis is deterministic across pooled and sequential builds,
      and warm cache replays are byte-identical to cold builds, in
      every mode;
    - precision is monotone: no mode ever inserts {e fewer} tcfree
      calls than the baseline on the six paper workloads or on
      generated programs;
    - the poison harness stays silent in every mode — more freeing,
      never wrong freeing (paper §6.8);
    - the [--explain-delta] report accounts for the improvement:
      freed-site counts are monotone and eliminated blocking reasons
      sum consistently. *)

module W = Gofree_workloads.Workloads
module C = Gofree_core.Config
module Rt = Gofree_runtime
module B = Gofree_build
module Json = Gofree_obs.Json

let modes =
  [
    ("baseline", C.gofree);
    ("field-sensitive", C.field_sensitive);
    ("last-use", C.last_use);
    ("precise", C.precise);
  ]

let refined_modes = List.filter (fun (n, _) -> n <> "baseline") modes

let engines =
  [
    ("reference", Gofree_interp.Interp.Eng_reference);
    ("bytecode", Gofree_interp.Interp.Eng_bytecode);
  ]

let run_mode ~engine ~config src =
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        {
          Rt.Heap.default_config with
          min_heap = 96 * 1024;  (* small heap: force real GC activity *)
          grow_map_free_old = config.C.insert_tcfree;
        };
      engine;
    }
  in
  Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config src

let metrics_fingerprint (m : Rt.Metrics.t) : string =
  m.Rt.Metrics.gc_time_ns <- 0L;
  Json.to_string_pretty (Rt.Metrics.to_json m)

(* ---- engine identity within each mode ---------------------------- *)

let check_engines_identical ~name ~config src =
  let r_ref = run_mode ~engine:Gofree_interp.Interp.Eng_reference ~config src in
  List.iter
    (fun (ename, engine) ->
      if engine <> Gofree_interp.Interp.Eng_reference then begin
        let r = run_mode ~engine ~config src in
        Alcotest.(check string)
          (name ^ ": output (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.output r.Gofree_interp.Runner.output;
        Alcotest.(check int)
          (name ^ ": steps (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.steps r.Gofree_interp.Runner.steps;
        Alcotest.(check string)
          (name ^ ": metrics (" ^ ename ^ ")")
          (metrics_fingerprint r_ref.Gofree_interp.Runner.metrics)
          (metrics_fingerprint r.Gofree_interp.Runner.metrics)
      end)
    engines

let test_engines_per_mode (w : W.t) () =
  let size = max 10 (w.W.w_default_size / 5) in
  let src = W.source_of ~size w in
  List.iter
    (fun (mname, config) ->
      check_engines_identical ~name:(w.W.w_name ^ "/" ^ mname) ~config src)
    modes

(* ---- monotonicity: never fewer free sites than baseline ----------- *)

let insertion_count config src =
  List.length
    (Helpers.inserted_vars (Gofree_core.Pipeline.compile ~config src))

let check_monotone ~name src =
  let base = insertion_count C.gofree src in
  List.iter
    (fun (mname, config) ->
      let n = insertion_count config src in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s inserts >= baseline (%d >= %d)" name mname
           n base)
        true (n >= base))
    refined_modes

let test_monotonicity_workloads () =
  List.iter
    (fun (w : W.t) ->
      let size = max 10 (w.W.w_default_size / 5) in
      check_monotone ~name:w.W.w_name (W.source_of ~size w))
    W.all

let test_monotonicity_generated () =
  for seed = 1 to 15 do
    check_monotone
      ~name:(Printf.sprintf "randprog %d" seed)
      (Gofree_workloads.Randprog.generate (seed * 7919))
  done

(* ---- poison safety in every mode ---------------------------------- *)

let poison_run config src =
  Gofree_interp.Runner.compile_and_run ~gofree_config:config
    ~run_config:Helpers.poison_run_config src

let test_poison_all_modes () =
  let programs =
    List.map
      (fun (w : W.t) ->
        (w.W.w_name, W.source_of ~size:(max 10 (w.W.w_default_size / 5)) w))
      W.all
    @ List.init 10 (fun i ->
          let seed = (i + 1) * 104729 in
          (Printf.sprintf "randprog %d" seed,
           Gofree_workloads.Randprog.generate seed))
  in
  List.iter
    (fun (name, src) ->
      let go = (poison_run C.go src).Gofree_interp.Runner.output in
      List.iter
        (fun (mname, config) ->
          match poison_run config src with
          | r ->
            Alcotest.(check string)
              (Printf.sprintf "%s/%s output unchanged under poison" name
                 mname)
              go r.Gofree_interp.Runner.output
          | exception Gofree_interp.Value.Corruption msg ->
            Alcotest.failf "%s/%s mis-freed: %s" name mname msg)
        modes)
    programs

(* ---- pooled == sequential, warm == cold, per mode ----------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let tree_counter = ref 0

(* A three-package tree whose freeing frontier moves with precision:
   store.Log holds slice-valued fields appended to by helpers, so the
   field-sensitive modes free spines the baseline leaves to the GC. *)
let tree_files =
  [
    ( "util/util.go",
      "package util\n\n\
       func MakeRange(n int) []int {\n\
       \txs := make([]int, n)\n\
       \tfor i := range xs {\n\
       \t\txs[i] = i\n\
       \t}\n\
       \treturn xs\n\
       }\n" );
    ( "store/store.go",
      "package store\n\n\
       import \"util\"\n\n\
       type Log struct {\n\
       \tEntries [][]int\n\
       \tSizes   []int\n\
       }\n\n\
       func Push(lg *Log, n int) {\n\
       \te := util.MakeRange(n)\n\
       \tlg.Entries = append(lg.Entries, e)\n\
       \tlg.Sizes = append(lg.Sizes, n)\n\
       }\n\n\
       func Total(lg *Log) int {\n\
       \tt := 0\n\
       \tfor i := range lg.Sizes {\n\
       \t\tt = t + lg.Sizes[i]\n\
       \t}\n\
       \treturn t\n\
       }\n" );
    ( "main.go",
      "package main\n\n\
       import (\n\
       \t\"util\"\n\
       \t\"store\"\n\
       )\n\n\
       func main() {\n\
       \tn := 6\n\
       \tlg := &store.Log{Entries: make([][]int, 0, n),\n\
       \t\tSizes: make([]int, 0, n)}\n\
       \tfor i := 0; i < n; i++ {\n\
       \t\tstore.Push(lg, 8+i)\n\
       \t}\n\
       \txs := util.MakeRange(32)\n\
       \tprintln(\"total\", store.Total(lg)+xs[31])\n\
       }\n" );
  ]

let make_tree () =
  incr tree_counter;
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-precision-test-%d-%d" (Unix.getpid ())
         !tree_counter)
  in
  mkdir_p root;
  List.iter
    (fun (rel, src) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      let oc = open_out_bin path in
      output_string oc src;
      close_out oc)
    tree_files;
  root

let test_build_determinism_per_mode () =
  List.iter
    (fun (mname, config) ->
      let root = make_tree () in
      let sequential = B.Driver.build ~config ~jobs:1 root in
      let pooled = B.Driver.build ~config ~jobs:4 ~force:true root in
      Alcotest.(check string)
        (mname ^ ": pooled build == sequential build")
        (Helpers.build_fingerprint sequential)
        (Helpers.build_fingerprint pooled);
      (* third build replays everything from the store *)
      let warm = B.Driver.build ~config root in
      Alcotest.(check string)
        (mname ^ ": warm replay == cold build")
        (Helpers.build_fingerprint sequential)
        (Helpers.build_fingerprint warm);
      Alcotest.(check int)
        (mname ^ ": warm build re-solved nothing")
        0 warm.B.Driver.b_stats.B.Driver.bs_unit_misses)
    modes

(* field frees must actually appear in the tree build under the
   field-sensitive modes, and never under baseline *)
let test_tree_field_frees () =
  let field_frees config =
    let root = make_tree () in
    let r = B.Driver.build ~config root in
    List.filter
      (fun i -> i.Gofree_core.Instrument.ins_field <> None)
      r.B.Driver.b_inserted
    |> List.length
  in
  Alcotest.(check int) "baseline has no field frees" 0
    (field_frees C.gofree);
  Alcotest.(check bool) "field-sensitive mode frees through fields" true
    (field_frees C.field_sensitive > 0)

(* ---- the explain-delta accounting --------------------------------- *)

let test_explain_delta () =
  let src = W.source_of (List.find (fun w -> w.W.w_name = "scheck") W.all) in
  let explain config =
    match Gofree_api.compile_string ~config src with
    | Ok c -> Gofree_api.explain c
    | Error e -> Alcotest.failf "compile: %s" (Gofree_api.error_message e)
  in
  let baseline = explain C.gofree in
  List.iter
    (fun (mname, config) ->
      let refined = explain config in
      let freed es =
        List.length
          (List.filter
             (fun e -> e.Gofree_core.Report.ex_freed_by <> None)
             es)
      in
      Alcotest.(check bool)
        (mname ^ ": freed sites monotone")
        true
        (freed refined >= freed baseline);
      (* the delta document balances: eliminated blocked sites ==
         newly freed sites (total sites and heap decisions are fixed
         across modes) *)
      let delta = Gofree_api.explain_delta ~baseline ~refined in
      let eliminated =
        match Json.member "eliminated" delta with
        | Some (Json.Obj fields) ->
          List.fold_left
            (fun acc (_, v) ->
              match v with Json.Int n -> acc + n | _ -> acc)
            0 fields
        | _ -> Alcotest.fail "delta has no eliminated object"
      in
      Alcotest.(check int)
        (mname ^ ": eliminated blocking == newly freed")
        (freed refined - freed baseline)
        eliminated)
    refined_modes

let suite =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case
        ("engines identical per mode: " ^ w.W.w_name)
        `Quick (test_engines_per_mode w))
    W.all
  @ [
      Alcotest.test_case "monotone free sites on workloads" `Quick
        test_monotonicity_workloads;
      Alcotest.test_case "monotone free sites on generated programs"
        `Quick test_monotonicity_generated;
      Alcotest.test_case "poison silent in every mode" `Quick
        test_poison_all_modes;
      Alcotest.test_case "pooled/sequential/warm builds identical per mode"
        `Quick test_build_determinism_per_mode;
      Alcotest.test_case "tree build frees fields" `Quick
        test_tree_field_frees;
      Alcotest.test_case "explain delta accounting" `Quick
        test_explain_delta;
    ]
