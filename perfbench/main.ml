(** perfbench: the repository's benchmark.

    [main.exe --workload W --seed N --seconds S --trace 0|1] runs one
    workload as a closed loop for S seconds from the checkout in the
    current directory and prints, as its last line, one JSON object:
    [correct], [attempted], [failed] and [metrics].  Untraced runs
    report the end-to-end metrics; traced runs report the per-layer
    metrics and write their spans under [perfbench/_out/].  See
    [perfbench/README.md]. *)

open Perfbench
module Json = Gofree_obs.Json
module Metrics = Gofree_runtime.Metrics

let workloads = [ "exec"; "build"; "fanout-2d" ]

let make_workload ctx = function
  | "exec" -> Bench.exec ctx
  | "build" -> Bench.build ctx
  | "fanout-2d" -> Bench.fanout ctx
  | w -> invalid_arg w

(** Per-layer metrics and their units, in report order.  Times and
    counts are means per measured op, except where a layer only works
    during set-up (compilation on exec and fanout-2d), where they are
    per set-up. *)
let per_layer =
  [
    ("minigo.lex_ms", "ms"); ("minigo.parse_ms", "ms");
    ("minigo.typecheck_ms", "ms"); ("minigo.tokens", "count");
    ("escape.analyze_ms", "ms"); ("escape.walk_steps", "count");
    ("escape.units", "count");
    ("gofree.instrument_ms", "ms"); ("gofree.frees_inserted", "count");
    ("interp.lower_ms", "ms"); ("interp.run_ms", "ms");
    ("interp.steps", "count"); ("interp.self_ms", "ms");
    ("interp.ns_per_step", "ns");
    ("runtime.gc_ms", "ms"); ("runtime.gc_cycles", "count");
    ("runtime.gc_marked", "count"); ("runtime.gc_swept", "count");
    ("runtime.heap_allocs", "count"); ("runtime.alloced_bytes", "bytes");
    ("runtime.freed_bytes", "bytes"); ("runtime.free_ratio", "ratio");
    ("runtime.tcfree_calls", "count");
    ("runtime.tcfree_success_ratio", "ratio");
  ]
  @ List.map (fun g -> ("runtime.giveup." ^ g, "count"))
      (Array.to_list Metrics.giveup_names)
  @ [
      ("runtime.freed_bytes.slice", "bytes"); ("runtime.freed_bytes.map", "bytes");
      ("runtime.freed_bytes.map_grow", "bytes");
      ("runtime.maxheap_bytes", "bytes");
      ("sched.steals", "count"); ("sched.spawns", "count");
      ("sched.yields", "count"); ("sched.domains", "count");
      ("sched.jobs", "count");
      ("build.total_ms", "ms"); ("build.analysis_ms", "ms");
      ("build.self_ms", "ms"); ("build.pkg_hits", "count");
      ("build.pkg_misses", "count"); ("build.unit_hits", "count");
      ("build.unit_misses", "count"); ("build.unit_hit_ratio", "ratio");
      ("build.cold_ms", "ms"); ("build.edit_ms", "ms");
      ("host.minor_gcs", "count"); ("host.major_gcs", "count");
      ("host.promoted_words", "words"); ("host.heap_mb", "MB");
      ("host.cal_ms", "ms");
    ]
  @ List.concat_map
      (fun (w : Gofree_workloads.Workloads.t) ->
        let p = "workloads." ^ w.Gofree_workloads.Workloads.w_name in
        [ (p ^ ".exec_ms", "ms"); (p ^ ".gc_ms", "ms") ])
      Gofree_workloads.Workloads.all
  @ [ ("obs.trace_overhead_pct", "%"); ("obs.span_coverage", "ratio") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (exec|build|fanout-2d) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when List.mem !workload workloads && seconds > 0. ->
    (!workload, seed, seconds, trace)
  | _ -> usage ()

let host_facts ~workload ~seed ~seconds ~trace =
  let cores = Domain.recommended_domain_count () in
  let sizes =
    match workload with
    | "exec" -> Printf.sprintf "six Table 6 proxies at %d%% size" Gen.exec_scale
    | "fanout-2d" -> Printf.sprintf "fanout size %d" Gen.fanout_size
    | _ ->
      Printf.sprintf "ssa package %d funcs x %d stmts + examples/multipkg"
        Gen.ssa_funcs Gen.ssa_stmts
  in
  let domains = if workload = "fanout-2d" then Bench.fanout_domains else 0 in
  let jobs = if workload = "build" then Bench.build_jobs else 0 in
  Printf.printf
    "# host: cores=%d ocaml=%s | workload=%s seed=%d seconds=%g trace=%b | inputs: %s | domains=%d jobs=%d\n"
    cores Sys.ocaml_version workload seed seconds trace sizes domains jobs;
  if domains > cores || jobs > cores then
    Printf.printf "# warning: %d domains / %d jobs on %d cores: oversubscribed\n"
      domains jobs cores

let metric v unit = Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]

let report ~(ctx : Bench.ctx) metrics =
  let failed = ctx.Bench.failed in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int ctx.Bench.attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map (fun (k, v, u) -> (k, metric v u)) metrics));
          ]))

(** Quantiles of the scaled op times; the measured ones are printed
    beside them. *)
let summary name samples =
  let p50, p90, above = Bench.op_quantiles (Array.map (fun (k, _, s) -> (k, s)) samples) in
  let r50, r90, _ = Bench.op_quantiles (Array.map (fun (k, m, _) -> (k, m)) samples) in
  Printf.printf
    "# %s: n=%d p50=%.3fms p90=%.3fms (%d samples above p90); measured p50=%.3fms p90=%.3fms\n"
    name (Array.length samples) p50 p90 above r50 r90;
  (p50, p90)

let end_to_end (w : Bench.t) ~seconds =
  let samples = w.Bench.run ~seconds in
  w.Bench.finish ();
  let p50, p90 = summary "op_ms" samples in
  [
    ("setup_s", w.Bench.setup_s, "s");
    ("op_ms.p50", p50, "ms");
    ("op_ms.p90", p90, "ms");
  ]

(** The traced run: half the time untraced, half with spans on; the
    two medians give the tracing overhead. *)
let layers ctx (w : Bench.t) ~seconds ~out =
  let spans = ctx.Bench.spans in
  spans.Spans.enabled <- false;
  let plain = w.Bench.run ~seconds:(seconds /. 2.) in
  spans.Spans.enabled <- true;
  let traced = w.Bench.run ~seconds:(seconds /. 2.) in
  w.Bench.finish ();
  spans.Spans.enabled <- false;
  let p_plain, _ = summary "op_ms (untraced half)" plain in
  let p_traced, _ = summary "op_ms (traced half)" traced in
  let ops = float_of_int (max 1 ctx.Bench.traced_ops) in
  let get k =
    Option.value ~default:0. (Hashtbl.find_opt ctx.Bench.setup_layer k)
    +. (Option.value ~default:0. (Hashtbl.find_opt ctx.Bench.op_layer k) /. ops)
  in
  let ratio a b = if get b = 0. then 0. else get a /. get b in
  let derived = function
    | "runtime.free_ratio" -> ratio "runtime.freed_bytes" "runtime.alloced_bytes"
    | "runtime.tcfree_success_ratio" -> ratio "runtime.tcfree_success" "runtime.tcfree_calls"
    | "interp.ns_per_step" -> 1e6 *. ratio "interp.run_ms" "interp.steps"
    | "build.unit_hit_ratio" ->
      let h = get "build.unit_hits" in
      let t = h +. get "build.unit_misses" in
      if t = 0. then 0. else h /. t
    | "build.cold_ms" -> ratio "build.cold_ms" "build.cold_ops"
    | "build.edit_ms" -> ratio "build.edit_ms" "build.edit_ops"
    | "obs.trace_overhead_pct" -> 100. *. ((p_traced /. p_plain) -. 1.)
    | "obs.span_coverage" -> Spans.coverage spans
    | "host.heap_mb" -> Bench.heap_mb ()
    | "host.cal_ms" -> Bench.median (Array.of_list ctx.Bench.cal_ms)
    | k -> get k
  in
  Bench.mkdir_p (Filename.dirname out);
  let oc = open_out_bin out in
  output_string oc (Json.to_string (Spans.to_json spans));
  close_out oc;
  Printf.printf "# spans: %s (%d)\n" out (List.length (Spans.spans spans));
  List.map (fun (k, u) -> (k, derived k, u)) per_layer

let () =
  let workload, seed, seconds, trace = parse_args () in
  let root = Sys.getcwd () in
  if not (Sys.file_exists (Filename.concat root (Filename.concat "examples" "multipkg")))
  then begin
    prerr_endline "perfbench: run from the root of a checkout of the repository";
    exit 1
  end;
  host_facts ~workload ~seed ~seconds ~trace;
  (* the scheduler's counters live in the runtime registry; it is on in
     both kinds of run so they execute the same program code *)
  Gofree_obs.Registry.acquire_runtime ();
  let ctx =
    {
      Bench.seed; root; spans = Spans.create ();
      domains = (if workload = "fanout-2d" then Bench.fanout_domains else 1);
      setup_layer = Hashtbl.create 64; op_layer = Hashtbl.create 64;
      traced_ops = 0; attempted = 0; failed = 0; cal_ms = [];
    }
  in
  (* set-up is traced in a traced run, so compile layers get spans *)
  ctx.Bench.spans.Spans.enabled <- trace;
  let w =
    try make_workload ctx workload
    with e ->
      prerr_endline ("perfbench: set-up failed: " ^ Printexc.to_string e);
      exit 1
  in
  let metrics =
    if trace then
      layers ctx w ~seconds
        ~out:
          (Filename.concat root
             (Printf.sprintf "perfbench/_out/spans-%s-%d.json" workload seed))
    else end_to_end w ~seconds
  in
  Printf.printf "# attempted=%d failed=%d setup_s=%.4f calibration: median %.2fms over %d\n"
    ctx.Bench.attempted ctx.Bench.failed w.Bench.setup_s
    (Bench.median (Array.of_list ctx.Bench.cal_ms)) (List.length ctx.Bench.cal_ms);
  report ~ctx metrics
