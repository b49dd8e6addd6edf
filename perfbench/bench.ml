(** The benchmark's workloads, op loop, output checks and metrics.

    Every workload is a closed loop driven from one thread: it issues an
    op, waits for it, checks its result, then issues the next.  Ops call
    only public entry points of the layers and are timed from outside.
    An op that raises, returns a wrong result or breaks a runtime
    invariant counts as failed. *)

open Minigo
module Core = Gofree_core
module Interp = Gofree_interp.Interp
module Runner = Gofree_interp.Runner
module Rt = Gofree_runtime
module B = Gofree_build
module Reg = Gofree_obs.Registry

(* ---------------------------------------------------------------- *)
(* Context and accounting                                            *)
(* ---------------------------------------------------------------- *)

type ctx = {
  seed : int;
  root : string;  (** the checkout the benchmark runs in *)
  spans : Spans.t;
  setup_layer : (string, float) Hashtbl.t;
      (** per-layer values of one set-up (averaged over repetitions) *)
  op_layer : (string, float) Hashtbl.t;  (** per-layer sums over traced ops *)
  mutable traced_ops : int;
  mutable attempted : int;
  mutable failed : int;
  domains : int;  (** domains the workload's ops run on *)
  mutable cal_ms : float list;  (** calibration kernel times, newest first *)
}

let tracing ctx = ctx.spans.Spans.enabled

let span ctx name f = Spans.with_span ctx.spans name f

(** Add to a per-layer sum: the op's when an op is running, else the
    set-up's.  Only traced runs record. *)
let add ctx name v =
  if tracing ctx then
    let tbl = if ctx.spans.Spans.op >= 0 then ctx.op_layer else ctx.setup_layer in
    Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.)

let addi ctx name v = add ctx name (float_of_int v)

let now () = Unix.gettimeofday ()

(* ---------------------------------------------------------------- *)
(* Host speed calibration                                            *)
(* ---------------------------------------------------------------- *)

(* On a shared host, neighbours' load changes the speed of the memory
   system, and with it the speed of the interpreter and the compiler,
   by up to 1.6x within a minute.  A pure arithmetic loop does not see
   these swings.  This kernel does: it allocates, promotes and hashes
   the way the program does.  Over four minutes on a 2-core VM, its
   time correlated at 0.86 with the time of an exec pass, and the
   quartile spread of pass time / kernel time was 0.08 against 0.25
   for pass time alone.  It is the benchmark's own code, so a change to
   the program cannot move it. *)
let calibration_kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 60_000 do
    Hashtbl.replace h (i * 7919 mod 50_000) (Array.make 4 i)
  done;
  let l = ref [] in
  for i = 1 to 100_000 do
    l := (i, string_of_int (i land 255)) :: !l
  done;
  Hashtbl.length h + List.length !l

(** Kernel time, in ms, of the reference host the reported times are
    scaled to: a time [t] measured while the kernel took [c] ms is
    reported as [t *. cal_ref_ms /. c]. *)
let cal_ref_ms = 30.

(** Time the kernel once, on [domains] domains: the loop passes as many
    as the workload's ops use (set-up runs on one).  With two domains, a host that deschedules one of them stalls
    the other at every stop-the-world minor collection, in the kernel as
    in the program.  Records and returns the time in ms. *)
let calibrate ?(domains = 1) ctx =
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn calibration_kernel) in
  ignore (Sys.opaque_identity (calibration_kernel ()));
  List.iter (fun d -> ignore (Domain.join d)) others;
  let ms = (now () -. t0) *. 1000. in
  ctx.cal_ms <- ms :: ctx.cal_ms;
  ms

(** Seconds between calibrations during a measured loop. *)
let cal_every = 0.25

let fail ctx fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: failed op: " ^ s);
      ctx.failed <- ctx.failed + 1)
    fmt

(** Linear-interpolation quantile (numpy's default), [q] in [0, 1]. *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = quantile samples 0.5

(** p50 and p90 of op times grouped by kind.  p50 is the geometric mean
    of the kinds' medians; p90 scales it by the 90th percentile, pooled
    over all ops, of each op's time over its kind's median.  So a mix of
    programs of different lengths gives quantiles that do not hinge on
    which program the pooled median happens to fall in.  With one kind
    these are the plain median and 90th percentile.  Also returns how
    many ops lie beyond the 90th percentile. *)
let op_quantiles (samples : (int * float) array) =
  let kinds = List.sort_uniq compare (Array.to_list (Array.map fst samples)) in
  let medians =
    List.map
      (fun k ->
        let ts = List.filter_map (fun (k', t) -> if k = k' then Some t else None)
            (Array.to_list samples) in
        (k, median (Array.of_list ts)))
      kinds
  in
  let gm =
    exp (List.fold_left (fun a (_, m) -> a +. log m) 0. medians
         /. float_of_int (List.length medians))
  in
  let ratios = Array.map (fun (k, t) -> t /. List.assoc k medians) samples in
  let r90 = quantile ratios 0.9 in
  let above = Array.fold_left (fun n r -> if r > r90 then n + 1 else n) 0 ratios in
  (gm, gm *. r90, above)

(* ---------------------------------------------------------------- *)
(* Host-side counters                                                *)
(* ---------------------------------------------------------------- *)

let host_after ctx (q0 : Gc.stat) =
  let q1 = Gc.quick_stat () in
  addi ctx "host.minor_gcs" (q1.Gc.minor_collections - q0.Gc.minor_collections);
  addi ctx "host.major_gcs" (q1.Gc.major_collections - q0.Gc.major_collections);
  add ctx "host.promoted_words" (q1.Gc.promoted_words -. q0.Gc.promoted_words)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let sched_counter name =
  Option.value ~default:0
    (Reg.Snapshot.find_counter name (Reg.snapshot Reg.runtime))

let sched_names =
  [
    ("sched.steals", "gofree_sched_steals_total");
    ("sched.spawns", "gofree_sched_spawns_total");
    ("sched.yields", "gofree_sched_yields_total");
  ]

(* ---------------------------------------------------------------- *)
(* Compiling and running programs                                    *)
(* ---------------------------------------------------------------- *)

(** The first-GC threshold of the repository's evaluation harness: at
    the scaled-down sizes it keeps the paper's GC pressure. *)
let min_heap = 96 * 1024

let exec_config (p : Gen.program) =
  {
    Interp.default_config with
    heap_config = { Rt.Heap.default_config with min_heap };
    seed = p.Gen.run_seed;
  }

let fanout_domains = 2

let fanout_config (p : Gen.program) =
  { Interp.default_config with seed = p.Gen.run_seed; domains = fanout_domains }

(** The independent oracle: the reference tree-walker running the
    stock-Go compilation (no tcfree), sequential scheduler. *)
let oracle_output ~(cfg : Interp.run_config) (p : Gen.program) =
  let config =
    {
      cfg with
      Interp.engine = Interp.Eng_reference;
      domains = 0;
      heap_config = { cfg.Interp.heap_config with grow_map_free_old = false };
    }
  in
  let r = Runner.run ~config (Core.Pipeline.compile_go p.Gen.source) in
  if r.Runner.panicked then failwith (p.Gen.name ^ ": oracle run panicked");
  r.Runner.output

(** GoFree-compile one program.  Untraced, through the pipeline's
    one-call entry point; traced, through each layer's own entry point
    so every phase gets a span (the extra tokenize pass mirrors what the
    pipeline does when its own tracer is on). *)
let compile ctx (p : Gen.program) =
  if not (tracing ctx) then Core.Pipeline.compile p.Gen.source
  else begin
    let config = Core.Config.gofree in
    let toks, lex = span ctx "minigo.lex" (fun () -> Lexer.tokenize p.Gen.source) in
    let ast, parse = span ctx "minigo.parse" (fun () -> Parser.parse p.Gen.source) in
    let prog, tc = span ctx "minigo.typecheck" (fun () -> Typecheck.check ast) in
    let an, esc =
      span ctx "escape.analyze" (fun () -> Core.Pipeline.analyze_program ~config prog)
    in
    let ins, instr =
      span ctx "gofree.instrument" (fun () -> Core.Instrument.instrument an config prog)
    in
    add ctx "minigo.lex_ms" lex;
    add ctx "minigo.parse_ms" parse;
    add ctx "minigo.typecheck_ms" tc;
    addi ctx "minigo.tokens" (List.length toks);
    add ctx "escape.analyze_ms" esc;
    addi ctx "escape.walk_steps" (Gofree_escape.Analysis.total_walk_steps an);
    addi ctx "escape.units" (List.length an.Gofree_escape.Analysis.units);
    add ctx "gofree.instrument_ms" instr;
    addi ctx "gofree.frees_inserted" (List.length ins);
    { Core.Pipeline.c_program = prog; c_analysis = an; c_inserted = ins;
      c_config = config }
  end

(** Time of lowering a compiled program to bytecode — the step
    {!Runner.run} repeats at the start of every run. *)
let lower_ms ctx (c : Core.Pipeline.compiled) =
  let prog = c.Core.Pipeline.c_program in
  snd
    (span ctx "interp.lower" (fun () ->
         let d = Gofree_interp.Decisions.of_analysis c.Core.Pipeline.c_analysis prog in
         Gofree_interp.Emit.lower prog d (Gofree_interp.Layout.of_program prog)))

(** Set-up timed [reps] times; [setup_s] is the median, scaled by the
    calibrations taken just before and after.  Each timing covers
    [batch] back-to-back set-ups and is divided by [batch], for set-ups
    too short to time one by one.  Layer figures recorded during set-up
    are averaged over all of them. *)
let timed_setup ?(batch = 1) ctx ~reps f =
  let times = Array.make reps 0. and last = ref None in
  let before = Hashtbl.copy ctx.setup_layer in
  (* one kernel timing varies by about 8%: take the median of three on
     each side *)
  let cal3 () = median (Array.init 3 (fun _ -> calibrate ctx)) in
  let c0 = cal3 () in
  for i = 0 to reps - 1 do
    Gc.major ();
    let t0 = now () in
    for _ = 1 to batch do
      last := Some (f ())
    done;
    times.(i) <- (now () -. t0) /. float_of_int batch
  done;
  let c1 = cal3 () in
  let n = float_of_int (reps * batch) in
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.setup_layer []
  |> List.iter (fun (k, v) ->
         let v0 = Option.value (Hashtbl.find_opt before k) ~default:0. in
         Hashtbl.replace ctx.setup_layer k (v0 +. ((v -. v0) /. n)));
  (Option.get !last, median times *. cal_ref_ms /. ((c0 +. c1) /. 2.))

(* Runtime-layer accounting and invariants of one finished run. *)
let account_run ctx (r : Runner.result) ~run_ms =
  let m = r.Runner.metrics in
  let gc_ms = Int64.to_float m.Rt.Metrics.gc_time_ns /. 1e6 in
  add ctx "interp.run_ms" run_ms;
  addi ctx "interp.steps" r.Runner.steps;
  add ctx "interp.self_ms" (run_ms -. gc_ms);
  add ctx "runtime.gc_ms" gc_ms;
  addi ctx "runtime.gc_cycles" m.Rt.Metrics.gc_cycles;
  addi ctx "runtime.gc_marked" m.Rt.Metrics.gc_marked_objects;
  addi ctx "runtime.gc_swept" m.Rt.Metrics.gc_swept_objects;
  addi ctx "runtime.heap_allocs" (Array.fold_left ( + ) 0 m.Rt.Metrics.heap_allocs);
  addi ctx "runtime.alloced_bytes" m.Rt.Metrics.alloced_bytes;
  addi ctx "runtime.freed_bytes" m.Rt.Metrics.freed_bytes;
  addi ctx "runtime.tcfree_calls" m.Rt.Metrics.tcfree_calls;
  addi ctx "runtime.tcfree_success" m.Rt.Metrics.tcfree_success;
  Array.iteri
    (fun i name -> addi ctx ("runtime.giveup." ^ name) m.Rt.Metrics.giveups.(i))
    Rt.Metrics.giveup_names;
  List.iter
    (fun (name, src) ->
      addi ctx ("runtime.freed_bytes." ^ name)
        m.Rt.Metrics.freed_by_source.(Rt.Metrics.source_index src))
    [ ("slice", Rt.Metrics.Src_slice); ("map", Rt.Metrics.Src_map);
      ("map_grow", Rt.Metrics.Src_map_grow) ];
  addi ctx "runtime.maxheap_bytes" m.Rt.Metrics.max_heap_pages;
  gc_ms

(** The paper's safety invariants on a finished run: heap allocations =
    tcfreed + GC-freed (the final sweep leaves nothing live), tcfree
    attempts = successes + give-ups, no heap-to-stack pointer, no read
    of a poisoned (freed) object. *)
let invariant_error (r : Runner.result) =
  let m = r.Runner.metrics in
  match Rt.Metrics.check_conservation ~live_objects:0 m with
  | Error e -> Some ("conservation: " ^ e)
  | Ok () when m.Rt.Metrics.heap_to_stack_pointers <> 0 ->
    Some (Printf.sprintf "%d heap-to-stack pointers" m.Rt.Metrics.heap_to_stack_pointers)
  | Ok () when m.Rt.Metrics.poison_reads <> 0 ->
    Some (Printf.sprintf "%d poison reads" m.Rt.Metrics.poison_reads)
  | Ok () when r.Runner.panicked -> Some "program panicked"
  | Ok () -> None

let sorted_lines s = List.sort compare (String.split_on_char '\n' s)

(* ---------------------------------------------------------------- *)
(* The op loop                                                       *)
(* ---------------------------------------------------------------- *)

(** Run [op i] for i = 0, 1, ... until [seconds] have passed, checking
    the clock only before ops [i > 0] where [boundary i] holds (so exec
    runs whole passes, and every run at least one).
    [op] returns the op's kind (which program it ran; 0 where all ops
    are alike) and measured time in ms, or [None] when it failed.  Each
    op is an ["op"] span whose children are its layer calls.

    The kernel is timed every {!cal_every} seconds between ops and once
    more at the end.  Each op is scaled by the mean of the calibrations
    just before and just after it, so a change of host speed in between
    is shared out.  Returns (kind, measured ms, scaled ms) per op. *)
let loop ctx ~seconds ~boundary op =
  let samples = ref [] and block = ref [] in
  let calibrate () = calibrate ~domains:ctx.domains ctx in
  let cal = ref (calibrate ()) in
  let close_block () =
    let c = calibrate () in
    let f = cal_ref_ms /. ((!cal +. c) /. 2.) in
    List.iter (fun (k, ms) -> samples := (k, ms, ms *. f) :: !samples) !block;
    block := [];
    cal := c
  in
  let t_end = now () +. seconds in
  let next_cal = ref (now () +. cal_every) in
  let i = ref 0 in
  while !i = 0 || not (boundary !i && now () >= t_end) do
    if now () >= !next_cal then begin
      close_block ();
      next_cal := now () +. cal_every
    end;
    let id = !i in
    incr i;
    ctx.attempted <- ctx.attempted + 1;
    ctx.spans.Spans.op <- id;
    let q0 = Gc.quick_stat () in
    (match span ctx "op" (fun () -> op id) with
    | Some sample, _ ->
      block := sample :: !block;
      if tracing ctx then begin
        ctx.traced_ops <- ctx.traced_ops + 1;
        host_after ctx q0
      end
    | None, _ -> ()
    | exception e -> fail ctx "op %d raised %s" id (Printexc.to_string e));
    ctx.spans.Spans.op <- -1
  done;
  close_block ();
  Array.of_list (List.rev !samples)

(** A workload after its set-up: [run ~seconds] measures ops for that
    long and returns their times in ms; [finish] runs once after the
    last measurement. *)
type t = {
  setup_s : float;  (** median set-up time *)
  run : seconds:float -> (int * float * float) array;
      (** (kind, measured ms, scaled ms) per op; see {!loop} *)
  finish : unit -> unit;
}

(* ---------------------------------------------------------------- *)
(* exec: the six Table 6 proxies, round-robin                        *)
(* ---------------------------------------------------------------- *)

type prepared = {
  prog : Gen.program;
  compiled : Core.Pipeline.compiled;
  cfg : Interp.run_config;
  expected : string;
}

let run_checked ctx ~compare_out (p : prepared) =
  let r, ms =
    span ctx "interp.run" (fun () -> Runner.run ~config:p.cfg p.compiled)
  in
  match invariant_error r with
  | Some e ->
    fail ctx "%s: %s" p.prog.Gen.name e;
    None
  | None when not (compare_out r.Runner.output p.expected) ->
    fail ctx "%s: output differs from the reference interpreter" p.prog.Gen.name;
    None
  | None -> Some (r, ms)

(** §6.8's robustness check: every program once more with tcfree
    poisoning the freed object; any later read of it is a wrong free. *)
let poison_pass ctx progs =
  Array.iter
    (fun p ->
      ctx.attempted <- ctx.attempted + 1;
      let heap_config = { p.cfg.Interp.heap_config with poison_on_free = true } in
      let p = { p with cfg = { p.cfg with Interp.heap_config } } in
      match run_checked ctx ~compare_out:String.equal p with
      | Some _ | None -> ()
      | exception e ->
        fail ctx "%s (poison): raised %s" p.prog.Gen.name (Printexc.to_string e))
    progs

let exec ctx =
  let programs = Gen.exec_programs ~seed:ctx.seed in
  let n = List.length programs in
  let compiled, setup_s =
    timed_setup ctx ~reps:21 (fun () -> List.map (compile ctx) programs)
  in
  (* the oracle runs per seed, outside setup_s *)
  let progs =
    Array.of_list
      (List.map2
         (fun p c ->
           let cfg = exec_config p in
           { prog = p; compiled = c; cfg; expected = oracle_output ~cfg p })
         programs compiled)
  in
  let lower = Array.map (fun p -> if tracing ctx then lower_ms ctx p.compiled else 0.) progs in
  let order = ref (Gen.exec_order ~seed:ctx.seed ~n ~passes:64) in
  (* per program: traced runs, their summed wall and GC time *)
  let per_prog = Array.make n (0, 0., 0.) in
  let op i =
    if i >= Array.length !order then
      order := Gen.exec_order ~seed:ctx.seed ~n ~passes:(2 * Array.length !order / n);
    let k = !order.(i) in
    match run_checked ctx ~compare_out:String.equal progs.(k) with
    | None -> None
    | Some (r, ms) ->
      if tracing ctx then begin
        let gc_ms = account_run ctx r ~run_ms:ms in
        (* Runner.run lowers its program again on every run *)
        add ctx "interp.lower_ms" lower.(k);
        let c, e, g = per_prog.(k) in
        per_prog.(k) <- (c + 1, e +. ms, g +. gc_ms)
      end;
      Some (k, ms)
  in
  let finish () =
    if tracing ctx then begin
      Array.iteri
        (fun k (c, e, g) ->
          let name = "workloads." ^ progs.(k).prog.Gen.name in
          let mean x = if c = 0 then 0. else x /. float_of_int c in
          Hashtbl.replace ctx.setup_layer (name ^ ".exec_ms") (mean e);
          Hashtbl.replace ctx.setup_layer (name ^ ".gc_ms") (mean g))
        per_prog;
      poison_pass ctx progs
    end
  in
  { setup_s; run = (fun ~seconds -> loop ctx ~seconds ~boundary:(fun i -> i mod n = 0) op);
    finish }

(* ---------------------------------------------------------------- *)
(* fanout-2d: goroutine fan-out on two domains                       *)
(* ---------------------------------------------------------------- *)

let fanout ctx =
  let p = Gen.fanout_program ~seed:ctx.seed in
  let c, setup_s = timed_setup ~batch:25 ctx ~reps:21 (fun () -> compile ctx p) in
  let cfg = fanout_config p in
  let prep = { prog = p; compiled = c; cfg; expected = oracle_output ~cfg p } in
  let lower = if tracing ctx then lower_ms ctx c else 0. in
  (* goroutines print in scheduling order: compare as line multisets *)
  let compare_out a b = sorted_lines a = sorted_lines b in
  let op _ =
    let before =
      if tracing ctx then List.map (fun (_, c) -> sched_counter c) sched_names else []
    in
    match run_checked ctx ~compare_out prep with
    | None -> None
    | Some (r, ms) ->
      if tracing ctx then begin
        ignore (account_run ctx r ~run_ms:ms);
        add ctx "interp.lower_ms" lower;
        List.iter2
          (fun (metric, c) b -> addi ctx metric (sched_counter c - b))
          sched_names before;
        addi ctx "sched.domains" fanout_domains
      end;
      Some (0, ms)
  in
  { setup_s; run = (fun ~seconds -> loop ctx ~seconds ~boundary:(fun _ -> true) op);
    finish = ignore }

(* ---------------------------------------------------------------- *)
(* build: the multi-package build driver                            *)
(* ---------------------------------------------------------------- *)

let build_jobs = 1

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s =
  mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(** Scratch space of this process inside the checkout. *)
let work_dir ctx =
  Filename.concat ctx.root
    (Filename.concat "perfbench" (Filename.concat "_work" (string_of_int (Unix.getpid ()))))

(** What a build must reproduce: the linked program, printed, and its
    inserted frees. *)
let build_digest (r : B.Driver.result) =
  let ins =
    List.map
      (fun (i : Core.Instrument.inserted) ->
        Printf.sprintf "%s %s#%d %s %s" i.Core.Instrument.ins_func
          i.Core.Instrument.ins_var.Tast.v_name i.Core.Instrument.ins_var.Tast.v_id
          (match i.Core.Instrument.ins_field with
          | Some (k, f) -> Printf.sprintf "%d:%s" k f
          | None -> "-")
          (Pretty.free_kind_str i.Core.Instrument.ins_kind))
      r.B.Driver.b_inserted
  in
  (Pretty.program_to_string r.B.Driver.b_program, ins)

let account_build ctx (r : B.Driver.result) ~ms =
  let s = r.B.Driver.b_stats in
  let analysis =
    List.fold_left (fun a p -> a +. p.B.Driver.pr_ms) 0. s.B.Driver.bs_pkgs
  in
  add ctx "build.total_ms" ms;
  add ctx "build.analysis_ms" analysis;
  add ctx "build.self_ms" (ms -. analysis);
  add ctx "escape.analyze_ms" analysis;
  addi ctx "escape.units"
    (List.fold_left (fun a p -> a + p.B.Driver.pr_units) 0 s.B.Driver.bs_pkgs);
  addi ctx "build.pkg_hits" s.B.Driver.bs_hits;
  addi ctx "build.pkg_misses" s.B.Driver.bs_misses;
  addi ctx "build.unit_hits" s.B.Driver.bs_unit_hits;
  addi ctx "build.unit_misses" s.B.Driver.bs_unit_misses;
  addi ctx "gofree.frees_inserted" (List.length r.B.Driver.b_inserted);
  addi ctx "sched.jobs" s.B.Driver.bs_jobs

(** The layers inside a build, measured beside it on the ssa package,
    most of the tree: every build re-reads (lexes, parses, typechecks)
    every package; a cold build also analyzes and instruments it all,
    an edit build only one unit, so [~cold] adds those two phases. *)
let reread_ssa ctx ~cold src =
  ignore
    (span ctx "reread" (fun () ->
         let toks, lex = span ctx "minigo.lex" (fun () -> Lexer.tokenize src) in
         let file, parse = span ctx "minigo.parse" (fun () -> Parser.parse_file src) in
         let (prog, _, _), tc =
           span ctx "minigo.typecheck" (fun () -> Typecheck.check_package file)
         in
         add ctx "minigo.lex_ms" lex;
         add ctx "minigo.parse_ms" parse;
         add ctx "minigo.typecheck_ms" tc;
         addi ctx "minigo.tokens" (List.length toks);
         if cold then begin
           let config = Core.Config.gofree in
           let an, _ =
             span ctx "escape.analyze" (fun () -> Core.Pipeline.analyze_program ~config prog)
           in
           let _, instr =
             span ctx "gofree.instrument" (fun () -> Core.Instrument.instrument an config prog)
           in
           addi ctx "escape.walk_steps" (Gofree_escape.Analysis.total_walk_steps an);
           add ctx "gofree.instrument_ms" instr
         end))

(** Set-up of the build workload: generate the tree and build it with
    an empty cache.  Returns the tree's directory, its ssa source and
    [setup_s]. *)
let build_setup ctx =
  let files =
    Gen.build_tree
      ~multipkg_dir:(Filename.concat ctx.root (Filename.concat "examples" "multipkg"))
      ~seed:ctx.seed
  in
  let dir = Filename.concat (work_dir ctx) "tree" in
  let _, setup_s =
    timed_setup ctx ~reps:9 (fun () ->
        rm_rf dir;
        List.iter (fun (rel, src) -> write_file (Filename.concat dir rel) src) files;
        ignore (B.Driver.build ~jobs:build_jobs dir))
  in
  (dir, List.assoc Gen.ssa_file files, setup_s)

(** Ops alternate: an even op applies the next seeded one-function
    edit and rebuilds warm (kind 1), which must re-solve exactly one
    analysis unit; the odd op after it force-builds the same tree state
    cold (kind 0), with a cache of its own so the warm cache stays as
    the edit left it, and must produce the same linked program and
    inserted frees as the edit build. *)
let build ctx =
  let dir, ssa, setup_s = build_setup ctx in
  let ssa = ref ssa in
  let edits = ref (Array.of_list (Gen.edit_sequence ~seed:ctx.seed ~n:256)) in
  let cold_cache = Filename.concat (work_dir ctx) "cold-cache" in
  let last_edit = ref None in
  let edit i =
    if i >= Array.length !edits then
      edits := Array.of_list (Gen.edit_sequence ~seed:ctx.seed ~n:(2 * Array.length !edits));
    let target = !edits.(i) in
    ssa := Gen.toggle_pad !ssa target;
    write_file (Filename.concat dir Gen.ssa_file) !ssa;
    last_edit := None;
    let r, ms = span ctx "build" (fun () -> B.Driver.build ~jobs:build_jobs dir) in
    let misses = r.B.Driver.b_stats.B.Driver.bs_unit_misses in
    if misses <> 1 then begin
      fail ctx "edit of %s re-solved %d units, expected 1" target misses;
      None
    end
    else begin
      last_edit := Some (target, build_digest r);
      if tracing ctx then begin
        account_build ctx r ~ms;
        add ctx "build.edit_ms" ms;
        addi ctx "build.edit_ops" 1;
        reread_ssa ctx ~cold:false !ssa
      end;
      Some (1, ms)
    end
  in
  let cold () =
    let r, ms =
      span ctx "build" (fun () ->
          B.Driver.build ~jobs:build_jobs ~force:true ~cache_dir:cold_cache dir)
    in
    match !last_edit with
    | Some (target, d) when d <> build_digest r ->
      fail ctx "edit build of %s differs from a cold build" target;
      None
    | _ ->
      if tracing ctx then begin
        account_build ctx r ~ms;
        add ctx "build.cold_ms" ms;
        addi ctx "build.cold_ops" 1;
        reread_ssa ctx ~cold:true !ssa
      end;
      Some (0, ms)
  in
  let op i = if i mod 2 = 0 then edit (i / 2) else cold () in
  let finish () =
    rm_rf (work_dir ctx);
    (* the shared parent goes too once no other run is using it *)
    try Unix.rmdir (Filename.dirname (work_dir ctx)) with Unix.Unix_error _ -> ()
  in
  { setup_s; run = (fun ~seconds -> loop ctx ~seconds ~boundary:(fun i -> i mod 2 = 0) op);
    finish }
