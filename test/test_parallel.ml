(** The goroutine scheduler ([--domains N]; 0 is an alias for 1).

    The hard gate: at one domain the schedule is deterministic, and a
    run at [domains] 0 and 1 must reproduce the committed golden files
    in [test/golden/parallel] — same output, same step count, same
    [panicked], same metrics JSON (modulo the one wall-clock field) —
    across every Table 6 workload, the goroutine fan-out workload and
    both engines.  The goldens were generated by the earlier
    sequential effect-handler scheduler under these settings (seed 42,
    96 KiB [min_heap], default size), so the gate pins that schedule.
    Multi-domain runs are nondeterministically interleaved, so they are
    held to conservation invariants instead: every allocation is
    accounted for by exactly one of tcfree / GC / still-live, outputs
    are a line permutation of the golden output, and the work-stealing
    scheduler actually moves goroutines. *)

module Rt = Gofree_runtime
module W = Gofree_workloads.Workloads
module Reg = Gofree_obs.Registry
module Wsq = Gofree_sched.Wsq
module Json = Gofree_obs.Json
module Trace = Gofree_obs.Trace

let engines =
  [
    ("reference", Gofree_interp.Interp.Eng_reference);
    ("bytecode", Gofree_interp.Interp.Eng_bytecode);
  ]

let run_mode ~engine ~domains ?(seed = 42) ?(poison = false) src =
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        {
          Rt.Heap.default_config with
          min_heap = 96 * 1024;  (* small heap: force real GC activity *)
          poison_on_free = poison;
        };
      engine;
      domains;
      seed = Int64.of_int seed;
    }
  in
  Gofree_interp.Runner.compile_and_run ~run_config src

let metrics_fingerprint (m : Rt.Metrics.t) : string =
  m.Rt.Metrics.gc_time_ns <- 0L;
  Gofree_obs.Json.to_string_pretty (Rt.Metrics.to_json m)

(* ---------------------------------------------------------------- *)
(* The hard gate: domains 0 and 1 reproduce the goldens exactly      *)
(* ---------------------------------------------------------------- *)

let load_golden name =
  Json.parse
    (Helpers.read_file (Helpers.golden ("parallel/" ^ name ^ ".json")))

let check_identity ~name ~engine w =
  let g = load_golden w.W.w_name in
  List.iter
    (fun domains ->
      let r = run_mode ~engine ~domains (W.source_of w) in
      let name = Printf.sprintf "%s/domains=%d" name domains in
      Alcotest.(check string)
        (name ^ ": output") (Json.get_string "output" g)
        r.Gofree_interp.Runner.output;
      Alcotest.(check int)
        (name ^ ": steps") (Json.get_int "steps" g)
        r.Gofree_interp.Runner.steps;
      Alcotest.(check bool)
        (name ^ ": panicked")
        (Json.get "panicked" g = Json.Bool true)
        r.Gofree_interp.Runner.panicked;
      Alcotest.(check string)
        (name ^ ": metrics")
        (Json.to_string_pretty (Json.get "metrics" g))
        (metrics_fingerprint r.Gofree_interp.Runner.metrics))
    [ 0; 1 ]

let test_identity_workloads () =
  List.iter
    (fun w ->
      List.iter
        (fun (ename, engine) ->
          check_identity ~name:(w.W.w_name ^ "/" ^ ename) ~engine w)
        engines)
    W.all

let test_identity_fanout () =
  (* goroutine-bearing program: one domain must replay the pinned
     interleaving exactly — slice budgets, goroutine ids, mcache
     assignment and all *)
  List.iter
    (fun (ename, engine) ->
      check_identity ~name:("fanout/" ^ ename) ~engine W.fanout)
    engines

(* ---------------------------------------------------------------- *)
(* Multi-domain invariants                                           *)
(* ---------------------------------------------------------------- *)

let sorted_lines s =
  String.split_on_char '\n' s |> List.sort compare |> String.concat "\n"

let sum = Array.fold_left ( + ) 0

let test_multi_domain_conservation () =
  let g = load_golden W.fanout.W.w_name in
  let sm = Rt.Metrics.of_json (Json.get "metrics" g) in
  let par =
    run_mode ~engine:Gofree_interp.Interp.Eng_bytecode ~domains:4
      (W.source_of W.fanout)
  in
  let pm = par.Gofree_interp.Runner.metrics in
  (* same program, different interleaving: outputs are permutations *)
  Alcotest.(check string)
    "output is a line permutation of the golden output"
    (sorted_lines (Json.get_string "output" g))
    (sorted_lines par.Gofree_interp.Runner.output);
  (* allocation volume is interleaving-independent *)
  Alcotest.(check int)
    "heap alloc count" (sum sm.Rt.Metrics.heap_allocs)
    (sum pm.Rt.Metrics.heap_allocs);
  Alcotest.(check int)
    "alloced bytes" sm.Rt.Metrics.alloced_bytes pm.Rt.Metrics.alloced_bytes;
  Alcotest.(check int)
    "tcfree call count" sm.Rt.Metrics.tcfree_calls pm.Rt.Metrics.tcfree_calls;
  (* conservation: the final sweep freed everything still live *)
  (match Rt.Metrics.check_conservation ~live_objects:0 pm with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("conservation violated: " ^ msg));
  Alcotest.(check int)
    "no heap-to-stack pointers" 0 pm.Rt.Metrics.heap_to_stack_pointers;
  Alcotest.(check bool) "ran some GC" true (pm.Rt.Metrics.gc_cycles > 0)

(* A spawned goroutine's arguments must stay GC roots until its body
   starts: [main] keeps allocating escaping buffers (forcing GC cycles)
   while [reader] sits queued holding the only reference to its
   argument.  Under poison mode a reclaimed argument would be read as
   freed memory. *)
let pending_args_src =
  {|
var sink []int

func mk(n int) []int {
  s := make([]int, n)
  s[0] = 11
  s[n-1] = 77
  return s
}

func reader(s []int) {
  println("reader", s[0], s[len(s)-1], len(s))
}

func main() {
  go reader(mk(64))
  for i := 0; i < 100; i++ {
    b := make([]int, 4096)
    b[0] = i
    sink = b
  }
  println("main done")
}
|}

let test_pending_args_rooted () =
  List.iter
    (fun domains ->
      List.iter
        (fun (ename, engine) ->
          let name = Printf.sprintf "%s/domains=%d" ename domains in
          match run_mode ~engine ~domains ~poison:true pending_args_src with
          | r ->
            let m = r.Gofree_interp.Runner.metrics in
            Alcotest.(check int)
              (name ^ ": poison reads") 0 m.Rt.Metrics.poison_reads;
            Alcotest.(check bool)
              (name ^ ": ran some GC") true (m.Rt.Metrics.gc_cycles > 0);
            Alcotest.(check string)
              (name ^ ": output")
              (sorted_lines "reader 11 77 64\nmain done\n")
              (sorted_lines r.Gofree_interp.Runner.output)
          | exception Gofree_interp.Value.Corruption msg ->
            Alcotest.failf "%s: %s" name msg)
        engines)
    [ 1; 2 ]

let sched_counter name =
  Reg.counter_value (Reg.counter Reg.runtime name)

let test_work_stealing_observable () =
  (* With telemetry on, a 4-domain fan-out run must publish nonzero
     steal/spawn/yield counters.  Stealing depends on timing, so allow
     a few attempts before declaring the scheduler inert. *)
  Reg.acquire_runtime ();
  Fun.protect ~finally:Reg.release_runtime @@ fun () ->
  let src = W.source_of ~size:12 W.fanout in
  let steals0 = sched_counter "gofree_sched_steals_total" in
  let spawns0 = sched_counter "gofree_sched_spawns_total" in
  let rec attempt n =
    let _ =
      run_mode ~engine:Gofree_interp.Interp.Eng_bytecode ~domains:4
        ~seed:(100 + n) src
    in
    if sched_counter "gofree_sched_steals_total" > steals0 then ()
    else if n < 5 then attempt (n + 1)
    else Alcotest.fail "no goroutine was ever stolen across 6 runs"
  in
  attempt 0;
  Alcotest.(check bool)
    "spawns published" true
    (sched_counter "gofree_sched_spawns_total" > spawns0);
  Alcotest.(check bool)
    "yields published" true
    (sched_counter "gofree_sched_yields_total" > 0)

let test_traced_slices () =
  (* A traced 2-domain fan-out run puts a "run g<id>" slice span for
     main and for every spawned goroutine on the scheduler-domain
     tracks, with begin/end pairs matched per track. *)
  let size = 4 in
  Trace.start ();
  let r =
    match
      run_mode ~engine:Gofree_interp.Interp.Eng_bytecode ~domains:2
        (W.source_of ~size W.fanout)
    with
    | r -> r
    | exception e ->
      ignore (Trace.stop ());
      raise e
  in
  let events = Json.get_list "traceEvents" (Json.parse (Trace.stop ())) in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let slices = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let tid = Json.get_int "tid" e and name = Json.get_string "name" e in
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match Json.get_string "ph" e with
      | "B" ->
        if String.starts_with ~prefix:"run g" name then begin
          Alcotest.(check bool)
            (name ^ " on a domain track") true
            (tid = Trace.tid_sched 0 || tid = Trace.tid_sched 1);
          Hashtbl.replace slices name ()
        end;
        Hashtbl.replace stacks tid (name :: stack)
      | "E" -> begin
        match stack with
        | top :: rest ->
          Alcotest.(check string) "E closes innermost B" top name;
          Hashtbl.replace stacks tid rest
        | [] -> Alcotest.failf "E without open B on tid %d" tid
      end
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid stack ->
      Alcotest.(check int)
        (Printf.sprintf "tid %d spans all closed" tid)
        0 (List.length stack))
    stacks;
  Alcotest.(check bool) "run g0 present" true (Hashtbl.mem slices "run g0");
  Alcotest.(check int)
    "one slice name per goroutine (main + spawned)" (1 + size)
    (Hashtbl.length slices);
  Alcotest.(check bool)
    "program completed" false
    r.Gofree_interp.Runner.panicked

(* ---------------------------------------------------------------- *)
(* Concurrency primitives                                            *)
(* ---------------------------------------------------------------- *)

let test_wsq_concurrent () =
  (* 4 domains hammer one deque pair: producers push, a thief steals
     halves; every pushed item must be popped exactly once. *)
  let own = Wsq.create () and thief = Wsq.create () in
  let n_per = 5_000 and producers = 2 in
  let seen = Atomic.make 0 in
  let drain q =
    let rec go () =
      match Wsq.pop q with
      | Some _ ->
        Atomic.incr seen;
        go ()
      | None -> ()
    in
    go ()
  in
  let doms =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to n_per do
              Wsq.push own ((p * n_per) + i)
            done))
  in
  let stealer =
    Domain.spawn (fun () ->
        for _ = 1 to 200 do
          ignore (Wsq.steal_half ~victim:own ~into:thief);
          drain thief
        done)
  in
  Array.iter Domain.join doms;
  Domain.join stealer;
  drain own;
  ignore (Wsq.steal_half ~victim:own ~into:thief);
  drain thief;
  drain own;
  Alcotest.(check int)
    "all pushed items popped exactly once" (producers * n_per)
    (Atomic.get seen)

let test_metrics_striping () =
  (* Per-domain stripes written in parallel must merge into exact sums
     — this is the satellite replacing plain [int ref] counters. *)
  let shards = Array.init 4 (fun _ -> Rt.Metrics.create ()) in
  let per = 10_000 in
  let doms =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Rt.Metrics.count_alloc shards.(d) ~category:Rt.Metrics.Cat_slice
                ~heap:true ~bytes:8;
              Rt.Metrics.count_giveup shards.(d) Rt.Metrics.Ownership_changed
            done))
  in
  Array.iter Domain.join doms;
  let m = Rt.Metrics.merged shards in
  Alcotest.(check int) "alloc count" (4 * per) (sum m.Rt.Metrics.heap_allocs);
  Alcotest.(check int) "alloc bytes" (4 * per * 8) m.Rt.Metrics.alloced_bytes;
  Alcotest.(check int)
    "giveup count" (4 * per)
    m.Rt.Metrics.giveups.(Rt.Metrics.giveup_index
                            Rt.Metrics.Ownership_changed)

let test_sampler_locked () =
  (* Satellite: the sampler ring is mutex-guarded, so concurrent
     recorders from several domains never corrupt it. *)
  let s = Rt.Sampler.create ~every:1 () in
  let m = Rt.Metrics.create () in
  let doms =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              Rt.Sampler.record s ~step:((d * 1000) + i) ~span_bytes:0 m
            done))
  in
  Array.iter Domain.join doms;
  Alcotest.(check bool)
    "ring holds samples" true
    (List.length (Rt.Sampler.samples s) > 0)

let suite =
  [
    Alcotest.test_case "domains=1 identical: six workloads x three engines"
      `Slow test_identity_workloads;
    Alcotest.test_case "domains=1 identical: goroutine fan-out" `Slow
      test_identity_fanout;
    Alcotest.test_case "domains=4 conservation invariants" `Quick
      test_multi_domain_conservation;
    Alcotest.test_case "pending spawn arguments are GC roots" `Quick
      test_pending_args_rooted;
    Alcotest.test_case "work stealing moves goroutines" `Quick
      test_work_stealing_observable;
    Alcotest.test_case "traced domains=2 run: slice span per goroutine"
      `Quick test_traced_slices;
    Alcotest.test_case "wsq: concurrent push/pop/steal conserve items"
      `Quick test_wsq_concurrent;
    Alcotest.test_case "metrics stripes merge to exact sums" `Quick
      test_metrics_striping;
    Alcotest.test_case "sampler ring safe under concurrent recorders"
      `Quick test_sampler_locked;
  ]
