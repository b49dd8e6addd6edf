(** Garbage-collector tests: mark reachability, sweep accounting,
    pacing, invariant counters, and the interaction with tcfree. *)

open Gofree_runtime

(* A tiny payload language for GC tests: an object holding a mutable
   list of child addresses. *)
type Heap.payload += Children of int list ref

let trace_children payload k =
  match payload with Children l -> List.iter k !l | _ -> ()

let make_heap ?config () =
  let heap = Heap.create ?config () in
  heap.Heap.trace_payload <- trace_children;
  heap

let alloc heap ?(size = 64) children =
  Heap.alloc_heap heap ~thread:0 ~category:Metrics.Cat_other ~size
    ~payload:(Children (ref children))

let set_roots heap addrs = heap.Heap.iter_roots <- (fun k -> List.iter k !addrs)

let alive heap (obj : Heap.obj) = Heap.find_obj heap obj.Heap.addr <> None

let test_mark_sweep_chain () =
  let heap = make_heap () in
  let c = alloc heap [] in
  let b = alloc heap [ c.Heap.addr ] in
  let a = alloc heap [ b.Heap.addr ] in
  let dead = alloc heap [] in
  let roots = ref [ a.Heap.addr ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "a alive" true (alive heap a);
  Alcotest.(check bool) "b alive" true (alive heap b);
  Alcotest.(check bool) "c alive" true (alive heap c);
  Alcotest.(check bool) "dead swept" false (alive heap dead);
  Alcotest.(check int) "live bytes" (3 * 64)
    heap.Heap.metrics.Metrics.heap_live

let test_cycles_collected () =
  let heap = make_heap () in
  let a = alloc heap [] in
  let b = alloc heap [ a.Heap.addr ] in
  (match a.Heap.payload with
  | Children l -> l := [ b.Heap.addr ]
  | _ -> ());
  let roots = ref [] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "cycle swept" false (alive heap a || alive heap b)

let test_repeated_cycles_through_stack_objects () =
  (* regression: mark bits of stack objects must reset between cycles,
     or anything reachable only through them dies at the second cycle *)
  let heap = make_heap () in
  let inner = alloc heap [] in
  let holder =
    Heap.alloc_stack heap ~scope:1 ~category:Metrics.Cat_other ~size:8
      ~payload:(Children (ref [ inner.Heap.addr ]))
  in
  let roots = ref [ holder.Heap.addr ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "alive after cycle 1" true (alive heap inner);
  Gc_collector.collect heap;
  Alcotest.(check bool) "alive after cycle 2" true (alive heap inner);
  Gc_collector.collect heap;
  Alcotest.(check bool) "alive after cycle 3" true (alive heap inner)

let test_mutation_between_cycles () =
  let heap = make_heap () in
  let x = alloc heap [] in
  let y = alloc heap [] in
  let holder = alloc heap [ x.Heap.addr ] in
  let roots = ref [ holder.Heap.addr ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check bool) "y dead after cycle 1" false (alive heap y);
  Alcotest.(check bool) "x alive" true (alive heap x);
  (* drop x, but y is gone already *)
  (match holder.Heap.payload with
  | Children l -> l := []
  | _ -> ());
  Gc_collector.collect heap;
  Alcotest.(check bool) "x dead after cycle 2" false (alive heap x);
  Alcotest.(check bool) "holder alive" true (alive heap holder)

let test_heap_to_stack_pointer_detection () =
  (* Go memory invariant 1: a heap object referencing a stack object is
     counted as a violation *)
  let heap = make_heap () in
  let stack_obj =
    Heap.alloc_stack heap ~scope:1 ~category:Metrics.Cat_other ~size:8
      ~payload:(Children (ref []))
  in
  let bad = alloc heap [ stack_obj.Heap.addr ] in
  let roots = ref [ bad.Heap.addr ] in
  set_roots heap roots;
  Gc_collector.collect heap;
  Alcotest.(check int) "violation counted" 1
    heap.Heap.metrics.Metrics.heap_to_stack_pointers

let test_pacing () =
  let config = { Heap.default_config with min_heap = 1000; gogc = 100 } in
  let heap = make_heap ~config () in
  let roots = ref [] in
  set_roots heap roots;
  (* allocations below the threshold never request a cycle *)
  let a = alloc heap ~size:400 [] in
  roots := [ a.Heap.addr ];
  Alcotest.(check bool) "no request yet" false
    (Atomic.get heap.Heap.gc_requested);
  (* crossing min_heap requests one *)
  let b = alloc heap ~size:700 [] in
  roots := b.Heap.addr :: !roots;
  ignore (alloc heap ~size:8 []);
  Alcotest.(check bool) "requested" true (Atomic.get heap.Heap.gc_requested);
  Gc_collector.maybe_collect heap;
  Alcotest.(check int) "one cycle" 1 heap.Heap.metrics.Metrics.gc_cycles;
  (* with ~1108 live bytes and GOGC=100, next_gc ≈ 2216 *)
  Alcotest.(check bool) "next_gc doubled" true
    (heap.Heap.next_gc >= 2 * heap.Heap.metrics.Metrics.heap_live)

let test_gc_disabled () =
  let config = { Heap.default_config with gc_disabled = true; min_heap = 100 } in
  let heap = make_heap ~config () in
  set_roots heap (ref []);
  for _ = 1 to 100 do
    ignore (alloc heap ~size:64 [])
  done;
  Gc_collector.maybe_collect heap;
  Alcotest.(check int) "no cycles with GC off" 0
    heap.Heap.metrics.Metrics.gc_cycles;
  Alcotest.(check int) "everything retained" (100 * 64)
    heap.Heap.metrics.Metrics.heap_live

let test_sweep_vs_tcfree_accounting () =
  let heap = make_heap () in
  set_roots heap (ref []);
  let kept = alloc heap ~size:100 [] in
  let freed = alloc heap ~size:100 [] in
  ignore
    (Tcfree.tcfree heap ~thread:0 ~source:Metrics.Src_slice freed.Heap.addr);
  Gc_collector.collect heap;
  ignore kept;
  let m = heap.Heap.metrics in
  Alcotest.(check int) "tcfree bytes" 100 m.Metrics.freed_bytes;
  (* the kept object was unreachable at the cycle: swept, counted as GC *)
  Alcotest.(check int) "gc-freed objects" 1 m.Metrics.gc_freed_objects.(2);
  Alcotest.(check int) "heap empty" 0 m.Metrics.heap_live

let test_empty_spans_return_pages () =
  let heap = make_heap () in
  set_roots heap (ref []);
  for _ = 1 to 50 do
    ignore (alloc heap ~size:4096 [])
  done;
  let mapped = heap.Heap.pages.Pageheap.mapped_pages in
  Alcotest.(check bool) "pages mapped" true (mapped > 0);
  Gc_collector.collect heap;
  (* every object died: all span pages return to the pool except the one
     span still cached by the allocating thread's mcache (Go keeps
     mcaches warm across cycles) *)
  let cached_pages =
    let cache = heap.Heap.caches.(0) in
    Array.fold_left
      (fun acc span ->
        match span with
        | Some (s : Mspan.t) -> acc + s.Mspan.npages
        | None -> acc)
      0 cache.Mcache.spans
  in
  Alcotest.(check int) "all uncached pages free" (mapped - cached_pages)
    heap.Heap.pages.Pageheap.free_pages

let test_poison_mode_marks_payload () =
  let config = { Heap.default_config with poison_on_free = true } in
  let heap = make_heap ~config () in
  set_roots heap (ref []);
  let obj = alloc heap [] in
  Gc_collector.collect heap;
  Alcotest.(check bool) "poisoned on sweep" true obj.Heap.poisoned

(* -------------------------------------------------------------- *)
(* Parallel collector (shared-heap configuration)                   *)
(* -------------------------------------------------------------- *)

let test_parallel_collect_equivalence () =
  (* 4 domains build linked chains concurrently on a shared heap; half
     the chain heads stay rooted.  A parallel cycle (leader + 3 helper
     domains racing over the same grey list and sweep shards) must keep
     exactly the rooted chains alive and sweep the rest — same verdict
     the sequential collector would reach. *)
  let nd = 4 and chains_per = 8 and chain_len = 25 in
  let heap = Heap.create ~nprocs:nd ~shared:true () in
  heap.Heap.trace_payload <- trace_children;
  let heads = Array.make_matrix nd chains_per None in
  let doms =
    Array.init nd (fun d ->
        Domain.spawn (fun () ->
            for c = 0 to chains_per - 1 do
              let tail = ref [] in
              for _ = 1 to chain_len do
                let o =
                  Heap.alloc_heap heap ~thread:d ~category:Metrics.Cat_other
                    ~size:64 ~payload:(Children (ref !tail))
                in
                tail := [ o.Heap.addr ]
              done;
              heads.(d).(c) <- Some !tail
            done))
  in
  Array.iter Domain.join doms;
  (* root the even-numbered chains only *)
  heap.Heap.iter_roots <-
    (fun k ->
      Array.iter
        (fun row ->
          Array.iteri
            (fun c head ->
              if c mod 2 = 0 then
                match head with
                | Some addrs -> List.iter k addrs
                | None -> ())
            row)
        heads);
  (* STW rendezvous: leader starts the cycle, then everyone helps *)
  let cycle = Gc_collector.Par.start heap in
  let helpers =
    Array.init (nd - 1) (fun _ ->
        Domain.spawn (fun () -> Gc_collector.Par.run_helper cycle))
  in
  Gc_collector.Par.run_leader cycle;
  Array.iter Domain.join helpers;
  let m = Heap.merged_metrics heap in
  let total = nd * chains_per * chain_len in
  let live = total / 2 and dead = total / 2 in
  Alcotest.(check int) "marked exactly the rooted half" live
    m.Metrics.gc_marked_objects;
  Alcotest.(check int) "swept exactly the unrooted half" dead
    m.Metrics.gc_swept_objects;
  Alcotest.(check int) "live bytes" (live * 64) m.Metrics.heap_live;
  (* rooted chain members survived, down to the deepest link *)
  Array.iter
    (fun row ->
      Array.iteri
        (fun c head ->
          match head with
          | Some [ addr ] ->
            Alcotest.(check bool) "head fate matches rooting"
              (c mod 2 = 0)
              (Heap.find_obj heap addr <> None)
          | _ -> ())
        row)
    heads;
  match Metrics.check_conservation ~live_objects:live m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("conservation violated: " ^ msg)

let test_parallel_collect_during_allocation_pressure () =
  (* Repeated STW cycles interleaved with fresh allocation from every
     domain: mark bits must reset between cycles and the accounting
     must stay conserved across the whole history. *)
  let nd = 4 in
  let heap = Heap.create ~nprocs:nd ~shared:true () in
  heap.Heap.trace_payload <- trace_children;
  let rooted = ref [] in
  let rooted_mutex = Mutex.create () in
  heap.Heap.iter_roots <- (fun k -> List.iter k !rooted);
  for _round = 1 to 3 do
    let doms =
      Array.init nd (fun d ->
          Domain.spawn (fun () ->
              for i = 1 to 150 do
                let o =
                  Heap.alloc_heap heap ~thread:d ~category:Metrics.Cat_other
                    ~size:64 ~payload:(Children (ref []))
                in
                (* keep every 10th object; the rest are garbage *)
                if i mod 10 = 0 then begin
                  Mutex.lock rooted_mutex;
                  rooted := o.Heap.addr :: !rooted;
                  Mutex.unlock rooted_mutex
                end
              done))
    in
    Array.iter Domain.join doms;
    let cycle = Gc_collector.Par.start heap in
    let helpers =
      Array.init (nd - 1) (fun _ ->
          Domain.spawn (fun () -> Gc_collector.Par.run_helper cycle))
    in
    Gc_collector.Par.run_leader cycle;
    Array.iter Domain.join helpers
  done;
  let m = Heap.merged_metrics heap in
  let live = List.length !rooted in
  Alcotest.(check int) "rooted objects survive all cycles" (live * 64)
    m.Metrics.heap_live;
  Alcotest.(check int) "three cycles ran" 3 m.Metrics.gc_cycles;
  List.iter
    (fun addr ->
      Alcotest.(check bool) "rooted object present" true
        (Heap.find_obj heap addr <> None))
    !rooted;
  match Metrics.check_conservation ~live_objects:live m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("conservation violated: " ^ msg)

let suite =
  [
    Alcotest.test_case "mark-sweep chain" `Quick test_mark_sweep_chain;
    Alcotest.test_case "cycles collected" `Quick test_cycles_collected;
    Alcotest.test_case "stack objects across cycles" `Quick
      test_repeated_cycles_through_stack_objects;
    Alcotest.test_case "mutation between cycles" `Quick
      test_mutation_between_cycles;
    Alcotest.test_case "heap→stack pointer detection" `Quick
      test_heap_to_stack_pointer_detection;
    Alcotest.test_case "GOGC pacing" `Quick test_pacing;
    Alcotest.test_case "GC disabled" `Quick test_gc_disabled;
    Alcotest.test_case "sweep vs tcfree accounting" `Quick
      test_sweep_vs_tcfree_accounting;
    Alcotest.test_case "empty spans return pages" `Quick
      test_empty_spans_return_pages;
    Alcotest.test_case "poison mode" `Quick test_poison_mode_marks_payload;
    Alcotest.test_case "parallel collect = sequential verdict" `Quick
      test_parallel_collect_equivalence;
    Alcotest.test_case "parallel collect under allocation pressure" `Quick
      test_parallel_collect_during_allocation_pressure;
  ]
