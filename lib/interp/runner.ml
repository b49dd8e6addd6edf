(** Top-level execution of a compiled MiniGo program: sets up the heap,
    scheduler and globals, lowers the program to bytecode (unless the
    config asks for the reference tree-walker), runs [main] (plus all
    goroutines) to completion, performs the final accounting sweep and
    returns the collected output and metrics. *)

open Minigo
module Rt = Gofree_runtime

type result = {
  output : string;
  metrics : Rt.Metrics.t;
  wall_ns : int64;
  steps : int;
  panicked : bool;
  sampler : Rt.Sampler.t option;
      (** the metrics time series, when [sample_every > 0] asked for one *)
}

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(** Run an instrumented program against explicit static decisions — the
    entry point for linked multi-package builds, whose decisions come
    from per-package caches rather than one whole-program analysis. *)
let run_program ?(config = Interp.default_config)
    ~(decisions : Decisions.t) (program : Tast.program) : result =
  let nd = max 1 config.Interp.domains in
  (* Several domains widen the allocator to one mcache/metric stripe per
     domain and turn its internal locking on; one domain keeps the
     single-writer heap and pays no locking cost. *)
  let heap =
    Rt.Heap.create ~config:config.Interp.heap_config
      ~nprocs:(if nd > 1 then nd else config.Interp.nprocs)
      ~shared:(nd > 1) ()
  in
  let layout = Layout.of_program program in
  let main_g =
    { Interp.g_id = 0; g_frames = []; g_pending = [];
      g_stk_v = [||]; g_top_v = 0; g_stk_i = [||]; g_top_i = 0 }
  in
  let par =
    Interp.make_parctx ~nd ~seed:config.Interp.seed
      ~yield_every:config.Interp.yield_every
  in
  let st =
    {
      Interp.program;
      decisions;
      layout;
      heap;
      output = Buffer.create 256;
      globals = Array.make (max 1 layout.Layout.l_nglobals) Interp.Bunbound;
      config;
      dispatch = Interp.call_by_id;
      current = main_g;
      steps = 0;
      next_scope_token = 0;
      unwinding = None;
      ic_hits = 0;
      ic_misses = 0;
      yield_at = config.Interp.yield_every;
      dom = 0;
      par;
    }
  in
  (* Lower once, before anything executes, so even the global
     initializers' calls run bytecode bodies. *)
  (match config.Interp.engine with
  | Interp.Eng_reference -> ()  (* the default dispatch, call_by_id *)
  | Interp.Eng_bytecode ->
    Vm.install st (Emit.lower program decisions layout));
  heap.Rt.Heap.trace_payload <- Value.trace_payload;
  heap.Rt.Heap.poison_payload <- Value.poison_payload;
  heap.Rt.Heap.iter_roots <-
    (fun k -> Interp.iter_roots par ~globals:st.Interp.globals k);
  if config.Interp.sample_every > 0 then
    heap.Rt.Heap.sampler <-
      Some (Rt.Sampler.create ~every:config.Interp.sample_every ());
  let panicked = ref false in
  let t0 = now_ns () in
  (* Globals are evaluated in a synthetic frame of main's goroutine. *)
  let boot () =
    let boot_frame =
      {
        Interp.fn =
          (match Layout.func_id layout "main" with
          | Some fid -> layout.Layout.l_funcs.(fid)
          | None -> raise (Interp.Runtime_error "no main function"));
        slots = [||];  (* initializers only reference globals *)
        defers = [];
        stack_objs = [];
        lazy_scopes = 0;
        temps = [];
        gid = 0;
      }
    in
    main_g.Interp.g_frames <- [ boot_frame ];
    List.iter
      (fun ((v : Tast.var), init) ->
        let value =
          match init with
          | Some e -> Value.copy (Interp.eval st e)
          | None -> Value.zero program.Tast.p_tenv v.Tast.v_ty
        in
        st.Interp.globals.(Layout.slot layout v) <-
          Interp.Bdirect (Value.cell value))
      program.Tast.p_globals;
    main_g.Interp.g_frames <- [];
    match Interp.call_function st "main" [] with
    | _ -> ()
    | exception Interp.Panic v ->
      Buffer.add_string st.Interp.output
        ("panic: " ^ Value.to_string v ^ "\n");
      panicked := true
  in
  (match Par.run par st boot with
  | () -> ()
  | exception Interp.Panic v ->
    (* a goroutine's unrecovered panic aborts the program, like Go *)
    Buffer.add_string st.Interp.output
      ("panic: " ^ Value.to_string v ^ "\n");
    panicked := true);
  let t1 = now_ns () in
  (* Each goroutine ran on its own state copy; finished goroutines
     folded their counters into the context, any survivors of an aborted
     run are still registered. *)
  let total_steps, total_ic_hits, total_ic_misses =
    List.fold_left
      (fun (s, h, m) ((_ : Interp.goroutine), (gst : Interp.state)) ->
        (s + gst.Interp.steps, h + gst.Interp.ic_hits,
         m + gst.Interp.ic_misses))
      (par.Interp.p_steps_done, par.Interp.p_ic_hits, par.Interp.p_ic_misses)
      par.Interp.p_regs
  in
  (* Final accounting sweep: everything still live is attributed to GC
     reclamation for the Table 8 denominators, without counting an extra
     cycle.  All domains have been joined by now, so even a shared heap
     is quiescent; its sweep must still go through the parallel
     collector, whose apply path maintains the atomic live count. *)
  par.Interp.p_regs <- [];
  heap.Rt.Heap.iter_roots <- (fun _ -> ());
  let saved_cycles = heap.Rt.Heap.metrics.Rt.Metrics.gc_cycles in
  let saved_time = heap.Rt.Heap.metrics.Rt.Metrics.gc_time_ns in
  if heap.Rt.Heap.shared then
    Rt.Gc_collector.Par.run_leader (Rt.Gc_collector.Par.start heap)
  else Rt.Gc_collector.collect heap;
  heap.Rt.Heap.metrics.Rt.Metrics.gc_cycles <- saved_cycles;
  heap.Rt.Heap.metrics.Rt.Metrics.gc_time_ns <- saved_time;
  heap.Rt.Heap.metrics.Rt.Metrics.max_heap_pages <-
    Rt.Pageheap.max_used_bytes heap.Rt.Heap.pages;
  (* Publish the VM's inline-cache counters to the process-global
     telemetry registry (gofree-telemetry-v1) when one is live; a plain
     field read keeps the disabled path free. *)
  (let module Reg = Gofree_obs.Registry in
   if Reg.runtime_enabled () then begin
     if total_ic_hits + total_ic_misses > 0 then begin
       Reg.add
         (Reg.counter Reg.runtime
            ~help:"bytecode-engine inline cache hits (map-key + struct-field)"
            "gofree_vm_ic_hit_total")
         total_ic_hits;
       Reg.add
         (Reg.counter Reg.runtime
            ~help:
              "bytecode-engine inline cache misses (map-key + struct-field)"
            "gofree_vm_ic_miss_total")
         total_ic_misses
     end;
     Reg.add
       (Reg.counter Reg.runtime
          ~help:"goroutines migrated between domains by work stealing"
          "gofree_sched_steals_total")
       par.Interp.p_steals;
     Reg.add
       (Reg.counter Reg.runtime
          ~help:"goroutines spawned onto the domain scheduler"
          "gofree_sched_spawns_total")
       par.Interp.p_spawns;
     Reg.add
       (Reg.counter Reg.runtime
          ~help:"goroutine yields on the domain scheduler"
          "gofree_sched_yields_total")
       par.Interp.p_yields
   end);
  {
    output = Buffer.contents st.Interp.output;
    metrics = Rt.Heap.merged_metrics heap;
    wall_ns = Int64.sub t1 t0;
    steps = total_steps;
    panicked = !panicked;
    sampler = heap.Rt.Heap.sampler;
  }

(** Run a compiled program.  Raises {!Value.Corruption} if poison mode
    detects a wrong explicit free, and {!Interp.Runtime_error} on
    interpreter-level failures. *)
let run ?(config = Interp.default_config)
    (compiled : Gofree_core.Pipeline.compiled) : result =
  let program = compiled.Gofree_core.Pipeline.c_program in
  let decisions =
    Decisions.of_analysis compiled.Gofree_core.Pipeline.c_analysis program
  in
  run_program ~config ~decisions program

(** Convenience: compile under [gofree_config] and run.  The runtime's
    map-growth freeing follows the compile-time setting unless the caller
    supplies an explicit [run_config]. *)
let compile_and_run ?(gofree_config = Gofree_core.Config.gofree)
    ?run_config (source : string) : result =
  let compiled = Gofree_core.Pipeline.compile ~config:gofree_config source in
  let config =
    match run_config with
    | Some c -> c
    | None ->
      {
        Interp.default_config with
        heap_config =
          {
            Rt.Heap.default_config with
            grow_map_free_old = gofree_config.Gofree_core.Config.insert_tcfree;
          };
      }
  in
  run ~config compiled
