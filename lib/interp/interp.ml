(** Tree-walking interpreter for instrumented MiniGo over the simulated
    GoFree runtime.

    Design notes that matter for fidelity of the measurements:

    - every allocation site goes through the simulated heap, on the stack
      or heap side according to the escape analysis decision, so the
      paper's Table 5 metrics fall out of real allocator/GC work;
    - GC cycles run only at {e safepoints} (statement boundaries and loop
      back-edges); within one statement all freshly allocated values are
      additionally pinned in a per-frame temp list, so a collection
      triggered inside a callee can never reclaim a value the caller is
      still holding in OCaml locals;
    - [Stcfree] statements call the runtime's tcfree family; map growth
      calls GrowMapAndFreeOld internally (§4.6.2);
    - goroutines are cooperative fibers, each allocating from the mcache
      of its current logical processor.

    Variables are resolved through a per-program {!Layout}: every frame
    is a pre-sized slot array and every call goes through an interned
    function id.  The [dispatch] hook on the state selects the execution
    engine per call: this module's recursive tree-walker (the reference
    semantics), or the bytecode VM {!Vm} installs.  Both engines share
    every allocation/map/tcfree helper below, so they are observationally
    identical by construction. *)

open Minigo
module Rt = Gofree_runtime

exception Runtime_error of string

exception Panic of Value.value

(* Function return carrier. *)
exception Return_values of Value.value list

(* Loop control carriers. *)
exception Break_loop

exception Continue_loop

(* Performed at a safepoint whose slice budget is spent; the fiber's
   handler ({!fiber_task}) re-enqueues the continuation. *)
type _ Effect.t += Yield : unit Effect.t

type binding =
  | Bunbound  (** slot's declaration not yet executed on this path *)
  | Bdirect of Value.cell
  | Bboxed of int * Value.cell  (** heap box address + its cell *)

type frame = {
  fn : Tast.func;
  slots : binding array;  (** locals by {!Layout} frame slot *)
  mutable defers : (int * Value.value list) list;
      (** interned function id + evaluated arguments *)
  mutable stack_objs : Rt.Heap.obj list list;
      (** per open scope, innermost first *)
  mutable lazy_scopes : int;
      (** open scopes inside the innermost entry of [stack_objs] that
          have no registered objects yet (see {!push_scope}) *)
  mutable temps : Value.value list;  (** GC pins for the current statement *)
  gid : int;
}

type goroutine = {
  g_id : int;
  mutable g_frames : frame list;
  (* Operand-stack pool for the bytecode VM.  Calls within one
     goroutine are strictly LIFO even across yields, so each [Vm.exec]
     carves a window out of these arrays and restores the top on exit
     (including the unwind path).  The windows are dead at every
     safepoint and are not simulated-GC roots. *)
  mutable g_stk_v : Value.value array;
  mutable g_top_v : int;
  mutable g_stk_i : int array;
  mutable g_top_i : int;
  mutable g_pending : Value.value list;
      (** arguments of a spawned goroutine that has not started yet.
          Rooted because the goroutine may sit queued across a GC;
          cleared when the body starts. *)
}

(** Which execution engine interprets function bodies.  Both share
    the allocation/map/call/safepoint helpers in this module through the
    state's [dispatch] hook, so observable behaviour (output, metrics,
    GC) is identical by construction. *)
type engine =
  | Eng_reference  (** tree-walking reference interpreter (this module) *)
  | Eng_bytecode  (** flat bytecode VM ({!Emit}/{!Vm}) *)

type run_config = {
  heap_config : Rt.Heap.config;
  seed : int64;
  max_steps : int;  (** hard budget; exceeded = Runtime_error *)
  yield_every : int;
  nprocs : int;
  migrate_every : int;
  sample_every : int;
      (** snapshot the heap counters every N steps (0 = off); the runner
          attaches the {!Gofree_runtime.Sampler} this feeds *)
  engine : engine;
      (** which engine executes function bodies; the reference
          tree-walker is slowest but is the semantic ground truth *)
  domains : int;
      (** run goroutines on N OCaml domains through the work-stealing
          scheduler; 0 (the default) is an alias for 1.  One domain
          keeps the heap unshared and the schedule deterministic. *)
}

let default_config =
  {
    heap_config = Rt.Heap.default_config;
    seed = 42L;
    max_steps = 500_000_000;
    yield_every = 512;
    nprocs = 4;
    (* Goroutine-to-P migration is rare in Go; the ownership-change
       give-up path is still exercised by multi-goroutine programs whose
       fibers share spans through mcentral. *)
    migrate_every = 2048;
    sample_every = 0;
    engine = Eng_bytecode;
    domains = 0;
  }

(** Execution state.  Each goroutine has its own copy — [current] is
    fixed for the goroutine's lifetime and the per-goroutine mutable
    fields (steps, yield pacing, unwinding, IC counters) are private to
    it, while [program]/[heap]/[globals]/[output]/[par] stay physically
    shared.  The copy's [dom] is updated by the scheduler
    before every slice, so a stolen goroutine allocates through the
    thief domain's mcache — which is what makes the paper's
    give-up-on-ownership-change tcfree path a real race. *)
type state = {
  program : Tast.program;
  decisions : Decisions.t;
  layout : Layout.t;
  heap : Rt.Heap.t;
  output : Buffer.t;
  globals : binding array;  (** by {!Layout} global slot *)
  config : run_config;
  mutable dispatch : state -> int -> Value.value list -> Value.value list;
      (** how calls execute: {!call_by_id} (reference) or the compiled
          bodies; defers and goroutine entry points route through it *)
  mutable current : goroutine;
  mutable steps : int;
  mutable next_scope_token : int;
  mutable unwinding : Value.value option;
      (** the active panic value while defers run during unwinding;
          [recover] clears it *)
  mutable ic_hits : int;
      (** bytecode-engine inline-cache hits (map-key + struct-field
          sites); flushed into the telemetry registry by the runner *)
  mutable ic_misses : int;
  mutable yield_at : int;
      (** next step count at which to yield; advances by
          [config.yield_every] — equivalent to [steps mod yield_every]
          without the division on the safepoint fast path *)
  mutable dom : int;
      (** index of the domain currently executing this state's
          goroutine.  Set by the work-stealing scheduler before each
          slice. *)
  par : parctx;  (** the run's shared scheduler context *)
}

(** Shared context of one run: per-domain run queues, the
    goroutine registry (the GC root set), scheduler bookkeeping, and
    the stop-the-world handshake state.  [p_mutex]/[p_work] guard every
    mutable field except the queues (internally locked) and [p_rng]
    (atomic). *)
and parctx = {
  p_nd : int;  (** number of domains *)
  p_queues : ptask Gofree_sched.Wsq.t array;  (** one per domain *)
  p_mutex : Mutex.t;
  p_work : Condition.t;
      (** new work / slice completion / GC-phase transitions *)
  mutable p_live : int;  (** goroutines queued or running *)
  mutable p_running : int;  (** domains currently executing a slice *)
  mutable p_regs : (goroutine * state) list;
      (** every live goroutine with its state copy — the GC's root
          registry, newest first *)
  mutable p_next_gid : int;  (** last goroutine id handed out *)
  mutable p_yields : int;
      (** total yields; drives the simulated-P drift at one domain
          (see [cur_thread]) *)
  mutable p_budget : int;
      (** one domain only: steps left in the current shared slice.  The
          single-domain schedule checks one step budget across
          goroutines, so a goroutine that finishes mid-slice passes its
          leftover budget to the next task; the worker loads this into
          each state copy's [yield_at] before every slice. *)
  mutable p_steals : int;  (** goroutines moved by work stealing *)
  mutable p_spawns : int;
  mutable p_steps_done : int;
      (** summed step counts of finished goroutines; plus the live
          states' counters this is the run's total *)
  mutable p_ic_hits : int;  (** inline-cache hits of finished goroutines *)
  mutable p_ic_misses : int;
  mutable p_abort : exn option;
      (** first exception escaping a goroutine; aborts the run *)
  mutable p_gc_active : bool;
      (** a domain is leading a stop-the-world GC handshake *)
  mutable p_gc_cycle : Rt.Gc_collector.Par.cycle option;
      (** published by the leader once every mutator is stopped, so
          parked domains can help mark and sweep *)
  p_out_mutex : Mutex.t;  (** serializes [output] appends when nd > 1 *)
  p_rng : int64 Atomic.t;
      (** the shared splitmix64 stream: all goroutines draw from one
          sequence, CAS-claimed — at one domain the claim order is
          program order *)
  p_dls : int Domain.DLS.key;  (** executing domain's index *)
}

and ptask = {
  tk_st : state;  (** the goroutine's state copy ([dom] set per slice) *)
  tk_run : unit -> unit;  (** start the fiber, or resume its continuation *)
}

(* ------------------------------------------------------------------ *)
(* RNG: splitmix64, deterministic per run                              *)
(* ------------------------------------------------------------------ *)

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* All goroutines draw from one shared stream (CAS-claimed), so the
   sequence of dispensed values is the same on every domain count; at
   one domain the claim order is program order. *)
let rng_next st =
  let p = st.par in
  let rec claim () =
    let cur = Atomic.get p.p_rng in
    let z = Int64.add cur 0x9E3779B97F4A7C15L in
    if Atomic.compare_and_set p.p_rng cur z then z else claim ()
  in
  mix64 (claim ())

let rand_int st bound =
  if bound <= 0 then 0
  else
    Int64.to_int (Int64.rem (Int64.logand (rng_next st) Int64.max_int)
        (Int64.of_int bound))

(* ------------------------------------------------------------------ *)
(* Frames, scopes and roots                                            *)
(* ------------------------------------------------------------------ *)

let cur_frame st =
  match st.current.g_frames with
  | f :: _ -> f
  | [] -> raise (Runtime_error "no active frame")

(* Which simulated P (mcache index) the current goroutine allocates
   through.  One domain simulates migration: a goroutine's base P plus
   a slow round-robin drift with the global yield count (its only
   writer is the one domain, so the unlocked read is exact).  Several
   domains use the executing domain's index — ownership then really
   changes when a goroutine is stolen. *)
let cur_thread st =
  let p = st.par in
  if p.p_nd = 1 then
    let drift =
      if st.config.migrate_every <= 0 then 0
      else p.p_yields / st.config.migrate_every
    in
    (st.current.g_id + drift) mod st.config.nprocs
  else st.dom

(* Scopes are materialized lazily: entering one only bumps a counter,
   and the per-scope object list springs into existence when the first
   stack object registers (most scopes register none).  LIFO order is
   preserved because registration materializes every pending scope as
   an empty list before prepending to the innermost. *)
let push_scope st fr =
  fr.lazy_scopes <- fr.lazy_scopes + 1;
  st.next_scope_token <- st.next_scope_token + 1;
  st.next_scope_token

let rec release_all heap objs =
  match objs with
  | [] -> ()
  | o :: rest ->
    Rt.Heap.release_stack heap o;
    release_all heap rest

let pop_scope st fr =
  if fr.lazy_scopes > 0 then fr.lazy_scopes <- fr.lazy_scopes - 1
  else begin
    match fr.stack_objs with
    | [] :: rest -> fr.stack_objs <- rest
    | objs :: rest ->
      release_all st.heap objs;
      fr.stack_objs <- rest
    | [] -> ()
  end

let register_stack_obj fr obj =
  while fr.lazy_scopes > 0 do
    fr.stack_objs <- [] :: fr.stack_objs;
    fr.lazy_scopes <- fr.lazy_scopes - 1
  done;
  match fr.stack_objs with
  | objs :: rest -> fr.stack_objs <- (obj :: objs) :: rest
  | [] -> fr.stack_objs <- [ [ obj ] ]

(* Pin a value for the rest of the current statement so an in-callee GC
   cannot reclaim it before it reaches rooted storage. *)
let pin _st fr v =
  fr.temps <- v :: fr.temps;
  v

let trace_binding b k =
  match b with
  | Bunbound -> ()
  | Bdirect c -> Value.trace c.Value.v k
  | Bboxed (addr, c) ->
    k addr;
    Value.trace c.Value.v k

(* ------------------------------------------------------------------ *)
(* Scheduler context, output, fibers, STW handshake                  *)
(* ------------------------------------------------------------------ *)

module Wsq = Gofree_sched.Wsq

let make_parctx ~nd ~seed ~yield_every : parctx =
  {
    p_nd = nd;
    p_queues = Array.init nd (fun _ -> Wsq.create ());
    p_mutex = Mutex.create ();
    p_work = Condition.create ();
    p_live = 0;
    p_running = 0;
    p_regs = [];
    p_next_gid = 0;
    p_yields = 0;
    p_budget = yield_every;
    p_steals = 0;
    p_spawns = 0;
    p_steps_done = 0;
    p_ic_hits = 0;
    p_ic_misses = 0;
    p_abort = None;
    p_gc_active = false;
    p_gc_cycle = None;
    p_out_mutex = Mutex.create ();
    p_rng = Atomic.make seed;
    p_dls = Domain.DLS.new_key (fun () -> 0);
  }

(* Append to the program's output.  Goroutines on different domains
   interleave whole lines (each print site builds one string), not
   bytes. *)
let emit_str st s =
  let p = st.par in
  if p.p_nd > 1 then begin
    Mutex.lock p.p_out_mutex;
    Buffer.add_string st.output s;
    Mutex.unlock p.p_out_mutex
  end
  else Buffer.add_string st.output s

(* Root enumeration: globals, then every registered goroutine (newest
   first) — its frames and the arguments of a spawn that has not
   started yet, which may sit queued across a GC. *)
let iter_roots (p : parctx) ~(globals : binding array) (k : int -> unit) =
  Array.iter (fun b -> trace_binding b k) globals;
  List.iter
    (fun ((g : goroutine), (_ : state)) ->
      List.iter
        (fun f ->
          Array.iter (fun b -> trace_binding b k) f.slots;
          List.iter (fun v -> Value.trace v k) f.temps;
          List.iter
            (fun (_, args) -> List.iter (fun v -> Value.trace v k) args)
            f.defers)
        g.g_frames;
      List.iter (fun v -> Value.trace v k) g.g_pending)
    p.p_regs

let fiber_done p (g : goroutine) =
  Mutex.lock p.p_mutex;
  g.g_pending <- [];
  (match List.assq_opt g p.p_regs with
  | Some gst ->
    p.p_steps_done <- p.p_steps_done + gst.steps;
    p.p_ic_hits <- p.p_ic_hits + gst.ic_hits;
    p.p_ic_misses <- p.p_ic_misses + gst.ic_misses
  | None -> ());
  p.p_regs <- List.filter (fun (g', _) -> g' != g) p.p_regs;
  p.p_live <- p.p_live - 1;
  Condition.broadcast p.p_work;
  Mutex.unlock p.p_mutex

(** Package a goroutine body as a schedulable task.  The effect handler
    turns every [Yield] into "re-enqueue my continuation on the
    domain that is running me right now" — read from domain-local
    storage at perform time, so a stolen goroutine requeues on the
    thief, not on the domain that first started it. *)
let fiber_task (p : parctx) (gst : state) (body : unit -> unit) : ptask =
  let open Effect.Deep in
  let g = gst.current in
  let run () =
    match_with body ()
      {
        retc = (fun () -> fiber_done p g);
        exnc =
          (fun e ->
            fiber_done p g;
            raise e);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Yield ->
              Some
                (fun (k : (c, _) continuation) ->
                  let d = Domain.DLS.get p.p_dls in
                  Wsq.push p.p_queues.(d)
                    { tk_st = gst; tk_run = (fun () -> continue k ()) };
                  Mutex.lock p.p_mutex;
                  p.p_yields <- p.p_yields + 1;
                  Condition.broadcast p.p_work;
                  Mutex.unlock p.p_mutex)
            | _ -> None);
      }
  in
  { tk_st = gst; tk_run = run }

(** Goroutine spawn.  Each goroutine gets its own [state] copy —
    per-goroutine execution context (current goroutine, step/yield
    counters, scope tokens, IC stats) over physically shared program,
    heap, globals, output and scheduler — so a stolen fiber carries its
    context with it.  The new task lands on the spawning domain's local
    queue, Go-style. *)
let spawn_goroutine st fid args =
  let p = st.par in
  Mutex.lock p.p_mutex;
  (* Ids advance by two per spawn.  Through [cur_thread] the id picks
     the goroutine's mcache at one domain, so this step is part of the
     schedule the committed goldens (test/golden/parallel) pin. *)
  let g =
    { g_id = p.p_next_gid + 1; g_frames = []; g_pending = args;
      g_stk_v = [||]; g_top_v = 0; g_stk_i = [||]; g_top_i = 0 }
  in
  p.p_next_gid <- p.p_next_gid + 2;
  let gst =
    { st with current = g; steps = 0; yield_at = st.config.yield_every;
      next_scope_token = 0; unwinding = None; ic_hits = 0; ic_misses = 0 }
  in
  p.p_regs <- (g, gst) :: p.p_regs;
  p.p_live <- p.p_live + 1;
  p.p_spawns <- p.p_spawns + 1;
  let body () =
    g.g_pending <- [];
    match gst.dispatch gst fid args with
    | _ -> ()
    | exception Panic v ->
      emit_str gst ("panic: " ^ Value.to_string v ^ "\n");
      raise (Panic v)
  in
  Wsq.push p.p_queues.(st.dom) (fiber_task p gst body);
  Condition.broadcast p.p_work;
  Mutex.unlock p.p_mutex

(* Stop-the-world GC rendezvous (nd > 1; a single domain collects
   inline).  Reached from a safepoint, i.e. from a domain counted
   in [p_running]:

   - If no handshake is active, this domain becomes the leader: it
     stops mutating (p_running--), waits for every other running domain
     to park at its own safepoint or drain back to the worker loop,
     then seeds the cycle from the roots, publishes it so parked
     domains can help, drives mark/sweep, applies, and releases.
   - If a handshake is already active, this domain is a responder: it
     parks here, helps the published cycle, and resumes once the leader
     finishes.

   Every allocating domain discovers GC pressure through its own pacing
   check ([gc_requested] is also re-read here), and non-allocating
   domains reach a safepoint at least every [yield_every] steps, so the
   world stops within one slice. *)
let par_gc st (p : parctx) =
  let heap = st.heap in
  Mutex.lock p.p_mutex;
  if p.p_gc_active then begin
    (* responder *)
    p.p_running <- p.p_running - 1;
    Condition.broadcast p.p_work;
    while p.p_gc_active && p.p_gc_cycle = None do
      Condition.wait p.p_work p.p_mutex
    done;
    (match p.p_gc_cycle with
    | Some c when p.p_gc_active ->
      Mutex.unlock p.p_mutex;
      Rt.Gc_collector.Par.run_helper c;
      Mutex.lock p.p_mutex
    | _ -> ());
    while p.p_gc_active do
      Condition.wait p.p_work p.p_mutex
    done;
    p.p_running <- p.p_running + 1;
    Mutex.unlock p.p_mutex
  end
  else if Atomic.get heap.Rt.Heap.gc_requested then begin
    (* leader *)
    p.p_gc_active <- true;
    p.p_running <- p.p_running - 1;
    Condition.broadcast p.p_work;
    while p.p_running > 0 do
      Condition.wait p.p_work p.p_mutex
    done;
    Mutex.unlock p.p_mutex;
    let c = Rt.Gc_collector.Par.start heap in
    Mutex.lock p.p_mutex;
    p.p_gc_cycle <- Some c;
    Condition.broadcast p.p_work;
    Mutex.unlock p.p_mutex;
    Rt.Gc_collector.Par.run_leader c;
    Mutex.lock p.p_mutex;
    p.p_gc_cycle <- None;
    p.p_gc_active <- false;
    p.p_running <- p.p_running + 1;
    Condition.broadcast p.p_work;
    Mutex.unlock p.p_mutex
  end
  else
    (* another leader collected between our fast-path check and here *)
    Mutex.unlock p.p_mutex

(* Safepoint slow path: budget, GC, sampling, yield.  Shared by the
   reference walker (via [safepoint]) and the bytecode VM
   (whose fast path replicates [safepoint]'s guard on its own step
   counter). *)
let safepoint_slow st =
  if st.steps > st.config.max_steps then
    raise (Runtime_error "step budget exhausted (infinite loop?)");
  let heap = st.heap in
  if
    Atomic.get heap.Rt.Heap.gc_requested
    && not heap.Rt.Heap.config.Rt.Heap.gc_disabled
  then begin
    if st.par.p_nd > 1 then par_gc st st.par
    else Rt.Gc_collector.collect heap
  end;
  (match heap.Rt.Heap.sampler with
  | Some sampler when Rt.Sampler.due sampler ~step:st.steps ->
    Rt.Sampler.record sampler ~step:st.steps
      ~span_bytes:(Rt.Pageheap.used_bytes heap.Rt.Heap.pages)
      (Rt.Heap.merged_metrics heap)
  | _ -> ());
  if st.steps >= st.yield_at then begin
    st.yield_at <- st.steps + st.config.yield_every;
    Effect.perform Yield
  end

(* Safepoint: maybe run a GC cycle; also the yield point. *)
let safepoint st =
  st.steps <- st.steps + 1;
  (cur_frame st).temps <- [];
  let heap = st.heap in
  if
    st.steps >= st.yield_at
    || Atomic.get heap.Rt.Heap.gc_requested
    || heap.Rt.Heap.sampler != None
    || st.steps > st.config.max_steps
  then safepoint_slow st

(* ------------------------------------------------------------------ *)
(* Allocation helpers                                                  *)
(* ------------------------------------------------------------------ *)

let alloc_obj st fr ~(site : Tast.alloc_site) ~category ~size ~payload :
    Rt.Heap.obj =
  if Decisions.site_is_heap st.decisions site then
    Rt.Heap.alloc_heap st.heap ~thread:(cur_thread st) ~category ~size
      ~payload
  else begin
    let obj =
      Rt.Heap.alloc_stack ~thread:(cur_thread st) st.heap
        ~scope:st.next_scope_token ~category ~size ~payload
    in
    register_stack_obj fr obj;
    obj
  end

(* Heap allocation regardless of site (append growth, map growth). *)
let alloc_heap_obj st ~category ~size ~payload =
  Rt.Heap.alloc_heap st.heap ~thread:(cur_thread st) ~category ~size
    ~payload

(* The one place a slice backing object is allocated ([make], slice
   literals and append growth): one host block for the elements, one
   simulated object of [cap × elem size] bytes, and the pinned header.
   Growth arrays always come from the heap (§4.6.1); the others follow
   their site's escape decision. *)
let alloc_slice st fr ~(site : Tast.alloc_site) ~growth
    (elems : Value.value array) ~len : Value.value =
  let size = max 1 (Array.length elems * site.Tast.site_elem_size) in
  let payload = Value.Pelems elems in
  let obj =
    if growth then
      alloc_heap_obj st ~category:Rt.Metrics.Cat_slice ~size ~payload
    else alloc_obj st fr ~site ~category:Rt.Metrics.Cat_slice ~size ~payload
  in
  pin st fr
    (Value.VSlice { Value.s_addr = obj.Rt.Heap.addr; s_elems = elems;
                    s_off = 0; s_len = len })

(* A backing array of [n] slots holding the element zero from slot
   [from] on; the caller fills the slots below [from].  A scalar,
   pointer, slice or map zero is immutable, so one value fills every
   slot; a struct zero is a fresh copy per slot (value semantics). *)
let zero_elems ~zero_of ~from n : Value.value array =
  match zero_of () with
  | Value.VStruct _ as z ->
    Array.init n (fun i -> if i < from then Value.VNil else Value.copy z)
  | z -> Array.make n z

let make_slice_obj st fr ~site ~len ~cap ~zero_of : Value.value =
  let cap = max cap len in
  alloc_slice st fr ~site ~growth:false (zero_elems ~zero_of ~from:0 cap)
    ~len

let slice_lit st fr ~site (vs : Value.value list) : Value.value =
  let elems = Array.of_list vs in
  alloc_slice st fr ~site ~growth:false elems ~len:(Array.length elems)

(* [copy(d, s)] with memmove semantics: snapshot the source first so
   overlapping views of one backing array copy correctly, like Go.
   Returns the element count. *)
let slice_copy (d : Value.slice) (s : Value.slice) : int =
  let n = min d.Value.s_len s.Value.s_len in
  let snapshot =
    Array.init n (fun i ->
        Value.copy (Value.read_elem s.Value.s_elems (s.Value.s_off + i)))
  in
  Array.blit snapshot 0 d.Value.s_elems d.Value.s_off n;
  n

let bucket_overhead = 16

let buckets_bytes ~entry_size ~nbuckets =
  nbuckets * ((8 * entry_size) + bucket_overhead)

let make_map_obj st fr ~(site : Tast.alloc_site) : Value.value =
  let entry_size = max 2 site.Tast.site_elem_size in
  let nbuckets = 1 in
  let bsize = buckets_bytes ~entry_size ~nbuckets in
  let buckets_obj =
    alloc_obj st fr ~site ~category:Rt.Metrics.Cat_map ~size:bsize
      ~payload:(Value.Pbuckets (Array.make nbuckets []))
  in
  let md =
    {
      Value.md_buckets = buckets_obj.Rt.Heap.addr;
      md_nbuckets = nbuckets;
      md_count = 0;
      md_entry_size = entry_size;
      md_version = 0;
    }
  in
  let header =
    alloc_obj st fr ~site ~category:Rt.Metrics.Cat_map ~size:48
      ~payload:(Value.Pmap md)
  in
  pin st fr (Value.VMap header.Rt.Heap.addr)

(* ------------------------------------------------------------------ *)
(* Map operations (§4.6.2)                                             *)
(* ------------------------------------------------------------------ *)

let map_data st addr : Value.map_data * (Value.value * Value.value) list array =
  match Rt.Heap.find_obj st.heap addr with
  | Some { Rt.Heap.payload = Value.Pmap md; _ } -> begin
    match Rt.Heap.find_obj st.heap md.Value.md_buckets with
    | Some { Rt.Heap.payload = Value.Pbuckets buckets; _ } -> (md, buckets)
    | Some { Rt.Heap.poisoned = true; _ } | None ->
      raise
        (Value.Corruption
           (Printf.sprintf "map buckets freed while map is live (%s)"
              (Rt.Heap.death_of st.heap md.Value.md_buckets)))
    | Some _ -> raise (Runtime_error "corrupt map buckets")
  end
  | Some { Rt.Heap.poisoned = true; _ } | None ->
    raise
      (Value.Corruption
         (Printf.sprintf "map header %d freed while map is live (%s)" addr
            (Rt.Heap.death_of st.heap addr)))
  | Some _ -> raise (Runtime_error "not a map")

let map_grow st addr (md : Value.map_data) old_buckets =
  let nbuckets = md.Value.md_nbuckets * 2 in
  let buckets = Array.make nbuckets [] in
  Array.iter
    (fun entries ->
      List.iter
        (fun (k, v) ->
          let idx = Value.hash_key k land max_int mod nbuckets in
          buckets.(idx) <- (k, v) :: buckets.(idx))
        entries)
    old_buckets;
  let bsize =
    buckets_bytes ~entry_size:md.Value.md_entry_size ~nbuckets
  in
  let old_addr = md.Value.md_buckets in
  (* New bucket arrays of a growing map always come from the heap: growth
     happens inside the runtime where no static size is known — exactly
     Go's behaviour, where only the initial buckets of a non-escaping map
     can live on the stack. *)
  let new_obj =
    alloc_heap_obj st ~category:Rt.Metrics.Cat_map ~size:bsize
      ~payload:(Value.Pbuckets buckets)
  in
  md.Value.md_buckets <- new_obj.Rt.Heap.addr;
  md.Value.md_nbuckets <- nbuckets;
  md.Value.md_version <- md.Value.md_version + 1;
  ignore addr;
  (* GrowMapAndFreeOld (§4.6.2): the abandoned bucket array is in the
     map's exclusive ownership — free it explicitly.  Only the GoFree
     runtime does this; stock Go leaves the old array to GC. *)
  if st.heap.Rt.Heap.config.Rt.Heap.grow_map_free_old then
    ignore
      (Rt.Tcfree.tcfree st.heap ~thread:(cur_thread st)
         ~source:Rt.Metrics.Src_map_grow old_addr)

(* Bucket-chain scans, written as top-level recursions so a map
   operation allocates no predicate closures.  Chains stay short (Go's
   load factor caps them at ~6.5 entries), so recursion depth is
   trivial.  Insert keeps the original key of a replaced entry and the
   entry order, exactly like the List.map formulation it replaces. *)

let rec bucket_replace key v entries =
  match entries with
  | [] -> None
  | ((k, _) as hd) :: rest ->
    if Value.equal_key k key then Some ((k, v) :: rest)
    else begin
      match bucket_replace key v rest with
      | Some rest' -> Some (hd :: rest')
      | None -> None
    end

let rec bucket_mem key entries =
  match entries with
  | [] -> false
  | (k, _) :: rest -> Value.equal_key k key || bucket_mem key rest

(* Drop [key]'s entry; only called when present (no duplicate keys can
   exist in a chain, so dropping the first match is dropping them
   all). *)
let rec bucket_drop key entries =
  match entries with
  | [] -> []
  | ((k, _) as hd) :: rest ->
    if Value.equal_key k key then rest else hd :: bucket_drop key rest

let map_store st addr key v =
  let md, buckets = map_data st addr in
  let idx = Value.hash_key key land max_int mod md.Value.md_nbuckets in
  let entries = buckets.(idx) in
  match bucket_replace key v entries with
  | Some entries' ->
    buckets.(idx) <- entries';
    md.Value.md_version <- md.Value.md_version + 1
  | None ->
    buckets.(idx) <- (key, v) :: entries;
    md.Value.md_version <- md.Value.md_version + 1;
    md.Value.md_count <- md.Value.md_count + 1;
    (* Go grows at load factor 6.5 entries per bucket. *)
    if md.Value.md_count * 2 > 13 * md.Value.md_nbuckets then
      map_grow st addr md buckets

let rec bucket_get key entries ~zero =
  match entries with
  | [] -> zero ()
  | (k, v) :: rest ->
    if Value.equal_key k key then v else bucket_get key rest ~zero

let map_get st addr key ~zero =
  let md, buckets = map_data st addr in
  let idx = Value.hash_key key land max_int mod md.Value.md_nbuckets in
  bucket_get key buckets.(idx) ~zero

let map_delete st addr key =
  let md, buckets = map_data st addr in
  let idx = Value.hash_key key land max_int mod md.Value.md_nbuckets in
  md.Value.md_version <- md.Value.md_version + 1;
  if bucket_mem key buckets.(idx) then begin
    buckets.(idx) <- bucket_drop key buckets.(idx);
    md.Value.md_count <- md.Value.md_count - 1
  end

let map_len st addr =
  let md, _ = map_data st addr in
  md.Value.md_count

(* Key snapshot for [for k := range m]: deterministic bucket order,
   mutation during iteration is well-defined. *)
let map_range_keys st addr : Value.value list =
  let _, buckets = map_data st addr in
  let keys =
    Array.fold_left
      (fun acc entries -> List.rev_append (List.map fst entries) acc)
      [] buckets
  in
  List.rev keys

(* ------------------------------------------------------------------ *)
(* Bindings                                                            *)
(* ------------------------------------------------------------------ *)

let lookup_binding st (v : Tast.var) : binding =
  match v.Tast.v_kind with
  | Tast.Vglobal -> begin
    match st.globals.(Layout.slot st.layout v) with
    | Bunbound -> raise (Runtime_error ("unbound global " ^ v.Tast.v_name))
    | b -> b
  end
  | _ -> begin
    match (cur_frame st).slots.(Layout.slot st.layout v) with
    | Bunbound ->
      raise (Runtime_error ("unbound variable " ^ v.Tast.v_name))
    | b -> b
  end

let binding_cell = function
  | Bdirect c | Bboxed (_, c) -> c
  | Bunbound -> raise (Runtime_error "unbound variable")

let zero_of st ty () = Value.zero st.program.Tast.p_tenv ty

(* Declare a variable: boxed variables get a 1-cell heap object. *)
let declare_var st fr (v : Tast.var) (value : Value.value) =
  let binding =
    if Decisions.var_is_boxed st.decisions v then begin
      let c = Value.cell value in
      let size = Types.size_of st.program.Tast.p_tenv v.Tast.v_ty in
      let obj =
        alloc_heap_obj st ~category:Rt.Metrics.Cat_other ~size:(max 8 size)
          ~payload:(Value.Pbox c)
      in
      Bboxed (obj.Rt.Heap.addr, c)
    end
    else Bdirect (Value.cell value)
  in
  fr.slots.(Layout.slot st.layout v) <- binding

let truthy = function
  | Value.VBool b -> b
  | _ -> raise (Runtime_error "condition is not a bool")

let as_int = function
  | Value.VInt n -> n
  | _ -> raise (Runtime_error "expected an int")

let rec eval_binop op (a : Value.value) (b : Value.value) : Value.value =
  let open Value in
  match (op, a, b) with
  | Ast.Badd, VInt x, VInt y -> VInt (x + y)
  | Ast.Badd, VFloat x, VFloat y -> VFloat (x +. y)
  | Ast.Badd, VStr x, VStr y -> VStr (x ^ y)
  | Ast.Bsub, VInt x, VInt y -> VInt (x - y)
  | Ast.Bsub, VFloat x, VFloat y -> VFloat (x -. y)
  | Ast.Bmul, VInt x, VInt y -> VInt (x * y)
  | Ast.Bmul, VFloat x, VFloat y -> VFloat (x *. y)
  | Ast.Bdiv, VInt _, VInt 0 -> raise (Panic (VStr "integer divide by zero"))
  | Ast.Bdiv, VInt x, VInt y -> VInt (x / y)
  | Ast.Bdiv, VFloat x, VFloat y -> VFloat (x /. y)
  | Ast.Bmod, VInt _, VInt 0 -> raise (Panic (VStr "integer divide by zero"))
  | Ast.Bmod, VInt x, VInt y -> VInt (x mod y)
  | Ast.Band_bits, VInt x, VInt y -> VInt (x land y)
  | Ast.Bor_bits, VInt x, VInt y -> VInt (x lor y)
  | Ast.Bxor, VInt x, VInt y -> VInt (x lxor y)
  | Ast.Bshl, VInt _, VInt y when y < 0 ->
    raise (Panic (VStr "negative shift amount"))
  | Ast.Bshl, VInt x, VInt y -> VInt (if y >= 63 then 0 else x lsl y)
  | Ast.Bshr, VInt _, VInt y when y < 0 ->
    raise (Panic (VStr "negative shift amount"))
  | Ast.Bshr, VInt x, VInt y -> VInt (if y >= 63 then 0 else x asr y)
  | Ast.Blt, VInt x, VInt y -> VBool (x < y)
  | Ast.Ble, VInt x, VInt y -> VBool (x <= y)
  | Ast.Bgt, VInt x, VInt y -> VBool (x > y)
  | Ast.Bge, VInt x, VInt y -> VBool (x >= y)
  | Ast.Blt, VFloat x, VFloat y -> VBool (x < y)
  | Ast.Ble, VFloat x, VFloat y -> VBool (x <= y)
  | Ast.Bgt, VFloat x, VFloat y -> VBool (x > y)
  | Ast.Bge, VFloat x, VFloat y -> VBool (x >= y)
  | Ast.Blt, VStr x, VStr y -> VBool (String.compare x y < 0)
  | Ast.Ble, VStr x, VStr y -> VBool (String.compare x y <= 0)
  | Ast.Bgt, VStr x, VStr y -> VBool (String.compare x y > 0)
  | Ast.Bge, VStr x, VStr y -> VBool (String.compare x y >= 0)
  | Ast.Beq, x, y -> VBool (value_eq x y)
  | Ast.Bne, x, y -> VBool (not (value_eq x y))
  | (Ast.Band | Ast.Bor), _, _ ->
    raise (Runtime_error "logical operators are handled lazily")
  | _ -> raise (Runtime_error "invalid binary operands")

and value_eq (a : Value.value) (b : Value.value) =
  let open Value in
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VFloat x, VFloat y -> x = y
  | VBool x, VBool y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VNil, VNil -> true
  | VNil, (VPtr _ | VSlice _ | VMap _) | (VPtr _ | VSlice _ | VMap _), VNil
    ->
    false
  | VPtr x, VPtr y -> ptr_equal x y
  | VMap x, VMap y -> x = y
  | VSlice x, VSlice y ->
    x.s_elems == y.s_elems && x.s_off = y.s_off && x.s_len = y.s_len
  | VPoison, _ | _, VPoison -> raise (Corruption "comparison with freed memory")
  | _ -> false

(* The inserted explicit free (§4.5), applied to an already-resolved
   binding: read the pointer's current value and hand the referent to the
   matching tcfree variant (Table 4).  Shared by both execution modes. *)
let tcfree_binding st (b : binding) (kind : Tast.free_kind) =
  let thread = cur_thread st in
  match (binding_cell b).Value.v with
  | Value.VSlice s when kind = Tast.Free_slice ->
    (* TcfreeSlice: unwrap the backing array's address *)
    ignore
      (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_slice
         s.Value.s_addr)
  | Value.VMap addr when kind = Tast.Free_map -> begin
    (* TcfreeMap: unwrap the bucket array's address *)
    match Rt.Heap.find_obj st.heap addr with
    | Some { Rt.Heap.payload = Value.Pmap md; _ } ->
      (* invalidate any inline cache that still points at this map *)
      md.Value.md_version <- md.Value.md_version + 1;
      ignore
        (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_map
           md.Value.md_buckets);
      ignore
        (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_map addr)
    | _ -> ()
  end
  | Value.VPtr p when kind = Tast.Free_obj ->
    let owner = Value.ptr_owner p in
    if owner > 0 then
      ignore
        (Rt.Tcfree.tcfree st.heap ~thread ~source:Rt.Metrics.Src_slice owner)
  | Value.VNil | Value.VPoison -> ()
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Calls, defers, panics                                               *)
(* ------------------------------------------------------------------ *)

let rec dispatch_defers st defers =
  match defers with
  | [] -> ()
  | (fid, args) :: rest ->
    ignore (st.dispatch st fid args);
    dispatch_defers st rest

let run_defers st frame =
  match frame.defers with
  | [] -> ()  (* the overwhelmingly common case: allocation-free *)
  | defers ->
    frame.defers <- [];
    dispatch_defers st defers

let rec release_scopes heap scopes =
  match scopes with
  | [] -> ()
  | objs :: rest ->
    release_all heap objs;
    release_scopes heap rest

let pop_all_scopes st frame =
  frame.lazy_scopes <- 0;
  match frame.stack_objs with
  | [] -> ()
  | scopes ->
    frame.stack_objs <- [];
    release_scopes st.heap scopes

(** The shared call protocol: push a pre-sized frame, bind parameters,
    run the body, then run defers / pop scopes on every exit path —
    normal fall-through (zero results), [return], and panic unwinding
    with its recover handshake.  Both execution modes call functions
    through here, parameterized by how the body runs. *)
let call_fn st (f : Tast.func) ~nslots
    ~(bind : state -> frame -> Value.value list -> unit)
    ~(body : state -> frame -> unit) ~(zeros : state -> Value.value list)
    (args : Value.value list) : Value.value list =
  let frame =
    {
      fn = f;
      slots = Array.make nslots Bunbound;
      defers = [];
      stack_objs = [];
      lazy_scopes = 0;
      temps = args;  (* keep args pinned until bound *)
      gid = st.current.g_id;
    }
  in
  st.current.g_frames <- frame :: st.current.g_frames;
  match
    bind st frame args;
    body st frame
  with
  | () ->
    (* fell off the end: zero values if the function declares results *)
    let results = zeros st in
    run_defers st frame;
    pop_all_scopes st frame;
    st.current.g_frames <- List.tl st.current.g_frames;
    results
  | exception Return_values vs ->
    run_defers st frame;
    pop_all_scopes st frame;
    st.current.g_frames <- List.tl st.current.g_frames;
    vs
  | exception Panic v ->
    (* run this frame's defers while unwinding; a recover() inside one of
       them clears the panic and the function returns zero values *)
    let outer = st.unwinding in
    st.unwinding <- Some v;
    run_defers st frame;
    pop_all_scopes st frame;
    st.current.g_frames <- List.tl st.current.g_frames;
    (match st.unwinding with
    | None ->
      (* recovered *)
      st.unwinding <- outer;
      zeros st
    | Some v ->
      st.unwinding <- outer;
      raise (Panic v))

(* ------------------------------------------------------------------ *)
(* Expression evaluation (reference tree-walker)                       *)
(* ------------------------------------------------------------------ *)

let rec eval st (e : Tast.expr) : Value.value =
  match e.Tast.desc with
  | Tast.Tint n -> Value.VInt n
  | Tast.Tfloat f -> Value.VFloat f
  | Tast.Tbool b -> Value.VBool b
  | Tast.Tstring s -> Value.VStr s
  | Tast.Tnil -> Value.VNil
  | Tast.Tvar v -> Value.read_cell (binding_cell (lookup_binding st v))
  | Tast.Tbinop (Ast.Band, a, b) ->
    if truthy (eval st a) then eval st b else Value.VBool false
  | Tast.Tbinop (Ast.Bor, a, b) ->
    if truthy (eval st a) then Value.VBool true else eval st b
  | Tast.Tbinop (op, a, b) ->
    let va = eval st a in
    let vb = eval st b in
    eval_binop op va vb
  | Tast.Tunop (Ast.Uneg, a) -> begin
    match eval st a with
    | Value.VInt n -> Value.VInt (-n)
    | Value.VFloat f -> Value.VFloat (-.f)
    | _ -> raise (Runtime_error "cannot negate")
  end
  | Tast.Tunop (Ast.Unot, a) -> Value.VBool (not (truthy (eval st a)))
  | Tast.Taddr lv -> eval_addr st lv
  | Tast.Tderef a -> begin
    match eval st a with
    | Value.VPtr p -> Value.ptr_get p
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "dereference of a non-pointer")
  end
  | Tast.Tindex (a, i) -> begin
    let va = eval st a in
    let vi = as_int (eval st i) in
    match va with
    | Value.VSlice s ->
      if vi < 0 || vi >= s.Value.s_len then
        raise (Panic (Value.VStr "index out of range"));
      Value.read_elem s.Value.s_elems (s.Value.s_off + vi)
    | Value.VStr s ->
      if vi < 0 || vi >= String.length s then
        raise (Panic (Value.VStr "index out of range"));
      Value.VInt (Char.code s.[vi])
    | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
    | _ -> raise (Runtime_error "cannot index this value")
  end
  | Tast.Tmap_get (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    let zero = zero_of st e.Tast.ty in
    match vm with
    | Value.VMap addr -> map_get st addr vk ~zero
    | Value.VNil -> zero ()  (* reading a nil map yields the zero value *)
    | _ -> raise (Runtime_error "not a map")
  end
  | Tast.Tfield (a, idx, name) -> begin
    let base =
      match eval st a with
      | Value.VPtr p -> Value.ptr_get p
      | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
      | v -> v
    in
    match base with
    | Value.VStruct cells -> Value.read_cell cells.(idx)
    | _ -> raise (Runtime_error ("field access ." ^ name ^ " on non-struct"))
  end
  | Tast.Tcall (name, args) -> begin
    match call_function st name (List.map (fun a -> eval st a) args) with
    | [] -> Value.VUnit
    | [ v ] -> pin st (cur_frame st) v
    | vs -> pin st (cur_frame st) (Value.VTuple vs)
  end
  | Tast.Tmake_slice (site, elem, len, cap) ->
    let len = as_int (eval st len) in
    if len < 0 then raise (Panic (Value.VStr "makeslice: negative length"));
    let cap =
      match cap with Some c -> as_int (eval st c) | None -> len
    in
    make_slice_obj st (cur_frame st) ~site ~len ~cap ~zero_of:(zero_of st elem)
  | Tast.Tmake_map (site, _, _) -> make_map_obj st (cur_frame st) ~site
  | Tast.Tnew (site, ty) ->
    let c = Value.cell (Value.zero st.program.Tast.p_tenv ty) in
    let obj =
      alloc_obj st (cur_frame st) ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pbox c)
    in
    pin st (cur_frame st)
      (Value.VPtr (Value.Pcell { owner = obj.Rt.Heap.addr; cell = c }))
  | Tast.Tslice_lit (site, _, es) ->
    let vs = List.map (fun e -> Value.copy (eval st e)) es in
    slice_lit st (cur_frame st) ~site vs
  | Tast.Tstruct_lit (_, es) ->
    Value.VStruct
      (Array.of_list
         (List.map (fun e -> Value.cell (Value.copy (eval st e))) es))
  | Tast.Taddr_struct_lit (site, _, es) ->
    let v =
      Value.VStruct
        (Array.of_list
           (List.map (fun e -> Value.cell (Value.copy (eval st e))) es))
    in
    let c = Value.cell v in
    let obj =
      alloc_obj st (cur_frame st) ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pbox c)
    in
    pin st (cur_frame st)
      (Value.VPtr (Value.Pcell { owner = obj.Rt.Heap.addr; cell = c }))
  | Tast.Tappend (site, s, vs) ->
    let base = eval st s in
    let elems = List.map (fun v -> Value.copy (eval st v)) vs in
    let zero_of =
      match e.Tast.ty with
      | Types.Slice elem -> zero_of st elem
      | _ -> raise (Runtime_error "append to non-slice")
    in
    eval_append st (cur_frame st) ~site ~zero_of base elems
  | Tast.Tlen a -> begin
    match eval st a with
    | Value.VSlice s -> Value.VInt s.Value.s_len
    | Value.VStr s -> Value.VInt (String.length s)
    | Value.VMap addr -> Value.VInt (map_len st addr)
    | Value.VNil -> Value.VInt 0
    | _ -> raise (Runtime_error "len of unsupported value")
  end
  | Tast.Tcap a -> begin
    match eval st a with
    | Value.VSlice s ->
      Value.VInt (Array.length s.Value.s_elems - s.Value.s_off)
    | Value.VNil -> Value.VInt 0
    | _ -> raise (Runtime_error "cap of unsupported value")
  end
  | Tast.Titoa a -> Value.VStr (string_of_int (as_int (eval st a)))
  | Tast.Trand a -> Value.VInt (rand_int st (as_int (eval st a)))
  | Tast.Tsubstr (s, a, b) -> begin
    match eval st s with
    | Value.VStr s ->
      let lo = as_int (eval st a) in
      let hi = as_int (eval st b) in
      if lo < 0 || hi > String.length s || lo > hi then
        raise (Panic (Value.VStr "substr out of range"))
      else Value.VStr (String.sub s lo (hi - lo))
    | _ -> raise (Runtime_error "substr on non-string")
  end
  | Tast.Tslice_sub (a, lo, hi) -> begin
    let base = eval st a in
    let bound default = function
      | Some e -> as_int (eval st e)
      | None -> default
    in
    match base with
    | Value.VSlice s ->
      let cap = Array.length s.Value.s_elems - s.Value.s_off in
      let lo = bound 0 lo in
      let hi = bound s.Value.s_len hi in
      if lo < 0 || hi > cap || lo > hi then
        raise (Panic (Value.VStr "slice bounds out of range"));
      Value.VSlice
        { s with Value.s_off = s.Value.s_off + lo; s_len = hi - lo }
    | Value.VStr str ->
      let lo = bound 0 lo in
      let hi = bound (String.length str) hi in
      if lo < 0 || hi > String.length str || lo > hi then
        raise (Panic (Value.VStr "slice bounds out of range"));
      Value.VStr (String.sub str lo (hi - lo))
    | Value.VNil ->
      let lo = bound 0 lo and hi = bound 0 hi in
      if lo <> 0 || hi <> 0 then
        raise (Panic (Value.VStr "slice bounds out of range"));
      Value.VNil
    | _ -> raise (Runtime_error "slice of unsupported value")
  end
  | Tast.Tcopy (dst, src) -> begin
    let vd = eval st dst in
    let vs = eval st src in
    match (vd, vs) with
    | Value.VSlice d, Value.VSlice s -> Value.VInt (slice_copy d s)
    | (Value.VNil, _ | _, Value.VNil) -> Value.VInt 0
    | _ -> raise (Runtime_error "copy on non-slices")
  end
  | Tast.Tmap_get_ok (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    let zero () =
      match e.Tast.ty with
      | Types.Tuple [ vt; _ ] -> Value.zero st.program.Tast.p_tenv vt
      | _ -> Value.VUnit
    in
    match vm with
    | Value.VMap addr ->
      let present = ref true in
      let v = map_get st addr vk ~zero:(fun () -> present := false; zero ()) in
      Value.VTuple [ v; Value.VBool !present ]
    | Value.VNil -> Value.VTuple [ zero (); Value.VBool false ]
    | _ -> raise (Runtime_error "not a map")
  end
  | Tast.Trecover -> recover st

and recover st =
  match st.unwinding with
  | Some v ->
    (* stop the unwind; hand the panic message to the program *)
    st.unwinding <- None;
    Value.VStr (Value.to_string v)
  | None -> Value.VStr ""

and eval_append st fr ~site ~zero_of base elems : Value.value =
  let open Value in
  let old_len, old_off, old_elems =
    match base with
    | VSlice s -> (s.s_len, s.s_off, s.s_elems)
    | VNil -> (0, 0, [||])
    | VPoison -> raise (Corruption "append to freed slice")
    | _ -> raise (Runtime_error "append to non-slice")
  in
  let n = List.length elems in
  let new_len = old_len + n in
  if old_off + new_len <= Array.length old_elems then begin
    (* room within the view's capacity: write in place *)
    List.iteri (fun i v -> old_elems.(old_off + old_len + i) <- v) elems;
    match base with
    | VSlice s -> VSlice { s with s_len = new_len }
    | _ -> assert false
  end
  else begin
    let old_cap = Array.length old_elems - old_off in
    let new_cap = max (max (2 * old_cap) new_len) 4 in
    let grown = zero_elems ~zero_of ~from:new_len new_cap in
    (* a struct element is a value: the new array gets its own copy, so
       writes through either slice stay apart, as in Go *)
    for i = 0 to old_len - 1 do
      grown.(i) <- copy (read_elem old_elems (old_off + i))
    done;
    List.iteri (fun i v -> grown.(old_len + i) <- v) elems;
    alloc_slice st fr ~site ~growth:true grown ~len:new_len
  end

(* Address-of: produce a pointer value. *)
and eval_addr st (lv : Tast.lvalue) : Value.value =
  match lv with
  | Tast.Lvar v -> begin
    match lookup_binding st v with
    | Bdirect c -> Value.VPtr (Value.Pcell { owner = 0; cell = c })
    | Bboxed (addr, c) -> Value.VPtr (Value.Pcell { owner = addr; cell = c })
    | Bunbound -> raise (Runtime_error "unbound variable")
  end
  | Tast.Lderef e -> eval st e
  | Tast.Lindex (a, i) -> begin
    let va = eval st a in
    let vi = as_int (eval st i) in
    match va with
    | Value.VSlice s ->
      if vi < 0 || vi >= s.Value.s_len then
        raise (Panic (Value.VStr "index out of range"));
      Value.VPtr
        (Value.Pelem
           { owner = s.Value.s_addr; arr = s.Value.s_elems;
             idx = s.Value.s_off + vi })
    | _ -> raise (Runtime_error "cannot take address of this element")
  end
  | Tast.Lmap _ -> raise (Runtime_error "cannot take address of map element")
  | Tast.Lfield (base, idx, _) -> begin
    let owner, cells =
      match base.Tast.ty with
      | Types.Ptr _ -> begin
        (* pointer base: the field cell lives inside the pointee *)
        match eval st base with
        | Value.VPtr p -> begin
          match Value.ptr_get p with
          | Value.VStruct cells -> (Value.ptr_owner p, cells)
          | _ -> raise (Runtime_error "field of non-struct")
        end
        | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
        | _ -> raise (Runtime_error "field of non-pointer")
      end
      | _ -> begin
        (* struct-valued base: find its storage without copying *)
        match base.Tast.desc with
        | Tast.Tvar v -> begin
          let c, owner =
            match lookup_binding st v with
            | Bdirect c -> (c, 0)
            | Bboxed (addr, c) -> (c, addr)
            | Bunbound -> raise (Runtime_error "unbound variable")
          in
          match Value.read_cell c with
          | Value.VStruct cells -> (owner, cells)
          | _ -> raise (Runtime_error "field of non-struct")
        end
        | _ -> begin
          (* nested struct value (s.inner.f, a[i].f, …): VStruct shares
             its cells, so evaluating the base still aliases the
             storage.  The owner is the object holding the base: a
             pointee, a slice's backing array or a variable's heap box;
             a frame-local variable or a temporary has none.  This is
             also the bytecode engine's code for this shape. *)
          match eval st base with
          | Value.VStruct cells -> (owner_of_struct_base st base, cells)
          | _ -> raise (Runtime_error "field of non-struct")
        end
      end
    in
    Value.VPtr (Value.Pcell { owner; cell = cells.(idx) })
  end

(* The heap object owning the storage of a struct-valued expression, for
   pointers created into nested fields; 0 when it is frame-local. *)
and owner_of_struct_base st (e : Tast.expr) : int =
  match e.Tast.desc with
  | Tast.Tfield (inner, _, _) -> begin
    match inner.Tast.ty with
    | Types.Ptr _ -> begin
      match eval st inner with
      | Value.VPtr p -> Value.ptr_owner p
      | _ -> 0
    end
    | _ -> owner_of_struct_base st inner
  end
  | Tast.Tindex (arr, _) -> begin
    match eval st arr with Value.VSlice s -> s.Value.s_addr | _ -> 0
  end
  | Tast.Tderef p -> begin
    match eval st p with Value.VPtr ptr -> Value.ptr_owner ptr | _ -> 0
  end
  | Tast.Tvar v -> begin
    (* a boxed variable outlives its frame while a pointer into it
       lives *)
    match lookup_binding st v with Bboxed (addr, _) -> addr | _ -> 0
  end
  | _ -> 0

(* An lvalue resolved to mutable storage. *)
and eval_lvalue_target st (lv : Tast.lvalue) :
    [ `Cell of Value.cell
    | `Elem of Value.value array * int
    | `Map of int * Value.value ] =
  let ptr_target = function
    | Value.Pcell { cell; _ } -> `Cell cell
    | Value.Pelem { arr; idx; _ } -> `Elem (arr, idx)
  in
  match lv with
  | Tast.Lvar v -> `Cell (binding_cell (lookup_binding st v))
  | Tast.Lderef e -> begin
    match eval st e with
    | Value.VPtr p -> ptr_target p
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "assignment through non-pointer")
  end
  | Tast.Lindex (a, i) -> begin
    let va = eval st a in
    let vi = as_int (eval st i) in
    match va with
    | Value.VSlice s ->
      if vi < 0 || vi >= s.Value.s_len then
        raise (Panic (Value.VStr "index out of range"));
      `Elem (s.Value.s_elems, s.Value.s_off + vi)
    | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
    | _ -> raise (Runtime_error "cannot assign into this value")
  end
  | Tast.Lmap (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    match vm with
    | Value.VMap addr -> `Map (addr, vk)
    | Value.VNil ->
      raise (Panic (Value.VStr "assignment to entry in nil map"))
    | _ -> raise (Runtime_error "not a map")
  end
  | Tast.Lfield (base, idx, _) -> begin
    match eval_addr st (Tast.Lfield (base, idx, "")) with
    | Value.VPtr p -> ptr_target p
    | _ -> raise (Runtime_error "bad field target")
  end

and assign st (lv : Tast.lvalue) (v : Value.value) =
  match eval_lvalue_target st lv with
  | `Cell c -> c.Value.v <- Value.copy v
  | `Elem (arr, i) -> arr.(i) <- Value.copy v
  | `Map (addr, key) -> map_store st addr key (Value.copy v)

and call_function st name (args : Value.value list) : Value.value list =
  match Layout.func_id st.layout name with
  | Some fid -> st.dispatch st fid args
  | None -> raise (Runtime_error ("undefined function " ^ name))

(** Reference call path: interpret the function body by tree-walking.
    The default [dispatch] of a state. *)
and call_by_id st fid (args : Value.value list) : Value.value list =
  let f = st.layout.Layout.l_funcs.(fid) in
  call_fn st f ~nslots:st.layout.Layout.l_nslots.(fid)
    ~bind:(fun st frame args ->
      List.iter2
        (fun p arg -> declare_var st frame p (Value.copy arg))
        f.Tast.f_params args)
    ~body:(fun st _frame -> exec_block st f.Tast.f_body)
    ~zeros:(fun st ->
      List.map
        (fun ty -> Value.zero st.program.Tast.p_tenv ty)
        f.Tast.f_results)
    args

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and exec_block st (b : Tast.block) =
  ignore (push_scope st (cur_frame st));
  match List.iter (exec_stmt st) b.Tast.b_stmts with
  | () -> pop_scope st (cur_frame st)
  | exception e ->
    pop_scope st (cur_frame st);
    raise e

and exec_stmt st (s : Tast.stmt) =
  safepoint st;
  match s with
  | Tast.Sdecl (v, init) ->
    let value =
      match init with
      | Some e -> Value.copy (eval st e)
      | None -> Value.zero st.program.Tast.p_tenv v.Tast.v_ty
    in
    declare_var st (cur_frame st) v value
  | Tast.Smulti_decl (vars, e) -> begin
    match eval st e with
    | Value.VTuple vs when List.length vs = List.length vars ->
      List.iter2
        (fun v value -> declare_var st (cur_frame st) v (Value.copy value))
        vars vs
    | _ -> raise (Runtime_error "multi-value declaration mismatch")
  end
  | Tast.Sassign (lv, e) -> assign st lv (eval st e)
  | Tast.Smulti_assign (lvs, e) -> begin
    match eval st e with
    | Value.VTuple vs when List.length vs = List.length lvs ->
      (* resolve targets left to right, then assign *)
      List.iter2 (fun lv v -> assign st lv v) lvs vs
    | _ -> raise (Runtime_error "multi-value assignment mismatch")
  end
  | Tast.Sexpr e -> ignore (eval st e)
  | Tast.Sif (c, b1, b2) ->
    if truthy (eval st c) then exec_block st b1
    else Option.iter (exec_block st) b2
  | Tast.Sfor (init, cond, post, body) ->
    ignore (push_scope st (cur_frame st));
    let cleanup f = match f () with
      | x -> pop_scope st (cur_frame st); x
      | exception e -> pop_scope st (cur_frame st); raise e
    in
    cleanup (fun () ->
        Option.iter (exec_stmt st) init;
        let rec loop () =
          safepoint st;
          let continue_loop =
            match cond with Some c -> truthy (eval st c) | None -> true
          in
          if continue_loop then begin
            (match exec_block st body with
            | () -> Option.iter (exec_stmt st) post
            | exception Break_loop -> raise Exit
            | exception Continue_loop -> Option.iter (exec_stmt st) post);
            loop ()
          end
        in
        try loop () with Exit -> ())
  | Tast.Sforrange_map (v, m, body) -> begin
    match eval st m with
    | Value.VMap addr ->
      (* snapshot the keys so mutation during iteration is well-defined *)
      let keys = map_range_keys st addr in
      (try
         List.iter
           (fun key ->
             safepoint st;
             declare_var st (cur_frame st) v (Value.copy key);
             match exec_block st body with
             | () -> ()
             | exception Break_loop -> raise Exit
             | exception Continue_loop -> ())
           keys
       with Exit -> ())
    | Value.VNil -> ()
    | _ -> raise (Runtime_error "range over non-map")
  end
  | Tast.Sreturn es ->
    let vs = List.map (fun e -> Value.copy (eval st e)) es in
    raise (Return_values vs)
  | Tast.Sblock b -> exec_block st b
  | Tast.Sgo (name, args) ->
    let args = List.map (fun a -> Value.copy (eval st a)) args in
    spawn_goroutine st (resolve_func st name) args
  | Tast.Sdefer (name, args) ->
    let args = List.map (fun a -> Value.copy (eval st a)) args in
    let fid = resolve_func st name in
    let f = cur_frame st in
    f.defers <- (fid, args) :: f.defers
  | Tast.Spanic e -> raise (Panic (eval st e))
  | Tast.Sbreak -> raise Break_loop
  | Tast.Scontinue -> raise Continue_loop
  | Tast.Sdelete (m, k) -> begin
    let vm = eval st m in
    let vk = eval st k in
    match vm with
    | Value.VMap addr -> map_delete st addr vk
    | Value.VNil -> ()
    | _ -> raise (Runtime_error "delete on non-map")
  end
  | Tast.Sprint es ->
    let parts = List.map (fun e -> Value.to_string (eval st e)) es in
    emit_str st (String.concat " " parts ^ "\n")
  | Tast.Stcfree (v, kind) ->
    (* tcfree is only inserted for locals; a global here (impossible by
       construction) indexes the wrong slot space, so guard it out *)
    if v.Tast.v_kind <> Tast.Vglobal then begin
      match (cur_frame st).slots.(Layout.slot st.layout v) with
      | Bunbound -> ()  (* declaration never executed on this path *)
      | b -> tcfree_binding st b kind
    end

and resolve_func st name : int =
  match Layout.func_id st.layout name with
  | Some fid -> fid
  | None -> raise (Runtime_error ("undefined function " ^ name))
