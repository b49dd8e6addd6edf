(** Tree-walking interpreter for instrumented MiniGo over the simulated
    GoFree runtime.  Goroutines are cooperative fibers; GC runs only at
    statement-boundary safepoints; tcfree statements call the runtime's
    free family.

    Variables resolve through a per-program {!Layout} into pre-sized
    frame slot arrays; calls go through interned function ids.  The
    state's [dispatch] hook selects the execution engine per call:
    {!call_by_id}, this module's reference tree-walker, or the bytecode
    VM installed by {!Vm}.  Both engines share the allocation/map/call
    helpers exported below, so they are observationally identical by
    construction. *)

open Minigo
module Rt = Gofree_runtime

exception Runtime_error of string

exception Panic of Value.value

exception Return_values of Value.value list

exception Break_loop

exception Continue_loop

(** A variable's storage: a frame cell, or a 1-cell heap box when its
    address escapes (the analysis decides).  [Bunbound] marks a slot
    whose declaration has not executed on this path. *)
type binding =
  | Bunbound
  | Bdirect of Value.cell
  | Bboxed of int * Value.cell

type frame = {
  fn : Tast.func;
  slots : binding array;  (** locals by {!Layout} frame slot *)
  mutable defers : (int * Value.value list) list;
      (** interned function id + evaluated arguments *)
  mutable stack_objs : Rt.Heap.obj list list;
  mutable lazy_scopes : int;
      (** open scopes not yet materialized in [stack_objs] because no
          stack object has registered in them *)
  mutable temps : Value.value list;
      (** GC pins for values produced in the current statement *)
  gid : int;
}

type goroutine = {
  g_id : int;
  mutable g_frames : frame list;
  (* operand-stack pool for the bytecode VM; windows are strictly LIFO
     within a goroutine and never alive across a safepoint *)
  mutable g_stk_v : Value.value array;
  mutable g_top_v : int;
  mutable g_stk_i : int array;
  mutable g_top_i : int;
  mutable g_pending : Value.value list;
      (** spawn arguments of a not-yet-started goroutine; GC roots
          until the body starts *)
}

(** Which execution engine interprets function bodies.  Both share
    the allocation/map/call/safepoint helpers exported below through the
    state's [dispatch] hook, so observable behaviour (output, metrics,
    GC) is identical by construction. *)
type engine =
  | Eng_reference  (** tree-walking reference interpreter (this module) *)
  | Eng_bytecode  (** flat bytecode VM ({!Emit}/{!Vm}) *)

type run_config = {
  heap_config : Rt.Heap.config;
  seed : int64;  (** PRNG seed for MiniGo's [rand] *)
  max_steps : int;  (** hard budget; exceeded = [Runtime_error] *)
  yield_every : int;  (** steps between goroutine switches *)
  nprocs : int;  (** logical processors (mcaches) *)
  migrate_every : int;  (** yields between simulated P migrations *)
  sample_every : int;
      (** snapshot the heap counters every N steps (0 = off) *)
  engine : engine;
      (** which engine executes function bodies; the reference
          tree-walker is slowest but is the semantic ground truth *)
  domains : int;
      (** run goroutines on N OCaml domains through the work-stealing
          scheduler; 0 (the default) is an alias for 1.  One domain
          keeps the heap unshared and the schedule deterministic. *)
}

val default_config : run_config

type state = {
  program : Tast.program;
  decisions : Decisions.t;
  layout : Layout.t;
  heap : Rt.Heap.t;
  output : Buffer.t;
  globals : binding array;  (** by {!Layout} global slot *)
  config : run_config;
  mutable dispatch : state -> int -> Value.value list -> Value.value list;
      (** how calls execute: {!call_by_id} or compiled bodies; defers
          and goroutine entry points route through it *)
  mutable current : goroutine;
  mutable steps : int;
  mutable next_scope_token : int;
  mutable unwinding : Value.value option;
      (** the active panic value while defers run during unwinding *)
  mutable ic_hits : int;
      (** bytecode-engine inline-cache hits (map-key + struct-field
          sites); flushed into the telemetry registry by the runner *)
  mutable ic_misses : int;
  mutable yield_at : int;
      (** next step count at which to yield (advances by
          [config.yield_every]) *)
  mutable dom : int;
      (** index of the domain currently executing this state's
          goroutine *)
  par : parctx;  (** the run's shared scheduler context *)
}

(** Shared context of one run: per-domain run queues, the goroutine
    registry (the GC's root set), scheduler
    bookkeeping and the stop-the-world handshake state.
    [p_mutex]/[p_work] guard every mutable field except the queues
    (internally locked) and [p_rng] (atomic). *)
and parctx = {
  p_nd : int;  (** number of domains *)
  p_queues : ptask Gofree_sched.Wsq.t array;  (** one per domain *)
  p_mutex : Mutex.t;
  p_work : Condition.t;
  mutable p_live : int;  (** goroutines queued or running *)
  mutable p_running : int;  (** domains currently executing a slice *)
  mutable p_regs : (goroutine * state) list;
  mutable p_next_gid : int;  (** last goroutine id handed out *)
  mutable p_yields : int;
  mutable p_budget : int;
      (** nd = 1 only: steps left in the slice shared across
          goroutines *)
  mutable p_steals : int;  (** goroutines moved by work stealing *)
  mutable p_spawns : int;
  mutable p_steps_done : int;
      (** summed step counts of finished goroutines *)
  mutable p_ic_hits : int;  (** inline-cache hits of finished goroutines *)
  mutable p_ic_misses : int;
  mutable p_abort : exn option;
  mutable p_gc_active : bool;
  mutable p_gc_cycle : Rt.Gc_collector.Par.cycle option;
  p_out_mutex : Mutex.t;
  p_rng : int64 Atomic.t;
  p_dls : int Domain.DLS.key;
}

and ptask = {
  tk_st : state;  (** the goroutine's state copy ([dom] set per slice) *)
  tk_run : unit -> unit;  (** start the fiber or resume its continuation *)
}

val make_parctx : nd:int -> seed:int64 -> yield_every:int -> parctx

(** Enumerate every root address: globals, then every registered
    goroutine's frame slots, statement pins, pending defer arguments
    and not-yet-started spawn arguments. *)
val iter_roots : parctx -> globals:binding array -> (int -> unit) -> unit

(** Append to the program output; whole-string-atomic when nd > 1. *)
val emit_str : state -> string -> unit

(** Package a goroutine body as a schedulable task whose yields
    re-enqueue on the domain executing it. *)
val fiber_task : parctx -> state -> (unit -> unit) -> ptask

val eval : state -> Tast.expr -> Value.value

(** Call a MiniGo function with already-evaluated arguments through the
    state's dispatch; runs its defers on both normal exit and panic
    unwind. *)
val call_function : state -> string -> Value.value list -> Value.value list

(** The reference (tree-walking) call path, by interned function id; the
    default value of [dispatch]. *)
val call_by_id : state -> int -> Value.value list -> Value.value list

(** Address-of an lvalue in the current frame, as a [VPtr].  The
    bytecode emitter's fallback for a field whose base is a nested
    struct value: evaluating an expression takes no safepoint, so the
    walker's steps and metrics are the VM's. *)
val eval_addr : state -> Tast.lvalue -> Value.value

(** {2 Shared execution machinery}

    Everything below is the single implementation of the runtime
    semantics used by both the reference walker and the bytecode VM —
    keeping them shared is what makes the two engines agree on every
    allocator-visible event. *)

val cur_frame : state -> frame

(** Statement boundary: step accounting, pin reset, GC poll, sampler
    poll, cooperative yield. *)
val safepoint : state -> unit

(** The safepoint's slow path (budget check, GC — stop-the-world
    handshake in multi-domain runs —, sampling, yield); exported for the
    bytecode VM, whose fast path replicates {!safepoint}'s guard. *)
val safepoint_slow : state -> unit

val push_scope : state -> frame -> int

val pop_scope : state -> frame -> unit

(** Pin a value on [frame] for the rest of the current statement. *)
val pin : state -> frame -> Value.value -> Value.value

val rand_int : state -> int -> int

val zero_of : state -> Types.t -> unit -> Value.value

(** Bind [var] in [frame], heap-boxing it when the analysis says its
    address escapes. *)
val declare_var : state -> frame -> Tast.var -> Value.value -> unit

val truthy : Value.value -> bool

val as_int : Value.value -> int

(** Strict binary operators ([&&]/[||] are handled lazily by callers). *)
val eval_binop : Ast.binop -> Value.value -> Value.value -> Value.value

val value_eq : Value.value -> Value.value -> bool

val alloc_obj :
  state ->
  frame ->
  site:Tast.alloc_site ->
  category:Rt.Metrics.category ->
  size:int ->
  payload:Rt.Heap.payload ->
  Rt.Heap.obj

val alloc_heap_obj :
  state ->
  category:Rt.Metrics.category ->
  size:int ->
  payload:Rt.Heap.payload ->
  Rt.Heap.obj

(** [make([]T, len, cap)]: a zero-filled backing array of
    [max cap len] elements; [zero_of] builds [T]'s zero value. *)
val make_slice_obj :
  state ->
  frame ->
  site:Tast.alloc_site ->
  len:int ->
  cap:int ->
  zero_of:(unit -> Value.value) ->
  Value.value

(** A slice literal over already-evaluated (copied) elements. *)
val slice_lit :
  state -> frame -> site:Tast.alloc_site -> Value.value list -> Value.value

(** [copy(dst, src)] with memmove semantics; the element count. *)
val slice_copy : Value.slice -> Value.slice -> int

val make_map_obj : state -> frame -> site:Tast.alloc_site -> Value.value

(** The live header and buckets of the map at an address; raises
    {!Value.Corruption} when either has been freed.  Exported for the
    bytecode VM's map-site inline caches, which key on
    [Value.map_data.md_version]. *)
val map_data :
  state -> int -> Value.map_data * (Value.value * Value.value) list array

val map_store : state -> int -> Value.value -> Value.value -> unit

val map_get :
  state -> int -> Value.value -> zero:(unit -> Value.value) -> Value.value

val map_delete : state -> int -> Value.value -> unit

val map_len : state -> int -> int

(** Key snapshot for [for k := range m], in iteration order. *)
val map_range_keys : state -> int -> Value.value list

(** Grow a slice by already-evaluated elements (append semantics:
    in-place within capacity, else heap reallocation).  A reallocation
    copies the old elements and fills the spare capacity with the
    element zero that [zero_of] builds. *)
val eval_append :
  state ->
  frame ->
  site:Tast.alloc_site ->
  zero_of:(unit -> Value.value) ->
  Value.value ->
  Value.value list ->
  Value.value

(** Apply a tcfree of the given kind to an already-resolved binding
    (callers filter [Bunbound] — never executed — as a no-op). *)
val tcfree_binding : state -> binding -> Tast.free_kind -> unit

(** The shared call protocol: push a pre-sized frame, [bind] the
    arguments, run [body]; defers, scope release and the panic/recover
    handshake happen on every exit path. *)
val call_fn :
  state ->
  Tast.func ->
  nslots:int ->
  bind:(state -> frame -> Value.value list -> unit) ->
  body:(state -> frame -> unit) ->
  zeros:(state -> Value.value list) ->
  Value.value list ->
  Value.value list

(** Start a goroutine running function [fid] (through dispatch). *)
val spawn_goroutine : state -> int -> Value.value list -> unit
