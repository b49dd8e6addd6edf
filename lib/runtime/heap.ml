(** The simulated Go heap: object store, allocation entry points, GC
    pacing, and hooks connecting the mutator (the MiniGo interpreter) to
    the collector.

    Every MiniGo heap object is a record here, placed in a real
    mspan/mcache/mcentral slot so that tcfree's ownership and span-state
    checks behave like the paper's runtime.  Stack-allocated objects get
    records too (pointers need uniform addresses) but occupy no span and
    cost the GC nothing; the interpreter releases them when their scope
    exits.

    Payloads are an extensible variant so the runtime library stays
    independent of the interpreter's value type; the interpreter registers
    a tracer that enumerates the heap addresses a payload references. *)

type payload = ..

type payload += No_payload

type placement =
  | On_heap of Mspan.t * int  (** span and slot *)
  | On_stack of int  (** owning scope token *)

type obj = {
  addr : int;
  size : int;  (** requested bytes *)
  category : Metrics.category;
  mutable payload : payload;
  placement : placement;
  mutable marked : bool;
  mutable freed : bool;
  mutable poisoned : bool;
}

type config = {
  gogc : int;  (** heap growth percentage between GCs (GOGC) *)
  gc_disabled : bool;  (** the Go-GCOff setting of fig. 11 *)
  poison_on_free : bool;  (** §6.8's mock tcfree: corrupt freed memory *)
  concurrent_gc_window : int;
      (** bytes of allocation after a GC cycle during which the collector
          is considered "running concurrently" and tcfree backs off (§5);
          byte-based so the window has the same duration for small- and
          large-object workloads *)
  min_heap : int;  (** first GC trigger threshold *)
  grow_map_free_old : bool;
      (** GrowMapAndFreeOld (§4.6.2): explicitly free a growing map's
          abandoned bucket array.  Off in the stock-Go runtime. *)
}

let default_config =
  {
    gogc = 100;
    gc_disabled = false;
    poison_on_free = false;
    concurrent_gc_window = 16 * 1024;
    min_heap = 512 * 1024;
    grow_map_free_old = true;
  }

type t = {
  config : config;
  metrics : Metrics.t;
      (** sequential heap: the one record every event updates.  Shared
          heap: shard 0 of [metric_shards]; read {!merged_metrics}. *)
  pages : Pageheap.t;
  central : Mcentral.t;
  mutable caches : Mcache.t array;  (** one per logical processor *)
  objects : obj Objtable.t;  (** live (and stack) objects by address *)
  shared : bool;
      (** true when multiple domains mutate this heap concurrently: the
          object table is sharded+locked, mcentral/pageheap serialize
          internally, metrics stripe per domain, and frees serialize on
          [free_mutex] *)
  metric_shards : Metrics.t array;
      (** per-domain metric stripes; [metric_shards.(0) == metrics].
          Length 1 unless [shared]. *)
  live_atomic : int Atomic.t;
      (** shared mode: authoritative live-byte count for GC pacing
          (per-shard [heap_live] values only sum to it, individually
          they are meaningless) *)
  max_live_atomic : int Atomic.t;  (** shared mode: true concurrent peak *)
  free_mutex : Mutex.t;
      (** shared mode: serializes tcfree bodies so the check-then-free
          sequence (§5) is atomic with respect to other freeing domains;
          uncontended in the common path since most frees are local *)
  tomb_mutex : Mutex.t;  (** guards [tombstones] in shared poison runs *)
  next_addr : int Atomic.t;
  mutable next_gc : int;  (** heap_live threshold for the next cycle *)
  mutable gc_window_left : int;
      (** remaining bytes of the simulated concurrent-mark window *)
  mutable dangling_spans : Mspan.t list;  (** fig. 9 step-1 output *)
  (* mutator hooks, registered by the interpreter *)
  mutable trace_payload : payload -> (int -> unit) -> unit;
  mutable poison_payload : payload -> unit;
      (** poison mode: overwrite the payload's contents so any later read
          through a stale reference fails loudly (§6.8) *)
  mutable iter_roots : (int -> unit) -> unit;
  gc_requested : bool Atomic.t;
      (** set by the pacer on any domain, polled at every safepoint *)
  mutable sampler : Sampler.t option;
      (** periodic metrics snapshots; attached by the runner when
          [--metrics-json]/[sample_every] asks for a time series *)
  mutable last_gc_end_ns : int64;
      (** wall-clock end of the previous cycle; 0 before the first —
          feeds the inter-pause-gap histogram *)
  tombstones : (int, string) Hashtbl.t;
      (** freed address → how it died; diagnostic detail for corruption
          reports *)
}

(* A placeholder filling the object table's empty value slots; never
   returned by a lookup (its address 0 is not a valid key). *)
let dummy_obj =
  {
    addr = 0;
    size = 0;
    category = Metrics.Cat_other;
    payload = No_payload;
    placement = On_stack 0;
    marked = false;
    freed = true;
    poisoned = false;
  }

let create ?(config = default_config) ?(nprocs = 4) ?(shared = false) () =
  let pages = Pageheap.create () in
  let central = Mcentral.create pages in
  if shared then begin
    pages.Pageheap.locked <- true;
    central.Mcentral.locked <- true
  end;
  let metrics = Metrics.create () in
  {
    config;
    metrics;
    pages;
    central;
    caches = Array.init nprocs Mcache.create;
    objects =
      Objtable.create ~capacity:4096
        ~shards:(if shared then max 2 nprocs else 1)
        ~locked:shared ~dummy:dummy_obj ();
    shared;
    metric_shards =
      (if shared then
         Array.init nprocs (fun i -> if i = 0 then metrics else Metrics.create ())
       else [| metrics |]);
    live_atomic = Atomic.make 0;
    max_live_atomic = Atomic.make 0;
    free_mutex = Mutex.create ();
    tomb_mutex = Mutex.create ();
    next_addr = Atomic.make 1;
    next_gc = config.min_heap;
    gc_window_left = 0;
    dangling_spans = [];
    trace_payload = (fun _ _ -> ());
    poison_payload = (fun _ -> ());
    iter_roots = (fun _ -> ());
    gc_requested = Atomic.make false;
    sampler = None;
    last_gc_end_ns = 0L;
    tombstones = Hashtbl.create 64;
  }

let nprocs t = Array.length t.caches

(** Is the (simulated concurrent) collector currently running?  tcfree
    refuses to race it (§5). *)
let gc_running t = t.gc_window_left > 0

let find_obj t addr = Objtable.find_opt t.objects addr

let fresh_addr t = Atomic.fetch_and_add t.next_addr 1

(** The metric stripe [thread] writes to: the single shared record on a
    sequential heap, the domain's own shard on a shared one. *)
let[@inline] metrics_for t thread =
  if t.shared then
    t.metric_shards.(thread mod Array.length t.metric_shards)
  else t.metrics

(** Authoritative live-byte count — drives GC pacing in both modes. *)
let[@inline] live_bytes t =
  if t.shared then Atomic.get t.live_atomic else t.metrics.Metrics.heap_live

let bump_live t bytes =
  let live = Atomic.fetch_and_add t.live_atomic bytes + bytes in
  let rec raise_max () =
    let m = Atomic.get t.max_live_atomic in
    if live > m && not (Atomic.compare_and_set t.max_live_atomic m live) then
      raise_max ()
  in
  raise_max ()

let drop_live t bytes = ignore (Atomic.fetch_and_add t.live_atomic (-bytes))

(** One coherent metrics record.  On a sequential heap this is the live
    record itself; on a shared heap the per-domain stripes are summed
    and the atomically tracked live/peak values overwrite the stripe
    artifacts.  Only meaningful when no domain is mutating. *)
let merged_metrics t =
  if not t.shared then t.metrics
  else begin
    let m = Metrics.merged t.metric_shards in
    m.Metrics.heap_live <- Atomic.get t.live_atomic;
    m.Metrics.max_heap <- Atomic.get t.max_live_atomic;
    m
  end

(** Allocate a heap object of [size] bytes on behalf of [thread].
    Checks GC pacing first (setting [gc_requested] — the interpreter runs
    the cycle at its next safepoint, keeping collection out of the middle
    of an allocation). *)
let alloc_heap t ~thread ~category ~size ~payload : obj =
  if (not t.config.gc_disabled) && live_bytes t >= t.next_gc then
    Atomic.set t.gc_requested true;
  if t.gc_window_left > 0 then
    t.gc_window_left <- max 0 (t.gc_window_left - max 1 size);
  let thread = thread mod Array.length t.caches in
  let placement =
    match Sizeclass.class_for_size (max 1 size) with
    | Some class_idx ->
      let span, slot =
        Mcache.alloc t.caches.(thread) t.central class_idx
      in
      On_heap (span, slot)
    | None ->
      (* Large object: dedicated span, pushed straight to mcentral-like
         shared ownership (fig. 9 treats it outside any mcache). *)
      let span = Mspan.create_large size in
      Pageheap.alloc_pages t.pages span.Mspan.npages;
      span.Mspan.state <- Mspan.In_mcentral;
      ignore (Mspan.alloc_slot span);
      On_heap (span, 0)
  in
  let obj =
    {
      addr = fresh_addr t;
      size;
      category;
      payload;
      placement;
      marked = false;
      freed = false;
      poisoned = false;
    }
  in
  Objtable.replace t.objects obj.addr obj;
  Metrics.count_alloc (metrics_for t thread) ~category ~heap:true ~bytes:size;
  if t.shared then bump_live t size;
  obj

(** Allocate a stack object: no span, no GC cost; released when scope
    [scope] exits. *)
let alloc_stack ?(thread = 0) t ~scope ~category ~size ~payload : obj =
  let obj =
    {
      addr = fresh_addr t;
      size;
      category;
      payload;
      placement = On_stack scope;
      marked = false;
      freed = false;
      poisoned = false;
    }
  in
  Objtable.replace t.objects obj.addr obj;
  Metrics.count_alloc (metrics_for t thread) ~category ~heap:false ~bytes:size;
  obj

let is_stack_obj obj =
  match obj.placement with On_stack _ -> true | On_heap _ -> false

(* Tombstones are diagnostic detail for corruption reports; they are only
   recorded in poison mode, where wrong frees are being hunted — normal
   runs skip the bookkeeping entirely. *)
let bury t addr reason =
  if t.config.poison_on_free then
    if t.shared then begin
      Mutex.lock t.tomb_mutex;
      Hashtbl.replace t.tombstones addr reason;
      Mutex.unlock t.tomb_mutex
    end
    else Hashtbl.replace t.tombstones addr reason

let death_of t addr =
  match Hashtbl.find_opt t.tombstones addr with
  | Some reason -> reason
  | None ->
    if t.config.poison_on_free then "never existed"
    else "tombstones disabled outside poison mode"

(** Drop a stack object at scope exit. *)
let release_stack t obj =
  if not obj.freed then begin
    obj.freed <- true;
    if t.config.poison_on_free then begin
      obj.poisoned <- true;
      t.poison_payload obj.payload
    end;
    bury t obj.addr "stack scope exit";
    Objtable.remove t.objects obj.addr
  end

let live_heap_objects t =
  Objtable.fold
    (fun _ o acc -> if is_stack_obj o then acc else o :: acc)
    t.objects []
