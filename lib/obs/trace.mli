(** Span/instant event tracer emitting Chrome/Perfetto trace-event JSON
    (the [trace_event] format: one `B`/`E` pair per span, `i` instants,
    `C` counters, `M` metadata).  Load the output at https://ui.perfetto.dev
    or chrome://tracing.

    The tracer is a process-wide singleton so every layer — compiler
    pipeline, build driver (including its worker domains), runtime and
    interpreter — writes into one stream.  When disabled (the default),
    every emit function is a single atomic load and branch: no allocation,
    no formatting.  Hot call sites that build argument lists should still
    guard with {!enabled} so the arguments are only constructed when a
    trace is being captured.

    Emission is serialized by a mutex, so worker domains can trace
    concurrently; timestamps are clamped monotone in emission order. *)

(** {1 Lifecycle} *)

val enabled : unit -> bool

(** Start capturing into a fresh in-memory buffer. *)
val start : unit -> unit

(** Stop capturing and return the complete JSON document
    ([{"traceEvents": [...]}]).  Returns ["{}"] if tracing was off. *)
val stop : unit -> string

(** Stop capturing and write the JSON document to [path]. *)
val stop_to_file : string -> unit

(** {1 Track conventions}

    [tid] selects the Perfetto track an event lands on.  The layers agree
    on the following assignment; [name_thread] attaches human-readable
    labels. *)

(** Track 0: the main thread — pipeline phases, build orchestration. *)
val tid_main : int

(** Track 1: the simulated runtime — GC cycles and tcfree activity. *)
val tid_runtime : int

(** Track of build worker domain [i] (10 + i). *)
val tid_worker : int -> int

(** Track of goroutine-scheduler domain [d] (100 + d): one span per
    goroutine slice it executes. *)
val tid_sched : int -> int

(** Track of the daemon's reader thread for connection [conn]
    (1000 + conn) — request receive/queue/respond events. *)
val tid_reader : int -> int

(** The current domain's default track: {!tid_main} unless
    {!set_domain_tid} was called on this domain (the build driver pins
    each worker domain to its own track, so pipeline spans emitted inside
    a worker land on the worker's track). *)
val domain_tid : unit -> int

val set_domain_tid : int -> unit

(** {1 Request correlation}

    While a request id is set on a domain, every event that domain emits
    (except "M" metadata) carries [args.req = id] — the daemon's worker
    domains wrap request execution in {!with_request_id} so pipeline,
    GC and tcfree spans nested under a request are attributable to it.
    The id is per-{e domain}: systhreads that share a domain (the
    daemon's reader threads) must pass [("req", ...)] in [?args]
    explicitly instead.  An explicit ["req"] arg always wins. *)

val request_id : unit -> int option

val with_request_id : int option -> (unit -> 'a) -> 'a

(** {1 Emission} *)

val name_thread : tid:int -> string -> unit

(** Begin a duration span on [tid]. *)
val begin_span : ?args:(string * Json.t) list -> tid:int -> string -> unit

(** End the innermost open span named [name] on [tid]. *)
val end_span : tid:int -> string -> unit

(** Thread-scoped instant event. *)
val instant : ?args:(string * Json.t) list -> tid:int -> string -> unit

(** Counter track sample (rendered as a stacked area chart). *)
val counter : tid:int -> string -> (string * float) list -> unit

(** [with_span ~tid name f] wraps [f] in a span, ending it on exceptions
    too. *)
val with_span : ?args:(string * Json.t) list -> tid:int -> string ->
  (unit -> 'a) -> 'a
