(** Work-stealing goroutine scheduler ([--domains N], the only one;
    0 means one domain).  Domain 0 runs inline on the caller; domains
    1..N-1 are spawned for the run and joined before {!run} returns.
    At N = 1 the single FIFO queue makes the schedule deterministic. *)

(** Run the boot closure and every goroutine it spawns to completion.
    The state is main's state copy (already holding the scheduler
    context).  Re-raises the first exception that escaped a
    goroutine. *)
val run : Interp.parctx -> Interp.state -> (unit -> unit) -> unit
