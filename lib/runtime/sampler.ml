(** Periodic metrics sampler: every [every] interpreter steps, snapshot
    the heap counters into a bounded ring so long runs still dump a
    tractable time series (`--metrics-json` includes it). *)

module Json = Gofree_obs.Json
module Ring = Gofree_obs.Ring

type sample = {
  sm_step : int;  (** interpreter step at which the snapshot was taken *)
  sm_heap_live : int;
  sm_span_bytes : int;  (** pages backing live spans, in bytes *)
  sm_gc_time_ns : int64;  (** cumulative *)
  sm_gc_cycles : int;
  sm_alloced_bytes : int;  (** cumulative *)
  sm_freed_bytes : int;  (** cumulative, tcfree only *)
}

(* [lock] guards the ring: with goroutines running on multiple domains,
   several mutators can reach a sampling safepoint concurrently, and
   [Ring.push] mutates head/length state that would corrupt under a
   race.  Uncontended at one domain. *)
type t = { every : int; ring : sample Ring.t; lock : Mutex.t }

let create ?(capacity = 4096) ~every () =
  if every <= 0 then invalid_arg "Sampler.create: every must be positive";
  { every; ring = Ring.create ~capacity; lock = Mutex.create () }

let every t = t.every

(** Should a snapshot be taken at interpreter step [step]? *)
let due t ~step = step mod t.every = 0

let record t ~step ~span_bytes (m : Metrics.t) =
  let s =
    {
      sm_step = step;
      sm_heap_live = m.Metrics.heap_live;
      sm_span_bytes = span_bytes;
      sm_gc_time_ns = m.Metrics.gc_time_ns;
      sm_gc_cycles = m.Metrics.gc_cycles;
      sm_alloced_bytes = m.Metrics.alloced_bytes;
      sm_freed_bytes = m.Metrics.freed_bytes;
    }
  in
  Mutex.lock t.lock;
  Ring.push t.ring s;
  Mutex.unlock t.lock

let samples t =
  Mutex.lock t.lock;
  let l = Ring.to_list t.ring in
  Mutex.unlock t.lock;
  l

let sample_to_json s =
  Json.Obj
    [
      ("step", Json.Int s.sm_step);
      ("heap_live", Json.Int s.sm_heap_live);
      ("span_bytes", Json.Int s.sm_span_bytes);
      ("gc_time_ns", Json.Int (Int64.to_int s.sm_gc_time_ns));
      ("gc_cycles", Json.Int s.sm_gc_cycles);
      ("alloced_bytes", Json.Int s.sm_alloced_bytes);
      ("freed_bytes", Json.Int s.sm_freed_bytes);
    ]

(** The time series as JSON.  [dropped] counts samples lost to ring
    wraparound, so consumers can tell a truncated series from a full
    one. *)
let to_json t =
  Json.Obj
    [
      Gofree_obs.Schema.(field Samples);
      ("every", Json.Int t.every);
      ("capacity", Json.Int (Ring.capacity t.ring));
      ("recorded", Json.Int (Ring.pushed t.ring));
      ("dropped", Json.Int (Ring.pushed t.ring - Ring.length t.ring));
      ("samples", Json.List (List.map sample_to_json (samples t)));
    ]
