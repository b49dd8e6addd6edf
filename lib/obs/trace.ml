(** Span/instant event tracer emitting Chrome/Perfetto trace-event JSON.

    Implementation notes:

    - the singleton is an [Atomic.t] so worker domains read a coherent
      enabled/disabled state without locking on the fast path;
    - events are serialized immediately into one shared [Buffer] under a
      mutex — nothing is retained per event, so long runs cost memory
      proportional to the serialized output only;
    - timestamps come from [Unix.gettimeofday] relative to [start], in
      microseconds (the unit the trace-event format specifies), clamped
      monotone in emission order so consumers that sort-merge tracks never
      see time run backwards. *)

type state = {
  buf : Buffer.t;
  mutex : Mutex.t;
  t0 : float;
  mutable last_ts : float;
  mutable count : int;
}

let current : state option Atomic.t = Atomic.make None

let enabled () = Atomic.get current <> None

let start () =
  Atomic.set current
    (Some
       {
         buf = Buffer.create 65536;
         mutex = Mutex.create ();
         t0 = Unix.gettimeofday ();
         last_ts = 0.0;
         count = 0;
       })

let pid = 1

(* Track conventions (see the .mli). *)
let tid_main = 0

let tid_runtime = 1

let tid_worker i = 10 + i

let tid_sched d = 100 + d

let tid_reader conn = 1000 + conn

let domain_tid_key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () -> tid_main)

let domain_tid () = Domain.DLS.get domain_tid_key

let set_domain_tid tid = Domain.DLS.set domain_tid_key tid

(* Request correlation: a per-domain ambient request id.  While set,
   every event the domain emits (GC spans, pipeline phases, tcfree
   instants — anything except "M" metadata) gains an {b args.req} field,
   so one request's whole lifecycle can be filtered out of a trace.
   Per-domain, not per-thread: only set it from contexts that own their
   domain for the request's duration (the daemon's worker domains);
   systhreads sharing a domain must pass [("req", ...)] explicitly. *)
let request_id_key : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let request_id () = Domain.DLS.get request_id_key

let with_request_id rid f =
  let prev = Domain.DLS.get request_id_key in
  Domain.DLS.set request_id_key rid;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set request_id_key prev)
    f

(* Serialize one event under the state's mutex.  [ph] is the trace-event
   phase letter; [extra] appends pre-rendered JSON fields. *)
let emit ?(args = []) ~tid ~ph name =
  match Atomic.get current with
  | None -> ()
  | Some st ->
    let args =
      if ph = "M" then args
      else begin
        match Domain.DLS.get request_id_key with
        | Some rid when not (List.mem_assoc "req" args) ->
          ("req", Json.Int rid) :: args
        | _ -> args
      end
    in
    Mutex.lock st.mutex;
    let ts =
      let raw = (Unix.gettimeofday () -. st.t0) *. 1e6 in
      let ts = if raw < st.last_ts then st.last_ts else raw in
      st.last_ts <- ts;
      ts
    in
    if st.count > 0 then Buffer.add_string st.buf ",\n";
    st.count <- st.count + 1;
    let fields =
      [
        ("name", Json.Str name);
        ("cat", Json.Str "gofree");
        ("ph", Json.Str ph);
        ("ts", Json.Float ts);
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
      ]
      @ (if ph = "i" then [ ("s", Json.Str "t") ] else [])
      @ (if args = [] then [] else [ ("args", Json.Obj args) ])
    in
    Json.to_buffer st.buf (Json.Obj fields);
    Mutex.unlock st.mutex

let stop () =
  match Atomic.get current with
  | None -> "{}"
  | Some st ->
    Atomic.set current None;
    Mutex.lock st.mutex;
    let body = Buffer.contents st.buf in
    Mutex.unlock st.mutex;
    Printf.sprintf "{\"traceEvents\":[\n%s\n],\"displayTimeUnit\":\"ms\"}\n"
      body

let stop_to_file path =
  let doc = stop () in
  let oc = open_out path in
  output_string oc doc;
  close_out oc

let name_thread ~tid name =
  emit ~args:[ ("name", Json.Str name) ] ~tid ~ph:"M" "thread_name"

let begin_span ?args ~tid name = emit ?args ~tid ~ph:"B" name

let end_span ~tid name = emit ~tid ~ph:"E" name

let instant ?args ~tid name = emit ?args ~tid ~ph:"i" name

let counter ~tid name values =
  emit
    ~args:(List.map (fun (k, v) -> (k, Json.Float v)) values)
    ~tid ~ph:"C" name

let with_span ?args ~tid name f =
  if not (enabled ()) then f ()
  else begin
    begin_span ?args ~tid name;
    match f () with
    | v ->
      end_span ~tid name;
      v
    | exception e ->
      end_span ~tid name;
      raise e
  end
