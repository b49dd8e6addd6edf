(** The benchmark's own span recorder, used only by traced runs.

    A span records one call into a layer, made from the benchmark's
    files: its name, start and end (monotonic-enough wall clock, ns),
    the span that caused it and the op it belongs to.  Spans are kept in
    memory and written out as JSON when the run ends.  The program's own
    tracer stays off, so traced and untraced runs execute the same
    program code. *)

type span = {
  id : int;
  name : string;
  start_ns : float;
  end_ns : float;
  parent : int;  (** -1 for a root span *)
  op : int;  (** -1 for set-up *)
}

type t = {
  mutable enabled : bool;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable stack : int list;  (** open spans, innermost first *)
  mutable op : int;
}

let create () =
  { enabled = false; spans = []; next_id = 0; stack = []; op = -1 }

let now_ns () = Unix.gettimeofday () *. 1e9

(** [with_span t name f] runs [f], recording a span around it when [t]
    is enabled; the span's duration is also returned, in ms, so callers
    can accumulate layer times without a second clock read. *)
let with_span t name f =
  if not t.enabled then begin
    let t0 = now_ns () in
    let v = f () in
    (v, (now_ns () -. t0) /. 1e6)
  end
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start_ns = now_ns () in
    let finish () =
      let end_ns = now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; start_ns; end_ns; parent; op = t.op } :: t.spans;
      (end_ns -. start_ns) /. 1e6
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let spans t = List.rev t.spans

(** Share of the op spans' time covered by their direct children:
    how much of each op's wall time the layer spans account for. *)
let coverage t =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0. in
        Hashtbl.replace child_ns s.parent (prev +. (s.end_ns -. s.start_ns)))
    t.spans;
  let root, covered =
    List.fold_left
      (fun (root, covered) s ->
        if s.name = "op" then
          ( root +. (s.end_ns -. s.start_ns),
            covered +. Option.value (Hashtbl.find_opt child_ns s.id) ~default:0. )
        else (root, covered))
      (0., 0.) t.spans
  in
  if root > 0. then covered /. root else 0.

let to_json t =
  let module Json = Gofree_obs.Json in
  Json.Obj
    [
      ("schema", Json.Str "perfbench-spans-v1");
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("name", Json.Str s.name);
                   ("start_ns", Json.Float s.start_ns);
                   ("end_ns", Json.Float s.end_ns);
                   ("parent", Json.Int s.parent);
                   ("op", Json.Int s.op);
                 ])
             (spans t)) );
    ]
