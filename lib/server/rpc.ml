(** The [gofree-rpc-v2] wire protocol of [gofreec serve].

    Transport: a Unix-domain stream socket carrying newline-delimited
    JSON — one request object per line in, one response object per line
    out.  Responses may arrive in a different order than the requests
    that caused them (the daemon dispatches to a worker pool); clients
    correlate them through the echoed [id].

    Request envelope:
    {v
    {"schema":"gofree-rpc-v2","id":7,"method":"analyze","params":{...}}
    v}

    Response envelope:
    {v
    {"schema":"gofree-rpc-v2","id":7,"ok":true,"result":{...}}
    {"schema":"gofree-rpc-v2","id":7,"ok":false,
     "error":{"code":"compile_error","message":"..."}}
    v}

    Methods: [analyze], [build], [run], [explain], [stats], [telemetry],
    [shutdown].
    Program sources are passed either inline (["source"]) or as a path
    the {e daemon} reads (["file"]).  The pipeline configuration is the
    ["config"] param, either
    - a structured object, every field optional over the paper's
      defaults ([Gofree_api.config_of_json]):
      {v
      {"config":{"targets":"all",
                 "precision":{"field_sensitive":true,
                              "placement":"last_use"}}}
      v}
    - or, as in [gofree-rpc-v1] (whose envelopes the daemon still
      decodes), a preset name string ([gofree] | [go] | [all-targets]
      | [no-ipa] | [field-sensitive] | [last-use] | [precise]).
    Execution knobs ([gc_off], [poison], [gogc], [seed],
    [sample_every], [engine], [domains]) mirror the CLI flags;
    ["domains"] is 0..64, where 0 (the default) means one domain.
    ["engine"] selects
    the execution engine by name ([reference] | [bytecode],
    default [bytecode]); the historical boolean ["reference"] param is
    kept as an alias for [{"engine":"reference"}].

    Any pooled request may carry an optional ["deadline_ms"] param: if
    the request is still {e queued} when that much time has passed since
    receipt, the daemon answers [timed_out] instead of executing it
    (requests already running are never interrupted — one response per
    request, always).  Under overload the daemon sheds with an
    [overloaded] error response rather than blocking the connection;
    see the admission-control notes in [server.ml]. *)

module Json = Gofree_obs.Json
module Schema = Gofree_obs.Schema

let schema_tag = Schema.tag Schema.Rpc

(* ---------------------------------------------------------------- *)
(* Requests                                                          *)
(* ---------------------------------------------------------------- *)

(** Program source, inline or read by the daemon. *)
type src = Inline of string | File of string

type request =
  | Analyze of { src : src; config : Gofree_api.config; explain : bool }
  | Build of {
      dir : string;
      config : Gofree_api.config;
      force : bool;  (** also bypasses the daemon's resident cache *)
      jobs : int;
      run : bool;
      cache_dir : string option;
      options : Gofree_api.run_options;
    }
  | Run of {
      src : src;
      config : Gofree_api.config;
      options : Gofree_api.run_options;
    }
  | Explain of { src : src; config : Gofree_api.config }
  | Stats
  | Telemetry  (** the full [gofree-telemetry-v1] registry snapshot *)
  | Shutdown

let method_name = function
  | Analyze _ -> "analyze"
  | Build _ -> "build"
  | Run _ -> "run"
  | Explain _ -> "explain"
  | Stats -> "stats"
  | Telemetry -> "telemetry"
  | Shutdown -> "shutdown"

(** A decoded request, the id to echo in its response ([Json.Null] when
    the client sent none), and its queueing deadline, if any. *)
type incoming = {
  rq_id : Json.t;
  rq_request : request;
  rq_deadline_ms : int option;
}

(* ---------------------------------------------------------------- *)
(* Decoding                                                          *)
(* ---------------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let opt_bool ~default key params =
  match Json.member key params with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> bad "param %S must be a boolean" key

let opt_int ~default key params =
  match Json.member key params with
  | None | Some Json.Null -> default
  | Some (Json.Int n) -> n
  | Some _ -> bad "param %S must be an integer" key

let opt_string key params =
  match Json.member key params with
  | None | Some Json.Null -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> bad "param %S must be a string" key

let req_string key params =
  match opt_string key params with
  | Some s -> s
  | None -> bad "missing required param %S" key

let src_of_params params =
  match (opt_string "source" params, opt_string "file" params) with
  | Some s, None -> Inline s
  | None, Some f -> File f
  | None, None -> bad "one of params \"source\" or \"file\" is required"
  | Some _, Some _ -> bad "params \"source\" and \"file\" are exclusive"

(* ["config"]: a structured object (v2) or a preset name string (v1).
   Absent means the paper's default configuration. *)
let config_of_params params =
  match Json.member "config" params with
  | None | Some Json.Null -> Gofree_api.Preset.(to_config default)
  | Some (Json.Str name) -> begin
    match Gofree_api.Preset.of_name name with
    | Some p -> Gofree_api.Preset.to_config p
    | None ->
      bad
        "unknown config preset %S (gofree | go | all-targets | no-ipa | \
         field-sensitive | last-use | precise)"
        name
  end
  | Some (Json.Obj _ as j) -> begin
    match Gofree_api.config_of_json j with
    | Ok c -> c
    | Error m -> bad "%s" m
  end
  | Some _ -> bad "param \"config\" must be an object or a preset name"

let options_of_params params =
  let d = Gofree_api.default_run_options in
  {
    Gofree_api.gc_off = opt_bool ~default:d.Gofree_api.gc_off "gc_off" params;
    poison = opt_bool ~default:d.Gofree_api.poison "poison" params;
    gogc = opt_int ~default:d.Gofree_api.gogc "gogc" params;
    seed = opt_int ~default:d.Gofree_api.seed "seed" params;
    sample_every =
      opt_int ~default:d.Gofree_api.sample_every "sample_every" params;
    engine =
      (match opt_string "engine" params with
      | Some name -> begin
        match Gofree_api.engine_of_name name with
        | Some e -> e
        | None ->
          bad "unknown engine %S (reference | bytecode)" name
      end
      | None ->
        (* historical boolean alias for the reference tree-walker *)
        if opt_bool ~default:false "reference" params then
          Gofree_api.Eng_reference
        else d.Gofree_api.engine);
    domains =
      (let n = opt_int ~default:d.Gofree_api.domains "domains" params in
       if n < 0 || n > 64 then bad "param \"domains\" must be in 0..64"
       else n);
  }

let request_of_json (j : Json.t) : incoming =
  (match Schema.check Schema.Rpc j with
  | Ok () -> ()
  | Error m -> bad "%s" m);
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  (match id with
  | Json.Null | Json.Int _ | Json.Str _ -> ()
  | _ -> bad "\"id\" must be an integer or a string");
  let meth =
    match Json.member "method" j with
    | Some (Json.Str m) -> m
    | Some _ -> bad "\"method\" must be a string"
    | None -> bad "missing \"method\""
  in
  let params =
    match Json.member "params" j with
    | None | Some Json.Null -> Json.Obj []
    | Some (Json.Obj _ as p) -> p
    | Some _ -> bad "\"params\" must be an object"
  in
  let request =
    match meth with
    | "analyze" ->
      Analyze
        {
          src = src_of_params params;
          config = config_of_params params;
          explain = opt_bool ~default:false "explain" params;
        }
    | "build" ->
      Build
        {
          dir = req_string "dir" params;
          config = config_of_params params;
          force = opt_bool ~default:false "force" params;
          (* default 1: build-internal analysis domains would multiply
             with the daemon's own worker pool *)
          jobs = opt_int ~default:1 "jobs" params;
          run = opt_bool ~default:false "run" params;
          cache_dir = opt_string "cache_dir" params;
          options = options_of_params params;
        }
    | "run" ->
      Run
        {
          src = src_of_params params;
          config = config_of_params params;
          options = options_of_params params;
        }
    | "explain" ->
      Explain
        { src = src_of_params params; config = config_of_params params }
    | "stats" -> Stats
    | "telemetry" -> Telemetry
    | "shutdown" -> Shutdown
    | m ->
      bad
        "unknown method %S (analyze | build | run | explain | stats | \
         telemetry | shutdown)" m
  in
  let deadline_ms =
    match Json.member "deadline_ms" params with
    | None | Some Json.Null -> None
    | Some (Json.Int n) when n > 0 -> Some n
    | Some _ -> bad "param \"deadline_ms\" must be a positive integer"
  in
  { rq_id = id; rq_request = request; rq_deadline_ms = deadline_ms }

(** Decode one request line.  [Error (id, message)] echoes the request's
    [id] when the line parsed far enough to recover one. *)
let decode (line : string) : (incoming, Json.t * string) result =
  match Json.parse line with
  | exception Json.Parse_error m -> Error (Json.Null, "bad JSON: " ^ m)
  | j -> begin
    let id =
      match Json.member "id" j with
      | Some (Json.Int _ as id) | Some (Json.Str _ as id) -> id
      | _ -> Json.Null
    in
    match request_of_json j with
    | incoming -> Ok incoming
    | exception Bad m -> Error (id, m)
  end

(* ---------------------------------------------------------------- *)
(* Encoding                                                          *)
(* ---------------------------------------------------------------- *)

let request_to_json ?(id = Json.Null) ?deadline_ms (r : request) : Json.t =
  (* canonical v2 encoding: the structured object, elided when the
     request runs the paper's default configuration *)
  let config_field c =
    if c = Gofree_api.Preset.(to_config default) then []
    else [ ("config", Gofree_api.config_to_json c) ]
  in
  let src_fields = function
    | Inline s -> [ ("source", Json.Str s) ]
    | File f -> [ ("file", Json.Str f) ]
  in
  let options_fields (o : Gofree_api.run_options) =
    let d = Gofree_api.default_run_options in
    (if o.Gofree_api.gc_off <> d.Gofree_api.gc_off then
       [ ("gc_off", Json.Bool o.Gofree_api.gc_off) ]
     else [])
    @ (if o.Gofree_api.poison <> d.Gofree_api.poison then
         [ ("poison", Json.Bool o.Gofree_api.poison) ]
       else [])
    @ (if o.Gofree_api.gogc <> d.Gofree_api.gogc then
         [ ("gogc", Json.Int o.Gofree_api.gogc) ]
       else [])
    @ (if o.Gofree_api.seed <> d.Gofree_api.seed then
         [ ("seed", Json.Int o.Gofree_api.seed) ]
       else [])
    @ (if o.Gofree_api.sample_every <> d.Gofree_api.sample_every then
         [ ("sample_every", Json.Int o.Gofree_api.sample_every) ]
       else [])
    @ (if o.Gofree_api.engine <> d.Gofree_api.engine then
         [ ("engine", Json.Str (Gofree_api.engine_name o.Gofree_api.engine)) ]
       else [])
    @
    if o.Gofree_api.domains <> d.Gofree_api.domains then
      [ ("domains", Json.Int o.Gofree_api.domains) ]
    else []
  in
  let params =
    match r with
    | Analyze { src; config; explain } ->
      src_fields src @ config_field config
      @ if explain then [ ("explain", Json.Bool true) ] else []
    | Build { dir; config; force; jobs; run; cache_dir; options } ->
      [ ("dir", Json.Str dir) ]
      @ config_field config
      @ (if force then [ ("force", Json.Bool true) ] else [])
      @ [ ("jobs", Json.Int jobs) ]
      @ (if run then [ ("run", Json.Bool true) ] else [])
      @ (match cache_dir with
        | Some d -> [ ("cache_dir", Json.Str d) ]
        | None -> [])
      @ options_fields options
    | Run { src; config; options } ->
      src_fields src @ config_field config @ options_fields options
    | Explain { src; config } -> src_fields src @ config_field config
    | Stats | Telemetry | Shutdown -> []
  in
  let params =
    params
    @
    match deadline_ms with
    | Some d when d > 0 -> [ ("deadline_ms", Json.Int d) ]
    | _ -> []
  in
  Json.Obj
    ([ ("schema", Json.Str schema_tag); ("id", id);
       ("method", Json.Str (method_name r)) ]
    @ if params = [] then [] else [ ("params", Json.Obj params) ])

let response_ok ~id (result : Json.t) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str schema_tag);
      ("id", id);
      ("ok", Json.Bool true);
      ("result", result);
    ]

let response_error ~id ~code (message : string) : Json.t =
  Json.Obj
    [
      ("schema", Json.Str schema_tag);
      ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [ ("code", Json.Str code); ("message", Json.Str message) ] );
    ]

let error_code : Gofree_api.error -> string = function
  | Gofree_api.Compile_error _ -> "compile_error"
  | Gofree_api.Build_error _ -> "build_error"
  | Gofree_api.Runtime_error _ -> "runtime_error"
  | Gofree_api.Corruption _ -> "corruption"

(* ---------------------------------------------------------------- *)
(* Line framing over raw file descriptors                            *)
(* ---------------------------------------------------------------- *)

(** Buffered line reader over a socket fd (one per connection; not
    thread-safe). *)
type reader = {
  rd_fd : Unix.file_descr;
  rd_buf : Bytes.t;
  mutable rd_start : int;
  mutable rd_len : int;
  rd_acc : Buffer.t;
}

let reader fd =
  {
    rd_fd = fd;
    rd_buf = Bytes.create 65536;
    rd_start = 0;
    rd_len = 0;
    rd_acc = Buffer.create 256;
  }

(** Next newline-terminated line (terminator stripped); [None] on EOF or
    a reset connection.  A final unterminated fragment counts as EOF —
    a request line the client never finished sending. *)
let read_line (r : reader) : string option =
  let rec refill () =
    match Unix.read r.rd_fd r.rd_buf 0 (Bytes.length r.rd_buf) with
    | 0 -> false
    | n ->
      r.rd_start <- 0;
      r.rd_len <- n;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
    | exception
        Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
      -> false
  in
  let rec scan () =
    if r.rd_len = 0 then
      if refill () then scan ()
      else begin
        Buffer.clear r.rd_acc;
        None
      end
    else begin
      match
        (* only a newline inside the valid window counts *)
        match Bytes.index_from_opt r.rd_buf r.rd_start '\n' with
        | Some i when i < r.rd_start + r.rd_len -> Some i
        | _ -> None
      with
      | Some i ->
        Buffer.add_subbytes r.rd_acc r.rd_buf r.rd_start (i - r.rd_start);
        r.rd_len <- r.rd_len - (i - r.rd_start + 1);
        r.rd_start <- i + 1;
        let line = Buffer.contents r.rd_acc in
        Buffer.clear r.rd_acc;
        Some line
      | None ->
        Buffer.add_subbytes r.rd_acc r.rd_buf r.rd_start r.rd_len;
        r.rd_len <- 0;
        if refill () then scan ()
        else begin
          Buffer.clear r.rd_acc;
          None
        end
    end
  in
  scan ()

(** Write [j] as one line.  Raises [Unix.Unix_error] on a dead peer;
    serialization against concurrent writers is the caller's business. *)
let write_line (fd : Unix.file_descr) (j : Json.t) : unit =
  let line = Json.to_string j ^ "\n" in
  let len = String.length line in
  let rec push off =
    if off < len then begin
      let n =
        try Unix.write_substring fd line off (len - off)
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      push (off + n)
    end
  in
  push 0
