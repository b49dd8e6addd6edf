(** The [gofreec serve] daemon: protocol, resident cache, concurrency,
    and failure containment.

    Every test starts a real server on a fresh Unix socket (in-process,
    via {!Gofree_server.Server.start}) and talks to it through
    {!Gofree_server.Client} — the same code paths [gofreec client]
    uses. *)

module Json = Gofree_obs.Json
module Server = Gofree_server.Server
module Client = Gofree_server.Client
module Rpc = Gofree_server.Rpc

let counter = ref 0

let fresh_socket () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gofree-test-%d-%d.sock" (Unix.getpid ()) !counter)

(** Run [f server socket] against a live daemon; always stops it. *)
let with_server ?workers ?queue_capacity ?shed_watermark f =
  let socket = fresh_socket () in
  let t = Server.start ?workers ?queue_capacity ?shed_watermark ~socket () in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t socket)

let src_free =
  {|
func localSum(n int) int {
	xs := make([]int, n)
	s := 0
	for i := range xs {
		xs[i] = i
		s = s + xs[i]
	}
	return s
}

func main() {
	println(localSum(64))
}
|}

(* a distinct program per concurrent client: the printed constant tells
   us a response was not crossed between connections *)
let src_print n =
  Printf.sprintf "func main() {\n\txs := make([]int, %d)\n\tprintln(len(xs))\n}\n" n

let analyze ?(explain = false) src =
  Rpc.Analyze { src = Rpc.Inline src; config = Gofree_api.Preset.(to_config default); explain }

let run_req src =
  Rpc.Run
    {
      src = Rpc.Inline src;
      config = Gofree_api.Preset.(to_config default);
      options = Gofree_api.default_run_options;
    }

let call_ok c request =
  match Client.call c request with
  | Ok result -> result
  | Error (code, m) -> Alcotest.failf "rpc error %s: %s" code m

(* ---- protocol basics ---- *)

(* encode -> decode identity for the v2 envelope, across the precision
   surface: the structured "config" object must carry the whole Config.t
   (checked by signature, which covers every field) *)
let test_rpc_v2_config_roundtrip () =
  let module C = Gofree_core.Config in
  let requests config =
    [
      Rpc.Analyze { src = Rpc.Inline src_free; config; explain = true };
      Rpc.Run
        { src = Rpc.Inline src_free; config;
          options = Gofree_api.default_run_options };
      Rpc.Explain { src = Rpc.Inline src_free; config };
      Rpc.Build
        { dir = "/tmp/tree"; config; force = false; jobs = 1; run = false;
          cache_dir = None; options = Gofree_api.default_run_options };
    ]
  in
  let config_of = function
    | Rpc.Analyze { config; _ } | Rpc.Run { config; _ }
    | Rpc.Explain { config; _ } | Rpc.Build { config; _ } -> config
    | _ -> Alcotest.fail "unexpected request"
  in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun request ->
          let line =
            Json.to_string (Rpc.request_to_json ~id:(Json.Int 1) request)
          in
          match Rpc.decode line with
          | Error (_, m) -> Alcotest.failf "%s: decode failed: %s" name m
          | Ok inc ->
            Alcotest.(check string)
              (name ^ "/" ^ Rpc.method_name request ^ " config round-trips")
              (C.signature config)
              (C.signature (config_of inc.Rpc.rq_request)))
        (requests config))
    Gofree_api.Preset.named

(* The "engine" param names one of the two engines; the historical
   boolean "reference" still selects the tree-walker, and the retired
   closure engine is a bad request naming the valid choices. *)
let test_rpc_engine_param () =
  let line params =
    Printf.sprintf
      "{\"schema\":\"gofree-rpc-v2\",\"id\":1,\"method\":\"run\",\
       \"params\":{\"source\":\"func main() {}\"%s}}"
      params
  in
  List.iter
    (fun (params, want) ->
      match Rpc.decode (line params) with
      | Ok { Rpc.rq_request = Rpc.Run { options; _ }; _ } ->
        Alcotest.(check string) params
          (Gofree_api.engine_name want)
          (Gofree_api.engine_name options.Gofree_api.engine)
      | Ok _ -> Alcotest.fail "decoded to the wrong method"
      | Error (_, m) -> Alcotest.failf "%s rejected: %s" params m)
    [
      (",\"engine\":\"reference\"", Gofree_api.Eng_reference);
      (",\"engine\":\"bytecode\"", Gofree_api.Eng_bytecode);
      (",\"reference\":true", Gofree_api.Eng_reference);
      ("", Gofree_api.Eng_bytecode);
    ];
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      Client.send_line c (line ",\"engine\":\"closure\"");
      (match Client.recv c with
      | Some r ->
        let err = Json.get "error" r in
        Alcotest.(check bool) "closure gets ok=false" true
          (Json.get "ok" r = Json.Bool false);
        Alcotest.(check string) "code is bad_request" "bad_request"
          (Json.get_string "code" err);
        let m = Json.get_string "message" err in
        Alcotest.(check bool) ("message lists the engines: " ^ m) true
          (Helpers.contains m "reference | bytecode")
      | None -> Alcotest.fail "server dropped the connection");
      Client.close c)

(* v1 envelopes — the flat preset-name "config" under the old schema
   tag — must still decode, to the same configuration *)
let test_rpc_v1_compat () =
  let module C = Gofree_core.Config in
  List.iter
    (fun (name, cfg) ->
      let line =
        Printf.sprintf
          "{\"schema\":\"gofree-rpc-v1\",\"id\":1,\"method\":\"analyze\",\
           \"params\":{\"source\":\"func main() {}\",\"config\":%S}}"
          name
      in
      match Rpc.decode line with
      | Error (_, m) -> Alcotest.failf "v1 %s rejected: %s" name m
      | Ok { Rpc.rq_request = Rpc.Analyze { config; _ }; _ } ->
        Alcotest.(check string)
          ("v1 preset " ^ name ^ " maps to the same config")
          (C.signature cfg) (C.signature config)
      | Ok _ -> Alcotest.fail "decoded to the wrong method")
    Gofree_api.Preset.named;
  (* malformed structured configs are decode errors, not crashes *)
  let bad =
    "{\"schema\":\"gofree-rpc-v2\",\"id\":1,\"method\":\"analyze\",\
     \"params\":{\"source\":\"x\",\"config\":{\"bogus\":true}}}"
  in
  (match Rpc.decode bad with
  | Error (Json.Int 1, _) -> ()
  | Error (id, _) ->
    Alcotest.failf "bad config echoed wrong id %s" (Json.to_string id)
  | Ok _ -> Alcotest.fail "unknown config field accepted");
  Alcotest.(check bool) "rpc-v1 is a legacy tag of Rpc" true
    (Gofree_obs.Schema.check Gofree_obs.Schema.Rpc
       (Json.Obj [ ("schema", Json.Str "gofree-rpc-v1") ])
    = Ok ())

(* a precision config sent over the wire changes what the daemon
   computes: field-sensitive mode frees strictly more here *)
let test_rpc_precision_config_applies () =
  let src =
    "type Box struct {\n\
     \tvals []int\n\
     }\n\n\
     func main() {\n\
     \tn := 64\n\
     \tb := Box{vals: make([]int, n)}\n\
     \tb.vals[0] = 1\n\
     \tprintln(b.vals[0])\n\
     }\n"
  in
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      let count config =
        let r =
          call_ok c (Rpc.Analyze { src = Rpc.Inline src; config;
                                   explain = false })
        in
        List.length (Json.get_list "insertions" r)
      in
      let baseline = count Gofree_api.Preset.(to_config default) in
      let field =
        count
          Gofree_api.Preset.(
            to_config (with_field_sensitivity true default))
      in
      Client.close c;
      Alcotest.(check bool)
        (Printf.sprintf "field-sensitive frees more (%d > %d)" field
           baseline)
        true (field > baseline))

let test_analyze_roundtrip () =
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      let r = call_ok c (analyze src_free) in
      Alcotest.(check bool) "first analyze is uncached" false
        (Json.get "cached" r = Json.Bool true);
      let vars =
        Json.get_list "insertions" r
        |> List.map (fun i -> Json.get_string "variable" i)
      in
      Alcotest.(check (list string)) "tcfree inserted for xs" [ "xs" ] vars;
      Client.close c)

let test_run_roundtrip () =
  with_server (fun _ socket ->
      match Client.call_once ~socket (run_req (src_print 7)) with
      | Error (code, m) -> Alcotest.failf "rpc error %s: %s" code m
      | Ok r ->
        Alcotest.(check string) "program output" "7\n"
          (Json.get_string "output" r);
        Alcotest.(check bool) "no panic" false
          (Json.get "panicked" r = Json.Bool true))

let test_warm_cache_skips_analysis () =
  with_server (fun t socket ->
      let c = Client.connect ~socket in
      let r1 = call_ok c (analyze src_free) in
      let r2 = call_ok c (analyze src_free) in
      Client.close c;
      Alcotest.(check bool) "cold miss" true
        (Json.get "cached" r1 = Json.Bool false);
      Alcotest.(check bool) "warm hit" true
        (Json.get "cached" r2 = Json.Bool true);
      (* identical payload either way: drop the cache marker and compare *)
      let strip = function
        | Json.Obj fields ->
          Json.Obj (List.filter (fun (k, _) -> k <> "cached") fields)
        | j -> j
      in
      Alcotest.(check string) "warm result is byte-identical"
        (Json.to_string (strip r1))
        (Json.to_string (strip r2));
      ignore t)

let test_build_resident_cache () =
  let root = Test_build.make_tree Test_build.tree_files in
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      let build force =
        call_ok c
          (Rpc.Build
             {
               dir = root;
               config = Gofree_api.Preset.(to_config default);
               force;
               jobs = 1;
               run = false;
               cache_dir = None;
               options = Gofree_api.default_run_options;
             })
      in
      let r1 = build false in
      let r2 = build false in
      Client.close c;
      Alcotest.(check string) "cold request misses" "miss"
        (Json.get_string "resident_cache" r1);
      Alcotest.(check string) "warm request hits" "hit"
        (Json.get_string "resident_cache" r2);
      (* the acceptance bar: identical insertions and stats, byte for
         byte — the warm path must not re-derive anything differently *)
      Alcotest.(check string) "insertions byte-identical"
        (Json.to_string (Json.get "insertions" r1))
        (Json.to_string (Json.get "insertions" r2));
      Alcotest.(check string) "stats doc byte-identical"
        (Json.to_string (Json.get "stats" r1))
        (Json.to_string (Json.get "stats" r2)))

(* ---- concurrency ---- *)

let test_concurrent_clients_isolated () =
  with_server (fun _ socket ->
      let n = 8 in
      let results = Array.make n None in
      let client i () =
        let want = 10 + i in
        match Client.call_once ~socket (run_req (src_print want)) with
        | Ok r -> results.(i) <- Some (Json.get_string "output" r)
        | Error (code, m) ->
          results.(i) <- Some (Printf.sprintf "error %s: %s" code m)
      in
      let threads =
        List.init n (fun i -> Thread.create (client i) ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i r ->
          Alcotest.(check (option string))
            (Printf.sprintf "client %d got its own program's output" i)
            (Some (Printf.sprintf "%d\n" (10 + i)))
            r)
        results)

let test_pipelined_ids_correlate () =
  with_server (fun _ socket ->
      (* one connection, several requests in flight: responses may come
         back in any order, the ids are the correlation *)
      let c = Client.connect ~socket in
      let n = 6 in
      for i = 1 to n do
        Client.send_line c
          (Json.to_string
             (Rpc.request_to_json ~id:(Json.Int i)
                (run_req (src_print (100 + i)))))
      done;
      let seen = Hashtbl.create n in
      for _ = 1 to n do
        match Client.recv c with
        | None -> Alcotest.fail "connection closed early"
        | Some r ->
          let id = Json.get_int "id" r in
          let out = Json.get_string "output" (Json.get "result" r) in
          Hashtbl.replace seen id out
      done;
      Client.close c;
      for i = 1 to n do
        Alcotest.(check (option string))
          (Printf.sprintf "response %d pairs with request %d" i i)
          (Some (Printf.sprintf "%d\n" (100 + i)))
          (Hashtbl.find_opt seen i)
      done)

(* ---- failure containment ---- *)

let test_malformed_line_keeps_serving () =
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      Client.send_line c "this is not json";
      (match Client.recv c with
      | Some r ->
        Alcotest.(check bool) "malformed gets ok=false" true
          (Json.get "ok" r = Json.Bool false);
        Alcotest.(check string) "code is bad_request" "bad_request"
          (Json.get_string "code" (Json.get "error" r))
      | None -> Alcotest.fail "server dropped the connection");
      (* same connection still works *)
      let r = call_ok c (analyze src_free) in
      Alcotest.(check bool) "valid request after garbage succeeds" true
        (Json.get "insertions" r <> Json.Null);
      (* wrong schema tag is also contained *)
      Client.send_line c
        {|{"schema":"gofree-rpc-v9","id":1,"method":"stats"}|};
      (match Client.recv c with
      | Some r ->
        Alcotest.(check bool) "wrong protocol version rejected" true
          (Json.get "ok" r = Json.Bool false)
      | None -> Alcotest.fail "server dropped the connection");
      Client.close c;
      (* and the daemon serves fresh clients *)
      match Client.call_once ~socket (analyze src_free) with
      | Ok _ -> ()
      | Error (code, m) -> Alcotest.failf "daemon wedged: %s %s" code m)

let test_disconnect_mid_request_keeps_serving () =
  with_server (fun _ socket ->
      (* fire a request and hang up before the response can be written *)
      let c = Client.connect ~socket in
      Client.send_line c
        (Json.to_string
           (Rpc.request_to_json ~id:(Json.Int 1) (run_req (src_print 3))));
      Client.close c;
      (* a partial line then a hangup must not wedge the reader either *)
      let c2 = Client.connect ~socket in
      Client.send_line c2 {|{"schema":"gofree-rpc-v1","id":2,"met|};
      Client.close c2;
      (* daemon is still alive and correct *)
      match Client.call_once ~socket (run_req (src_print 5)) with
      | Ok r ->
        Alcotest.(check string) "later client served" "5\n"
          (Json.get_string "output" r)
      | Error (code, m) -> Alcotest.failf "daemon wedged: %s %s" code m)

(* ---- overload: admission control, deadlines, cancellation,
   fairness ---- *)

(* A run request slow enough (tens of ms interpreted) that a 1-worker
   server is reliably busy while more requests arrive. *)
let src_slow =
  {|
func main() {
	s := 0
	outer := make([]int, 400)
	for i := range outer {
		xs := make([]int, 1200)
		for j := range xs {
			xs[j] = i + j
			s = s + xs[j]
		}
	}
	println(s)
}
|}

let send_run ?deadline_ms c ~id src =
  Client.send_line c
    (Json.to_string
       (Rpc.request_to_json ~id:(Json.Int id) ?deadline_ms (run_req src)))

let error_code_of r = Json.get_string "code" (Json.get "error" r)

(* Poll the daemon until [p stats] holds (bounded); stats answers on the
   reader thread so a busy worker pool cannot wedge the poll. *)
let wait_stats socket p =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    let s =
      match Client.call_once ~socket Rpc.Stats with
      | Ok s -> Some s
      | Error _ -> None
    in
    match s with
    | Some s when p s -> s
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "stats condition never held"
      else begin
        Thread.delay 0.01;
        go ()
      end
  in
  go ()

let by_method_count name s =
  match Json.member name (Json.get "by_method" (Json.get "requests" s)) with
  | Some (Json.Int k) -> k
  | _ -> 0

let test_shed_on_overload () =
  (* one worker, queue of one: a pipelined flood must be answered with
     [overloaded] responses, not absorbed by a blocking reader *)
  with_server ~workers:1 ~queue_capacity:1 (fun _ socket ->
      let c = Client.connect ~socket in
      let n = 12 in
      for i = 1 to n do
        send_run c ~id:i src_slow
      done;
      let ok = ref 0 and shed = ref 0 and ids = ref [] in
      for _ = 1 to n do
        match Client.recv c with
        | None -> Alcotest.fail "connection closed under overload"
        | Some r ->
          ids := Json.get_int "id" r :: !ids;
          if Json.get "ok" r = Json.Bool true then incr ok
          else begin
            Alcotest.(check string) "shed code" "overloaded" (error_code_of r);
            incr shed
          end
      done;
      Client.close c;
      (* one response per request, every id echoed exactly once *)
      Alcotest.(check (list int)) "all ids answered"
        (List.init n (fun i -> i + 1))
        (List.sort compare !ids);
      Alcotest.(check bool) "some requests served" true (!ok >= 1);
      Alcotest.(check bool) "some requests shed" true (!shed >= 1);
      let s = wait_stats socket (fun _ -> true) in
      Alcotest.(check int) "shed counter matches" !shed
        (Json.get_int "shed" (Json.get "requests" s));
      Alcotest.(check bool) "queue high watermark recorded" true
        (Json.get_int "high_watermark" (Json.get "queue" s) >= 1))

let test_request_timeout () =
  with_server ~workers:1 (fun _ socket ->
      let c = Client.connect ~socket in
      (* the slow request occupies the single worker... *)
      send_run c ~id:1 src_slow;
      (* ...so this one queues past its 1ms deadline *)
      send_run c ~id:2 ~deadline_ms:1 src_slow;
      let r1 = Option.get (Client.recv c) in
      let r2 = Option.get (Client.recv c) in
      Client.close c;
      (* responses come back in submission order here: the timed-out
         request is answered when the worker reaches it *)
      Alcotest.(check int) "slow request id" 1 (Json.get_int "id" r1);
      Alcotest.(check bool) "slow request succeeded" true
        (Json.get "ok" r1 = Json.Bool true);
      Alcotest.(check int) "timed-out id echoed" 2 (Json.get_int "id" r2);
      Alcotest.(check string) "timed_out code" "timed_out"
        (error_code_of r2);
      let s = wait_stats socket (fun s ->
          Json.get_int "timed_out" (Json.get "requests" s) >= 1)
      in
      Alcotest.(check int) "timed_out counted" 1
        (Json.get_int "timed_out" (Json.get "requests" s)))

let test_cancel_on_disconnect () =
  with_server ~workers:1 (fun _ socket ->
      let a = Client.connect ~socket in
      send_run a ~id:1 src_slow;
      (* b pipelines two requests and hangs up.  The two connections'
         reader threads race to the queue, so either client's job may be
         dequeued first — but with one worker at most one job has
         started by the time b closes, so at least one of b's is still
         queued, and queued work for a dead client must be cancelled at
         dequeue, not executed. *)
      let b = Client.connect ~socket in
      send_run b ~id:1 src_slow;
      send_run b ~id:2 src_slow;
      ignore
        (wait_stats socket (fun s -> by_method_count "run" s >= 3));
      Client.close b;
      (* a is served regardless *)
      (match Client.recv a with
      | Some r ->
        Alcotest.(check bool) "a's request served" true
          (Json.get "ok" r = Json.Bool true)
      | None -> Alcotest.fail "a lost its connection");
      Client.close a;
      let s = wait_stats socket (fun s ->
          Json.get_int "cancelled" (Json.get "requests" s) >= 1)
      in
      Alcotest.(check bool) "cancelled counted" true
        (Json.get_int "cancelled" (Json.get "requests" s) >= 1))

let test_per_client_fairness () =
  (* one worker: a floods 10 requests, then b sends one.  Round-robin
     draining must serve b next rotation — long before a's tail — where
     a single FIFO would serve b 11th. *)
  with_server ~workers:1 (fun _ socket ->
      let n_flood = 10 in
      let a = Client.connect ~socket in
      for i = 1 to n_flood do
        send_run a ~id:i src_slow
      done;
      ignore
        (wait_stats socket (fun s -> by_method_count "run" s >= n_flood));
      let b = Client.connect ~socket in
      send_run b ~id:100 src_slow;
      let a_done = Atomic.make 0 in
      let a_reader =
        Thread.create
          (fun () ->
            try
              for _ = 1 to n_flood do
                match Client.recv a with
                | Some _ -> Atomic.incr a_done
                | None -> raise Exit
              done
            with Exit | Client.Error _ -> ())
          ()
      in
      (match Client.recv b with
      | Some r ->
        Alcotest.(check int) "b's id echoed" 100 (Json.get_int "id" r);
        Alcotest.(check bool) "b's request served" true
          (Json.get "ok" r = Json.Bool true)
      | None -> Alcotest.fail "b lost its connection");
      let a_done_when_b_finished = Atomic.get a_done in
      Thread.join a_reader;
      Client.close a;
      Client.close b;
      Alcotest.(check int) "a eventually fully served" n_flood
        (Atomic.get a_done);
      (* the fairness bar: b did not wait for a's whole flood *)
      Alcotest.(check bool)
        (Printf.sprintf
           "b served after %d of a's %d responses (wants round-robin, \
            not FIFO)" a_done_when_b_finished n_flood)
        true
        (a_done_when_b_finished <= n_flood - 3))

(* ---- shutdown ---- *)

let test_shutdown_drains () =
  let socket = fresh_socket () in
  let t = Server.start ~socket () in
  let c = Client.connect ~socket in
  let n = 4 in
  for i = 1 to n do
    Client.send_line c
      (Json.to_string
         (Rpc.request_to_json ~id:(Json.Int i) (run_req (src_print i))))
  done;
  (* wait until the daemon has decoded all four (they may still be
     queued or running) — decoded requests are what drain guarantees *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let decoded () =
    match Client.call_once ~socket Rpc.Stats with
    | Ok s ->
      (match Json.member "run" (Json.get "by_method" (Json.get "requests" s)) with
      | Some (Json.Int k) -> k >= n
      | _ -> false)
    | Error _ -> false
  in
  while (not (decoded ())) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  (* shutdown from a second connection while those are in flight *)
  (match Client.call_once ~socket Rpc.Shutdown with
  | Ok r ->
    Alcotest.(check bool) "shutdown acknowledged" true
      (Json.get "stopping" r = Json.Bool true)
  | Error (code, m) -> Alcotest.failf "shutdown refused: %s %s" code m);
  (* every accepted request is still answered (ok or shutting_down) *)
  let answered = ref 0 in
  (try
     for _ = 1 to n do
       match Client.recv c with
       | Some _ -> incr answered
       | None -> raise Exit
     done
   with Exit | Client.Error _ -> ());
  Client.close c;
  Server.wait t;
  Alcotest.(check int) "all in-flight requests answered" n !answered;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

let test_stats_counters () =
  with_server (fun _ socket ->
      let c = Client.connect ~socket in
      ignore (call_ok c (analyze src_free));
      ignore (call_ok c (analyze src_free));
      Client.send_line c "garbage";
      ignore (Client.recv c);
      (match Client.call c (analyze "func main( {}") with
      | Ok _ -> Alcotest.fail "garbage source compiled"
      | Error (code, _) ->
        Alcotest.(check string) "compile failure code" "compile_error" code);
      let s = call_ok c Rpc.Stats in
      Client.close c;
      let req = Json.get "requests" s in
      Alcotest.(check bool) "served counted" true
        (Json.get_int "served" req >= 3);
      Alcotest.(check int) "malformed counted" 1
        (Json.get_int "malformed" req);
      (* the bad_request reply to the garbage line is itself an error
         response, so two errors: one malformed, one compile failure *)
      Alcotest.(check int) "errors counted" 2 (Json.get_int "errors" req);
      let cache = Json.get "cache" s in
      Alcotest.(check bool) "one resident hit" true
        (Json.get_int "hits" cache >= 1);
      Alcotest.(check bool) "hit ratio in range" true
        (let r = Json.get_float "hit_ratio" cache in
         r > 0.0 && r <= 1.0);
      (* the latency summary reports the full quantile ladder, p99 and
         max included, and it is monotone *)
      let lat = Json.get "latency_ms" s in
      Alcotest.(check bool) "latency samples recorded" true
        (Json.get_int "count" lat >= 2);
      let p50 = Json.get_float "p50_ms" lat in
      let p95 = Json.get_float "p95_ms" lat in
      let p99 = Json.get_float "p99_ms" lat in
      let max_ms = Json.get_float "max_ms" lat in
      Alcotest.(check bool) "p50 <= p95 <= p99 <= max" true
        (p50 <= p95 && p95 <= p99 && p99 <= max_ms))

let suite =
  [
    Alcotest.test_case "rpc v2 config round-trip" `Quick
      test_rpc_v2_config_roundtrip;
    Alcotest.test_case "rpc v1 compatibility" `Quick test_rpc_v1_compat;
    Alcotest.test_case "rpc engine param" `Quick test_rpc_engine_param;
    Alcotest.test_case "rpc precision config applies" `Quick
      test_rpc_precision_config_applies;
    Alcotest.test_case "analyze round-trip" `Quick test_analyze_roundtrip;
    Alcotest.test_case "run round-trip" `Quick test_run_roundtrip;
    Alcotest.test_case "warm cache skips analysis" `Quick
      test_warm_cache_skips_analysis;
    Alcotest.test_case "build resident cache byte-identical" `Quick
      test_build_resident_cache;
    Alcotest.test_case "concurrent clients isolated" `Quick
      test_concurrent_clients_isolated;
    Alcotest.test_case "pipelined ids correlate" `Quick
      test_pipelined_ids_correlate;
    Alcotest.test_case "malformed line keeps serving" `Quick
      test_malformed_line_keeps_serving;
    Alcotest.test_case "disconnect mid-request keeps serving" `Quick
      test_disconnect_mid_request_keeps_serving;
    Alcotest.test_case "shed on overload" `Quick test_shed_on_overload;
    Alcotest.test_case "request timeout" `Quick test_request_timeout;
    Alcotest.test_case "cancel queued work on disconnect" `Quick
      test_cancel_on_disconnect;
    Alcotest.test_case "per-client fairness" `Quick
      test_per_client_fairness;
    Alcotest.test_case "shutdown drains in-flight work" `Quick
      test_shutdown_drains;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
  ]
