(** Cold vs warm daemon: what a process-resident cache buys.

    Two comparisons, printed as one table each:

    - {e analyze}: for each of the six paper workloads, a cold in-process
      compile ({!Gofree_api.compile_string}, fresh every time — what a
      one-shot [gofreec analyze] pays) against the daemon serving the
      same source cold (first request, resident miss) and warm (second
      request, resident hit).  The warm number still includes the full
      RPC round-trip — socket, JSON framing, queueing — so it bounds the
      end-to-end latency a client sees, not just the cache lookup.

    - {e build}: the [examples/multipkg] tree (copied to a scratch
      directory), built cold with a fresh unit store versus served
      warm by the daemon, with the insertions checked byte-identical
      across every path — the point being that the fast path changes
      nothing but the latency. *)

module Json = Gofree_obs.Json
module Server = Gofree_server.Server
module Client = Gofree_server.Client
module Rpc = Gofree_server.Rpc
module W = Gofree_workloads.Workloads

let now_ms () = Unix.gettimeofday () *. 1000.

let time f =
  let t0 = now_ms () in
  let v = f () in
  (now_ms () -. t0, v)

(** Median of [n] timings of [f] (first result kept). *)
let median_ms n f =
  let v = ref None in
  let samples =
    List.init n (fun _ ->
        let ms, r = time f in
        if !v = None then v := Some r;
        ms)
    |> List.sort compare |> Array.of_list
  in
  (samples.(Array.length samples / 2), Option.get !v)

let ok_exn = function
  | Ok v -> v
  | Error (code, m) -> failwith (Printf.sprintf "rpc %s: %s" code m)

let insertions_of_analyze r = Json.to_string (Json.get "insertions" r)

(* ---- analyze: six workloads ---- *)

let run_analyze ~runs socket =
  Bench_common.heading
    "serve: cold compile vs daemon (analyze, median ms)";
  Printf.printf "  %-10s %10s %12s %12s %9s\n" "workload" "cold"
    "daemon-cold" "daemon-warm" "speedup";
  List.iter
    (fun w ->
      let source = W.source_of w in
      let request =
        Rpc.Analyze
          { src = Rpc.Inline source; config = Gofree_api.Preset.(to_config default);
            explain = false }
      in
      let cold_ms, _ =
        median_ms runs (fun () ->
            match Gofree_api.compile_string source with
            | Ok c -> ignore (Gofree_api.insertions c)
            | Error e -> failwith (Gofree_api.error_message e))
      in
      let c = Client.connect ~socket in
      (* first request: resident miss *)
      let first_ms, first = time (fun () -> ok_exn (Client.call c request)) in
      assert (Json.get "cached" first = Json.Bool false);
      (* warm requests: resident hits, median over [runs] *)
      let warm_ms, warm =
        median_ms runs (fun () -> ok_exn (Client.call c request))
      in
      Client.close c;
      assert (Json.get "cached" warm = Json.Bool true);
      let identical = insertions_of_analyze first = insertions_of_analyze warm in
      if not identical then
        failwith (w.W.w_name ^ ": warm insertions differ from cold");
      Printf.printf "  %-10s %9.2f %11.2f %11.2f %8.1fx\n" w.W.w_name
        cold_ms first_ms warm_ms
        (if warm_ms > 0. then cold_ms /. warm_ms else infinity))
    W.all;
  print_newline ()

(* ---- build: examples/multipkg ---- *)

let rec copy_tree src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      if Sys.is_directory s then copy_tree s d
      else begin
        let ic = open_in_bin s in
        let n = in_channel_length ic in
        let bytes = really_input_string ic n in
        close_in ic;
        let oc = open_out_bin d in
        output_string oc bytes;
        close_out oc
      end)
    (Sys.readdir src)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let scratch_multipkg () =
  let dst =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-serve-bench-%d" (Unix.getpid ()))
  in
  if Sys.file_exists dst then remove_tree dst;
  copy_tree (Filename.concat "examples" "multipkg") dst;
  dst

let insertion_triples = function
  | Json.List l ->
    List.map
      (fun i ->
        ( Json.get_string "function" i,
          Json.get_string "variable" i,
          Json.get_string "kind" i ))
      l
  | _ -> failwith "insertions is not a list"

let run_build ~runs socket =
  let root = scratch_multipkg () in
  Fun.protect ~finally:(fun () -> remove_tree root) @@ fun () ->
  Bench_common.heading
    "serve: cold build vs daemon (examples/multipkg, median ms)";
  (* cold: fresh analysis every time — what `gofreec build --force` pays
     in a new process *)
  let cold_ms, direct =
    median_ms runs (fun () ->
        match Gofree_api.build_dir ~force:true root with
        | Ok b -> b
        | Error e -> failwith (Gofree_api.error_message e))
  in
  let direct_insertions =
    List.map
      (fun i ->
        ( i.Gofree_api.ins_function,
          i.Gofree_api.ins_variable,
          Gofree_api.free_kind_name i.Gofree_api.ins_kind ))
      (Gofree_api.build_insertions direct)
  in
  let request force =
    Rpc.Build
      { dir = root; config = Gofree_api.Preset.(to_config default); force; jobs = 1;
        run = false; cache_dir = None;
        options = Gofree_api.default_run_options }
  in
  let c = Client.connect ~socket in
  let first_ms, first = time (fun () -> ok_exn (Client.call c (request false))) in
  let warm_ms, warm =
    median_ms runs (fun () -> ok_exn (Client.call c (request false)))
  in
  Client.close c;
  assert (Json.get_string "resident_cache" first = "miss");
  assert (Json.get_string "resident_cache" warm = "hit");
  let ins_first = insertion_triples (Json.get "insertions" first) in
  let ins_warm = insertion_triples (Json.get "insertions" warm) in
  let identical = direct_insertions = ins_first && ins_first = ins_warm in
  Printf.printf "  %-16s %10s %12s %12s %9s\n" "tree" "cold" "daemon-cold"
    "daemon-warm" "speedup";
  Printf.printf "  %-16s %9.2f %11.2f %11.2f %8.1fx\n" "multipkg" cold_ms
    first_ms warm_ms
    (if warm_ms > 0. then cold_ms /. warm_ms else infinity);
  Printf.printf "  insertions identical (direct = daemon-cold = daemon-warm): %b\n"
    identical;
  Printf.printf
    "  warm stats doc byte-identical to daemon-cold: %b\n\n"
    (Json.to_string (Json.get "stats" first)
    = Json.to_string (Json.get "stats" warm));
  if not identical then failwith "warm build changed the insertions"

let run ~options () =
  let runs = max 3 options.Bench_common.runs in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-serve-bench-%d.sock" (Unix.getpid ()))
  in
  let t = Server.start ~socket () in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      run_analyze ~runs socket;
      run_build ~runs socket)
