(** gofreec — the GoFree reproduction's command-line driver.

    Subcommands:
    - [run FILE]      compile and execute a MiniGo program;
    - [workload NAME] print a benchmark workload's MiniGo source;
    - [analyze FILE]  print escape-analysis properties and points-to sets;
    - [instrument FILE]  print the program with inserted tcfree calls;
    - [disasm FILE]   print the bytecode-engine lowering (flat
                      instructions, resolved slots, inline-cache sites);
    - [compare FILE]  run under Go and GoFree and print both metric sets;
    - [build DIR]     compile a multi-package tree incrementally;
    - [serve]         long-running compile/analysis daemon on a Unix
                      socket (newline-delimited JSON, [gofree-rpc-v1]);
    - [client]        drive a serving daemon from the shell;
    - [load]          load-generation harness against a serving daemon
                      ([gofree-load-v1] report, SLO-gated exit code).

    Every entry point goes through {!Gofree_api} — this file owns flag
    parsing and output formatting only. *)

open Cmdliner
open Cli_common
module Json = Gofree_obs.Json

(* shared positional *)
let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"MiniGo source file")

(* run *)
let run_cmd =
  let run file config options metrics obs =
    let options = with_effective_sampling obs options in
    warn_oversubscribed options;
    let source = read_source file in
    start_trace obs;
    let outcome = ok (Gofree_api.run_string ~config ~options source) in
    finish_trace obs;
    emit_outcome ~metrics obs outcome;
    if outcome.Gofree_api.panicked then exit 2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute a MiniGo program")
    Term.(
      const run $ file_arg $ config_term $ run_options_term $ metrics_flag
      $ obs_term)

(* workload *)
let workload_cmd =
  let module W = Gofree_workloads.Workloads in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Workload name; omit to list the registry")
  in
  let size_arg =
    Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N"
           ~doc:"Workload size knob (default: the workload's own)")
  in
  let workload name size =
    match name with
    | None ->
      List.iter
        (fun (w : W.t) ->
          Printf.printf "%-10s (size %d)  %s\n" w.W.w_name w.W.w_default_size
            w.W.w_description)
        (W.all @ [ W.fanout ])
    | Some name -> begin
      match W.find name with
      | Some w -> print_string (W.source_of ?size w)
      | None ->
        Printf.eprintf "unknown workload %s (try: gofreec workload)\n" name;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Print a benchmark workload's MiniGo source (or list them); \
             pipe into a file to run it under any flags")
    Term.(const workload $ name_arg $ size_arg)

(* analyze *)
let analyze_cmd =
  let func_arg =
    Arg.(value & opt (some string) None & info [ "func" ]
           ~doc:"Only print this function")
  in
  let dot_flag =
    Arg.(value & flag & info [ "dot" ]
           ~doc:"Emit the escape graph as Graphviz DOT instead of text")
  in
  let explain_flag =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"Per allocation site: the stack/heap decision and, for \
                 heap sites, the inserted tcfree that reclaims it or \
                 the property blocking the free")
  in
  let analyze file config func dot explain delta_base =
    let c = ok (Gofree_api.analyze_file ~config file) in
    (match delta_base with
    | Some base_name ->
      (* Which blocking reasons this config eliminates vs the baseline. *)
      let base_config =
        match Gofree_api.Preset.of_name base_name with
        | Some p -> Gofree_api.Preset.to_config p
        | None ->
          Printf.eprintf "gofreec: unknown preset %S for --explain-delta\n"
            base_name;
          exit 1
      in
      let cb = ok (Gofree_api.analyze_file ~config:base_config file) in
      let delta =
        Gofree_api.explain_delta ~baseline:(Gofree_api.explain cb)
          ~refined:(Gofree_api.explain c)
      in
      print_endline (Gofree_obs.Json.to_string delta)
    | None ->
    if explain then
      Format.printf "%a@." Gofree_api.pp_explain (Gofree_api.explain c)
    else if dot then begin
      let funcs =
        match func with
        | Some f -> [ f ]
        | None -> Gofree_api.function_names c
      in
      List.iter
        (fun name ->
          match Gofree_api.analysis_dot c ~func:name with
          | Some dot -> print_string dot
          | None -> Printf.eprintf "no analysis for %s\n" name)
        funcs
    end
    else Format.printf "%a@." (Gofree_api.pp_analysis ?func) c)
  in
  let delta_arg =
    Arg.(value & opt (some string) None & info [ "explain-delta" ]
           ~docv:"PRESET"
           ~doc:"Analyze under both $(docv) (baseline) and the selected \
                 preset; print a JSON report of which blocking reasons \
                 the selected preset eliminates")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print escape-analysis properties and points-to sets")
    Term.(
      const analyze $ file_arg $ config_term $ func_arg $ dot_flag
      $ explain_flag $ delta_arg)

(* instrument *)
let instrument_cmd =
  let instrument file config =
    let c = ok (Gofree_api.analyze_file ~config file) in
    print_string (Gofree_api.instrumented_source c)
  in
  Cmd.v
    (Cmd.info "instrument"
       ~doc:"Print the program with inserted tcfree calls")
    Term.(const instrument $ file_arg $ config_term)

(* disasm *)
let disasm_cmd =
  let disasm file config =
    let c = ok (Gofree_api.analyze_file ~config file) in
    print_string (Gofree_api.disassemble c)
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Print the bytecode-engine lowering of the program: flat \
             instructions with resolved slot names, interned callees \
             and inline-cache sites")
    Term.(const disasm $ file_arg $ config_term)

(* compare *)
let compare_cmd =
  let compare_run file options =
    warn_oversubscribed options;
    let source = read_source file in
    let run preset =
      ok
        (Gofree_api.run_string
           ~config:(Gofree_api.config_of_preset preset)
           ~options source)
    in
    let go = run Gofree_api.Go in
    let gf = run Gofree_api.Gofree in
    Format.printf "== Go ==@.%a@.@.== GoFree ==@.%a@.@."
      Gofree_api.pp_metrics go.Gofree_api.metrics Gofree_api.pp_metrics
      gf.Gofree_api.metrics;
    Printf.printf "outputs identical: %b\n"
      (String.equal go.Gofree_api.output gf.Gofree_api.output)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run under Go and GoFree; print both metrics")
    Term.(const compare_run $ file_arg $ run_options_term)

(* build *)
let dir_arg =
  Arg.(required & pos 0 (some dir) None & info [] ~docv:"DIR"
         ~doc:"Root of a multi-package MiniGo tree: root files are \
               package main, each subdirectory is one package")

let jobs_arg =
  Arg.(value & opt int 0 & info [ "j"; "jobs" ]
         ~doc:"Analyze up to $(docv) independent packages in parallel \
               (0 = pick from the machine)" ~docv:"N")

let cache_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ]
         ~doc:"Unit-record cache location (default DIR/.gofree-cache)")

let force_flag =
  Arg.(value & flag & info [ "force" ]
         ~doc:"Ignore the unit-record cache; re-analyze every unit (the \
               cache is still refreshed)")

let build_cmd =
  let run_flag =
    Arg.(value & flag & info [ "run" ] ~doc:"Execute the linked program")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print per-package timing and cache statistics")
  in
  let stats_json_arg =
    Arg.(value & opt (some string) None & info [ "stats-json" ]
           ~docv:"FILE"
           ~doc:"Write per-package timing and cache statistics as JSON \
                 into $(docv)")
  in
  let build dir config jobs cache_dir force run stats options metrics obs
      stats_json =
    (* metrics only exist after execution *)
    let run = run || obs.metrics_json <> None in
    let options = with_effective_sampling obs options in
    start_trace obs;
    let b = ok (Gofree_api.build_dir ~config ?cache_dir ~jobs ~force dir) in
    let bstats = Gofree_api.build_stats b in
    if stats then Format.printf "%a@." Gofree_api.pp_build_stats bstats;
    (match stats_json with
    | Some path -> write_json path (Gofree_api.build_stats_to_json bstats)
    | None -> ());
    if run then begin
      warn_oversubscribed options;
      let outcome = ok (Gofree_api.run_build ~options b) in
      finish_trace obs;
      emit_outcome ~metrics obs outcome;
      if outcome.Gofree_api.panicked then exit 2
    end
    else begin
      finish_trace obs;
      if not stats then begin
        let packages, hits = Gofree_api.build_cache_counts b in
        Printf.printf "built %d package(s) (%d from cache)\n" packages hits
      end
    end
  in
  Cmd.v
    (Cmd.info "build"
       ~doc:"Compile a multi-package tree (incremental, parallel); link \
             and optionally run it")
    Term.(
      const build $ dir_arg $ config_term $ jobs_arg $ cache_arg
      $ force_flag $ run_flag $ stats_flag $ run_options_term
      $ metrics_flag $ obs_term $ stats_json_arg)

(* ---------------------------------------------------------------- *)
(* serve                                                             *)
(* ---------------------------------------------------------------- *)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket path")

let serve_cmd =
  let workers_arg =
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains executing requests (0 = pick from the \
                 machine)")
  in
  let queue_arg =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Bounded request-queue capacity; a full queue blocks \
                 readers (backpressure)")
  in
  let shed_arg =
    Arg.(value & opt (some int) None & info [ "shed-watermark" ] ~docv:"N"
           ~doc:"Queue depth past which new requests are answered \
                 $(i,overloaded) immediately instead of queueing \
                 (default: the queue capacity)")
  in
  let default_deadline_arg =
    Arg.(value & opt int 0 & info [ "default-deadline-ms" ] ~docv:"MS"
           ~doc:"Server-wide queueing deadline for requests that do not \
                 carry their own $(i,deadline_ms) (0 = none)")
  in
  let log_json_arg =
    Arg.(value & opt (some string) None & info [ "log-json" ] ~docv:"FILE"
           ~doc:"Write a structured event log (one JSON object per \
                 line) into $(docv)")
  in
  let log_level_arg =
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL"
           ~doc:"Lowest level written to --log-json: debug | info | \
                 warn | error")
  in
  let serve socket workers queue shed_watermark default_deadline_ms
      log_json log_level obs =
    (match log_json with
    | None -> ()
    | Some path -> begin
      match Gofree_obs.Log.level_of_name log_level with
      | Some level -> Gofree_obs.Log.start ~level ~path ()
      | None ->
        Printf.eprintf
          "gofreec: serve: unknown --log-level %S (debug | info | warn \
           | error)\n"
          log_level;
        exit 1
    end);
    start_trace obs;
    let t =
      try
        Gofree_server.Server.create ~workers ~queue_capacity:queue
          ?shed_watermark ~default_deadline_ms ~socket ()
      with
      | Invalid_argument m | Sys_error m ->
        Printf.eprintf "gofreec: serve: %s\n" m;
        exit 1
      | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "gofreec: serve: cannot listen on %s: %s\n" socket
          (Unix.error_message e);
        exit 1
    in
    Printf.printf "gofreec serve: listening on %s\n%!" socket;
    Gofree_server.Server.serve t;
    finish_trace obs;
    Gofree_obs.Log.stop ();
    Printf.printf "gofreec serve: shut down cleanly\n%!"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the persistent compile/analysis daemon (gofree-rpc-v1 \
             over a Unix socket)")
    Term.(
      const serve $ socket_arg $ workers_arg $ queue_arg $ shed_arg
      $ default_deadline_arg $ log_json_arg $ log_level_arg $ obs_term)

(* ---------------------------------------------------------------- *)
(* client                                                            *)
(* ---------------------------------------------------------------- *)

let client_cmd =
  let method_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"METHOD"
           ~doc:"analyze | build | run | explain | stats | telemetry | \
                 shutdown")
  in
  let target_arg =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"TARGET"
           ~doc:"Source file (analyze/run/explain) or tree root (build)")
  in
  let explain_flag =
    Arg.(value & flag & info [ "explain" ]
           ~doc:"analyze: include the freeing diagnostics document")
  in
  let run_flag =
    Arg.(value & flag & info [ "run" ]
           ~doc:"build: also execute the linked program")
  in
  let requests_arg =
    Arg.(value & opt (some file) None & info [ "requests" ] ~docv:"FILE"
           ~doc:"Batch mode: send the raw request lines of $(docv) \
                 (one JSON object per line) and print one response line \
                 each; other arguments are ignored")
  in
  let concurrency_arg =
    Arg.(value & opt int 1 & info [ "concurrency" ] ~docv:"N"
           ~doc:"Batch mode: replay over $(docv) connections, each \
                 sending its round-robin shard of the request lines \
                 (a minimal load driver); with N > 1 response lines \
                 interleave in completion order")
  in
  let raw_flag =
    Arg.(value & flag & info [ "raw" ]
           ~doc:"Print compact single-line responses (default: pretty)")
  in
  let prometheus_flag =
    Arg.(value & flag & info [ "prometheus" ]
           ~doc:"telemetry: print the snapshot in Prometheus text \
                 exposition format instead of JSON")
  in
  let client socket meth target config options explain run force jobs
      cache_dir requests concurrency raw prometheus =
    let module C = Gofree_server.Client in
    let print_response j =
      print_string (if raw then Json.to_string j ^ "\n"
                    else Json.to_string_pretty j)
    in
    let fail msg =
      Printf.eprintf "gofreec: client: %s\n" msg;
      exit 1
    in
    match requests with
    | Some path ->
      (* batch: raw lines in, raw lines out — strictly in order on one
         connection, per-shard order across several *)
      let lines =
        String.split_on_char '\n' (read_source path)
        |> List.filter (fun l -> String.trim l <> "")
      in
      let concurrency = max 1 (min concurrency (max 1 (List.length lines))) in
      let out_mutex = Mutex.create () in
      let bad = ref false in
      (* one shard per connection: line [j] goes to connection
         [j mod concurrency], preserving each connection's line order *)
      let replay_shard shard : float list =
        let c = try C.connect ~socket with C.Error m -> fail m in
        let lats =
          List.map
            (fun line ->
              let t0 = Unix.gettimeofday () in
              (try C.send_line c line with C.Error m -> fail m);
              match C.recv c with
              | Some response ->
                let lat_ms = (Unix.gettimeofday () -. t0) *. 1000. in
                Mutex.lock out_mutex;
                (match Json.member "ok" response with
                | Some (Json.Bool false) -> bad := true
                | _ -> ());
                print_string (Json.to_string response ^ "\n");
                Mutex.unlock out_mutex;
                lat_ms
              | None -> fail "server closed the connection mid-batch"
              | exception C.Error m -> fail m)
            shard
        in
        C.close c;
        lats
      in
      let shards =
        List.init concurrency (fun i ->
            List.filteri (fun j _ -> j mod concurrency = i) lines)
        |> List.filter (fun s -> s <> [])
      in
      let results = Array.make (List.length shards) [] in
      let threads =
        List.mapi
          (fun i shard ->
            Thread.create (fun () -> results.(i) <- replay_shard shard) ())
          shards
      in
      List.iter Thread.join threads;
      (* latency summary on stderr: stdout stays pure response lines *)
      let lats = Array.to_list results |> List.concat in
      (match Gofree_stats.Stats.latency_summary (Array.of_list lats) with
      | None -> ()
      | Some s ->
        Printf.eprintf "gofreec client: %d request(s) over %d \
                        connection(s) — %s\n"
          s.Gofree_stats.Stats.ls_count (List.length shards)
          (Gofree_stats.Stats.latency_summary_line s));
      if !bad then exit 1
    | None -> begin
      let source_of target =
        match target with
        | Some path -> Gofree_server.Rpc.Inline (read_source path)
        | None -> fail "this method needs a FILE argument"
      in
      let request =
        match meth with
        | None -> fail "METHOD required (or use --requests FILE)"
        | Some "analyze" ->
          Gofree_server.Rpc.Analyze
            { src = source_of target; config; explain }
        | Some "run" ->
          Gofree_server.Rpc.Run
            { src = source_of target; config; options }
        | Some "explain" ->
          Gofree_server.Rpc.Explain { src = source_of target; config }
        | Some "build" -> begin
          match target with
          | Some dir ->
            Gofree_server.Rpc.Build
              { dir; config; force; jobs; run; cache_dir; options }
          | None -> fail "build needs a DIR argument"
        end
        | Some "stats" -> Gofree_server.Rpc.Stats
        | Some "telemetry" -> Gofree_server.Rpc.Telemetry
        | Some "shutdown" -> Gofree_server.Rpc.Shutdown
        | Some m -> fail (Printf.sprintf "unknown method %S" m)
      in
      match C.call_once ~socket request with
      | Ok result when prometheus && meth = Some "telemetry" -> begin
        (* re-derive the typed snapshot so the exposition shares the
           registry's formatter (and validates the payload en route) *)
        match Gofree_obs.Registry.Snapshot.of_json result with
        | snap ->
          print_string (Gofree_obs.Registry.Snapshot.to_prometheus snap)
        | exception Json.Parse_error m ->
          fail ("telemetry response did not parse: " ^ m)
      end
      | Ok result -> print_response result
      | Error (code, message) ->
        print_response
          (Json.Obj
             [ ("error", Json.Str code); ("message", Json.Str message) ]);
        exit 1
      | exception C.Error m -> fail m
    end
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a serving daemon and print the responses")
    Term.(
      const client $ socket_arg $ method_arg $ target_arg $ config_term
      $ run_options_term $ explain_flag $ run_flag $ force_flag $ jobs_arg
      $ cache_arg $ requests_arg $ concurrency_arg $ raw_flag
      $ prometheus_flag)

(* ---------------------------------------------------------------- *)
(* load                                                              *)
(* ---------------------------------------------------------------- *)

let load_cmd =
  let module H = Gofree_load.Harness in
  let module Mix = Gofree_load.Mix in
  let module Schedule = Gofree_load.Schedule in
  let clients_arg =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent virtual clients")
  in
  let rate_arg =
    Arg.(value & opt float 0.0 & info [ "rate" ] ~docv:"R"
           ~doc:"Total offered requests per second across all clients \
                 (open loop); 0 runs closed-loop")
  in
  let arrival_arg =
    Arg.(value & opt (some string) None & info [ "arrival" ] ~docv:"MODEL"
           ~doc:"closed | poisson | uniform (default: poisson when \
                 --rate is set, closed otherwise)")
  in
  let duration_arg =
    Arg.(value & opt float 5.0 & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"How long to offer load")
  in
  let mix_arg =
    Arg.(value & opt string (Mix.to_string Mix.default)
         & info [ "mix" ] ~docv:"SPEC"
             ~doc:"Weighted request mix, e.g. \
                   analyze=4,run=2,explain=1,stats=1")
  in
  let churn_arg =
    Arg.(value & opt float 0.0 & info [ "churn" ] ~docv:"P"
           ~doc:"Per-request probability of dropping the connection and \
                 re-dialing before sending (connection churn)")
  in
  let load_seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for all harness randomness: mix sampling, arrival \
                 gaps, churn — same seed, same schedule")
  in
  let scale_arg =
    Arg.(value & opt int 100 & info [ "scale" ] ~docv:"PCT"
           ~doc:"Workload size, percent of each workload's default")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Attach this queueing deadline to every request (the \
                 daemon answers timed_out past it)")
  in
  let build_dir_arg =
    Arg.(value & opt (some dir) None & info [ "build-dir" ] ~docv:"DIR"
           ~doc:"Tree the build mix term targets (required when the mix \
                 gives build a nonzero weight)")
  in
  let slo_arg =
    Arg.(value & opt (some float) None & info [ "slo-p99-ms" ] ~docv:"MS"
           ~doc:"Fail (exit 1) unless the ok-response p99 latency is at \
                 most $(docv)")
  in
  let json_arg =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write the gofree-load-v1 report into $(docv)")
  in
  let dry_run_arg =
    Arg.(value & opt ~vopt:(Some 16) (some int) None
         & info [ "dry-run" ] ~docv:"EVENTS"
             ~doc:"Do not connect: print the deterministic request \
                   schedule ($(docv) events per client, default 16) and \
                   exit")
  in
  let load socket clients rate arrival duration mix churn seed scale
      deadline_ms build_dir slo_p99_ms json dry_run =
    let fail msg =
      Printf.eprintf "gofreec: load: %s\n" msg;
      exit 1
    in
    let mix =
      match Mix.of_string mix with Ok m -> m | Error m -> fail ("--mix: " ^ m)
    in
    let per_client = H.per_client_rate ~clients rate in
    let arrival =
      match (arrival, rate > 0.0) with
      | (None | Some "closed"), false -> Schedule.Closed
      | None, true | Some "poisson", true -> Schedule.Poisson per_client
      | Some "uniform", true -> Schedule.Uniform per_client
      | Some ("poisson" | "uniform"), false ->
        fail "open-loop arrival needs --rate > 0"
      | Some "closed", true -> fail "--rate is meaningless closed-loop"
      | Some m, _ ->
        fail (Printf.sprintf "unknown arrival %S (closed | poisson | \
                              uniform)" m)
    in
    let cfg =
      {
        (H.default_config ~socket) with
        H.clients;
        arrival;
        duration_s = duration;
        mix;
        churn;
        seed;
        scale;
        deadline_ms;
        build_dir;
        slo_p99_ms;
      }
    in
    let emit doc =
      (* self-check: the report must pass the registry gate it is
         validated against downstream *)
      (match Gofree_obs.Schema.check Gofree_obs.Schema.Load doc with
      | Ok () -> ()
      | Error m -> fail ("internal: report failed schema check: " ^ m));
      (match json with Some path -> write_json path doc | None -> ());
      print_string (Json.to_string_pretty doc)
    in
    match dry_run with
    | Some events -> begin
      match H.dry_run cfg ~events with
      | Ok doc -> emit doc
      | Error m -> fail m
    end
    | None -> begin
      match H.run cfg with
      | Error m -> fail m
      | Ok doc ->
        emit doc;
        let get path leaf =
          match Json.member path doc with
          | Some o -> ( try Some (Json.get leaf o) with _ -> None)
          | None -> None
        in
        let int_of path leaf =
          match get path leaf with Some (Json.Int n) -> n | _ -> 0
        in
        Printf.eprintf
          "gofreec load: offered %d | ok %d | shed %d | timed_out %d | \
           errors %d | dropped %d\n"
          (int_of "offered" "requests")
          (int_of "achieved" "ok") (int_of "achieved" "shed")
          (int_of "achieved" "timed_out")
          (int_of "achieved" "errors")
          (int_of "achieved" "dropped");
        (match H.report_latency_summary doc with
        | Some s ->
          Printf.eprintf "gofreec load: %s\n"
            (Gofree_stats.Stats.latency_summary_line s)
        | None -> ());
        if not (H.slo_ok doc) then begin
          (match get "slo" "violations" with
          | Some (Json.List vs) ->
            List.iter
              (fun v ->
                match v with
                | Json.Str m -> Printf.eprintf "gofreec load: SLO: %s\n" m
                | _ -> ())
              vs
          | _ -> ());
          exit 1
        end
    end
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Offer a mixed, seeded workload to a serving daemon; report \
             latency/throughput (gofree-load-v1) and gate on SLOs")
    Term.(
      const load $ socket_arg $ clients_arg $ rate_arg $ arrival_arg
      $ duration_arg $ mix_arg $ churn_arg $ load_seed_arg $ scale_arg
      $ deadline_arg $ build_dir_arg $ slo_arg $ json_arg $ dry_run_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "gofreec" ~version:"1.0.0"
       ~doc:"GoFree reproduction: compiler-inserted freeing for MiniGo")
    [
      run_cmd; workload_cmd; analyze_cmd; instrument_cmd; disasm_cmd;
      compare_cmd; build_cmd; serve_cmd; client_cmd; load_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
