(** Cmdliner terms and plumbing shared by the [gofreec] subcommands.

    Every command takes its pipeline configuration from the same preset
    triple, its execution knobs from the same options block, and its
    observability outputs from the same [--trace]/[--metrics-json] pair
    — declared once here so [run], [build], [compare], [serve] and
    [client] cannot drift apart. *)

open Cmdliner
module Json = Gofree_obs.Json
module Trace = Gofree_obs.Trace

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------------------------------------------------------------- *)
(* Pipeline configuration preset (--go / --all-targets / --no-ipa)    *)
(* ---------------------------------------------------------------- *)

let go_flag =
  Arg.(value & flag & info [ "go" ] ~doc:"Compile with stock Go (no tcfree)")

let all_targets_flag =
  Arg.(value & flag & info [ "all-targets" ]
         ~doc:"Free all pointer types, not only slices and maps")

let no_ipa_flag =
  Arg.(value & flag & info [ "no-ipa" ]
         ~doc:"Disable inter-procedural content tags (ablation)")

let preset_term : Gofree_api.preset Term.t =
  Term.(
    const (fun go all_targets no_ipa ->
        Gofree_api.preset_of_flags ~go ~all_targets ~no_ipa)
    $ go_flag $ all_targets_flag $ no_ipa_flag)

(* --precision: the opt-in analysis precision modes, composable with the
   historical preset triple (e.g. --all-targets --precision last-use). *)
let precision_conv : Gofree_core.Config.precision Arg.conv =
  Arg.enum
    [
      ("baseline", Gofree_core.Config.baseline_precision);
      ( "field-sensitive",
        { Gofree_core.Config.baseline_precision with
          Gofree_core.Config.field_sensitive = true } );
      ( "last-use",
        { Gofree_core.Config.baseline_precision with
          Gofree_core.Config.placement = Gofree_core.Config.Last_use } );
      ("precise", Gofree_core.Config.precise_precision);
    ]

let precision_arg =
  Arg.(value
       & opt precision_conv Gofree_core.Config.baseline_precision
       & info [ "precision" ] ~docv:"MODE"
           ~doc:"Analysis precision mode: $(b,baseline) (the paper's \
                 field-insensitive analysis, frees at scope exit), \
                 $(b,field-sensitive) (per-field points-to/escape \
                 facts), $(b,last-use) (insert tcfree at the last use \
                 instead of scope exit) or $(b,precise) (both).  All \
                 modes keep the paper's safety protocol (5).")

let config_term : Gofree_api.config Term.t =
  Term.(
    const (fun preset precision ->
        Gofree_api.Preset.(
          of_config (Gofree_api.config_of_preset preset)
          |> with_precision precision |> to_config))
    $ preset_term $ precision_arg)

(* ---------------------------------------------------------------- *)
(* Execution options (--gc-off / --poison / --gogc / --seed / ...)    *)
(* ---------------------------------------------------------------- *)

let gcoff_flag =
  Arg.(value & flag & info [ "gc-off" ] ~doc:"Disable the garbage collector")

let poison_flag =
  Arg.(value & flag & info [ "poison" ]
         ~doc:"Mock tcfree: corrupt freed memory to detect wrong frees \
               (paper 6.8)")

let gogc_arg =
  Arg.(value & opt int 100 & info [ "gogc" ] ~doc:"GOGC pacing percentage")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed for rand()")

let sample_every_arg =
  Arg.(value & opt int 0 & info [ "sample-every" ] ~docv:"N"
         ~doc:"Snapshot heap counters every $(docv) interpreter steps \
               (0 = only when --metrics-json is given, then every 1000)")

let engine_conv : Gofree_api.engine Arg.conv =
  Arg.enum
    [
      ("reference", Gofree_api.Eng_reference);
      ("bytecode", Gofree_api.Eng_bytecode);
    ]

let engine_arg =
  Arg.(value
       & opt engine_conv Gofree_api.default_run_options.Gofree_api.engine
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: $(b,reference) (tree-walking, the \
                 semantic oracle) or $(b,bytecode) (flat bytecode VM \
                 with inline caches, the default).  Both produce \
                 identical output and metrics; they differ only in \
                 speed.")

let reference_flag =
  Arg.(value & flag & info [ "reference" ]
         ~doc:"Alias for $(b,--engine reference): execute with the \
               reference tree-walking interpreter (slower; observable \
               behaviour and metrics are identical)")

let domains_arg =
  Arg.(value
       & opt int Gofree_api.default_run_options.Gofree_api.domains
       & info [ "domains" ] ~docv:"N"
           ~doc:"Run goroutines across $(docv) OCaml domains: \
                 work-stealing scheduler, domain-safe allocator, \
                 parallel stop-the-world GC.  0 (the default) is an \
                 alias for 1: one domain, an unshared heap and a \
                 deterministic schedule.")

(* One stderr line when the requested domains exceed what the host
   recommends: such runs are oversubscribed, and their wall times
   measure time-slicing rather than the runtime. *)
let warn_oversubscribed (o : Gofree_api.run_options) =
  let cores = Domain.recommended_domain_count () in
  if o.Gofree_api.domains > cores then
    Printf.eprintf
      "gofreec: warning: --domains %d exceeds the %d domain(s) this host \
       recommends; the run is oversubscribed\n%!"
      o.Gofree_api.domains cores

let run_options_term : Gofree_api.run_options Term.t =
  Term.(
    const (fun gc_off poison gogc seed sample_every engine reference domains
           ->
        let engine = if reference then Gofree_api.Eng_reference else engine in
        { Gofree_api.gc_off; poison; gogc; seed; sample_every; engine;
          domains })
    $ gcoff_flag $ poison_flag $ gogc_arg $ seed_arg $ sample_every_arg
    $ engine_arg $ reference_flag $ domains_arg)

(* ---------------------------------------------------------------- *)
(* Observability outputs (--trace / --metrics-json / --metrics)       *)
(* ---------------------------------------------------------------- *)

type obs = { trace : string option; metrics_json : string option }

let metrics_flag =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print runtime metrics")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Capture a Chrome/Perfetto trace-event JSON of the whole \
               run (compiler phases, GC cycles, tcfree calls, goroutine \
               slices) into $(docv); load it at ui.perfetto.dev")

let metrics_json_arg =
  Arg.(value & opt (some string) None & info [ "metrics-json" ]
         ~docv:"FILE"
         ~doc:"Write the runtime metrics (and the sampled time series) \
               as JSON into $(docv)")

let obs_term : obs Term.t =
  Term.(
    const (fun trace metrics_json -> { trace; metrics_json })
    $ trace_arg $ metrics_json_arg)

let start_trace (o : obs) =
  match o.trace with
  | None -> ()
  | Some _ ->
    Trace.start ();
    Trace.name_thread ~tid:Trace.tid_main "main";
    Trace.name_thread ~tid:Trace.tid_runtime "runtime"

let finish_trace (o : obs) =
  match o.trace with
  | None -> ()
  | Some path -> Trace.stop_to_file path

let write_json path j =
  let oc = open_out path in
  output_string oc (Json.to_string_pretty j);
  close_out oc

(* Sampling cadence: an explicit --sample-every wins; otherwise sampling
   turns on (every 1000 steps) exactly when --metrics-json wants the
   series. *)
let with_effective_sampling (o : obs) (opts : Gofree_api.run_options) =
  if opts.Gofree_api.sample_every > 0 then opts
  else if o.metrics_json <> None then
    { opts with Gofree_api.sample_every = 1000 }
  else opts

(** Write the [--metrics-json] document and print [--metrics], per the
    given flags, for one execution outcome. *)
let emit_outcome ~metrics (o : obs) (outcome : Gofree_api.run_outcome) =
  print_string outcome.Gofree_api.output;
  if metrics then
    Format.printf "%a@." Gofree_api.pp_metrics outcome.Gofree_api.metrics;
  match o.metrics_json with
  | Some path -> write_json path outcome.Gofree_api.metrics_json
  | None -> ()

(* ---------------------------------------------------------------- *)
(* Error discipline                                                  *)
(* ---------------------------------------------------------------- *)

(** Unwrap an API result; errors print as [gofreec: message] and exit
    with the facade's code (1 compile/build, 2 runtime, 3 corruption). *)
let ok : ('a, Gofree_api.error) result -> 'a = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "gofreec: %s\n" (Gofree_api.error_message e);
    exit (Gofree_api.error_exit_code e)

(** Read a file, mapping failures onto the compile-error exit path. *)
let read_source path =
  try read_file path
  with Sys_error m -> ok (Error (Gofree_api.Compile_error m))
