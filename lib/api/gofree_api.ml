(** The stable entry points of the GoFree toolchain (API version 1).

    Everything a consumer does — the [gofreec] CLI, the [gofreec serve]
    daemon, the differential tests — goes through this module: compile a
    source string, analyze/explain it, build a multi-package tree, run
    the result.  Callers never touch [Gofree_minigo]/[Gofree_escape]
    internals; results come back as the typed records below and errors
    as the {!error} sum instead of library-specific exceptions.

    Layering (DESIGN.md "Facade and server"): api → {pipeline, build,
    interp} → {escape, runtime, minigo}.  The facade owns no state — the
    daemon's resident cache sits on top of it in [Gofree_server]. *)

module Json = Gofree_obs.Json

(** Bumped on incompatible changes to the signatures below; also the
    major version of the [gofree-rpc-v1] wire protocol that mirrors this
    API. *)
let api_version = 1

(* ---------------------------------------------------------------- *)
(* Configuration                                                     *)
(* ---------------------------------------------------------------- *)

type config = Gofree_core.Config.t

(** Builder-style configuration surface (API v2).  A preset is just a
    configuration value; start from {!Preset.default} (the paper's
    shipped system) or {!Preset.stock_go} and refine it with the
    [with_*] combinators:

    {[
      Preset.(default |> with_field_sensitivity true
                      |> with_placement Gofree_core.Config.Last_use
                      |> to_config)
    ]}

    This replaces the ad-hoc preset globals ([Config.all_targets],
    [Config.no_ipa], ...) which remain available one more release as
    deprecated aliases (see {!preset} below). *)
module Preset = struct
  module C = Gofree_core.Config

  type t = config

  (** The paper's shipped configuration. *)
  let default : t = C.gofree

  (** Stock Go: no tcfree insertion. *)
  let stock_go : t = C.go

  let to_config (p : t) : config = p

  let of_config (c : config) : t = c

  let with_insertion insert_tcfree (p : t) : t = { p with C.insert_tcfree }

  let with_targets targets (p : t) : t = { p with C.targets }

  let with_ipa ipa (p : t) : t = { p with C.ipa }

  let with_backprop backprop (p : t) : t = { p with C.backprop }

  let with_precision precision (p : t) : t = { p with C.precision }

  let with_field_sensitivity field_sensitive (p : t) : t =
    { p with C.precision = { p.C.precision with C.field_sensitive } }

  let with_placement placement (p : t) : t =
    { p with C.precision = { p.C.precision with C.placement } }

  (** The named configurations the CLI, RPC layer and benchmarks refer
      to by string. *)
  let named : (string * t) list =
    [
      ("gofree", default);
      ("go", stock_go);
      ("all-targets", with_targets C.All_pointers default);
      ("no-ipa", with_ipa false default);
      ("field-sensitive", with_field_sensitivity true default);
      ("last-use", with_placement C.Last_use default);
      ("precise", with_precision C.precise_precision default);
    ]

  let of_name (n : string) : t option = List.assoc_opt n named
end

(** Deprecated (API v1): the closed preset variant.  Kept one release
    for callers of the historical flag triple; new code should use
    {!Preset}. *)
type preset =
  | Gofree  (** the paper's shipped configuration *)
  | Go  (** stock Go: no tcfree insertion *)
  | All_targets  (** also free objects through raw pointers *)
  | No_ipa  (** ablation: no inter-procedural content tags *)

(** Deprecated: use {!Preset.to_config}. *)
let config_of_preset = function
  | Gofree -> Preset.default
  | Go -> Preset.stock_go
  | All_targets -> Preset.(with_targets Gofree_core.Config.All_pointers default)
  | No_ipa -> Preset.(with_ipa false default)

(** The CLI's historical flag triple, also used by the v1 RPC layer. *)
let preset_of_flags ~go ~all_targets ~no_ipa =
  if go then Go
  else if all_targets then All_targets
  else if no_ipa then No_ipa
  else Gofree

let preset_name = function
  | Gofree -> "gofree"
  | Go -> "go"
  | All_targets -> "all-targets"
  | No_ipa -> "no-ipa"

(** Deprecated: use {!Preset.of_name}, which also knows the precision
    presets. *)
let preset_of_name = function
  | "gofree" -> Some Gofree
  | "go" -> Some Go
  | "all-targets" -> Some All_targets
  | "no-ipa" -> Some No_ipa
  | _ -> None

(* ---- config <-> JSON (the RPC v2 "config" object) ---- *)

let targets_str = function
  | Gofree_core.Config.Slices_and_maps -> "slices+maps"
  | Gofree_core.Config.All_pointers -> "all"

let targets_of_string = function
  | "slices+maps" -> Some Gofree_core.Config.Slices_and_maps
  | "all" -> Some Gofree_core.Config.All_pointers
  | _ -> None

let precision_to_json (p : Gofree_core.Config.precision) : Json.t =
  Json.Obj
    [
      ("field_sensitive", Json.Bool p.Gofree_core.Config.field_sensitive);
      ( "placement",
        Json.Str
          (Gofree_core.Config.placement_str p.Gofree_core.Config.placement)
      );
    ]

(** Schema: the [config] object of [gofree-rpc-v2] requests. *)
let config_to_json (c : config) : Json.t =
  Json.Obj
    [
      ("insert_tcfree", Json.Bool c.Gofree_core.Config.insert_tcfree);
      ("targets", Json.Str (targets_str c.Gofree_core.Config.targets));
      ("ipa", Json.Bool c.Gofree_core.Config.ipa);
      ("backprop", Json.Bool c.Gofree_core.Config.backprop);
      ("precision", precision_to_json c.Gofree_core.Config.precision);
    ]

(** Parse an RPC v2 [config] object.  Every field is optional and
    defaults to the paper's configuration, so clients send only what
    they change; unknown field names are rejected (schema check). *)
let config_of_json (j : Json.t) : (config, string) result =
  let module C = Gofree_core.Config in
  let ( let* ) = Result.bind in
  match j with
  | Json.Obj fields ->
    let bool_field name v k =
      match v with
      | Json.Bool b -> k b
      | _ -> Error (Printf.sprintf "config.%s: expected bool" name)
    in
    let rec fold cfg = function
      | [] -> Ok cfg
      | ("insert_tcfree", v) :: rest ->
        bool_field "insert_tcfree" v (fun b ->
            fold { cfg with C.insert_tcfree = b } rest)
      | ("ipa", v) :: rest ->
        bool_field "ipa" v (fun b -> fold { cfg with C.ipa = b } rest)
      | ("backprop", v) :: rest ->
        bool_field "backprop" v (fun b ->
            fold { cfg with C.backprop = b } rest)
      | ("targets", Json.Str s) :: rest -> (
        match targets_of_string s with
        | Some t -> fold { cfg with C.targets = t } rest
        | None -> Error (Printf.sprintf "config.targets: unknown %S" s))
      | ("targets", _) :: _ -> Error "config.targets: expected string"
      | ("precision", Json.Obj pf) :: rest ->
        let rec pfold pr = function
          | [] -> Ok pr
          | ("field_sensitive", v) :: prest ->
            bool_field "precision.field_sensitive" v (fun b ->
                pfold { pr with C.field_sensitive = b } prest)
          | ("placement", Json.Str s) :: prest -> (
            match C.placement_of_string s with
            | Some p -> pfold { pr with C.placement = p } prest
            | None ->
              Error (Printf.sprintf "config.precision.placement: unknown %S" s)
            )
          | ("placement", _) :: _ ->
            Error "config.precision.placement: expected string"
          | (k, _) :: _ ->
            Error (Printf.sprintf "config.precision: unknown field %S" k)
        in
        let* pr = pfold cfg.C.precision pf in
        fold { cfg with C.precision = pr } rest
      | ("precision", _) :: _ -> Error "config.precision: expected object"
      | (k, _) :: _ -> Error (Printf.sprintf "config: unknown field %S" k)
    in
    fold C.gofree fields
  | _ -> Error "config: expected object"

(** Which execution engine interprets function bodies.  Both are
    observationally identical (output, metrics JSON, GC events) by
    construction — they share the interpreter's allocation/map/call
    helpers — and differ only in speed. *)
type engine = Gofree_interp.Interp.engine =
  | Eng_reference  (** tree-walking reference interpreter *)
  | Eng_bytecode  (** flat bytecode VM with inline caches (default) *)

let engine_name = function
  | Eng_reference -> "reference"
  | Eng_bytecode -> "bytecode"

let engine_of_name = function
  | "reference" -> Some Eng_reference
  | "bytecode" -> Some Eng_bytecode
  | _ -> None

(** Options of one program execution (a subset of the interpreter's
    run_config; the rest is fixed by the config's preset). *)
type run_options = {
  gc_off : bool;
  poison : bool;  (** mock tcfree poisoning wrong frees (paper §6.8) *)
  gogc : int;
  seed : int;
  sample_every : int;  (** 0 = no time series *)
  engine : engine;  (** which engine executes function bodies *)
  domains : int;
      (** run goroutines across N OCaml domains (work-stealing
          scheduler, domain-safe allocator, parallel GC).  0 (the
          default) is an alias for 1: one domain, an unshared heap and a
          deterministic schedule. *)
}

let default_run_options =
  {
    gc_off = false;
    poison = false;
    gogc = 100;
    seed = 42;
    sample_every = 0;
    engine = Eng_bytecode;
    domains = 0;
  }

let run_config_of_options ~(config : config) (o : run_options) :
    Gofree_interp.Interp.run_config =
  {
    Gofree_interp.Interp.default_config with
    heap_config =
      {
        Gofree_runtime.Heap.default_config with
        gc_disabled = o.gc_off;
        poison_on_free = o.poison;
        gogc = o.gogc;
        grow_map_free_old = config.Gofree_core.Config.insert_tcfree;
      };
    seed = Int64.of_int o.seed;
    sample_every = o.sample_every;
    engine = o.engine;
    domains = max 0 o.domains;
  }

(* ---------------------------------------------------------------- *)
(* Errors                                                            *)
(* ---------------------------------------------------------------- *)

type error =
  | Compile_error of string  (** lex/parse/type errors *)
  | Build_error of string  (** loader/driver errors of a tree build *)
  | Runtime_error of string  (** interpreter-level failure *)
  | Corruption of string  (** poison mode caught a wrong free *)

let error_message = function
  | Compile_error m | Build_error m -> m
  | Runtime_error m -> "runtime error: " ^ m
  | Corruption m -> "MEMORY CORRUPTION DETECTED: " ^ m

(** The CLI's historical exit codes: 1 compile/build, 2 runtime,
    3 corruption. *)
let error_exit_code = function
  | Compile_error _ | Build_error _ -> 1
  | Runtime_error _ -> 2
  | Corruption _ -> 3

let wrap_errors (f : unit -> 'a) : ('a, error) result =
  match f () with
  | v -> Ok v
  | exception Gofree_core.Pipeline.Compile_error m -> Error (Compile_error m)
  | exception Gofree_build.Driver.Error m -> Error (Build_error m)
  | exception Gofree_build.Loader.Error m -> Error (Build_error m)
  | exception Gofree_interp.Interp.Runtime_error m ->
    Error (Runtime_error m)
  | exception Gofree_interp.Value.Corruption m -> Error (Corruption m)
  | exception Sys_error m -> Error (Compile_error m)

(* ---------------------------------------------------------------- *)
(* Compilation of one source                                         *)
(* ---------------------------------------------------------------- *)

type compilation = {
  cc_config : config;
  cc_compiled : Gofree_core.Pipeline.compiled;
}

type free_kind = Free_slice | Free_map | Free_obj

let free_kind_name = function
  | Free_slice -> "slice"
  | Free_map -> "map"
  | Free_obj -> "obj"

(** One compiler-inserted tcfree call. *)
type insertion = {
  ins_function : string;
  ins_variable : string;
  ins_kind : free_kind;
}

let kind_of_tast = function
  | Minigo.Tast.Free_slice -> Free_slice
  | Minigo.Tast.Free_map -> Free_map
  | Minigo.Tast.Free_obj -> Free_obj

let insertions_of_list l =
  List.map
    (fun (i : Gofree_core.Instrument.inserted) ->
      {
        ins_function = i.Gofree_core.Instrument.ins_func;
        ins_variable =
          (i.Gofree_core.Instrument.ins_var.Minigo.Tast.v_name
          ^
          match i.Gofree_core.Instrument.ins_field with
          | Some (_, fname) -> "." ^ fname
          | None -> "");
        ins_kind = kind_of_tast i.Gofree_core.Instrument.ins_kind;
      })
    l

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(** Compile one MiniGo source string through the full pipeline (parse,
    typecheck, escape analysis, tcfree instrumentation). *)
let compile_string ?(config = Gofree_core.Config.gofree) (source : string) :
    (compilation, error) result =
  wrap_errors (fun () ->
      {
        cc_config = config;
        cc_compiled = Gofree_core.Pipeline.compile ~config source;
      })

(** {!compile_string} on a file's contents — the entry point behind
    [gofreec analyze] and friends. *)
let analyze_file ?config (path : string) : (compilation, error) result =
  match wrap_errors (fun () -> read_file path) with
  | Error e -> Error e
  | Ok source -> compile_string ?config source

let insertions (c : compilation) : insertion list =
  insertions_of_list c.cc_compiled.Gofree_core.Pipeline.c_inserted

(** One analysis unit (call-graph SCC) of a compilation or build, with
    the content key the incremental caches are keyed by. *)
type analysis_unit = {
  au_functions : string list;  (** the unit's functions, unit order *)
  au_key : string;  (** content key (bodies ⊕ callee summaries ⊕ config) *)
  au_cached : bool;  (** replayed from a unit cache, not analyzed *)
}

let units_of_reports (units : Gofree_escape.Analysis.unit_report list) :
    analysis_unit list =
  List.map
    (fun (u : Gofree_escape.Analysis.unit_report) ->
      {
        au_functions = u.Gofree_escape.Analysis.ur_funcs;
        au_key = u.Gofree_escape.Analysis.ur_key;
        au_cached = u.Gofree_escape.Analysis.ur_cached;
      })
    units

(** The compilation's analysis units in bottom-up solve order. *)
let compilation_units (c : compilation) : analysis_unit list =
  units_of_reports
    c.cc_compiled.Gofree_core.Pipeline.c_analysis
      .Gofree_escape.Analysis.units

let function_names (c : compilation) : string list =
  List.map
    (fun (f : Minigo.Tast.func) -> f.Minigo.Tast.f_name)
    c.cc_compiled.Gofree_core.Pipeline.c_program.Minigo.Tast.p_funcs

(** The instrumented program, pretty-printed ([gofreec instrument]). *)
let instrumented_source (c : compilation) : string =
  Minigo.Pretty.program_to_string
    c.cc_compiled.Gofree_core.Pipeline.c_program

(** The bytecode-engine lowering of the compilation, disassembled with
    resolved slot names and inline-cache sites ([gofreec disasm]). *)
let disassemble (c : compilation) : string =
  let program = c.cc_compiled.Gofree_core.Pipeline.c_program in
  let decisions =
    Gofree_interp.Decisions.of_analysis
      c.cc_compiled.Gofree_core.Pipeline.c_analysis program
  in
  let layout = Gofree_interp.Layout.of_program program in
  Gofree_interp.Bytecode.disasm
    (Gofree_interp.Emit.lower program decisions layout)

(** Compile and disassemble one source string. *)
let disassemble_string ?config (source : string) : (string, error) result =
  match compile_string ?config source with
  | Error e -> Error e
  | Ok c -> Ok (disassemble c)

(* ---- analysis reports ---- *)

(** Property table and points-to sets of [func] (all functions when
    omitted), followed by the insertion list — the [gofreec analyze]
    text report. *)
let pp_analysis ?func fmt (c : compilation) =
  let funcs =
    match func with Some f -> [ f ] | None -> function_names c
  in
  List.iter
    (fun name ->
      Gofree_core.Report.pp_function fmt
        c.cc_compiled.Gofree_core.Pipeline.c_analysis name;
      Format.pp_print_newline fmt ())
    funcs;
  Gofree_core.Report.pp_inserted fmt
    c.cc_compiled.Gofree_core.Pipeline.c_inserted;
  Format.pp_print_newline fmt ()

(** Escape graph of one function as Graphviz DOT; [None] if the function
    was not analyzed. *)
let analysis_dot (c : compilation) ~func : string option =
  Gofree_core.Report.to_dot
    c.cc_compiled.Gofree_core.Pipeline.c_analysis func

(* ---- freeing diagnostics ---- *)

(** Total per-site classification of the compilation's allocation sites
    ([gofreec analyze --explain]). *)
type explain = Gofree_core.Report.site_explain list

let explain (c : compilation) : explain =
  Gofree_core.Report.explain c.cc_compiled.Gofree_core.Pipeline.c_analysis
    c.cc_compiled.Gofree_core.Pipeline.c_inserted c.cc_config
    c.cc_compiled.Gofree_core.Pipeline.c_program

let pp_explain = Gofree_core.Report.pp_explain

(** Schema [gofree-explain-v1]. *)
let explain_to_json = Gofree_core.Report.explain_to_json

(** Per-blocking-reason histogram of the GC-bound heap sites. *)
let blocking_counts (e : explain) : (string * int) list =
  List.map
    (fun (b, n) -> (Gofree_core.Report.blocking_str b, n))
    (Gofree_core.Report.blocking_counts e)

(** Which blocking reasons [refined] eliminated relative to [baseline]
    on the same program (the [analyze --explain-delta] artifact). *)
let explain_delta ~(baseline : explain) ~(refined : explain) :
    Gofree_obs.Json.t =
  Gofree_core.Report.explain_delta ~baseline ~refined

(* ---------------------------------------------------------------- *)
(* Execution                                                         *)
(* ---------------------------------------------------------------- *)

type metrics = Gofree_runtime.Metrics.t

let pp_metrics = Gofree_runtime.Metrics.pp

type run_outcome = {
  output : string;
  panicked : bool;
  wall_ns : int64;
  steps : int;
  metrics : metrics;
  metrics_json : Json.t;
      (** the [--metrics-json] document: final counters plus the sampled
          time series when one was recorded *)
}

let outcome_of_result (r : Gofree_interp.Runner.result) : run_outcome =
  let metrics_json =
    Json.Obj
      ([
         ( "metrics",
           Gofree_runtime.Metrics.to_json r.Gofree_interp.Runner.metrics );
       ]
      @
      match r.Gofree_interp.Runner.sampler with
      | Some s -> [ ("samples", Gofree_runtime.Sampler.to_json s) ]
      | None -> [])
  in
  {
    output = r.Gofree_interp.Runner.output;
    panicked = r.Gofree_interp.Runner.panicked;
    wall_ns = r.Gofree_interp.Runner.wall_ns;
    steps = r.Gofree_interp.Runner.steps;
    metrics = r.Gofree_interp.Runner.metrics;
    metrics_json;
  }

(** Execute a compilation to completion.  A program panic is a normal
    outcome ([panicked = true]); [Error] means the interpreter itself
    failed (budget exceeded, corruption under poison, ...). *)
let run_compilation ?(options = default_run_options) (c : compilation) :
    (run_outcome, error) result =
  wrap_errors (fun () ->
      let run_config = run_config_of_options ~config:c.cc_config options in
      outcome_of_result
        (Gofree_interp.Runner.run ~config:run_config c.cc_compiled))

(** Compile and run one source string. *)
let run_string ?config ?options (source : string) :
    (run_outcome, error) result =
  match compile_string ?config source with
  | Error e -> Error e
  | Ok c -> run_compilation ?options c

(* ---------------------------------------------------------------- *)
(* Multi-package builds                                              *)
(* ---------------------------------------------------------------- *)

type build = {
  bb_config : config;
  bb_result : Gofree_build.Driver.result;
}

type build_stats = Gofree_build.Driver.stats

(** The driver's function-granular cache interface, re-exported so the
    daemon can layer its resident unit table over the on-disk cache. *)
type unit_cache = Gofree_build.Driver.unit_cache

(** Build the multi-package tree rooted at [dir] (incremental through
    content-keyed function-granular unit records, parallel analysis on
    [jobs] domains).  [unit_cache] defaults to the on-disk unit cache
    under the tree's cache directory. *)
let build_dir ?(config = Gofree_core.Config.gofree) ?cache_dir ?(jobs = 0)
    ?(force = false) ?unit_cache (dir : string) : (build, error) result =
  wrap_errors (fun () ->
      {
        bb_config = config;
        bb_result =
          Gofree_build.Driver.build ~config ?cache_dir ~jobs ~force
            ?unit_cache dir;
      })

let build_stats (b : build) : build_stats =
  b.bb_result.Gofree_build.Driver.b_stats

let pp_build_stats = Gofree_build.Driver.pp_stats

(** Schema [gofree-build-stats-v1]. *)
let build_stats_to_json = Gofree_build.Driver.stats_to_json

let build_insertions (b : build) : insertion list =
  insertions_of_list b.bb_result.Gofree_build.Driver.b_inserted

(** Packages built, cache hits among them (packages whose every unit
    replayed). *)
let build_cache_counts (b : build) : int * int =
  let st = b.bb_result.Gofree_build.Driver.b_stats in
  ( List.length st.Gofree_build.Driver.bs_pkgs,
    st.Gofree_build.Driver.bs_hits )

(** Unit-level cache traffic of the build: (units replayed from the
    unit cache, units actually analyzed). *)
let build_unit_counts (b : build) : int * int =
  let st = b.bb_result.Gofree_build.Driver.b_stats in
  ( st.Gofree_build.Driver.bs_unit_hits,
    st.Gofree_build.Driver.bs_unit_misses )

(** Execute a linked build under the decisions its per-package analyses
    (or their cached summaries) produced. *)
let run_build ?(options = default_run_options) (b : build) :
    (run_outcome, error) result =
  wrap_errors (fun () ->
      let run_config = run_config_of_options ~config:b.bb_config options in
      let decisions =
        {
          Gofree_interp.Decisions.site_heap =
            b.bb_result.Gofree_build.Driver.b_site_heap;
          var_boxed = b.bb_result.Gofree_build.Driver.b_var_boxed;
        }
      in
      outcome_of_result
        (Gofree_interp.Runner.run_program ~config:run_config ~decisions
           b.bb_result.Gofree_build.Driver.b_program))

(* ---------------------------------------------------------------- *)
(* Content hashing (for callers that cache across requests)          *)
(* ---------------------------------------------------------------- *)

(* [Config.signature] is exhaustive over the record, so a config field
   missing from the cache keys is a compile error there, not a silent
   aliasing bug here. *)
let config_signature (c : config) =
  Printf.sprintf "v%d %s" api_version (Gofree_core.Config.signature c)

(** Content hash of one source under [config] — the key of the daemon's
    resident compilation cache. *)
let source_key ~(config : config) (source : string) : string =
  Digest.to_hex
    (Digest.string (config_signature config ^ "\000" ^ source))

(** Content hash of every source file under [dir] (the loader's layout
    convention) plus [config] — the key of the daemon's resident build
    cache.  Reads file bytes only: a warm hit skips parsing, checking
    and analysis alike. *)
let tree_key ~(config : config) (dir : string) : (string, error) result =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (config_signature config);
  let is_source f =
    Filename.check_suffix f ".go" || Filename.check_suffix f ".minigo"
  in
  let skip name =
    String.length name = 0 || name.[0] = '.' || name.[0] = '_'
  in
  let rec walk rel abs =
    List.iter
      (fun entry ->
        let abs' = Filename.concat abs entry in
        let rel' = if rel = "" then entry else rel ^ "/" ^ entry in
        if Sys.is_directory abs' then begin
          if not (skip entry) then walk rel' abs'
        end
        else if is_source entry then begin
          Buffer.add_string buf rel';
          Buffer.add_char buf '\000';
          Buffer.add_string buf (read_file abs');
          Buffer.add_char buf '\000'
        end)
      (List.sort compare (Array.to_list (Sys.readdir abs)))
  in
  match walk "" dir with
  | () -> Ok (Digest.to_hex (Digest.string (Buffer.contents buf)))
  | exception Sys_error m -> Error (Build_error m)
