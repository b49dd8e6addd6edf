(** Incremental, parallel multi-package build driver: topological
    typechecking with threaded id bases, per-package escape analysis
    against its dependencies' summaries (§4.4), content-hash caching of
    function-granular unit records, wave-parallel analysis on OCaml
    domains with in-package analysis units fanned out to a shared
    worker pool, and linking into one runnable {!Tast.program}. *)

open Minigo
module Core := Gofree_core

exception Error of string

type pkg_report = {
  pr_name : string;
  pr_wave : int;  (** dependency wave the package was scheduled in *)
  pr_cached : bool;
      (** every unit replayed from the unit cache (so, vacuously, a
          package without functions) *)
  pr_ms : float;  (** analysis time, unit replay included *)
  pr_nfuncs : int;
  pr_nsummaries : int;
  pr_units : int;  (** analysis units (call-graph SCCs) *)
  pr_unit_hits : int;  (** units replayed from the unit cache *)
}

type stats = {
  bs_pkgs : pkg_report list;  (** topological order *)
  bs_hits : int;
  bs_misses : int;
  bs_unit_hits : int;  (** units replayed instead of re-analyzed *)
  bs_unit_misses : int;  (** units actually analyzed *)
  bs_jobs : int;
  bs_total_ms : float;
}

type result = {
  b_program : Tast.program;  (** linked and instrumented *)
  b_inserted : Core.Instrument.inserted list;
  b_site_heap : bool array;  (** indexed by absolute site id *)
  b_var_boxed : bool array;  (** indexed by absolute variable id *)
  b_stats : stats;
}

(** The function-granular cache the driver consults for every unit: a
    record by (package, unit content key), and wholesale replacement of
    a package's record set after its analysis.  Both must be
    thread-safe (package schedulers run on parallel domains). *)
type unit_cache = {
  uc_lookup : pkg:string -> key:string -> Store.unit_record option;
  uc_commit : pkg:string -> Store.unit_record list -> unit;
}

(** The on-disk cache ([<dir>/<pkg>.units]), lazily loaded, replaced
    wholesale on commit unless the committed set has the keys already
    loaded (then nothing is written); thread-safe. *)
val disk_unit_cache : dir:string -> unit_cache

(** Build the tree rooted at the directory.  [cache_dir] defaults to
    [<root>/.gofree-cache]; [jobs = 0] picks a worker count from the
    machine; [force] ignores the unit cache while still refreshing
    it.  [unit_cache] defaults to {!disk_unit_cache} under
    [cache_dir].  Raises {!Error} or {!Loader.Error} on build
    problems. *)
val build :
  ?config:Core.Config.t ->
  ?cache_dir:string ->
  ?jobs:int ->
  ?force:bool ->
  ?unit_cache:unit_cache ->
  string ->
  result

val pp_stats : Format.formatter -> stats -> unit

(** Build statistics as JSON (schema [gofree-build-stats-v1]) — the
    payload of [gofreec build --stats-json]. *)
val stats_to_json : stats -> Gofree_obs.Json.t
