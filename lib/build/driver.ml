(** The incremental, parallel multi-package build driver.

    Pipeline, per build:
    + load and parse every package of the tree ({!Loader});
    + schedule them into dependency waves ({!Pkg_graph});
    + typecheck sequentially in topological order, threading the
      variable/scope/site id bases so ids stay globally unique and the
      packages link without renumbering;
    + analyze each package against its dependencies' summaries, held in
      memory for the rest of the build (paper §4.4: a callee's extended
      parameter tag is all a caller needs) — packages within a wave are
      independent and run on parallel {!Domain}s, and {e within} a
      package the analysis solves call-graph SCC units on a shared
      worker pool ({!Gofree_sched.Pool});
    + consult the function-granular unit cache ({!Store}) for every
      unit: a unit whose content key (bodies and the struct layouts
      in scope ⊕ callee summary contents ⊕ config) is unchanged replays
      its recorded insertions and decisions instead of re-analyzing, so
      one edited function re-solves only its own SCC plus the units
      whose callee-summary contents actually changed, and an unedited
      package re-solves nothing;
    + link everything into one {!Tast.program} plus the runtime's
      stack/heap and boxing decision arrays, read off each package's
      unit records.

    The import graph is acyclic, so per-package analysis seeded with
    callee summaries computes exactly what the whole-program SCC order
    would: insertion sites and runtime metrics match a single-file
    compile of the same declarations — cached or not, parallel or not. *)

open Minigo
module E = Gofree_escape
module Core = Gofree_core
module Pool = Gofree_sched.Pool

exception Error of string

module Trace = Gofree_obs.Trace
module Json = Gofree_obs.Json

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

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

let now_ms () = Unix.gettimeofday () *. 1000.

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* ------------------------------------------------------------------ *)
(* Function-granular unit cache                                        *)
(* ------------------------------------------------------------------ *)

(** Where unit records live between builds.  The driver only ever asks
    two things: a record by (package, content key) and "here is the
    package's complete current record set".  The daemon layers its
    resident table over the disk implementation through this same
    interface. *)
type unit_cache = {
  uc_lookup : pkg:string -> key:string -> Store.unit_record option;
  uc_commit : pkg:string -> Store.unit_record list -> unit;
}

(** The on-disk unit cache: [<dir>/<pkg>.units], loaded lazily once per
    package and replaced wholesale on commit — unless the committed set
    has exactly the content keys already stored, in which case nothing
    is written (so a package without functions never gets a file).
    Thread-safe — package schedulers on different domains share one
    instance per build. *)
let disk_unit_cache ~dir : unit_cache =
  let mutex = Mutex.create () in
  let loaded : (string, (string, Store.unit_record) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let table pkg =
    match Hashtbl.find_opt loaded pkg with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 16 in
      (match Store.load_units ~dir ~pkg with
      | Some records ->
        List.iter (fun (r : Store.unit_record) ->
            Hashtbl.replace t r.Store.u_key r)
          records
      | None -> ());
      Hashtbl.replace loaded pkg t;
      t
  in
  {
    uc_lookup =
      (fun ~pkg ~key ->
        Mutex.lock mutex;
        let r = Hashtbl.find_opt (table pkg) key in
        Mutex.unlock mutex;
        r);
    uc_commit =
      (fun ~pkg records ->
        Mutex.lock mutex;
        (* equal keys mean equal records, so an equal key set is an
           unchanged file *)
        let unchanged =
          let t = table pkg in
          Hashtbl.length t = List.length records
          && List.for_all
               (fun (r : Store.unit_record) -> Hashtbl.mem t r.Store.u_key)
               records
        in
        if not unchanged then begin
          let t = Hashtbl.create 16 in
          List.iter
            (fun (r : Store.unit_record) -> Hashtbl.replace t r.Store.u_key r)
            records;
          Hashtbl.replace loaded pkg t;
          try Store.save_units ~dir ~pkg records with Sys_error _ -> ()
        end;
        Mutex.unlock mutex);
  }

(* ------------------------------------------------------------------ *)
(* Per-package analysis                                                *)
(* ------------------------------------------------------------------ *)

type pkg_outcome = {
  po_summaries : E.Summary.t list;
      (** the package's own functions', declaration order: what its
          dependents import *)
  po_inserted : Core.Instrument.inserted list;
  po_records : Store.unit_record list;  (** complete set, unit order *)
  po_heap_sites : int list;  (** absolute ids of heap-allocated sites *)
  po_boxed : int list;  (** absolute ids of boxed variables *)
  po_units : int;
  po_unit_hits : int;
  po_ms : float;
}

(* First variable id of each function (over params and every declaration)
   and first site id of each function: the bases the unit records'
   function-relative ids are stored against.  Stable per function as
   long as its body is unchanged — which the unit's body hash
   guarantees — even when other functions in the package change size. *)
let func_bases (tp : Tast.program) =
  let min_var = Hashtbl.create 16 in
  List.iter
    (fun (f : Tast.func) ->
      match Core.Instrument.func_vars f with
      | [] -> ()
      | vars ->
        Hashtbl.replace min_var f.Tast.f_name
          (List.fold_left
             (fun acc (v : Tast.var) -> min acc v.Tast.v_id)
             max_int vars))
    tp.Tast.p_funcs;
  let min_site = Hashtbl.create 16 in
  List.iter
    (fun (s : Tast.alloc_site) ->
      match Hashtbl.find_opt min_site s.Tast.site_func with
      | Some m when m <= s.Tast.site_id -> ()
      | _ -> Hashtbl.replace min_site s.Tast.site_func s.Tast.site_id)
    tp.Tast.p_sites;
  (min_var, min_site)

(* Analyze one package against its dependencies' summaries: units the
   cache knows replay their records, the rest are solved and recorded.
   The outcome carries the package's complete record set and the link
   decisions read off it.  Runs on a worker domain: everything it
   touches (its own typed program, the read-only tenv, the imported
   summary list) is either private or immutable during the wave; the
   unit cache and the shared pool are thread-safe. *)
let analyze_package ~config ~name ~base_var ~nvars ~imported ~pool
    ~(lookup : pkg:string -> key:string -> Store.unit_record option)
    (tp : Tast.program) : pkg_outcome =
  let t0 = now_ms () in
  let min_var, min_site = func_bases tp in
  let var_base fn = Hashtbl.find min_var fn in
  let site_base fn = Hashtbl.find min_site fn in
  (* Records whose key matched this run, stashed at lookup time so the
     assembly below can replay them. *)
  let hit_records : (string, Store.unit_record) Hashtbl.t =
    Hashtbl.create 8
  in
  let unit_lookup ~key:ukey ~funcs =
    match lookup ~pkg:name ~key:ukey with
    | Some r when r.Store.u_funcs = funcs ->
      Hashtbl.replace hit_records ukey r;
      if Trace.enabled () then
        Trace.instant
          ~args:
            [ ("pkg", Json.Str name);
              ("funcs", Json.Str (String.concat "," funcs)) ]
          ~tid:(Trace.domain_tid ()) "unit hit";
      Some r.Store.u_summaries
    | _ ->
      if Trace.enabled () then
        Trace.instant
          ~args:
            [ ("pkg", Json.Str name);
              ("funcs", Json.Str (String.concat "," funcs)) ]
          ~tid:(Trace.domain_tid ()) "unit miss";
      None
  in
  let analysis =
    Core.Pipeline.analyze_program ~config ~imported ?pool ~unit_lookup tp
  in
  (* Which functions came out of the unit cache (no func_result). *)
  let cached_func : (string, Store.unit_record) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (ur : E.Analysis.unit_report) ->
      if ur.E.Analysis.ur_cached then begin
        let r = Hashtbl.find hit_records ur.E.Analysis.ur_key in
        List.iter
          (fun fn -> Hashtbl.replace cached_func fn r)
          ur.E.Analysis.ur_funcs
      end)
    analysis.E.Analysis.units;
  (* Instrument in declaration order: analyzed functions run the real
     instrumentation, cached ones replay their recorded frees shifted
     onto this build's id base — same placement rules, same result. *)
  let inserted_by_func : (string, Core.Instrument.inserted list) Hashtbl.t =
    Hashtbl.create 16
  in
  let inserted =
    Trace.with_span ~tid:(Trace.domain_tid ()) "instrument" (fun () ->
        List.concat_map
          (fun (f : Tast.func) ->
            let fn = f.Tast.f_name in
            let ins =
              match Hashtbl.find_opt cached_func fn with
              | Some r ->
                let frees =
                  List.filter_map
                    (fun (func, rel, fidx, kind) ->
                      if func = fn then Some (var_base fn + rel, fidx, kind)
                      else None)
                    r.Store.u_frees
                in
                if frees = [] then []
                else
                  Core.Instrument.replay_function ~tenv:tp.Tast.p_tenv
                    ~config f frees
              | None ->
                Core.Instrument.instrument_function ~tenv:tp.Tast.p_tenv
                  analysis config f
            in
            Hashtbl.replace inserted_by_func fn ins;
            ins)
          tp.Tast.p_funcs)
  in
  let own_summaries =
    List.filter_map
      (fun (f : Tast.func) ->
        Hashtbl.find_opt analysis.E.Analysis.summaries f.Tast.f_name)
      tp.Tast.p_funcs
  in
  (* Unit records: hits pass through unchanged, misses are compressed
     from the fresh analysis — together the package's complete set. *)
  let records =
    List.map
      (fun (ur : E.Analysis.unit_report) ->
        if ur.E.Analysis.ur_cached then
          Hashtbl.find hit_records ur.E.Analysis.ur_key
        else begin
          let funcs = ur.E.Analysis.ur_funcs in
          let u_summaries =
            List.filter_map
              (fun fn -> Hashtbl.find_opt analysis.E.Analysis.summaries fn)
              funcs
          in
          let u_frees =
            List.concat_map
              (fun fn ->
                List.map
                  (fun (i : Core.Instrument.inserted) ->
                    ( fn,
                      i.Core.Instrument.ins_var.Tast.v_id - var_base fn,
                      (match i.Core.Instrument.ins_field with
                      | Some (idx, _) -> idx
                      | None -> -1),
                      i.Core.Instrument.ins_kind ))
                  (try Hashtbl.find inserted_by_func fn
                   with Not_found -> []))
              funcs
          in
          let u_sites =
            List.filter_map
              (fun (s : Tast.alloc_site) ->
                let fn = s.Tast.site_func in
                if List.mem fn funcs then
                  Some
                    ( fn,
                      s.Tast.site_id - site_base fn,
                      E.Analysis.site_is_heap analysis ~func:fn s )
                else None)
              tp.Tast.p_sites
          in
          let u_boxed =
            List.concat_map
              (fun fn ->
                match Hashtbl.find_opt analysis.E.Analysis.funcs fn with
                | None -> []
                | Some fr ->
                  let acc = ref [] in
                  Hashtbl.iter
                    (fun var_id (l : E.Loc.t) ->
                      match l.E.Loc.kind with
                      | E.Loc.Kvar v
                        when v.Tast.v_kind <> Tast.Vglobal
                             && l.E.Loc.heap_alloc ->
                        acc := (fn, var_id - var_base fn) :: !acc
                      | _ -> ())
                    fr.E.Analysis.fr_ctx.E.Build.var_locs;
                  List.sort_uniq compare !acc)
              funcs
          in
          { Store.u_key = ur.E.Analysis.ur_key; u_funcs = funcs;
            u_summaries; u_frees; u_sites; u_boxed }
        end)
      analysis.E.Analysis.units
  in
  (* Link decisions, read off the complete record set.  A site no record
     covers belongs to no function: it keeps the analysis' answer, which
     is heap for anything the analysis did not solve. *)
  let recorded_sites = Hashtbl.create 16 in
  List.iter
    (fun (r : Store.unit_record) ->
      List.iter
        (fun (fn, rel, heap) -> Hashtbl.replace recorded_sites (fn, rel) heap)
        r.Store.u_sites)
    records;
  let heap_sites =
    List.filter_map
      (fun (s : Tast.alloc_site) ->
        let fn = s.Tast.site_func in
        let heap =
          match
            Hashtbl.find_opt recorded_sites (fn, s.Tast.site_id - site_base fn)
          with
          | Some heap -> heap
          | None -> E.Analysis.site_is_heap analysis ~func:fn s
        in
        if heap then Some s.Tast.site_id else None)
      tp.Tast.p_sites
  in
  let boxed =
    List.concat_map
      (fun (r : Store.unit_record) ->
        List.filter_map
          (fun (fn, rel) ->
            match Hashtbl.find_opt min_var fn with
            | Some b when b + rel >= base_var && b + rel < base_var + nvars ->
              Some (b + rel)
            | _ -> None)
          r.Store.u_boxed)
      records
  in
  let unit_hits =
    List.length
      (List.filter
         (fun (ur : E.Analysis.unit_report) -> ur.E.Analysis.ur_cached)
         analysis.E.Analysis.units)
  in
  {
    po_summaries = own_summaries;
    po_inserted = inserted;
    po_records = records;
    po_heap_sites = heap_sites;
    po_boxed = boxed;
    po_units = List.length analysis.E.Analysis.units;
    po_unit_hits = unit_hits;
    po_ms = now_ms () -. t0;
  }

(** Build the multi-package tree rooted at [root].  [jobs = 0] (the
    default) picks a worker count from the machine; [force] ignores the
    unit cache while still refreshing it.  [unit_cache] defaults to the
    on-disk cache under [cache_dir].  Raises {!Error} (or
    {!Loader.Error}) on build problems. *)
let build ?(config = Core.Config.gofree) ?cache_dir ?(jobs = 0)
    ?(force = false) ?unit_cache (root : string) : result =
  let t_start = now_ms () in
  let pkgs =
    Trace.with_span ~tid:(Trace.domain_tid ()) "load" (fun () ->
        Loader.load root)
  in
  let cache_dir =
    match cache_dir with
    | Some d -> d
    | None -> Filename.concat root ".gofree-cache"
  in
  let jobs = if jobs > 0 then jobs else default_jobs () in
  let unit_cache =
    match unit_cache with
    | Some uc -> uc
    | None -> disk_unit_cache ~dir:cache_dir
  in
  (* force = cold: no lookups, but commits still refresh the cache for
     the next build. *)
  let lookup =
    if force then fun ~pkg:_ ~key:_ -> None else unit_cache.uc_lookup
  in
  let wave_list =
    try
      Pkg_graph.waves
        (List.map (fun p -> (p.Loader.pkg_name, p.Loader.pkg_deps)) pkgs)
    with Pkg_graph.Cycle c ->
      fail "import cycle: %s" (String.concat " -> " c)
  in
  let order = List.concat wave_list in
  let pkg name = List.find (fun p -> p.Loader.pkg_name = name) pkgs in
  (* -------- sequential typecheck in topological order -------- *)
  let ifaces = Hashtbl.create 8 in
  let tprogs = Hashtbl.create 8 in
  let var_ranges = Hashtbl.create 8 in  (* name -> (base_var, nvars) *)
  let next = ref (0, 0, 0) in
  List.iter
    (fun name ->
      let p = pkg name in
      let first_var, first_scope, first_site = !next in
      let imports =
        List.map (fun d -> Hashtbl.find ifaces d) p.Loader.pkg_deps
      in
      let tp, iface, counters =
        try
          Trace.with_span ~tid:(Trace.domain_tid ())
            ("typecheck:" ^ name)
            (fun () ->
              Typecheck.check_package ~imports ~first_var ~first_scope
                ~first_site p.Loader.pkg_file)
        with Typecheck.Error (m, pos) ->
          fail "package %s: type error at %s: %s" name
            (Token.string_of_pos pos) m
      in
      Hashtbl.replace ifaces name iface;
      Hashtbl.replace tprogs name tp;
      Hashtbl.replace var_ranges name
        (first_var, counters.Typecheck.c_next_var - first_var);
      next :=
        ( counters.Typecheck.c_next_var,
          counters.Typecheck.c_next_scope,
          counters.Typecheck.c_next_site ))
    order;
  let total_vars, _, total_sites = !next in
  (* One worker pool for the whole build: package schedulers (bucket
     domains, below) fan their ready analysis units out to it.  Workers
     never submit, so a full queue cannot deadlock. *)
  let pool =
    if jobs > 1 then Some (Pool.create ~workers:jobs ()) else None
  in
  Fun.protect ~finally:(fun () -> Option.iter Pool.shutdown pool)
  @@ fun () ->
  (* -------- per-wave analysis on parallel domains -------- *)
  let outcomes = Hashtbl.create 8 in
  let wave_of = Hashtbl.create 8 in
  List.iteri
    (fun wave_idx wave ->
      List.iter (fun n -> Hashtbl.replace wave_of n wave_idx) wave;
      if Trace.enabled () then
        Trace.begin_span
          ~args:[ ("packages", Json.Int (List.length wave)) ]
          ~tid:(Trace.domain_tid ())
          (Printf.sprintf "wave %d" wave_idx);
      (* Capture every input in the parent so worker domains share
         nothing mutable, then fan out. *)
      let tasks =
        List.map
          (fun name ->
            let p = pkg name in
            let imported =
              List.concat_map
                (fun d -> (Hashtbl.find outcomes d).po_summaries)
                p.Loader.pkg_deps
            in
            let base_var, nvars = Hashtbl.find var_ranges name in
            let tp = Hashtbl.find tprogs name in
            fun () ->
              (* lands on the worker's track when run from a domain *)
              Trace.with_span
                ~tid:(Trace.domain_tid ())
                ("analyze:" ^ name)
                (fun () ->
                  let outcome =
                    analyze_package ~config ~name ~base_var ~nvars ~imported
                      ~pool ~lookup tp
                  in
                  (name, outcome)))
          wave
      in
      let results =
        if jobs <= 1 || List.length tasks <= 1 then
          List.map (fun task -> task ()) tasks
        else begin
          let n = min jobs (List.length tasks) in
          let buckets = Array.make n [] in
          List.iteri
            (fun i task -> buckets.(i mod n) <- task :: buckets.(i mod n))
            tasks;
          let domains =
            Array.mapi
              (fun i tasks ->
                let tasks = List.rev tasks in
                Domain.spawn (fun () ->
                    if Trace.enabled () then begin
                      Trace.set_domain_tid (Trace.tid_worker i);
                      Trace.name_thread ~tid:(Trace.tid_worker i)
                        (Printf.sprintf "worker %d" i)
                    end;
                    List.map (fun t -> t ()) tasks))
              buckets
          in
          List.concat_map Domain.join (Array.to_list domains)
        end
      in
      List.iter
        (fun (name, (o : pkg_outcome)) ->
          unit_cache.uc_commit ~pkg:name o.po_records;
          Hashtbl.replace outcomes name o)
        results;
      Trace.end_span ~tid:(Trace.domain_tid ())
        (Printf.sprintf "wave %d" wave_idx))
    wave_list;
  (* -------- link -------- *)
  Trace.begin_span ~tid:(Trace.domain_tid ()) "link";
  let tenv = Types.create_env () in
  List.iter
    (fun name ->
      let tp = Hashtbl.find tprogs name in
      Hashtbl.iter
        (fun n fields -> Types.add_struct tenv n fields)
        tp.Tast.p_tenv.Types.structs)
    order;
  let linked =
    {
      Tast.p_funcs =
        List.concat_map (fun n -> (Hashtbl.find tprogs n).Tast.p_funcs) order;
      p_globals =
        List.concat_map
          (fun n -> (Hashtbl.find tprogs n).Tast.p_globals)
          order;
      p_tenv = tenv;
      p_sites =
        List.concat_map (fun n -> (Hashtbl.find tprogs n).Tast.p_sites) order;
      p_nvars = total_vars;
    }
  in
  (* Instrumentation temporaries (field frees, hoisted returns) carry
     placeholder ids until the whole program is assembled; renumber
     them now, in program order, so ids are deterministic however the
     per-package instrumentation was scheduled.  Grows [p_nvars]. *)
  Core.Instrument.assign_temp_ids linked;
  let site_heap = Array.make (max 1 total_sites) false in
  let var_boxed = Array.make (max 1 linked.Tast.p_nvars) false in
  Hashtbl.iter
    (fun _ (o : pkg_outcome) ->
      List.iter (fun id -> site_heap.(id) <- true) o.po_heap_sites;
      List.iter (fun id -> var_boxed.(id) <- true) o.po_boxed)
    outcomes;
  Trace.end_span ~tid:(Trace.domain_tid ()) "link";
  let reports =
    List.map
      (fun name ->
        let o = Hashtbl.find outcomes name in
        {
          pr_name = name;
          pr_wave = Hashtbl.find wave_of name;
          pr_cached = o.po_unit_hits = o.po_units;
          pr_ms = o.po_ms;
          pr_nfuncs =
            List.length (Hashtbl.find tprogs name).Tast.p_funcs;
          pr_nsummaries = List.length o.po_summaries;
          pr_units = o.po_units;
          pr_unit_hits = o.po_unit_hits;
        })
      order
  in
  let hits = List.length (List.filter (fun r -> r.pr_cached) reports) in
  let unit_hits =
    List.fold_left (fun acc r -> acc + r.pr_unit_hits) 0 reports
  in
  let unit_misses =
    List.fold_left (fun acc r -> acc + (r.pr_units - r.pr_unit_hits)) 0
      reports
  in
  {
    b_program = linked;
    b_inserted =
      List.concat_map (fun n -> (Hashtbl.find outcomes n).po_inserted) order;
    b_site_heap = site_heap;
    b_var_boxed = var_boxed;
    b_stats =
      {
        bs_pkgs = reports;
        bs_hits = hits;
        bs_misses = List.length reports - hits;
        bs_unit_hits = unit_hits;
        bs_unit_misses = unit_misses;
        bs_jobs = jobs;
        bs_total_ms = now_ms () -. t_start;
      };
  }

let pp_stats fmt (st : stats) =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-16s wave %d  %s  %3d func(s)  %d summarie(s)%s%s@,"
        r.pr_name r.pr_wave
        (if r.pr_cached then "cached  " else
           Printf.sprintf "%6.1fms" r.pr_ms)
        r.pr_nfuncs r.pr_nsummaries
        (if r.pr_cached then "  [cache hit]"
         else
           Printf.sprintf "  [%d/%d unit(s) cached]" r.pr_unit_hits
             r.pr_units)
        "")
    st.bs_pkgs;
  Format.fprintf fmt
    "packages: %d  cache hits: %d  analyzed: %d  unit hits: %d  units \
     analyzed: %d  jobs: %d  total: %.1fms@]"
    (List.length st.bs_pkgs) st.bs_hits st.bs_misses st.bs_unit_hits
    st.bs_unit_misses st.bs_jobs st.bs_total_ms

(** Build statistics as JSON (schema [gofree-build-stats-v1]) — the
    payload of [gofreec build --stats-json]. *)
let stats_to_json (st : stats) : Json.t =
  Json.Obj
    [
      Gofree_obs.Schema.(field Build_stats);
      ( "packages",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.pr_name);
                   ("wave", Json.Int r.pr_wave);
                   ("cached", Json.Bool r.pr_cached);
                   ("analysis_ms", Json.Float r.pr_ms);
                   ("funcs", Json.Int r.pr_nfuncs);
                   ("summaries", Json.Int r.pr_nsummaries);
                   ("units", Json.Int r.pr_units);
                   ("unit_hits", Json.Int r.pr_unit_hits);
                 ])
             st.bs_pkgs) );
      ("cache_hits", Json.Int st.bs_hits);
      ("cache_misses", Json.Int st.bs_misses);
      ("unit_hits", Json.Int st.bs_unit_hits);
      ("units_analyzed", Json.Int st.bs_unit_misses);
      ("jobs", Json.Int st.bs_jobs);
      ("total_ms", Json.Float st.bs_total_ms);
    ]
