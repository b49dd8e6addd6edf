(** Whole-program escape analysis driver.

    Functions are analyzed callees-first (Go orders intra-procedural
    analysis inner-to-outer so call sites find known parameter tags, §4.4).
    We compute strongly connected components of the call graph with
    Tarjan's algorithm and process them in reverse topological order;
    calls into a not-yet-summarized function (recursion or a forward cycle)
    use the conservative default tag. *)

open Minigo

type func_result = {
  fr_func : Tast.func;
  fr_ctx : Build.ctx;
  fr_stats : Propagate.stats;
}

type unit_report = {
  ur_id : int;  (** {!Callgraph.unit_def} id, reverse topological *)
  ur_funcs : string list;  (** the unit's functions, unit order *)
  ur_key : string;  (** content key the unit was solved (or hit) under *)
  ur_cached : bool;  (** solved from the unit cache, not analyzed *)
}

type t = {
  mode : Propagate.mode;
  funcs : (string, func_result) Hashtbl.t;
  summaries : (string, Summary.t) Hashtbl.t;
  units : unit_report list;  (** reverse topological (solve) order *)
}

(* ------------------------------------------------------------------ *)
(* Call graph (condensation lives in {!Callgraph})                     *)
(* ------------------------------------------------------------------ *)

let callees_of = Callgraph.callees_of

let scc_order = Callgraph.condense

(* ------------------------------------------------------------------ *)
(* Summary extraction                                                  *)
(* ------------------------------------------------------------------ *)

(** Compress a function's analyzed graph into its extended parameter tag.
    [precise_contents = false] produces what stock Go knows: the
    param→return/heap flows of the classic parameter tag, with the
    conservative "returns come from the heap, incomplete" contents —
    content tags are GoFree's addition (§4.4). *)
let extract_summary ?(precise_contents = true) (f : Tast.func)
    (ctx : Build.ctx) : Summary.t =
  let g = ctx.Build.g in
  let params =
    List.map (fun p -> Build.var_loc ctx p) f.Tast.f_params
  in
  let flows = ref [] in
  (* param → return_j flows, with MinDerefs weights *)
  Array.iteri
    (fun j ret ->
      Graph.walk_one g ret (fun leaf derefs ->
          List.iteri
            (fun i p ->
              if p.Loc.id = leaf.Loc.id then
                flows :=
                  { Summary.pf_param = i; pf_target = `Return j;
                    pf_derefs = derefs }
                  :: !flows)
            params))
    g.Graph.returns;
  (* param → heap flows *)
  Graph.walk_one g g.Graph.heap (fun leaf derefs ->
      List.iteri
        (fun i p ->
          if p.Loc.id = leaf.Loc.id then
            flows :=
              { Summary.pf_param = i; pf_target = `Heap; pf_derefs = derefs }
              :: !flows)
        params);
  (* Field-projected facts (field-sensitive mode): for every slot of a
     parameter's object that the function touched, record what it did to
     the slot — plus the param → slot flows a caller must replay. *)
  let fields = ref [] in
  if ctx.Build.field_mode then begin
    let param_index = Hashtbl.create 8 in
    List.iteri
      (fun i (p : Tast.var) -> Hashtbl.replace param_index p.Tast.v_id i)
      f.Tast.f_params;
    let slots =
      Hashtbl.fold
        (fun (vid, fidx) (slot : Loc.t) acc ->
          match Hashtbl.find_opt param_index vid with
          | Some i -> ((i, fidx), slot) :: acc
          | None -> acc)
        ctx.Build.field_locs []
      (* deterministic order: summaries are serialized into cache keys *)
      |> List.sort compare
    in
    List.iter
      (fun ((i, fidx), (slot : Loc.t)) ->
        let ff =
          {
            Summary.ff_param = i;
            ff_field = fidx;
            ff_heap = slot.Loc.points_to_heap;
            ff_content_incomplete = slot.Loc.exposes;
            ff_slot_incomplete = slot.Loc.inc_store;
          }
        in
        if ff.Summary.ff_heap || ff.Summary.ff_content_incomplete
           || ff.Summary.ff_slot_incomplete
        then fields := ff :: !fields;
        (* other params' values stored into this slot *)
        Graph.walk_one g slot (fun leaf derefs ->
            List.iteri
              (fun j p ->
                if p.Loc.id = leaf.Loc.id then
                  flows :=
                    { Summary.pf_param = j;
                      pf_target = `Param_field (i, fidx);
                      pf_derefs = derefs }
                    :: !flows)
              params))
      slots
  end;
  let contents =
    Array.map
      (fun (ret : Loc.t) ->
        if precise_contents then
          {
            Summary.ct_heap_alloc = ret.Loc.points_to_heap;
            (* Only store-origin incompleteness is recorded: the
               parameter-seeded component is a potential false positive
               that the caller re-derives from its actual arguments
               (§4.4). *)
            ct_incomplete = ret.Loc.inc_store;
            ret_incomplete = ret.Loc.inc_store;
          }
        else
          { Summary.ct_heap_alloc = true; ct_incomplete = true;
            ret_incomplete = true })
      g.Graph.returns
  in
  {
    Summary.s_name = f.Tast.f_name;
    s_nparams = List.length params;
    s_flows = !flows;
    s_contents = contents;
    s_fields = List.rev !fields;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Mode parameters that change analysis results must feed the unit keys
   alongside the configuration signature. *)
let mode_signature ?(field_sensitive = false) mode use_ipa backprop =
  Printf.sprintf "mode=%s ipa=%b backprop=%b fields=%b"
    (match mode with Propagate.Gofree -> "gofree" | Propagate.Go_base -> "go")
    use_ipa backprop field_sensitive

(** Analyze a whole program.  With [mode = Go_base] the result carries
    only stack/heap decisions (what stock Go computes); with [Gofree] it
    also carries completeness/lifetime properties and ToFree flags.
    [use_ipa = false] keeps every call site on the conservative default
    tag; [backprop = false] disables GoFree's leaf→root rules (unsound —
    ablation only).

    The program is solved as analysis units (call-graph SCCs,
    {!Callgraph}) in bottom-up dependency order.  [unit_lookup] is the
    function-granular cache: given a unit's content key and function
    names it may return the unit's stored summaries, in which case the
    unit is {e not} analyzed (no [func_result]s for its functions) and
    the summaries are installed for its dependents — callers are
    expected to replay the unit's recorded insertions/decisions
    themselves.  [pool] runs independent ready units on worker domains;
    the calling thread acts as the scheduler and is the only submitter
    (workers never submit, so a full queue cannot deadlock).  Results
    are deterministic and identical across sequential, parallel, cached
    and uncached runs: in-SCC calls use default tags and a unit's
    summaries are published only after the whole unit, exactly as the
    monolithic solver did. *)
let analyze ?(mode = Propagate.Gofree) ?(use_ipa = true) ?(backprop = true)
    ?(field_sensitive = false) ?(imported = []) ?(config_sig = "") ?pool
    ?unit_lookup (p : Tast.program) : t =
  let summaries = Hashtbl.create 16 in
  (* Seed the table with the stored tags of already-analyzed packages:
     calls into an imported function then resolve exactly as they would
     in a whole-program run (§4.4's separate-compilation property).
     Without IPA the ablation stays fully conservative. *)
  if use_ipa then
    List.iter
      (fun (s : Summary.t) -> Hashtbl.replace summaries s.Summary.s_name s)
      imported;
  let funcs = Hashtbl.create 16 in
  let cg = Callgraph.build ~tenv:p.Tast.p_tenv p.Tast.p_funcs in
  let nunits = Array.length cg.Callgraph.cg_units in
  let reports = Array.make nunits None in
  let msig = mode_signature ~field_sensitive mode use_ipa backprop in
  (* Key of a unit; callable only once every dependency's summaries are
     published (deps precede the unit in reverse topological order). *)
  let key_of u =
    Callgraph.unit_key ~config_sig ~mode_sig:msig
      ~callee_summary:(fun name ->
        if not use_ipa then None
        else
          Option.map Summary.to_string (Hashtbl.find_opt summaries name))
      u
  in
  (* Analyze one unit against [tbl] (the summary view it may read).
     Functions within one SCC see default tags for in-SCC calls (their
     summaries are published only after the unit). *)
  let solve_unit tbl (u : Callgraph.unit_def) =
    List.map
      (fun (f : Tast.func) ->
        let tid = Gofree_obs.Trace.domain_tid () in
        let ctx =
          Gofree_obs.Trace.with_span ~tid
            ("build:" ^ f.Tast.f_name)
            (fun () ->
              Build.build_function ~field_mode:field_sensitive
                ~tenv:p.Tast.p_tenv ~summaries:tbl f)
        in
        (* completeness, outlived and points-to propagation run fused
           inside one walkall pass, so a single span covers them *)
        let stats =
          Gofree_obs.Trace.with_span ~tid ("walk:" ^ f.Tast.f_name)
            (fun () ->
              Propagate.walkall ~mode ~backprop
                ~field_refine:field_sensitive ctx.Build.g)
        in
        (* Go's own parameter tags exist in both modes; only their
           content-tag refinement is GoFree-specific. *)
        let summary =
          if use_ipa then
            Some
              (extract_summary
                 ~precise_contents:(mode = Propagate.Gofree)
                 f ctx)
          else None
        in
        (f, ctx, stats, summary))
      u.Callgraph.u_funcs
  in
  let install results =
    List.iter
      (fun ((f : Tast.func), ctx, stats, summary) ->
        Hashtbl.replace funcs f.Tast.f_name
          { fr_func = f; fr_ctx = ctx; fr_stats = stats };
        Option.iter
          (fun s -> Hashtbl.replace summaries f.Tast.f_name s)
          summary)
      results
  in
  let try_cache (u : Callgraph.unit_def) key =
    match unit_lookup with
    | None -> false
    | Some lookup -> begin
      match lookup ~key ~funcs:(Callgraph.unit_names u) with
      | None -> false
      | Some stored ->
        if use_ipa then
          List.iter
            (fun (s : Summary.t) ->
              Hashtbl.replace summaries s.Summary.s_name s)
            stored;
        true
    end
  in
  let report (u : Callgraph.unit_def) key cached =
    reports.(u.Callgraph.u_id) <-
      Some
        {
          ur_id = u.Callgraph.u_id;
          ur_funcs = Callgraph.unit_names u;
          ur_key = key;
          ur_cached = cached;
        }
  in
  (match pool with
  | None ->
    (* Sequential bottom-up solve: byte-for-byte the monolithic order. *)
    Array.iter
      (fun u ->
        let key = key_of u in
        let cached = try_cache u key in
        if not cached then install (solve_unit summaries u);
        report u key cached)
      cg.Callgraph.cg_units
  | Some pool ->
    (* Dependency-counting scheduler.  This thread owns [ready] and is
       the only pool submitter; worker jobs publish results and wake it
       via [cond].  Workers read a per-unit snapshot of the summary
       table taken under the lock, never the live table. *)
    let mutex = Mutex.create () in
    let cond = Condition.create () in
    let pending =
      Array.map (fun u -> List.length u.Callgraph.u_deps) cg.Callgraph.cg_units
    in
    let failures = ref [] in
    let ready = Queue.create () in
    let completed = ref 0 in
    Array.iter
      (fun (u : Callgraph.unit_def) ->
        if pending.(u.Callgraph.u_id) = 0 then
          Queue.push u.Callgraph.u_id ready)
      cg.Callgraph.cg_units;
    (* with the lock held *)
    let complete uid =
      incr completed;
      List.iter
        (fun d ->
          pending.(d) <- pending.(d) - 1;
          if pending.(d) = 0 then Queue.push d ready)
        cg.Callgraph.cg_units.(uid).Callgraph.u_dependents;
      Condition.broadcast cond
    in
    Mutex.lock mutex;
    while !completed < nunits do
      if Queue.is_empty ready then Condition.wait cond mutex
      else begin
        let uid = Queue.pop ready in
        let u = cg.Callgraph.cg_units.(uid) in
        let key = key_of u in
        let cached = try_cache u key in
        report u key cached;
        if cached then complete uid
        else begin
          let snapshot = Hashtbl.copy summaries in
          Mutex.unlock mutex;
          let job () =
            let outcome =
              try Ok (solve_unit snapshot u) with e -> Error e
            in
            Mutex.lock mutex;
            (match outcome with
            | Ok results -> install results
            | Error e -> failures := e :: !failures);
            complete uid;
            Mutex.unlock mutex
          in
          (* [submit] only refuses while shutting down, which a build
             never does mid-analysis; run inline rather than hang. *)
          if not (Gofree_sched.Pool.submit pool job) then job ();
          Mutex.lock mutex
        end
      end
    done;
    let failed = !failures in
    Mutex.unlock mutex;
    (match failed with e :: _ -> raise e | [] -> ()));
  {
    mode;
    funcs;
    summaries;
    units =
      Array.to_list reports
      |> List.map (function Some r -> r | None -> assert false);
  }

let func_result t name = Hashtbl.find_opt t.funcs name

(** Location of a variable in its function's analyzed graph. *)
let var_loc t ~func (v : Tast.var) : Loc.t option =
  match func_result t func with
  | None -> None
  | Some fr -> Hashtbl.find_opt fr.fr_ctx.Build.var_locs v.Tast.v_id

(** Stack/heap decision for an allocation site: [true] when the site must
    be heap-allocated.  Sites never touched by the graph (dead code) stay
    stack-allocatable. *)
let site_is_heap t ~func (site : Tast.alloc_site) : bool =
  match func_result t func with
  | None -> true
  | Some fr -> begin
    match
      Hashtbl.find_opt fr.fr_ctx.Build.site_locs site.Tast.site_id
    with
    | Some l -> l.Loc.heap_alloc
    | None -> false
  end

(** All variables of [func] whose location satisfies ToFree (Def 4.17). *)
let to_free_vars t ~func : (Tast.var * Loc.t) list =
  match func_result t func with
  | None -> []
  | Some fr ->
    Hashtbl.fold
      (fun _ (l : Loc.t) acc ->
        match l.Loc.kind with
        | Loc.Kvar v when Propagate.to_free l -> (v, l) :: acc
        | _ -> acc)
      fr.fr_ctx.Build.var_locs []

(** Field slots of [func] satisfying ToFree (field-sensitive mode).
    Beyond Def 4.17 on the slot itself, a slot is only reported when its
    base variable is a sound anchor for the free:

    - the base is a plain local (not a parameter, global or named
      result: those objects are visible outside the frame);
    - the base's own location is neither incomplete nor outlived (an
      untracked rewrite of the base could swap the whole object under
      the slot);
    - no {e other} variable's points-to set intersects the slot's
      (same-scope aliases such as [x := db] or [x := db.f] keep their
      referent; outer-scope aliases are already caught by Outlived).

    Returns (base, field index, field name, slot location). *)
let to_free_fields t ~func : (Tast.var * int * string * Loc.t) list =
  match func_result t func with
  | None -> []
  | Some fr ->
    let ctx = fr.fr_ctx in
    let g = ctx.Build.g in
    let module IS = Set.Make (Int) in
    let pts (l : Loc.t) =
      List.fold_left
        (fun acc (m : Loc.t) -> IS.add m.Loc.id acc)
        IS.empty (Graph.points_to g l)
    in
    let candidates =
      Hashtbl.fold
        (fun _ (slot : Loc.t) acc ->
          match slot.Loc.kind with
          | Loc.Kfield (v, idx, fname) when Propagate.to_free slot ->
            (v, idx, fname, slot) :: acc
          | _ -> acc)
        ctx.Build.field_locs []
    in
    let keep ((v : Tast.var), _, _, (slot : Loc.t)) =
      v.Tast.v_kind = Tast.Vlocal
      && (match Hashtbl.find_opt ctx.Build.var_locs v.Tast.v_id with
         | Some base -> (not (Loc.incomplete base)) && not base.Loc.outlived
         | None -> false)
      &&
      let slot_pts = pts slot in
      Hashtbl.fold
        (fun vid (w : Loc.t) ok ->
          ok
          && (vid = v.Tast.v_id
             ||
             match w.Loc.kind with
             | Loc.Kvar _ -> IS.is_empty (IS.inter slot_pts (pts w))
             | _ -> true))
        ctx.Build.var_locs true
    in
    List.filter keep candidates
    |> List.sort (fun ((a : Tast.var), i, _, _) ((b : Tast.var), j, _, _) ->
           compare (a.Tast.v_id, i) (b.Tast.v_id, j))

(** Aggregate walk statistics, for the complexity experiment. *)
let total_walk_steps t =
  Hashtbl.fold
    (fun _ fr acc -> acc + fr.fr_ctx.Build.g.Graph.walk_steps)
    t.funcs 0
