(** Call-graph condensation into analysis units.

    An {e analysis unit} is one strongly connected component of the call
    graph — the smallest group of functions the escape analysis must
    solve together (in-SCC calls see default tags either way, §4.4, so a
    unit's result depends only on its own bodies and the summaries of
    the units it calls into).  Units carry everything a scheduler or a
    cache needs:

    - a dependency DAG over units ([u_deps]/[u_dependents]), emitted in
      reverse topological order (callees first), so ready units can be
      solved in parallel and bottom-up;
    - a content key ({!unit_key}): hash of the unit's pretty-printed
      bodies and of every struct layout in scope, the summary
      {e contents} of every out-of-unit callee, and the configuration
      signature.  The body text is {!Minigo.Pretty.add_func}'s output,
      so the printer's text is part of the on-disk cache format
      (pinned by the goldens of [test/test_keys.ml]).  Two analysis
      runs with equal keys are guaranteed equal results, which is what
      makes per-function incremental caching sound — an edited function
      invalidates its own unit (body hash) and exactly those dependents
      whose callee-summary contents actually changed.

    Tarjan's algorithm runs on an explicit stack: condensing a 10k-deep
    call chain must not overflow the OCaml call stack. *)

open Minigo

type unit_def = {
  u_id : int;  (** index into the reverse-topological unit array *)
  u_funcs : Tast.func list;  (** the SCC, in Tarjan discovery order *)
  u_deps : int list;  (** units this unit calls into; always [< u_id] *)
  u_dependents : int list;  (** units calling into this one *)
  u_body_hash : string;
      (** digest of the unit's pretty-printed bodies and the struct
          layouts in scope *)
  u_callees : string list;
      (** sorted distinct out-of-unit callee names, imported/external
          ones included — the summary inputs of the unit *)
}

type t = {
  cg_units : unit_def array;  (** reverse topological order *)
  cg_unit_of : (string, int) Hashtbl.t;  (** function name → unit id *)
}

let callees_of (f : Tast.func) : string list =
  let acc = ref [] in
  let add name = if not (List.mem name !acc) then acc := name :: !acc in
  let visit_expr (e : Tast.expr) =
    match e.Tast.desc with Tast.Tcall (name, _) -> add name | _ -> ()
  in
  Tast.iter_stmts
    (fun s ->
      (match s with
      | Tast.Sgo (name, _) | Tast.Sdefer (name, _) -> add name
      | _ -> ());
      Tast.iter_stmt_exprs (fun e -> Tast.iter_expr visit_expr e) s)
    f.Tast.f_body;
  !acc

(* Tarjan SCC condensation on an explicit frame stack; components come
   out in reverse topological order (callees before callers).  Each
   frame is a node plus its not-yet-examined in-graph callees; a frame
   pops once its callees are exhausted, emitting its component if it is
   a root and folding its lowlink into the frame below — exactly the
   recursive algorithm's post-order, minus the OCaml call stack. *)
let condense_by ~(callees : Tast.func -> string list)
    (funcs : Tast.func list) : Tast.func list list =
  let by_name = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace by_name f.Tast.f_name f) funcs;
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let visit root =
    let frames = ref [] in
    let push name =
      Hashtbl.replace index name !counter;
      Hashtbl.replace lowlink name !counter;
      incr counter;
      stack := name :: !stack;
      Hashtbl.replace on_stack name true;
      let callees =
        match Hashtbl.find_opt by_name name with
        | None -> []
        | Some f -> List.filter (Hashtbl.mem by_name) (callees f)
      in
      frames := (name, ref callees) :: !frames
    in
    push root;
    while !frames <> [] do
      let name, remaining = List.hd !frames in
      match !remaining with
      | callee :: rest ->
        remaining := rest;
        if not (Hashtbl.mem index callee) then push callee
        else if Hashtbl.find_opt on_stack callee = Some true then
          Hashtbl.replace lowlink name
            (min (Hashtbl.find lowlink name) (Hashtbl.find index callee))
      | [] ->
        frames := List.tl !frames;
        if Hashtbl.find lowlink name = Hashtbl.find index name then begin
          let rec pop acc =
            match !stack with
            | [] -> acc
            | top :: rest ->
              stack := rest;
              Hashtbl.replace on_stack top false;
              if String.equal top name then top :: acc else pop (top :: acc)
          in
          let comp = pop [] in
          components :=
            List.filter_map (fun n -> Hashtbl.find_opt by_name n) comp
            :: !components
        end;
        (match !frames with
        | (parent, _) :: _ ->
          Hashtbl.replace lowlink parent
            (min (Hashtbl.find lowlink parent) (Hashtbl.find lowlink name))
        | [] -> ())
    done
  in
  List.iter
    (fun f ->
      if not (Hashtbl.mem index f.Tast.f_name) then visit f.Tast.f_name)
    funcs;
  List.rev !components

let condense funcs = condense_by ~callees:callees_of funcs

(* Every struct layout the package can see, imported ones included, as
   one canonical digest.  Bodies print field accesses by name, but the
   analysis, its summaries and the unit records address fields by index
   and size objects by layout: reordering or retyping a field must change
   the key even when no body text changes. *)
let struct_digest (tenv : Types.env) : string =
  Hashtbl.fold (fun s fields acc -> (s, fields) :: acc) tenv.Types.structs []
  |> List.sort compare
  |> List.map (fun (s, fields) ->
         s ^ "{"
         ^ String.concat "; "
             (List.map (fun (n, t) -> n ^ " " ^ Types.to_string t) fields)
         ^ "}")
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* A unit's body hash digests [structs ^ "\000" ^ f1 ^ "\000" ^ ...]
   over the pretty-printed text of its functions; each unit's text is
   streamed into one reused buffer and digested once.  Every body's
   callees are walked once, for both the condensation and the unit's
   summary inputs. *)
let build ~(tenv : Types.env) (funcs : Tast.func list) : t =
  let out = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace out f.Tast.f_name (callees_of f)) funcs;
  let calls (f : Tast.func) = Hashtbl.find out f.Tast.f_name in
  let components = condense_by ~callees:calls funcs in
  let structs = struct_digest tenv in
  let cg_unit_of = Hashtbl.create 16 in
  List.iteri
    (fun i comp ->
      List.iter (fun f -> Hashtbl.replace cg_unit_of f.Tast.f_name i) comp)
    components;
  let text = Buffer.create 4096 in
  let units =
    Array.of_list
      (List.mapi
         (fun i comp ->
           let in_unit name =
             match Hashtbl.find_opt cg_unit_of name with
             | Some j -> j = i
             | None -> false
           in
           let callees =
             List.sort_uniq String.compare
               (List.filter
                  (fun c -> not (in_unit c))
                  (List.concat_map calls comp))
           in
           let deps =
             List.sort_uniq compare
               (List.filter_map (Hashtbl.find_opt cg_unit_of) callees)
           in
           Buffer.clear text;
           Buffer.add_string text structs;
           List.iter
             (fun f ->
               Buffer.add_char text '\000';
               Pretty.add_func text f)
             comp;
           {
             u_id = i;
             u_funcs = comp;
             u_deps = deps;
             u_dependents = [];
             u_body_hash =
               Digest.to_hex (Digest.string (Buffer.contents text));
             u_callees = callees;
           })
         components)
  in
  Array.iter
    (fun u ->
      List.iter
        (fun d ->
          units.(d) <-
            { (units.(d)) with u_dependents = u.u_id :: units.(d).u_dependents })
        u.u_deps)
    units;
  Array.iteri
    (fun i u -> units.(i) <- { u with u_dependents = List.rev u.u_dependents })
    units;
  { cg_units = units; cg_unit_of }

let unit_names (u : unit_def) : string list =
  List.map (fun (f : Tast.func) -> f.Tast.f_name) u.u_funcs

(* The key must be stable across processes and runs: Digest of a
   canonical text.  [callee_summary] resolves an out-of-unit callee to
   the {e content} of its summary ([Summary.to_string]); [None] means
   the analysis would use the conservative default tag there, which is
   itself part of the content. *)
let unit_key ~(config_sig : string) ~(mode_sig : string)
    ~(callee_summary : string -> string option) (u : unit_def) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "gofree-unit-key-v2\n";
  Buffer.add_string buf config_sig;
  Buffer.add_char buf '\n';
  Buffer.add_string buf mode_sig;
  Buffer.add_char buf '\n';
  Buffer.add_string buf u.u_body_hash;
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      Buffer.add_string buf c;
      Buffer.add_char buf '=';
      Buffer.add_string buf
        (match callee_summary c with Some s -> s | None -> "<default>");
      Buffer.add_char buf '\n')
    u.u_callees;
  Digest.to_hex (Digest.string (Buffer.contents buf))
