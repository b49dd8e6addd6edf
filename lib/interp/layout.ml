(** Static layout of a program for the slot-resolved interpreter: every
    variable id maps to a dense frame slot (locals) or global slot
    (globals), and every function name is interned to an integer id.

    Computed once per run, before execution; both the reference
    tree-walker and the bytecode emitter ({!Emit}) resolve variables
    and calls through it, so the two engines agree on storage by
    construction. *)

open Minigo

type t = {
  l_funcs : Tast.func array;  (** function bodies, by interned id *)
  l_func_ids : (string, int) Hashtbl.t;
      (** name → id; duplicate names keep the last definition, matching
          the old string-keyed [Hashtbl.replace] dispatch table *)
  l_nslots : int array;  (** frame slots needed, by function id *)
  l_slots : int array;
      (** variable id → frame slot (locals) or global slot (globals);
          [-1] for ids never mentioned by the program *)
  l_nglobals : int;
}

let func_id t name = Hashtbl.find_opt t.l_func_ids name

let slot t (v : Tast.var) = t.l_slots.(v.Tast.v_id)

(* Visit every variable occurring in an lvalue head position. *)
let lvalue_var k = function
  | Tast.Lvar v -> k v
  | Tast.Lderef _ | Tast.Lindex _ | Tast.Lmap _ | Tast.Lfield _ -> ()

(* Visit every variable occurring in [e], including address-of targets
   ([Tast.iter_expr] recurses into lvalue subexpressions but not the
   [Lvar] head itself). *)
let expr_vars k (e : Tast.expr) =
  Tast.iter_expr
    (fun e ->
      match e.Tast.desc with
      | Tast.Tvar v -> k v
      | Tast.Taddr lv -> lvalue_var k lv
      | _ -> ())
    e

(* Visit every variable a statement declares or mentions (shallow in
   nested blocks; combined with [Tast.iter_stmts] below). *)
let stmt_vars k (s : Tast.stmt) =
  (match s with
  | Tast.Sdecl (v, _) -> k v
  | Tast.Smulti_decl (vs, _) -> List.iter k vs
  | Tast.Sforrange_map (v, _, _) -> k v
  | Tast.Stcfree (v, _) -> k v
  | Tast.Sassign (lv, _) -> lvalue_var k lv
  | Tast.Smulti_assign (lvs, _) -> List.iter (lvalue_var k) lvs
  | _ -> ());
  Tast.iter_stmt_exprs (expr_vars k) s

let func_vars k (f : Tast.func) =
  List.iter k f.Tast.f_params;
  Tast.iter_stmts (stmt_vars k) f.Tast.f_body

let of_program (p : Tast.program) : t =
  let slots = Array.make (max 1 p.Tast.p_nvars) (-1) in
  let nglobals = ref 0 in
  List.iter
    (fun ((v : Tast.var), _) ->
      if slots.(v.Tast.v_id) < 0 then begin
        slots.(v.Tast.v_id) <- !nglobals;
        incr nglobals
      end)
    p.Tast.p_globals;
  let funcs = Array.of_list p.Tast.p_funcs in
  let func_ids = Hashtbl.create (2 * Array.length funcs) in
  Array.iteri
    (fun i (f : Tast.func) -> Hashtbl.replace func_ids f.Tast.f_name i)
    funcs;
  let nslots =
    Array.map
      (fun f ->
        let next = ref 0 in
        func_vars
          (fun (v : Tast.var) ->
            match v.Tast.v_kind with
            | Tast.Vglobal -> ()
            | _ ->
              if slots.(v.Tast.v_id) < 0 then begin
                slots.(v.Tast.v_id) <- !next;
                incr next
              end)
          f;
        !next)
      funcs
  in
  { l_funcs = funcs; l_func_ids = func_ids; l_nslots = nslots;
    l_slots = slots; l_nglobals = !nglobals }
