(** Closure compiler for instrumented MiniGo: the lowering pass that
    runs once per program, after the GoFree pipeline, and turns every
    statement and expression into an OCaml closure over
    [state -> frame -> _].

    What lowering buys over the reference tree-walker:

    - per-node [match] dispatch disappears — each node's shape is
      decided once, at compile time;
    - every variable access is a direct array index into the frame's
      slot array (resolved through {!Layout}) instead of a [Hashtbl]
      probe keyed by variable id;
    - calls, [go] and [defer] resolve their callee to an interned
      function id at compile time, and frames are pre-sized arrays
      instead of per-call [Hashtbl.create];
    - constants, zero builders, boxing decisions and allocation-site
      sizes are precomputed into the closures.

    What it deliberately does {e not} change: every allocator-visible
    event.  Compiled code calls the exact helpers of {!Interp}
    ([safepoint], [alloc_obj], [map_store], [eval_append],
    [tcfree_binding], [call_fn], …) in the exact order the reference
    walker does — including quirks like the right-hand side of an
    assignment evaluating before its target resolves, or the base of a
    nested field address evaluating twice.  Alloc counts, free
    attempts, GC cycle points and scheduler interleavings are therefore
    bit-identical between the two modes (the differential test in
    [test/test_compile_differential.ml] holds this line). *)

open Minigo
module Rt = Gofree_runtime
open Interp

type ev = state -> frame -> Value.value

type ex = state -> frame -> unit

(** A lowered function: everything {!Interp.call_fn} needs, precomputed
    once. *)
type cfunc = {
  cf_fn : Tast.func;
  cf_nslots : int;
  cf_bind : state -> frame -> Value.value list -> unit;
  cf_body : state -> frame -> unit;
  cf_zeros : state -> Value.value list;
}

type t = cfunc array

(* Compile-time context: everything the closures capture instead of
   re-deriving per node visit. *)
type ctx = {
  tenv : Types.env;
  decisions : Decisions.t;
  layout : Layout.t;
}

let vtrue = Value.VBool true

let vfalse = Value.VBool false

(* Evaluate a closure list left to right (OCaml's application order is
   unspecified, so the binding below is load-bearing: argument and
   literal lists must observe allocation effects in source order). *)
let rec eval_list (cs : ev list) st fr : Value.value list =
  match cs with
  | [] -> []
  | c :: rest ->
    let v = c st fr in
    v :: eval_list rest st fr

(* Same, copying each element (argument/element passing semantics). *)
let rec eval_list_copy (cs : ev list) st fr : Value.value list =
  match cs with
  | [] -> []
  | c :: rest ->
    let v = Value.copy (c st fr) in
    v :: eval_list_copy rest st fr

(* Slot read, mirroring [Interp.lookup_binding] + [binding_cell] +
   [read_cell] with the slot resolved at compile time. *)
let compile_var ctx (v : Tast.var) : ev =
  let s = Layout.slot ctx.layout v in
  match v.Tast.v_kind with
  | Tast.Vglobal ->
    let err = "unbound global " ^ v.Tast.v_name in
    fun st _fr ->
      (match st.globals.(s) with
      | Bdirect c | Bboxed (_, c) -> Value.read_cell c
      | Bunbound -> raise (Runtime_error err))
  | _ ->
    let err = "unbound variable " ^ v.Tast.v_name in
    fun _st fr ->
      (match fr.slots.(s) with
      | Bdirect c | Bboxed (_, c) -> Value.read_cell c
      | Bunbound -> raise (Runtime_error err))

(* Slot lookup yielding the binding itself (address-of, struct bases). *)
let compile_var_binding ctx (v : Tast.var) : state -> frame -> binding =
  let s = Layout.slot ctx.layout v in
  match v.Tast.v_kind with
  | Tast.Vglobal ->
    let err = "unbound global " ^ v.Tast.v_name in
    fun st _fr ->
      (match st.globals.(s) with
      | Bunbound -> raise (Runtime_error err)
      | b -> b)
  | _ ->
    let err = "unbound variable " ^ v.Tast.v_name in
    fun _st fr ->
      (match fr.slots.(s) with
      | Bunbound -> raise (Runtime_error err)
      | b -> b)

(* Binding a declared variable: boxing decision, heap-box size and slot
   all resolved at compile time (mirrors [Interp.declare_var]). *)
let compile_declare ctx (v : Tast.var) : state -> frame -> Value.value -> unit
    =
  let s = Layout.slot ctx.layout v in
  if Decisions.var_is_boxed ctx.decisions v then begin
    let size = max 8 (Types.size_of ctx.tenv v.Tast.v_ty) in
    fun st fr value ->
      let c = Value.cell value in
      let obj =
        alloc_heap_obj st ~category:Rt.Metrics.Cat_other ~size
          ~payload:(Value.Pbox c)
      in
      fr.slots.(s) <- Bboxed (obj.Rt.Heap.addr, c)
  end
  else fun _st fr value -> fr.slots.(s) <- Bdirect (Value.cell value)

let rec compile_expr ctx (e : Tast.expr) : ev =
  match e.Tast.desc with
  | Tast.Tint n ->
    let v = Value.VInt n in
    fun _ _ -> v
  | Tast.Tfloat f ->
    let v = Value.VFloat f in
    fun _ _ -> v
  | Tast.Tbool b ->
    let v = if b then vtrue else vfalse in
    fun _ _ -> v
  | Tast.Tstring s ->
    let v = Value.VStr s in
    fun _ _ -> v
  | Tast.Tnil -> fun _ _ -> Value.VNil
  | Tast.Tvar v -> compile_var ctx v
  | Tast.Tbinop (Ast.Band, a, b) ->
    let ca = compile_expr ctx a and cb = compile_expr ctx b in
    fun st fr -> if truthy (ca st fr) then cb st fr else vfalse
  | Tast.Tbinop (Ast.Bor, a, b) ->
    let ca = compile_expr ctx a and cb = compile_expr ctx b in
    fun st fr -> if truthy (ca st fr) then vtrue else cb st fr
  | Tast.Tbinop (op, a, b) ->
    let ca = compile_expr ctx a and cb = compile_expr ctx b in
    fun st fr ->
      let va = ca st fr in
      let vb = cb st fr in
      eval_binop op va vb
  | Tast.Tunop (Ast.Uneg, a) ->
    let ca = compile_expr ctx a in
    fun st fr ->
      (match ca st fr with
      | Value.VInt n -> Value.VInt (-n)
      | Value.VFloat f -> Value.VFloat (-.f)
      | _ -> raise (Runtime_error "cannot negate"))
  | Tast.Tunop (Ast.Unot, a) ->
    let ca = compile_expr ctx a in
    fun st fr -> Value.VBool (not (truthy (ca st fr)))
  | Tast.Taddr lv -> compile_addr ctx lv
  | Tast.Tderef a ->
    let ca = compile_expr ctx a in
    fun st fr ->
      (match ca st fr with
      | Value.VPtr p -> Value.ptr_get p
      | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
      | _ -> raise (Runtime_error "dereference of a non-pointer"))
  | Tast.Tindex (a, i) ->
    let ca = compile_expr ctx a and ci = compile_expr ctx i in
    fun st fr ->
      let va = ca st fr in
      let vi = as_int (ci st fr) in
      (match va with
      | Value.VSlice s ->
        if vi < 0 || vi >= s.Value.s_len then
          raise (Panic (Value.VStr "index out of range"));
        Value.read_elem s.Value.s_elems (s.Value.s_off + vi)
      | Value.VStr s ->
        if vi < 0 || vi >= String.length s then
          raise (Panic (Value.VStr "index out of range"));
        Value.VInt (Char.code s.[vi])
      | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
      | _ -> raise (Runtime_error "cannot index this value"))
  | Tast.Tmap_get (m, k) ->
    let cm = compile_expr ctx m and ck = compile_expr ctx k in
    let ty = e.Tast.ty in
    let tenv = ctx.tenv in
    let zero () = Value.zero tenv ty in
    fun st fr ->
      let vm = cm st fr in
      let vk = ck st fr in
      (match vm with
      | Value.VMap addr -> map_get st addr vk ~zero
      | Value.VNil -> zero ()
      | _ -> raise (Runtime_error "not a map"))
  | Tast.Tfield (a, idx, name) ->
    let ca = compile_expr ctx a in
    let err = "field access ." ^ name ^ " on non-struct" in
    fun st fr ->
      let base =
        match ca st fr with
        | Value.VPtr p -> Value.ptr_get p
        | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
        | v -> v
      in
      (match base with
      | Value.VStruct cells -> Value.read_cell cells.(idx)
      | _ -> raise (Runtime_error err))
  | Tast.Tcall (name, args) -> begin
    let cargs = List.map (compile_expr ctx) args in
    match Layout.func_id ctx.layout name with
    | Some fid ->
      fun st fr ->
        (match st.dispatch st fid (eval_list cargs st fr) with
        | [] -> Value.VUnit
        | [ v ] -> pin st fr v
        | vs -> pin st fr (Value.VTuple vs))
    | None ->
      (* undefined callee: unreachable after typechecking, but keep the
         reference behaviour — arguments evaluate, then the error *)
      let err = "undefined function " ^ name in
      fun st fr ->
        ignore (eval_list cargs st fr);
        raise (Runtime_error err)
  end
  | Tast.Tmake_slice (site, elem, len, cap) -> begin
    let clen = compile_expr ctx len in
    let tenv = ctx.tenv in
    let zero_of () = Value.zero tenv elem in
    match cap with
    | Some cap ->
      let ccap = compile_expr ctx cap in
      fun st fr ->
        let len = as_int (clen st fr) in
        if len < 0 then
          raise (Panic (Value.VStr "makeslice: negative length"));
        let cap = as_int (ccap st fr) in
        make_slice_obj st fr ~site ~len ~cap ~zero_of
    | None ->
      fun st fr ->
        let len = as_int (clen st fr) in
        if len < 0 then
          raise (Panic (Value.VStr "makeslice: negative length"));
        make_slice_obj st fr ~site ~len ~cap:len ~zero_of
  end
  | Tast.Tmake_map (site, _, _) -> fun st fr -> make_map_obj st fr ~site
  | Tast.Tnew (site, ty) ->
    let size = max 8 site.Tast.site_elem_size in
    let tenv = ctx.tenv in
    fun st fr ->
      let c = Value.cell (Value.zero tenv ty) in
      let obj =
        alloc_obj st fr ~site ~category:Rt.Metrics.Cat_other ~size
          ~payload:(Value.Pbox c)
      in
      pin st fr
        (Value.VPtr (Value.Pcell { owner = obj.Rt.Heap.addr; cell = c }))
  | Tast.Tslice_lit (site, _, es) ->
    let ces = List.map (compile_expr ctx) es in
    fun st fr -> slice_lit st fr ~site (eval_list_copy ces st fr)
  | Tast.Tstruct_lit (_, es) ->
    let ces = List.map (compile_expr ctx) es in
    fun st fr ->
      Value.VStruct
        (Array.of_list (List.map Value.cell (eval_list_copy ces st fr)))
  | Tast.Taddr_struct_lit (site, _, es) ->
    let ces = List.map (compile_expr ctx) es in
    let size = max 8 site.Tast.site_elem_size in
    fun st fr ->
      let v =
        Value.VStruct
          (Array.of_list (List.map Value.cell (eval_list_copy ces st fr)))
      in
      let c = Value.cell v in
      let obj =
        alloc_obj st fr ~site ~category:Rt.Metrics.Cat_other ~size
          ~payload:(Value.Pbox c)
      in
      pin st fr
        (Value.VPtr (Value.Pcell { owner = obj.Rt.Heap.addr; cell = c }))
  | Tast.Tappend (site, s, vs) ->
    let cs = compile_expr ctx s in
    let cvs = List.map (compile_expr ctx) vs in
    fun st fr ->
      let base = cs st fr in
      let elems = eval_list_copy cvs st fr in
      eval_append st fr ~site base elems
  | Tast.Tlen a ->
    let ca = compile_expr ctx a in
    fun st fr ->
      (match ca st fr with
      | Value.VSlice s -> Value.VInt s.Value.s_len
      | Value.VStr s -> Value.VInt (String.length s)
      | Value.VMap addr -> Value.VInt (map_len st addr)
      | Value.VNil -> Value.VInt 0
      | _ -> raise (Runtime_error "len of unsupported value"))
  | Tast.Tcap a ->
    let ca = compile_expr ctx a in
    fun st fr ->
      (match ca st fr with
      | Value.VSlice s ->
        Value.VInt (Array.length s.Value.s_elems - s.Value.s_off)
      | Value.VNil -> Value.VInt 0
      | _ -> raise (Runtime_error "cap of unsupported value"))
  | Tast.Titoa a ->
    let ca = compile_expr ctx a in
    fun st fr -> Value.VStr (string_of_int (as_int (ca st fr)))
  | Tast.Trand a ->
    let ca = compile_expr ctx a in
    fun st fr -> Value.VInt (rand_int st (as_int (ca st fr)))
  | Tast.Tsubstr (s, a, b) ->
    let cstr = compile_expr ctx s in
    let ca = compile_expr ctx a and cb = compile_expr ctx b in
    fun st fr ->
      (match cstr st fr with
      | Value.VStr s ->
        let lo = as_int (ca st fr) in
        let hi = as_int (cb st fr) in
        if lo < 0 || hi > String.length s || lo > hi then
          raise (Panic (Value.VStr "substr out of range"))
        else Value.VStr (String.sub s lo (hi - lo))
      | _ -> raise (Runtime_error "substr on non-string"))
  | Tast.Tslice_sub (a, lo, hi) ->
    let ca = compile_expr ctx a in
    let clo = Option.map (compile_expr ctx) lo in
    let chi = Option.map (compile_expr ctx) hi in
    fun st fr ->
      let base = ca st fr in
      let bound default = function
        | Some c -> as_int (c st fr)
        | None -> default
      in
      (match base with
      | Value.VSlice s ->
        let cap = Array.length s.Value.s_elems - s.Value.s_off in
        let lo = bound 0 clo in
        let hi = bound s.Value.s_len chi in
        if lo < 0 || hi > cap || lo > hi then
          raise (Panic (Value.VStr "slice bounds out of range"));
        Value.VSlice
          { s with Value.s_off = s.Value.s_off + lo; s_len = hi - lo }
      | Value.VStr str ->
        let lo = bound 0 clo in
        let hi = bound (String.length str) chi in
        if lo < 0 || hi > String.length str || lo > hi then
          raise (Panic (Value.VStr "slice bounds out of range"));
        Value.VStr (String.sub str lo (hi - lo))
      | Value.VNil ->
        let lo = bound 0 clo and hi = bound 0 chi in
        if lo <> 0 || hi <> 0 then
          raise (Panic (Value.VStr "slice bounds out of range"));
        Value.VNil
      | _ -> raise (Runtime_error "slice of unsupported value"))
  | Tast.Tcopy (dst, src) ->
    let cd = compile_expr ctx dst and cs = compile_expr ctx src in
    fun st fr ->
      let vd = cd st fr in
      let vs = cs st fr in
      (match (vd, vs) with
      | Value.VSlice d, Value.VSlice s -> Value.VInt (slice_copy d s)
      | (Value.VNil, _ | _, Value.VNil) -> Value.VInt 0
      | _ -> raise (Runtime_error "copy on non-slices"))
  | Tast.Tmap_get_ok (m, k) ->
    let cm = compile_expr ctx m and ck = compile_expr ctx k in
    let tenv = ctx.tenv in
    let zty =
      match e.Tast.ty with Types.Tuple [ vt; _ ] -> Some vt | _ -> None
    in
    let zero () =
      match zty with Some vt -> Value.zero tenv vt | None -> Value.VUnit
    in
    fun st fr ->
      let vm = cm st fr in
      let vk = ck st fr in
      (match vm with
      | Value.VMap addr ->
        let present = ref true in
        let v =
          map_get st addr vk ~zero:(fun () ->
              present := false;
              zero ())
        in
        Value.VTuple [ v; Value.VBool !present ]
      | Value.VNil -> Value.VTuple [ zero (); Value.VBool false ]
      | _ -> raise (Runtime_error "not a map"))
  | Tast.Trecover ->
    fun st _fr ->
      (match st.unwinding with
      | Some v ->
        st.unwinding <- None;
        Value.VStr (Value.to_string v)
      | None -> Value.VStr "")

(* Address-of (mirrors [Interp.eval_addr]). *)
and compile_addr ctx (lv : Tast.lvalue) : ev =
  match lv with
  | Tast.Lvar v ->
    let cb = compile_var_binding ctx v in
    fun st fr ->
      (match cb st fr with
      | Bdirect c -> Value.VPtr (Value.Pcell { owner = 0; cell = c })
      | Bboxed (addr, c) -> Value.VPtr (Value.Pcell { owner = addr; cell = c })
      | Bunbound -> raise (Runtime_error "unbound variable"))
  | Tast.Lderef e -> compile_expr ctx e
  | Tast.Lindex (a, i) ->
    let ca = compile_expr ctx a and ci = compile_expr ctx i in
    fun st fr ->
      let va = ca st fr in
      let vi = as_int (ci st fr) in
      (match va with
      | Value.VSlice s ->
        if vi < 0 || vi >= s.Value.s_len then
          raise (Panic (Value.VStr "index out of range"));
        Value.VPtr
          (Value.Pelem
             { owner = s.Value.s_addr; arr = s.Value.s_elems;
               idx = s.Value.s_off + vi })
      | _ -> raise (Runtime_error "cannot take address of this element"))
  | Tast.Lmap _ ->
    fun _ _ -> raise (Runtime_error "cannot take address of map element")
  | Tast.Lfield (base, idx, _) -> begin
    match base.Tast.ty with
    | Types.Ptr _ ->
      (* pointer base: the field cell lives inside the pointee *)
      let cbase = compile_expr ctx base in
      fun st fr ->
        (match cbase st fr with
        | Value.VPtr p -> begin
          match Value.ptr_get p with
          | Value.VStruct cells ->
            Value.VPtr
              (Value.Pcell { owner = Value.ptr_owner p; cell = cells.(idx) })
          | _ -> raise (Runtime_error "field of non-struct")
        end
        | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
        | _ -> raise (Runtime_error "field of non-pointer"))
    | _ -> begin
      match base.Tast.desc with
      | Tast.Tvar v ->
        (* struct-valued variable: its storage without copying *)
        let cb = compile_var_binding ctx v in
        fun st fr ->
          let c, owner =
            match cb st fr with
            | Bdirect c -> (c, 0)
            | Bboxed (addr, c) -> (c, addr)
            | Bunbound -> raise (Runtime_error "unbound variable")
          in
          (match Value.read_cell c with
          | Value.VStruct cells ->
            Value.VPtr (Value.Pcell { owner; cell = cells.(idx) })
          | _ -> raise (Runtime_error "field of non-struct"))
      | _ ->
        (* nested struct value: VStruct shares its cells, so evaluating
           the base still aliases the storage; the owner computation
           re-evaluates the base's spine, exactly like the reference
           walker's [owner_of_struct_base] *)
        let cbase = compile_expr ctx base in
        let cowner = compile_struct_owner ctx base in
        fun st fr ->
          (match cbase st fr with
          | Value.VStruct cells ->
            let owner = cowner st fr in
            Value.VPtr (Value.Pcell { owner; cell = cells.(idx) })
          | _ -> raise (Runtime_error "field of non-struct"))
    end
  end

(* Mirrors [Interp.owner_of_struct_base], including which subexpressions
   it (re-)evaluates. *)
and compile_struct_owner ctx (e : Tast.expr) : state -> frame -> int =
  match e.Tast.desc with
  | Tast.Tfield (inner, _, _) -> begin
    match inner.Tast.ty with
    | Types.Ptr _ ->
      let cinner = compile_expr ctx inner in
      fun st fr ->
        (match cinner st fr with Value.VPtr p -> Value.ptr_owner p | _ -> 0)
    | _ -> compile_struct_owner ctx inner
  end
  | Tast.Tindex (arr, _) ->
    let carr = compile_expr ctx arr in
    fun st fr ->
      (match carr st fr with Value.VSlice s -> s.Value.s_addr | _ -> 0)
  | Tast.Tderef p ->
    let cp = compile_expr ctx p in
    fun st fr ->
      (match cp st fr with Value.VPtr ptr -> Value.ptr_owner ptr | _ -> 0)
  | _ -> fun _ _ -> 0

(* Assignment: resolve the target, then write (the caller evaluates the
   right-hand side *first*, like the reference walker). *)
and compile_assign ctx (lv : Tast.lvalue) :
    state -> frame -> Value.value -> unit =
  match lv with
  | Tast.Lvar v ->
    let cb = compile_var_binding ctx v in
    fun st fr value -> (binding_cell (cb st fr)).Value.v <- Value.copy value
  | Tast.Lderef e ->
    let ce = compile_expr ctx e in
    fun st fr value ->
      (match ce st fr with
      | Value.VPtr p -> Value.ptr_set p (Value.copy value)
      | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
      | _ -> raise (Runtime_error "assignment through non-pointer"))
  | Tast.Lindex (a, i) ->
    let ca = compile_expr ctx a and ci = compile_expr ctx i in
    fun st fr value ->
      let va = ca st fr in
      let vi = as_int (ci st fr) in
      (match va with
      | Value.VSlice s ->
        if vi < 0 || vi >= s.Value.s_len then
          raise (Panic (Value.VStr "index out of range"));
        s.Value.s_elems.(s.Value.s_off + vi) <- Value.copy value
      | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
      | _ -> raise (Runtime_error "cannot assign into this value"))
  | Tast.Lmap (m, k) ->
    let cm = compile_expr ctx m and ck = compile_expr ctx k in
    fun st fr value ->
      let vm = cm st fr in
      let vk = ck st fr in
      (match vm with
      | Value.VMap addr -> map_store st addr vk (Value.copy value)
      | Value.VNil ->
        raise (Panic (Value.VStr "assignment to entry in nil map"))
      | _ -> raise (Runtime_error "not a map"))
  | Tast.Lfield (base, idx, _) ->
    let caddr = compile_addr ctx (Tast.Lfield (base, idx, "")) in
    fun st fr value ->
      (match caddr st fr with
      | Value.VPtr p -> Value.ptr_set p (Value.copy value)
      | _ -> raise (Runtime_error "bad field target"))

and compile_stmt ctx (s : Tast.stmt) : ex =
  match s with
  | Tast.Sdecl (v, init) -> begin
    let decl = compile_declare ctx v in
    match init with
    | Some e ->
      let ce = compile_expr ctx e in
      fun st fr ->
        safepoint st;
        decl st fr (Value.copy (ce st fr))
    | None ->
      let tenv = ctx.tenv in
      let ty = v.Tast.v_ty in
      fun st fr ->
        safepoint st;
        decl st fr (Value.zero tenv ty)
  end
  | Tast.Smulti_decl (vars, e) ->
    let decls = List.map (compile_declare ctx) vars in
    let n = List.length vars in
    let ce = compile_expr ctx e in
    fun st fr ->
      safepoint st;
      (match ce st fr with
      | Value.VTuple vs when List.length vs = n ->
        List.iter2 (fun d value -> d st fr (Value.copy value)) decls vs
      | _ -> raise (Runtime_error "multi-value declaration mismatch"))
  | Tast.Sassign (lv, e) ->
    let ce = compile_expr ctx e in
    let casgn = compile_assign ctx lv in
    fun st fr ->
      safepoint st;
      (* right-hand side first, then target resolution *)
      let v = ce st fr in
      casgn st fr v
  | Tast.Smulti_assign (lvs, e) ->
    let casgns = List.map (compile_assign ctx) lvs in
    let n = List.length lvs in
    let ce = compile_expr ctx e in
    fun st fr ->
      safepoint st;
      (match ce st fr with
      | Value.VTuple vs when List.length vs = n ->
        List.iter2 (fun casgn v -> casgn st fr v) casgns vs
      | _ -> raise (Runtime_error "multi-value assignment mismatch"))
  | Tast.Sexpr e ->
    let ce = compile_expr ctx e in
    fun st fr ->
      safepoint st;
      ignore (ce st fr)
  | Tast.Sif (c, b1, b2) -> begin
    let cc = compile_expr ctx c in
    let cb1 = compile_block ctx b1 in
    match b2 with
    | Some b2 ->
      let cb2 = compile_block ctx b2 in
      fun st fr ->
        safepoint st;
        if truthy (cc st fr) then cb1 st fr else cb2 st fr
    | None ->
      fun st fr ->
        safepoint st;
        if truthy (cc st fr) then cb1 st fr
  end
  | Tast.Sfor (init, cond, post, body) ->
    let cinit = Option.map (compile_stmt ctx) init in
    let ccond = Option.map (compile_expr ctx) cond in
    let cpost = Option.map (compile_stmt ctx) post in
    let cbody = compile_block ctx body in
    let run_post st fr =
      match cpost with Some c -> c st fr | None -> ()
    in
    fun st fr ->
      safepoint st;
      ignore (push_scope st fr);
      let cleanup f =
        match f () with
        | x ->
          pop_scope st fr;
          x
        | exception e ->
          pop_scope st fr;
          raise e
      in
      cleanup (fun () ->
          (match cinit with Some c -> c st fr | None -> ());
          let rec loop () =
            safepoint st;
            let continue_loop =
              match ccond with Some c -> truthy (c st fr) | None -> true
            in
            if continue_loop then begin
              (match cbody st fr with
              | () -> run_post st fr
              | exception Break_loop -> raise Exit
              | exception Continue_loop -> run_post st fr);
              loop ()
            end
          in
          try loop () with Exit -> ())
  | Tast.Sforrange_map (v, m, body) ->
    let cm = compile_expr ctx m in
    let decl = compile_declare ctx v in
    let cbody = compile_block ctx body in
    fun st fr ->
      safepoint st;
      (match cm st fr with
      | Value.VMap addr ->
        let keys = map_range_keys st addr in
        (try
           List.iter
             (fun key ->
               safepoint st;
               decl st fr (Value.copy key);
               match cbody st fr with
               | () -> ()
               | exception Break_loop -> raise Exit
               | exception Continue_loop -> ())
             keys
         with Exit -> ())
      | Value.VNil -> ()
      | _ -> raise (Runtime_error "range over non-map"))
  | Tast.Sreturn es ->
    let ces = List.map (compile_expr ctx) es in
    fun st fr ->
      safepoint st;
      raise (Return_values (eval_list_copy ces st fr))
  | Tast.Sblock b ->
    let cb = compile_block ctx b in
    fun st fr ->
      safepoint st;
      cb st fr
  | Tast.Sgo (name, args) -> begin
    let cargs = List.map (compile_expr ctx) args in
    match Layout.func_id ctx.layout name with
    | Some fid ->
      fun st fr ->
        safepoint st;
        spawn_goroutine st fid (eval_list_copy cargs st fr)
    | None ->
      let err = "undefined function " ^ name in
      fun st fr ->
        safepoint st;
        ignore (eval_list_copy cargs st fr);
        raise (Runtime_error err)
  end
  | Tast.Sdefer (name, args) -> begin
    let cargs = List.map (compile_expr ctx) args in
    match Layout.func_id ctx.layout name with
    | Some fid ->
      fun st fr ->
        safepoint st;
        let args = eval_list_copy cargs st fr in
        fr.defers <- (fid, args) :: fr.defers
    | None ->
      let err = "undefined function " ^ name in
      fun st fr ->
        safepoint st;
        ignore (eval_list_copy cargs st fr);
        raise (Runtime_error err)
  end
  | Tast.Spanic e ->
    let ce = compile_expr ctx e in
    fun st fr ->
      safepoint st;
      raise (Panic (ce st fr))
  | Tast.Sbreak ->
    fun st _fr ->
      safepoint st;
      raise Break_loop
  | Tast.Scontinue ->
    fun st _fr ->
      safepoint st;
      raise Continue_loop
  | Tast.Sdelete (m, k) ->
    let cm = compile_expr ctx m and ck = compile_expr ctx k in
    fun st fr ->
      safepoint st;
      let vm = cm st fr in
      let vk = ck st fr in
      (match vm with
      | Value.VMap addr -> map_delete st addr vk
      | Value.VNil -> ()
      | _ -> raise (Runtime_error "delete on non-map"))
  | Tast.Sprint es ->
    let ces = List.map (compile_expr ctx) es in
    fun st fr ->
      safepoint st;
      let parts = List.map (fun c -> Value.to_string (c st fr)) ces in
      emit_str st (String.concat " " parts ^ "\n")
  | Tast.Stcfree (v, kind) ->
    if v.Tast.v_kind = Tast.Vglobal then fun st _fr -> safepoint st
    else begin
      let s = Layout.slot ctx.layout v in
      fun st fr ->
        safepoint st;
        match fr.slots.(s) with
        | Bunbound -> ()  (* declaration never executed on this path *)
        | b -> tcfree_binding st b kind
    end

and compile_block ctx (b : Tast.block) : ex =
  let stmts = Array.of_list (List.map (compile_stmt ctx) b.Tast.b_stmts) in
  let n = Array.length stmts in
  fun st fr ->
    ignore (push_scope st fr);
    match
      for i = 0 to n - 1 do
        stmts.(i) st fr
      done
    with
    | () -> pop_scope st fr
    | exception e ->
      pop_scope st fr;
      raise e

let compile_func ctx (f : Tast.func) fid : cfunc =
  let pdecls = List.map (compile_declare ctx) f.Tast.f_params in
  let body = compile_block ctx f.Tast.f_body in
  let tenv = ctx.tenv in
  let rtys = f.Tast.f_results in
  {
    cf_fn = f;
    cf_nslots = ctx.layout.Layout.l_nslots.(fid);
    cf_bind =
      (fun st fr args ->
        List.iter2 (fun d arg -> d st fr (Value.copy arg)) pdecls args);
    cf_body = (fun st fr -> body st fr);
    cf_zeros = (fun _st -> List.map (fun ty -> Value.zero tenv ty) rtys);
  }

let lower (program : Tast.program) (decisions : Decisions.t)
    (layout : Layout.t) : t =
  let module Trace = Gofree_obs.Trace in
  Trace.with_span ~tid:(Trace.domain_tid ()) "lower" (fun () ->
      let ctx = { tenv = program.Tast.p_tenv; decisions; layout } in
      Array.mapi (fun i f -> compile_func ctx f i) layout.Layout.l_funcs)

let dispatch (code : t) : state -> int -> Value.value list -> Value.value list
    =
 fun st fid args ->
  let c = code.(fid) in
  call_fn st c.cf_fn ~nslots:c.cf_nslots ~bind:c.cf_bind ~body:c.cf_body
    ~zeros:c.cf_zeros args

let install (st : state) (code : t) = st.dispatch <- dispatch code
