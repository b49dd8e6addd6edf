(** Emission pass: compiles the {!Layout}-resolved typed AST to the flat
    bytecode of {!Bytecode}, once per program.

    Operands are resolved at emission time: variables to frame/global
    slot indices, callees to interned function ids, jump targets to
    absolute code offsets (with jump-to-jump chains threaded).  The
    emitter is type-directed: expressions of type [int]/[bool] evaluate
    on the VM's unboxed native-int stack, everything else on the boxed
    value stack, with explicit box/unbox instructions at the boundary.

    Rare constructs (a field address whose base is a nested struct
    value, break outside a loop) fall back to thunks over the reference
    walker in {!Interp}, so the long tail runs the oracle's own code.
    Hot constructs get dedicated opcodes whose {!Vm} implementations
    call the same shared {!Interp} helpers in the same order as the
    walker; the differential suite holds the two engines to
    byte-identical observable behaviour. *)

open Minigo
module Rt = Gofree_runtime
module B = Bytecode

(* Per-program emission context. *)
type ctx = {
  tenv : Types.env;
  decisions : Decisions.t;
  layout : Layout.t;
}

(* Binding a declared variable, for [op_decl] and parameter binds: the
   boxing decision, heap-box size and slot are resolved at emission
   time (the same allocation as [Interp.declare_var]). *)
let declare ctx (v : Tast.var) :
    Interp.state -> Interp.frame -> Value.value -> unit =
  let s = Layout.slot ctx.layout v in
  if Decisions.var_is_boxed ctx.decisions v then begin
    let size = max 8 (Types.size_of ctx.tenv v.Tast.v_ty) in
    fun st fr value ->
      let c = Value.cell value in
      let obj =
        Interp.alloc_heap_obj st ~category:Rt.Metrics.Cat_other ~size
          ~payload:(Value.Pbox c)
      in
      fr.Interp.slots.(s) <- Interp.Bboxed (obj.Rt.Heap.addr, c)
  end
  else fun _st fr value ->
    fr.Interp.slots.(s) <- Interp.Bdirect (Value.cell value)

(* Growable int vector (the code buffer). *)
type ivec = { mutable iv_a : int array; mutable iv_n : int }

let ivec () = { iv_a = Array.make 128 0; iv_n = 0 }

let ipush v x =
  if v.iv_n = Array.length v.iv_a then begin
    let a = Array.make (2 * v.iv_n) 0 in
    Array.blit v.iv_a 0 a 0 v.iv_n;
    v.iv_a <- a
  end;
  v.iv_a.(v.iv_n) <- x;
  v.iv_n <- v.iv_n + 1

(* Append-only side table accumulated in reverse. *)
type 'a tbl = { mutable t_items : 'a list; mutable t_n : int }

let tbl () = { t_items = []; t_n = 0 }

let tbl_add t x =
  let i = t.t_n in
  t.t_items <- x :: t.t_items;
  t.t_n <- i + 1;
  i

let tbl_array t = Array.of_list (List.rev t.t_items)

(* What an enclosing scope is, for break/continue/scope-pop emission. *)
type scope_kind =
  | Kblock
  | Kfor of int * int  (* exit label (pops the for scope), post label *)
  | Krange of int * int  (* next label, end label *)

type fctx = {
  ctx : ctx;
  code : ivec;
  consts : Value.value tbl;
  sites : Tast.alloc_site tbl;
  zeros : (unit -> Value.value) tbl;
  binops : Ast.binop tbl;
  names : string tbl;
  names_tbl : (string, int) Hashtbl.t;
  decls : (Interp.state -> Interp.frame -> Value.value -> unit) tbl;
  assigns : (Interp.state -> Interp.frame -> Value.value -> unit) tbl;
  thunks : (Interp.state -> Interp.frame -> Value.value) tbl;
  mutable ncaches : int;
  mutable labels : int array;  (* label id -> code offset, -1 unset *)
  mutable nlabels : int;
  mutable patches : (int * int) list;  (* code offset to patch, label *)
  mutable scopes : scope_kind list;
  mutable cur_v : int;
  mutable max_v : int;
  mutable cur_i : int;
  mutable max_i : int;
  mutable last_pos : int;
      (* code offset of the last emitted opcode, or -1 after a label
         mark; lets the branch emitter fuse an immediately preceding
         compare into one compare-and-branch instruction *)
}

let fctx ctx =
  {
    ctx;
    code = ivec ();
    consts = tbl ();
    sites = tbl ();
    zeros = tbl ();
    binops = tbl ();
    names = tbl ();
    names_tbl = Hashtbl.create 16;
    decls = tbl ();
    assigns = tbl ();
    thunks = tbl ();
    ncaches = 0;
    labels = Array.make 16 (-1);
    nlabels = 0;
    patches = [];
    scopes = [];
    cur_v = 0;
    max_v = 0;
    cur_i = 0;
    max_i = 0;
    last_pos = -1;
  }

(* Operand-stack effect of every emitted instruction, tracked statically
   so the VM can pre-size both stacks from the function header. *)
let adj f dv di =
  f.cur_v <- f.cur_v + dv;
  if f.cur_v > f.max_v then f.max_v <- f.cur_v;
  f.cur_i <- f.cur_i + di;
  if f.cur_i > f.max_i then f.max_i <- f.cur_i

let op0 f ~dv ~di op =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  adj f dv di

let op1 f ~dv ~di op a =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  ipush f.code a;
  adj f dv di

let op2 f ~dv ~di op a b =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  ipush f.code a;
  ipush f.code b;
  adj f dv di

let op3 f ~dv ~di op a b c =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  ipush f.code a;
  ipush f.code b;
  ipush f.code c;
  adj f dv di

let opn f ~dv ~di op operands =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  List.iter (fun x -> ipush f.code x) operands;
  adj f dv di

let new_label f =
  if f.nlabels = Array.length f.labels then begin
    let a = Array.make (2 * f.nlabels) (-1) in
    Array.blit f.labels 0 a 0 f.nlabels;
    f.labels <- a
  end;
  let l = f.nlabels in
  f.nlabels <- l + 1;
  l

let mark f l =
  f.labels.(l) <- f.code.iv_n;
  (* a label may now point here, so the next branch must not rewrite
     the preceding instruction in place *)
  f.last_pos <- -1

(* Emit a jump-family instruction: [pre] operands first, then the label
   operand (recorded for patching). *)
let opjmp f ~dv ~di op pre l =
  f.last_pos <- f.code.iv_n;
  ipush f.code op;
  List.iter (fun x -> ipush f.code x) pre;
  f.patches <- (f.code.iv_n, l) :: f.patches;
  ipush f.code 0;
  adj f dv di

(* Emit [jmpifnot l], fusing an immediately preceding integer compare
   (plain or constant-operand) into one compare-and-branch
   superinstruction.  Safe because [mark] resets [last_pos], so no
   label can point at the branch being absorbed, and opcode values are
   unique, so the width + opcode-range check proves the preceding words
   really are that compare. *)
let opjmpifnot f l =
  let code = f.code in
  let p = f.last_pos in
  let fused =
    p >= 0
    &&
    let op = code.iv_a.(p) in
    if p = code.iv_n - 1 && op >= B.op_lt_i && op <= B.op_ne_i then begin
      code.iv_a.(p) <- B.op_jlt_not + (op - B.op_lt_i);
      true
    end
    else if p = code.iv_n - 2 && op >= B.op_ltk_i && op <= B.op_nek_i
    then begin
      code.iv_a.(p) <- B.op_jltk_not + (op - B.op_ltk_i);
      true
    end
    else false
  in
  if fused then begin
    f.patches <- (code.iv_n, l) :: f.patches;
    ipush code 0;
    f.last_pos <- -1;
    (* the compare already accounted its own pop; the branch pops the
       flag the fused form never materializes *)
    adj f 0 (-1)
  end
  else opjmp f ~dv:0 ~di:(-1) B.op_jmpifnot [] l

let name_idx f s =
  match Hashtbl.find_opt f.names_tbl s with
  | Some i -> i
  | None ->
    let i = tbl_add f.names s in
    Hashtbl.add f.names_tbl s i;
    i

let slot f v = Layout.slot f.ctx.layout v

let is_global (v : Tast.var) = v.Tast.v_kind = Tast.Vglobal

let new_cache f =
  let i = f.ncaches in
  f.ncaches <- i + 1;
  i

let is_int (e : Tast.expr) = e.Tast.ty = Types.Int

let is_bool (e : Tast.expr) = e.Tast.ty = Types.Bool

let int_binop_opcode = function
  | Ast.Badd -> Some B.op_add_i
  | Ast.Bsub -> Some B.op_sub_i
  | Ast.Bmul -> Some B.op_mul_i
  | Ast.Bdiv -> Some B.op_div_i
  | Ast.Bmod -> Some B.op_mod_i
  | Ast.Band_bits -> Some B.op_and_i
  | Ast.Bor_bits -> Some B.op_or_i
  | Ast.Bxor -> Some B.op_xor_i
  | Ast.Bshl -> Some B.op_shl_i
  | Ast.Bshr -> Some B.op_shr_i
  | _ -> None

let int_cmp_opcode = function
  | Ast.Blt -> Some B.op_lt_i
  | Ast.Ble -> Some B.op_le_i
  | Ast.Bgt -> Some B.op_gt_i
  | Ast.Bge -> Some B.op_ge_i
  | Ast.Beq -> Some B.op_eq_i
  | Ast.Bne -> Some B.op_ne_i
  | _ -> None

(* Constant-operand forms.  [divk]/[modk] keep the divide-by-zero panic
   for k = 0 inside the opcode, so fusing never changes behaviour. *)
let int_binop_k_opcode = function
  | Ast.Badd -> Some B.op_addk_i
  | Ast.Bsub -> Some B.op_subk_i
  | Ast.Bmul -> Some B.op_mulk_i
  | Ast.Bdiv -> Some B.op_divk_i
  | Ast.Bmod -> Some B.op_modk_i
  | _ -> None

let int_cmpk_opcode = function
  | Ast.Blt -> B.op_ltk_i
  | Ast.Ble -> B.op_lek_i
  | Ast.Bgt -> B.op_gtk_i
  | Ast.Bge -> B.op_gek_i
  | Ast.Beq -> B.op_eqk_i
  | Ast.Bne -> B.op_nek_i
  | _ -> assert false

(* k OP x rewritten as x OP' k (an int literal's evaluation has no
   observable effect, so the operand reorder is invisible). *)
let mirror_cmp = function
  | Ast.Blt -> Ast.Bgt
  | Ast.Ble -> Ast.Bge
  | Ast.Bgt -> Ast.Blt
  | Ast.Bge -> Ast.Ble
  | op -> op

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* [emit_i] leaves a native int on the I stack (expression type int);
   [emit_b] a 0/1 on the I stack (type bool); [emit_v] a value on the V
   stack (any type).  All three evaluate sub-expressions in exactly the
   reference walker's order.  [emit_v_raw] is the unguarded generic
   (boxed) emission every constructor supports — the fallback target of
   [emit_i]/[emit_b], so the three entry points cannot recurse through
   each other on the same expression. *)
let rec emit_i f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tint n -> op1 f ~dv:0 ~di:1 B.op_iconst n
  | Tast.Tvar v when is_int e ->
    let opc = if is_global v then B.op_giload else B.op_iload in
    op2 f ~dv:0 ~di:1 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Tbinop (op, a, b) when is_int e && int_binop_opcode op <> None
    -> begin
    match (a.Tast.desc, b.Tast.desc, int_binop_k_opcode op) with
    | _, Tast.Tint k, Some opk ->
      emit_i f a;
      op1 f ~dv:0 ~di:0 opk k
    | Tast.Tint k, _, _ when op = Ast.Badd || op = Ast.Bmul ->
      (* commutative, and an int literal's evaluation has no effects *)
      emit_i f b;
      op1 f ~dv:0 ~di:0
        (if op = Ast.Badd then B.op_addk_i else B.op_mulk_i)
        k
    | _ ->
      emit_i f a;
      emit_i f b;
      (match int_binop_opcode op with
      | Some opc -> op0 f ~dv:0 ~di:(-1) opc
      | None -> assert false)
  end
  | Tast.Tunop (Ast.Uneg, a) when is_int e ->
    emit_i f a;
    op0 f ~dv:0 ~di:0 B.op_neg_i
  | Tast.Tindex (a, i) when is_int e ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:(-1) ~di:0 B.op_index_i
  | Tast.Tmap_get (m, k) when is_int e ->
    emit_v f m;
    emit_v f k;
    let z = tbl_add f.zeros (fun () -> Value.VInt 0) in
    op2 f ~dv:(-2) ~di:1 B.op_mapget_i z (new_cache f)
  | Tast.Tfield (a, idx, name) when is_int e -> begin
    match a.Tast.desc with
    | Tast.Tvar v when not (is_global v) ->
      (* [vload; field_i] fused: one dispatch, no V-stack traffic *)
      opn f ~dv:0 ~di:1 B.op_sfield_i
        [ slot f v; idx; new_cache f; name_idx f v.Tast.v_name;
          name_idx f name ]
    | _ ->
      emit_v f a;
      op3 f ~dv:(-1) ~di:1 B.op_field_i idx (new_cache f) (name_idx f name)
  end
  | Tast.Tlen a ->
    emit_v f a;
    op0 f ~dv:(-1) ~di:1 B.op_len
  | Tast.Tcap a ->
    emit_v f a;
    op0 f ~dv:(-1) ~di:1 B.op_cap
  | Tast.Trand a ->
    emit_i f a;
    op0 f ~dv:0 ~di:0 B.op_rand
  | Tast.Tcopy (dst, src) ->
    emit_v f dst;
    emit_v f src;
    op0 f ~dv:(-2) ~di:1 B.op_slice_copy
  | _ ->
    emit_v_raw f e;
    op0 f ~dv:(-1) ~di:1 B.op_unbox_i

and emit_b f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tbool b -> op1 f ~dv:0 ~di:1 B.op_iconst (if b then 1 else 0)
  | Tast.Tvar v when is_bool e ->
    let opc = if is_global v then B.op_gbload else B.op_bload in
    op2 f ~dv:0 ~di:1 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Tbinop (Ast.Band, a, b) ->
    (* lazy: if a then b else false, like the reference walker *)
    emit_b f a;
    let l_false = new_label f in
    let l_end = new_label f in
    opjmpifnot f l_false;
    let base_i = f.cur_i in
    emit_b f b;
    opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end;
    f.cur_i <- base_i;
    mark f l_false;
    op1 f ~dv:0 ~di:1 B.op_iconst 0;
    mark f l_end
  | Tast.Tbinop (Ast.Bor, a, b) ->
    emit_b f a;
    let l_true = new_label f in
    let l_end = new_label f in
    opjmp f ~dv:0 ~di:(-1) B.op_jmpif [] l_true;
    let base_i = f.cur_i in
    emit_b f b;
    opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end;
    f.cur_i <- base_i;
    mark f l_true;
    op1 f ~dv:0 ~di:1 B.op_iconst 1;
    mark f l_end
  | Tast.Tbinop (op, a, b)
    when is_bool e && is_int a && is_int b && int_cmp_opcode op <> None
    -> begin
    match (a.Tast.desc, b.Tast.desc) with
    | _, Tast.Tint k ->
      emit_i f a;
      op1 f ~dv:0 ~di:0 (int_cmpk_opcode op) k
    | Tast.Tint k, _ ->
      emit_i f b;
      op1 f ~dv:0 ~di:0 (int_cmpk_opcode (mirror_cmp op)) k
    | _ ->
      emit_i f a;
      emit_i f b;
      (match int_cmp_opcode op with
      | Some opc -> op0 f ~dv:0 ~di:(-1) opc
      | None -> assert false)
  end
  | Tast.Tbinop ((Ast.Beq | Ast.Bne) as op, a, b)
    when is_bool e && is_bool a && is_bool b ->
    (* bool equality on the 0/1 encoding agrees with value_eq *)
    emit_b f a;
    emit_b f b;
    op0 f ~dv:0 ~di:(-1) (if op = Ast.Beq then B.op_eq_i else B.op_ne_i)
  | Tast.Tunop (Ast.Unot, a) ->
    emit_b f a;
    op0 f ~dv:0 ~di:0 B.op_not_b
  | Tast.Tindex (a, i) when is_bool e ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:(-1) ~di:0 B.op_index_b
  | Tast.Tmap_get (m, k) when is_bool e ->
    emit_v f m;
    emit_v f k;
    let z = tbl_add f.zeros (fun () -> Value.VBool false) in
    op2 f ~dv:(-2) ~di:1 B.op_mapget_b z (new_cache f)
  | Tast.Tfield (a, idx, name) when is_bool e ->
    emit_v f a;
    op3 f ~dv:(-1) ~di:1 B.op_field_b idx (new_cache f) (name_idx f name)
  | _ ->
    emit_v_raw f e;
    op0 f ~dv:(-1) ~di:1 B.op_unbox_b

and emit_v f (e : Tast.expr) =
  match e.Tast.desc with
  (* calls return boxed values already; re-boxing through the int path
     would only add work *)
  | Tast.Tcall _ -> emit_v_raw f e
  | _ when is_int e ->
    emit_i f e;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | _ when is_bool e ->
    emit_b f e;
    op0 f ~dv:1 ~di:(-1) B.op_box_b
  | _ -> emit_v_raw f e

and emit_v_raw f (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tint n ->
    op1 f ~dv:0 ~di:1 B.op_iconst n;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tbool b ->
    op1 f ~dv:0 ~di:1 B.op_iconst (if b then 1 else 0);
    op0 f ~dv:1 ~di:(-1) B.op_box_b
  | Tast.Tfloat x ->
    op1 f ~dv:1 ~di:0 B.op_const (tbl_add f.consts (Value.VFloat x))
  | Tast.Tstring s ->
    op1 f ~dv:1 ~di:0 B.op_const (tbl_add f.consts (Value.VStr s))
  | Tast.Tnil -> op1 f ~dv:1 ~di:0 B.op_const (tbl_add f.consts Value.VNil)
  | Tast.Tvar v ->
    let opc = if is_global v then B.op_gvload else B.op_vload in
    op2 f ~dv:1 ~di:0 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Tbinop ((Ast.Band | Ast.Bor), _, _) | Tast.Tunop (Ast.Unot, _) ->
    (* boolean forms with native lazy/negation emission *)
    emit_b f e;
    op0 f ~dv:1 ~di:(-1) B.op_box_b
  | Tast.Tbinop (op, a, b) ->
    emit_v f a;
    emit_v f b;
    op1 f ~dv:(-1) ~di:0 B.op_binop (tbl_add f.binops op)
  | Tast.Tunop (Ast.Uneg, a) ->
    emit_v f a;
    op0 f ~dv:0 ~di:0 B.op_neg_v
  | Tast.Taddr lv -> emit_addr f lv
  | Tast.Tderef a ->
    emit_v f a;
    op0 f ~dv:0 ~di:0 B.op_deref
  | Tast.Tindex (a, i) ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:0 ~di:(-1) B.op_index_v
  | Tast.Tmap_get (m, k) ->
    emit_v f m;
    emit_v f k;
    let tenv = f.ctx.tenv in
    let ty = e.Tast.ty in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv ty) in
    op2 f ~dv:(-1) ~di:0 B.op_mapget_v z (new_cache f)
  | Tast.Tfield (a, idx, name) -> begin
    match a.Tast.desc with
    | Tast.Tvar v when not (is_global v) ->
      opn f ~dv:1 ~di:0 B.op_sfield_v
        [ slot f v; idx; new_cache f; name_idx f v.Tast.v_name;
          name_idx f name ]
    | _ ->
      emit_v f a;
      op3 f ~dv:0 ~di:0 B.op_field_v idx (new_cache f) (name_idx f name)
  end
  | Tast.Tcall (name, args) -> begin
    List.iter (fun a -> emit_v f a) args;
    let n = List.length args in
    match Layout.func_id f.ctx.layout name with
    | Some fid -> op2 f ~dv:(1 - n) ~di:0 B.op_call fid n
    | None -> op2 f ~dv:(1 - n) ~di:0 B.op_call_undef (name_idx f name) n
  end
  | Tast.Tmake_slice (site, elem, len, cap) -> begin
    let tenv = f.ctx.tenv in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv elem) in
    let s = tbl_add f.sites site in
    emit_i f len;
    (* negative-length panic precedes the capacity evaluation *)
    op0 f ~dv:0 ~di:0 B.op_check_len;
    match cap with
    | Some cap ->
      emit_i f cap;
      op3 f ~dv:1 ~di:(-2) B.op_make_slice s z 1
    | None -> op3 f ~dv:1 ~di:(-1) B.op_make_slice s z 0
  end
  | Tast.Tmake_map (site, _, _) ->
    op1 f ~dv:1 ~di:0 B.op_make_map (tbl_add f.sites site)
  | Tast.Tnew (site, ty) ->
    let tenv = f.ctx.tenv in
    let z = tbl_add f.zeros (fun () -> Value.zero tenv ty) in
    op2 f ~dv:1 ~di:0 B.op_new (tbl_add f.sites site) z
  | Tast.Tslice_lit (site, _, es) ->
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_copy)
      es;
    let n = List.length es in
    op2 f ~dv:(1 - n) ~di:0 B.op_slice_lit (tbl_add f.sites site) n
  | Tast.Tstruct_lit (_, es) ->
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_copy)
      es;
    let n = List.length es in
    op1 f ~dv:(1 - n) ~di:0 B.op_struct_lit n
  | Tast.Taddr_struct_lit (site, _, es) ->
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_copy)
      es;
    let n = List.length es in
    op2 f ~dv:(1 - n) ~di:0 B.op_addr_struct_lit (tbl_add f.sites site) n
  | Tast.Tappend (site, s, vs) ->
    let tenv = f.ctx.tenv in
    let z =
      match e.Tast.ty with
      | Types.Slice elem -> tbl_add f.zeros (fun () -> Value.zero tenv elem)
      | _ -> invalid_arg "Emit: append to non-slice"
    in
    emit_v f s;
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_copy)
      vs;
    let n = List.length vs in
    op3 f ~dv:(-n) ~di:0 B.op_append (tbl_add f.sites site) n z
  | Tast.Tlen a ->
    emit_v f a;
    op0 f ~dv:(-1) ~di:1 B.op_len;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tcap a ->
    emit_v f a;
    op0 f ~dv:(-1) ~di:1 B.op_cap;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Titoa a ->
    emit_i f a;
    op0 f ~dv:1 ~di:(-1) B.op_itoa
  | Tast.Trand a ->
    emit_i f a;
    op0 f ~dv:0 ~di:0 B.op_rand;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tsubstr (s, a, b) ->
    emit_v f s;
    emit_i f a;
    emit_i f b;
    op0 f ~dv:0 ~di:(-2) B.op_substr
  | Tast.Tslice_sub (a, lo, hi) ->
    emit_v f a;
    let flags = ref 0 in
    (match lo with
    | Some lo ->
      emit_i f lo;
      flags := !flags lor 1
    | None -> ());
    (match hi with
    | Some hi ->
      emit_i f hi;
      flags := !flags lor 2
    | None -> ());
    let di = -((!flags land 1) + (!flags lsr 1)) in
    op1 f ~dv:0 ~di B.op_slice_sub !flags
  | Tast.Tcopy (dst, src) ->
    emit_v f dst;
    emit_v f src;
    op0 f ~dv:(-2) ~di:1 B.op_slice_copy;
    op0 f ~dv:1 ~di:(-1) B.op_box_i
  | Tast.Tmap_get_ok (m, k) ->
    emit_v f m;
    emit_v f k;
    let tenv = f.ctx.tenv in
    let zty =
      match e.Tast.ty with Types.Tuple [ vt; _ ] -> Some vt | _ -> None
    in
    let z =
      tbl_add f.zeros (fun () ->
          match zty with
          | Some vt -> Value.zero tenv vt
          | None -> Value.VUnit)
    in
    op1 f ~dv:(-1) ~di:0 B.op_mapget_ok z
  | Tast.Trecover -> op0 f ~dv:1 ~di:0 B.op_recover

(* Address-of an lvalue, case for case like [Interp.eval_addr]; a
   nested struct-value base falls back to the walker itself. *)
and emit_addr f (lv : Tast.lvalue) =
  match lv with
  | Tast.Lvar v ->
    let opc = if is_global v then B.op_addr_gslot else B.op_addr_slot in
    op2 f ~dv:1 ~di:0 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Lderef e -> emit_v f e
  | Tast.Lindex (a, i) ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:0 ~di:(-1) B.op_addr_index
  | Tast.Lmap _ ->
    let t =
      tbl_add f.thunks (fun _ _ ->
          raise (Interp.Runtime_error "cannot take address of map element"))
    in
    op1 f ~dv:1 ~di:0 B.op_thunk_v t
  | Tast.Lfield (base, idx, _) -> begin
    match base.Tast.ty with
    | Types.Ptr _ ->
      emit_v f base;
      op1 f ~dv:0 ~di:0 B.op_addr_field_ptr idx
    | _ -> begin
      match base.Tast.desc with
      | Tast.Tvar v ->
        let opc =
          if is_global v then B.op_addr_field_gslot else B.op_addr_field_slot
        in
        op3 f ~dv:1 ~di:0 opc (slot f v) idx (name_idx f v.Tast.v_name)
      | _ ->
        (* nested struct-value base: the walker re-evaluates the owner
           spine in the VM's frame, which is [cur_frame st] *)
        let t = tbl_add f.thunks (fun st _ -> Interp.eval_addr st lv) in
        op1 f ~dv:1 ~di:0 B.op_thunk_v t
    end
  end

(* Store the value on top of the V stack into an lvalue: resolve the
   target (its sub-expressions evaluate now, after the right-hand side,
   like the reference walker), then write with a copy. *)
and emit_assign f (lv : Tast.lvalue) =
  match lv with
  | Tast.Lvar v ->
    let opc = if is_global v then B.op_store_gslot else B.op_store_slot in
    op2 f ~dv:(-1) ~di:0 opc (slot f v) (name_idx f v.Tast.v_name)
  | Tast.Lderef e ->
    emit_v f e;
    op0 f ~dv:(-2) ~di:0 B.op_store_deref
  | Tast.Lindex (a, i) ->
    emit_v f a;
    emit_i f i;
    op0 f ~dv:(-2) ~di:(-1) B.op_store_index
  | Tast.Lmap (m, k) ->
    emit_v f m;
    emit_v f k;
    op0 f ~dv:(-3) ~di:0 B.op_store_map
  | Tast.Lfield _ ->
    emit_addr f lv;
    op0 f ~dv:(-2) ~di:0 B.op_store_thru

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let free_kind_code = function
  | Tast.Free_slice -> 0
  | Tast.Free_map -> 1
  | Tast.Free_obj -> 2

(* Recognize [v = v + k] / [v = k + v] / [v = v - k] on a local int
   variable: the whole statement collapses to one in-place [iinc]. *)
let iinc_delta f (v : Tast.var) (e : Tast.expr) : int option =
  if is_global v then None
  else
    let same (a : Tast.expr) =
      match a.Tast.desc with
      | Tast.Tvar v2 -> (not (is_global v2)) && slot f v2 = slot f v
      | _ -> false
    in
    match e.Tast.desc with
    | Tast.Tbinop (Ast.Badd, a, { Tast.desc = Tast.Tint k; _ }) when same a
      ->
      Some k
    | Tast.Tbinop (Ast.Badd, { Tast.desc = Tast.Tint k; _ }, b) when same b
      ->
      Some k
    | Tast.Tbinop (Ast.Bsub, a, { Tast.desc = Tast.Tint k; _ }) when same a
      ->
      Some (-k)
    | _ -> None

let rec emit_stmt f (s : Tast.stmt) =
  match s with
  | Tast.Sdecl (v, init) -> begin
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    let d = tbl_add f.decls (declare f.ctx v) in
    match init with
    | Some e ->
      emit_v f e;
      op0 f ~dv:0 ~di:0 B.op_copy;
      op1 f ~dv:(-1) ~di:0 B.op_decl d
    | None ->
      let tenv = f.ctx.tenv in
      let ty = v.Tast.v_ty in
      let z = tbl_add f.zeros (fun () -> Value.zero tenv ty) in
      op2 f ~dv:0 ~di:0 B.op_decl_zero d z
  end
  | Tast.Smulti_decl (vars, e) ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_v f e;
    let n = List.length vars in
    op2 f ~dv:0 ~di:0 B.op_tuple_check n 0;
    List.iteri
      (fun i v ->
        let d = tbl_add f.decls (declare f.ctx v) in
        op1 f ~dv:1 ~di:0 B.op_tuple_get i;
        op0 f ~dv:0 ~di:0 B.op_copy;
        op1 f ~dv:(-1) ~di:0 B.op_decl d)
      vars;
    op0 f ~dv:(-1) ~di:0 B.op_pop_v
  | Tast.Sassign (lv, e) -> begin
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    (* right-hand side first, then target resolution *)
    match lv with
    | Tast.Lvar v when iinc_delta f v e <> None -> begin
      match iinc_delta f v e with
      | Some k ->
        op3 f ~dv:0 ~di:0 B.op_iinc (slot f v) k (name_idx f v.Tast.v_name)
      | None -> assert false
    end
    | Tast.Lfield (base, fidx, _)
      when is_int e
           && (match e.Tast.desc with Tast.Tcall _ -> false | _ -> true)
           && (match base.Tast.ty with Types.Ptr _ -> true | _ -> false) ->
      (* RHS on the int stack, base pointer on the value stack, then
         the fused [addr_field_ptr; store_thru]: no boxed int and no
         interior VPtr record *)
      emit_i f e;
      emit_v f base;
      op1 f ~dv:(-1) ~di:(-1) B.op_fstore_i fidx
    | Tast.Lvar v
      when is_int e
           && (match e.Tast.desc with Tast.Tcall _ -> false | _ -> true) ->
      emit_i f e;
      let opc =
        if is_global v then B.op_store_gslot_i else B.op_store_slot_i
      in
      op2 f ~dv:0 ~di:(-1) opc (slot f v) (name_idx f v.Tast.v_name)
    | Tast.Lvar v
      when is_bool e
           && (match e.Tast.desc with Tast.Tcall _ -> false | _ -> true) ->
      emit_b f e;
      let opc =
        if is_global v then B.op_store_gslot_b else B.op_store_slot_b
      in
      op2 f ~dv:0 ~di:(-1) opc (slot f v) (name_idx f v.Tast.v_name)
    | _ ->
      emit_v f e;
      emit_assign f lv
  end
  | Tast.Smulti_assign (lvs, e) ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_v f e;
    let n = List.length lvs in
    op2 f ~dv:0 ~di:0 B.op_tuple_check n 1;
    List.iteri
      (fun i lv ->
        op1 f ~dv:1 ~di:0 B.op_tuple_get i;
        emit_assign f lv)
      lvs;
    op0 f ~dv:(-1) ~di:0 B.op_pop_v
  | Tast.Sexpr e ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_v f e;
    op0 f ~dv:(-1) ~di:0 B.op_pop_v
  | Tast.Sif (c, b1, b2) -> begin
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_b f c;
    match b2 with
    | None ->
      let l_end = new_label f in
      opjmpifnot f l_end;
      emit_block f b1;
      mark f l_end
    | Some b2 ->
      let l_else = new_label f in
      let l_end = new_label f in
      opjmpifnot f l_else;
      emit_block f b1;
      opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end;
      mark f l_else;
      emit_block f b2;
      mark f l_end
  end
  | Tast.Sfor (init, cond, post, body) ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    op0 f ~dv:0 ~di:0 B.op_push_scope;
    let l_head = new_label f in
    let l_post = new_label f in
    let l_exit = new_label f in
    f.scopes <- Kfor (l_exit, l_post) :: f.scopes;
    (match init with Some s -> emit_stmt f s | None -> ());
    mark f l_head;
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    (match cond with
    | Some c ->
      emit_b f c;
      opjmpifnot f l_exit
    | None -> ());
    emit_block f body;
    mark f l_post;
    (match post with Some s -> emit_stmt f s | None -> ());
    opjmp f ~dv:0 ~di:0 B.op_jmp [] l_head;
    mark f l_exit;
    op0 f ~dv:0 ~di:0 B.op_pop_scope;
    f.scopes <- List.tl f.scopes
  | Tast.Sforrange_map (v, m, body) ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_v f m;
    let l_next = new_label f in
    let l_end = new_label f in
    opjmp f ~dv:(-1) ~di:0 B.op_range_start [] l_end;
    f.scopes <- Krange (l_next, l_end) :: f.scopes;
    let d = tbl_add f.decls (declare f.ctx v) in
    mark f l_next;
    opjmp f ~dv:0 ~di:0 B.op_range_next [ d ] l_end;
    emit_block f body;
    opjmp f ~dv:0 ~di:0 B.op_jmp [] l_next;
    mark f l_end;
    f.scopes <- List.tl f.scopes
  | Tast.Sreturn es ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_copy)
      es;
    let n = List.length es in
    (* open scopes are popped by the VM's unwind handler, in the same
       innermost-first order the walker's nested block handlers use *)
    op1 f ~dv:(-n) ~di:0 B.op_ret n
  | Tast.Sblock b ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_block f b
  | Tast.Sgo (name, args) -> begin
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_copy)
      args;
    let n = List.length args in
    match Layout.func_id f.ctx.layout name with
    | Some fid -> op2 f ~dv:(-n) ~di:0 B.op_go fid n
    | None -> op2 f ~dv:(-n) ~di:0 B.op_go_undef (name_idx f name) n
  end
  | Tast.Sdefer (name, args) -> begin
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_copy)
      args;
    let n = List.length args in
    match Layout.func_id f.ctx.layout name with
    | Some fid -> op2 f ~dv:(-n) ~di:0 B.op_defer fid n
    | None -> op2 f ~dv:(-n) ~di:0 B.op_defer_undef (name_idx f name) n
  end
  | Tast.Spanic e ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_v f e;
    op0 f ~dv:(-1) ~di:0 B.op_panic
  | Tast.Sbreak -> begin
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    (* pop the block scopes between here and the loop; the loop's own
       scope (Sfor) pops at its exit label *)
    let rec unwind = function
      | Kblock :: rest ->
        op0 f ~dv:0 ~di:0 B.op_pop_scope;
        unwind rest
      | Kfor (l_exit, _) :: _ -> opjmp f ~dv:0 ~di:0 B.op_jmp [] l_exit
      | Krange (_, l_end) :: _ ->
        op0 f ~dv:0 ~di:0 B.op_range_pop;
        opjmp f ~dv:0 ~di:0 B.op_jmp [] l_end
      | [] ->
        (* break outside any loop: unreachable after parsing, but keep
           the reference behaviour (Break_loop escapes) *)
        let t = tbl_add f.thunks (fun _ _ -> raise Interp.Break_loop) in
        op1 f ~dv:1 ~di:0 B.op_thunk_v t;
        op0 f ~dv:(-1) ~di:0 B.op_pop_v
    in
    unwind f.scopes
  end
  | Tast.Scontinue -> begin
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    let rec unwind = function
      | Kblock :: rest ->
        op0 f ~dv:0 ~di:0 B.op_pop_scope;
        unwind rest
      | Kfor (_, l_post) :: _ -> opjmp f ~dv:0 ~di:0 B.op_jmp [] l_post
      | Krange (l_next, _) :: _ -> opjmp f ~dv:0 ~di:0 B.op_jmp [] l_next
      | [] ->
        let t = tbl_add f.thunks (fun _ _ -> raise Interp.Continue_loop) in
        op1 f ~dv:1 ~di:0 B.op_thunk_v t;
        op0 f ~dv:(-1) ~di:0 B.op_pop_v
    in
    unwind f.scopes
  end
  | Tast.Sdelete (m, k) ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    emit_v f m;
    emit_v f k;
    op0 f ~dv:(-2) ~di:0 B.op_delete
  | Tast.Sprint es ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    List.iter
      (fun e ->
        emit_v f e;
        op0 f ~dv:0 ~di:0 B.op_tostr)
      es;
    op1 f ~dv:(-List.length es) ~di:0 B.op_print (List.length es)
  | Tast.Stcfree (v, kind) ->
    op0 f ~dv:0 ~di:0 B.op_safepoint;
    if v.Tast.v_kind <> Tast.Vglobal then
      op2 f ~dv:0 ~di:0 B.op_tcfree (slot f v) (free_kind_code kind)

and emit_block f (b : Tast.block) =
  op0 f ~dv:0 ~di:0 B.op_push_scope;
  f.scopes <- Kblock :: f.scopes;
  List.iter (fun s -> emit_stmt f s) b.Tast.b_stmts;
  op0 f ~dv:0 ~di:0 B.op_pop_scope;
  f.scopes <- List.tl f.scopes

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

(* Patch label operands, then thread jump-to-jump chains so a branch
   landing on an unconditional [jmp] goes straight to its final
   destination. *)
let patch_and_thread f =
  let code = f.code.iv_a in
  List.iter (fun (pos, l) -> code.(pos) <- f.labels.(l)) f.patches;
  let resolve target =
    let t = ref target in
    let hops = ref 0 in
    while !hops < 64 && !t < f.code.iv_n && code.(!t) = B.op_jmp do
      t := code.(!t + 1);
      incr hops
    done;
    !t
  in
  List.iter (fun (pos, _) -> code.(pos) <- resolve code.(pos)) f.patches

let emit_func (ctx : ctx) (fn : Tast.func) fid : B.fn =
  let f = fctx ctx in
  emit_block f fn.Tast.f_body;
  op0 f ~dv:0 ~di:0 B.op_halt;
  patch_and_thread f;
  let pdecls = List.map (declare ctx) fn.Tast.f_params in
  let tenv = ctx.tenv in
  let rtys = fn.Tast.f_results in
  {
    B.bf_fn = fn;
    bf_name = fn.Tast.f_name;
    bf_nslots = ctx.layout.Layout.l_nslots.(fid);
    bf_max_v = f.max_v;
    bf_max_i = f.max_i;
    bf_code = Array.sub f.code.iv_a 0 f.code.iv_n;
    bf_consts = tbl_array f.consts;
    bf_sites = tbl_array f.sites;
    bf_zeros = tbl_array f.zeros;
    bf_binops = tbl_array f.binops;
    bf_names = tbl_array f.names;
    bf_decls = tbl_array f.decls;
    bf_assigns = tbl_array f.assigns;
    bf_thunks = tbl_array f.thunks;
    bf_caches = Array.init f.ncaches (fun _ -> B.fresh_cache ());
    bf_bind =
      (fun st fr args ->
        List.iter2 (fun d arg -> d st fr (Value.copy arg)) pdecls args);
    bf_zeros_ret = (fun _st -> List.map (fun ty -> Value.zero tenv ty) rtys);
  }

(** Lower every function of the program to bytecode (emits an ["emit"]
    trace span next to parse/typecheck/escape/instrument/lower). *)
let lower (program : Tast.program) (decisions : Decisions.t)
    (layout : Layout.t) : B.program =
  let module Trace = Gofree_obs.Trace in
  Trace.with_span ~tid:(Trace.domain_tid ()) "emit" (fun () ->
      let ctx = { tenv = program.Tast.p_tenv; decisions; layout } in
      Array.mapi (fun i fn -> emit_func ctx fn i) layout.Layout.l_funcs)
