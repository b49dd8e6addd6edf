(** Pretty-printer for the typed AST.

    Used by [gofreec instrument] to show where tcfree calls were
    inserted, by tests to check instrumentation placement, and by
    [Callgraph] as the body text an analysis unit's key digests.  One
    direct walk into a [Buffer]: the text is hashed on every build, so
    it goes through no formatting engine. *)

let binop_str = function
  | Ast.Badd -> "+"
  | Ast.Bsub -> "-"
  | Ast.Bmul -> "*"
  | Ast.Bdiv -> "/"
  | Ast.Bmod -> "%"
  | Ast.Band_bits -> "&"
  | Ast.Bor_bits -> "|"
  | Ast.Bxor -> "^"
  | Ast.Bshl -> "<<"
  | Ast.Bshr -> ">>"
  | Ast.Beq -> "=="
  | Ast.Bne -> "!="
  | Ast.Blt -> "<"
  | Ast.Ble -> "<="
  | Ast.Bgt -> ">"
  | Ast.Bge -> ">="
  | Ast.Band -> "&&"
  | Ast.Bor -> "||"

let free_kind_str = function
  | Tast.Free_slice -> "TcfreeSlice"
  | Tast.Free_map -> "TcfreeMap"
  | Tast.Free_obj -> "Tcfree"

let str = Buffer.add_string

let ty b t = str b (Types.to_string t)

let sep_list b f = List.iteri (fun i x -> if i > 0 then str b ", "; f b x)

let rec expr b (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Tint n -> str b (string_of_int n)
  | Tast.Tfloat f -> str b (Printf.sprintf "%g" f)
  | Tast.Tbool v -> str b (string_of_bool v)
  | Tast.Tstring s ->
    Buffer.add_char b '"';
    str b (String.escaped s);
    Buffer.add_char b '"'
  | Tast.Tnil -> str b "nil"
  | Tast.Tvar v -> str b v.Tast.v_name
  | Tast.Tbinop (op, l, r) ->
    Buffer.add_char b '(';
    expr b l;
    Buffer.add_char b ' ';
    str b (binop_str op);
    Buffer.add_char b ' ';
    expr b r;
    Buffer.add_char b ')'
  | Tast.Tunop (Ast.Uneg, a) -> Buffer.add_char b '-'; expr b a
  | Tast.Tunop (Ast.Unot, a) -> Buffer.add_char b '!'; expr b a
  | Tast.Taddr lv -> Buffer.add_char b '&'; lvalue b lv
  | Tast.Tderef a -> Buffer.add_char b '*'; expr b a
  | Tast.Tindex (a, i) | Tast.Tmap_get (a, i) | Tast.Tmap_get_ok (a, i) ->
    index b a i
  | Tast.Tfield (a, _, name) -> expr b a; Buffer.add_char b '.'; str b name
  | Tast.Tcall (name, es) -> call b name es
  | Tast.Tmake_slice (_, elem, len, cap) ->
    str b "make([]";
    ty b elem;
    str b ", ";
    expr b len;
    Option.iter (fun c -> str b ", "; expr b c) cap;
    Buffer.add_char b ')'
  | Tast.Tmake_map (_, k, v) ->
    str b "make(map[";
    ty b k;
    Buffer.add_char b ']';
    ty b v;
    Buffer.add_char b ')'
  | Tast.Tnew (_, t) -> str b "new("; ty b t; Buffer.add_char b ')'
  | Tast.Tslice_lit (_, elem, es) -> str b "[]"; ty b elem; braces b es
  | Tast.Tstruct_lit (name, es) -> str b name; braces b es
  | Tast.Taddr_struct_lit (_, name, es) ->
    Buffer.add_char b '&';
    str b name;
    braces b es
  | Tast.Tappend (_, s, es) ->
    str b "append(";
    expr b s;
    str b ", ";
    sep_list b expr es;
    Buffer.add_char b ')'
  | Tast.Tlen a -> call b "len" [ a ]
  | Tast.Tcap a -> call b "cap" [ a ]
  | Tast.Titoa a -> call b "itoa" [ a ]
  | Tast.Trand a -> call b "rand" [ a ]
  | Tast.Tsubstr (s, lo, hi) -> call b "substr" [ s; lo; hi ]
  | Tast.Tslice_sub (a, lo, hi) ->
    expr b a;
    Buffer.add_char b '[';
    Option.iter (expr b) lo;
    Buffer.add_char b ':';
    Option.iter (expr b) hi;
    Buffer.add_char b ']'
  | Tast.Tcopy (dst, src) -> call b "copy" [ dst; src ]
  | Tast.Trecover -> str b "recover()"

and call b name es =
  str b name;
  Buffer.add_char b '(';
  sep_list b expr es;
  Buffer.add_char b ')'

and braces b es =
  Buffer.add_char b '{';
  sep_list b expr es;
  Buffer.add_char b '}'

and index b a i =
  expr b a;
  Buffer.add_char b '[';
  expr b i;
  Buffer.add_char b ']'

and lvalue b = function
  | Tast.Lvar v -> str b v.Tast.v_name
  | Tast.Lderef e -> Buffer.add_char b '*'; expr b e
  | Tast.Lindex (a, i) | Tast.Lmap (a, i) -> index b a i
  | Tast.Lfield (e, _, name) -> expr b e; Buffer.add_char b '.'; str b name

let pad b ind =
  for _ = 1 to ind do
    Buffer.add_char b ' '
  done

(* [stmt b ind s] prints [s] indented by [ind]; a block's closing brace
   lines up with the statement that opened it. *)
let rec stmt b ind (s : Tast.stmt) =
  pad b ind;
  match s with
  | Tast.Sdecl (v, None) ->
    str b "var ";
    str b v.Tast.v_name;
    Buffer.add_char b ' ';
    ty b v.Tast.v_ty
  | Tast.Sdecl (v, Some e) -> str b v.Tast.v_name; str b " := "; expr b e
  | Tast.Smulti_decl (vs, e) ->
    sep_list b (fun b v -> str b v.Tast.v_name) vs;
    str b " := ";
    expr b e
  | Tast.Sassign (lv, e) -> lvalue b lv; str b " = "; expr b e
  | Tast.Smulti_assign (lvs, e) ->
    sep_list b lvalue lvs;
    str b " = ";
    expr b e
  | Tast.Sexpr e -> expr b e
  | Tast.Sif (c, b1, b2) ->
    str b "if ";
    expr b c;
    Buffer.add_char b ' ';
    block b ind b1;
    Option.iter (fun b2 -> str b " else "; block b ind b2) b2
  | Tast.Sfor (init, cond, post, body) ->
    str b "for ";
    Option.iter (stmt b 0) init;
    str b "; ";
    Option.iter (expr b) cond;
    str b "; ";
    Option.iter (stmt b 0) post;
    Buffer.add_char b ' ';
    block b ind body
  | Tast.Sforrange_map (v, m, body) ->
    str b "for ";
    str b v.Tast.v_name;
    str b " := range ";
    expr b m;
    Buffer.add_char b ' ';
    block b ind body
  | Tast.Sreturn [] -> str b "return"
  | Tast.Sreturn es -> str b "return "; sep_list b expr es
  | Tast.Sblock blk -> block b ind blk
  | Tast.Sgo (name, es) -> str b "go "; call b name es
  | Tast.Sdefer (name, es) -> str b "defer "; call b name es
  | Tast.Spanic e -> call b "panic" [ e ]
  | Tast.Sbreak -> str b "break"
  | Tast.Scontinue -> str b "continue"
  | Tast.Sdelete (m, k) -> call b "delete" [ m; k ]
  | Tast.Sprint es -> call b "println" es
  | Tast.Stcfree (v, kind) ->
    str b (free_kind_str kind);
    Buffer.add_char b '(';
    str b v.Tast.v_name;
    str b ") // inserted"

and block b ind (blk : Tast.block) =
  Buffer.add_char b '{';
  List.iter
    (fun s ->
      Buffer.add_char b '\n';
      stmt b (ind + 2) s)
    blk.Tast.b_stmts;
  Buffer.add_char b '\n';
  pad b ind;
  Buffer.add_char b '}'

let add_func b (f : Tast.func) =
  str b "func ";
  str b f.Tast.f_name;
  Buffer.add_char b '(';
  sep_list b
    (fun b (v : Tast.var) ->
      str b v.Tast.v_name;
      Buffer.add_char b ' ';
      ty b v.Tast.v_ty)
    f.Tast.f_params;
  Buffer.add_char b ')';
  (match f.Tast.f_results with
  | [] -> ()
  | [ t ] -> Buffer.add_char b ' '; ty b t
  | ts ->
    str b " (";
    sep_list b ty ts;
    Buffer.add_char b ')');
  Buffer.add_char b ' ';
  block b 0 f.Tast.f_body

let func_to_string f =
  let b = Buffer.create 1024 in
  add_func b f;
  Buffer.contents b

let program_to_string (p : Tast.program) =
  let b = Buffer.create 4096 in
  List.iter
    (fun f ->
      add_func b f;
      str b "\n\n")
    p.Tast.p_funcs;
  Buffer.contents b
