(** The flat bytecode ISA of the production execution engine.

    A lowered function is one [int array]: each instruction is an opcode
    followed by its inline operands (slot indices, interned function
    ids, absolute jump targets — resolved at emission time by {!Emit},
    with jump-to-jump chains threaded).  Values that cannot be encoded
    as ints live in per-function side tables: a constant pool, the
    allocation sites, zero-value makers, declaration/assignment closures
    and reference-walker thunks for the long tail, and the inline-cache
    records for map-key and struct-field access sites.

    The dispatch loop itself lives in {!Vm}; the opcode numbering here
    and the literal patterns of its [match] must stay in sync (the
    differential suite and the disassembler golden tests hold the
    line). *)

open Minigo

(* Opcode values.  Grouped: control flow, stack shuffling, the unboxed
   int/bool fast path (operands on a native-int stack, so hot
   arithmetic/compare/branch never allocates), generic value ops,
   memory/call/allocation ops.  The numbering is frozen by the Vm match
   and the disasm goldens — append only. *)
let op_halt = 0
let op_safepoint = 1
let op_jmp = 2  (* target *)
let op_jmpifnot = 3  (* target; pops I *)
let op_jmpif = 4  (* target; pops I *)
let op_push_scope = 5
let op_pop_scope = 6
let op_ret = 7  (* n: pop n values, raise Return_values *)
let op_iconst = 8  (* n: push I *)
let op_const = 9  (* const idx: push V *)
let op_iload = 10  (* slot, name idx: int local -> I *)
let op_bload = 11  (* slot, name idx: bool local -> I *)
let op_vload = 12  (* slot, name idx: local -> V *)
let op_giload = 13  (* global slot, name idx *)
let op_gbload = 14
let op_gvload = 15
let op_box_i = 16  (* I -> V *)
let op_box_b = 17
let op_unbox_i = 18  (* V -> I (expects an int) *)
let op_unbox_b = 19  (* V -> I (truthy) *)
let op_copy = 20  (* top of V := Value.copy top *)
let op_pop_v = 21
let op_pop_i = 22
let op_add_i = 23
let op_sub_i = 24
let op_mul_i = 25
let op_div_i = 26
let op_mod_i = 27
let op_and_i = 28
let op_or_i = 29
let op_xor_i = 30
let op_shl_i = 31
let op_shr_i = 32
let op_neg_i = 33
let op_lt_i = 34
let op_le_i = 35
let op_gt_i = 36
let op_ge_i = 37
let op_eq_i = 38
let op_ne_i = 39
let op_not_b = 40
let op_binop = 41  (* binop idx: generic eval_binop on two V *)
let op_neg_v = 42
let op_decl = 43  (* decl idx: pop V, run the declaration closure *)
let op_decl_zero = 44  (* decl idx, zero idx *)
let op_store_slot = 45  (* slot, name idx: pop V, copy, write *)
let op_store_gslot = 46
let op_store_slot_i = 47  (* slot, name idx: pop I, write VInt *)
let op_store_gslot_i = 48
let op_store_slot_b = 49
let op_store_gslot_b = 50
let op_store_deref = 51  (* pop ptr V, pop value V *)
let op_store_index = 52  (* pop idx I, pop base V, pop value V *)
let op_store_map = 53  (* pop key V, pop map V, pop value V *)
let op_store_thru = 54  (* pop ptr V, pop value V (field target) *)
let op_index_v = 55  (* pop idx I, pop base V, push V *)
let op_index_i = 56  (* same, push I (also string byte) *)
let op_index_b = 57
let op_field_v = 58  (* field idx, cache idx, name idx: pop base V *)
let op_field_i = 59
let op_field_b = 60
let op_mapget_v = 61  (* zero idx, cache idx: pop key V, map V *)
let op_mapget_i = 62
let op_mapget_b = 63
let op_mapget_ok = 64  (* zero idx: pop key V, map V, push VTuple *)
let op_len = 65  (* pop V, push I *)
let op_cap = 66
let op_itoa = 67  (* pop I, push V *)
let op_rand = 68  (* pop I, push I *)
let op_substr = 69  (* pop hi I, lo I, string V; push V *)
let op_slice_sub = 70  (* flags (bit0 lo, bit1 hi): pop bounds I, base V *)
let op_slice_copy = 71  (* pop src V, dst V; push I *)
let op_deref = 72  (* pop V, push V *)
let op_call = 73  (* fn id, nargs: pop args V, push pinned result V *)
let op_call_undef = 74  (* name idx, nargs *)
let op_go = 75  (* fn id, nargs (args already copied) *)
let op_go_undef = 76
let op_defer = 77
let op_defer_undef = 78
let op_check_len = 79  (* peek I: negative-length panic before cap eval *)
let op_make_slice = 80  (* site idx, zero idx, has_cap: pop [cap I,] len I *)
let op_make_map = 81  (* site idx *)
let op_new = 82  (* site idx, zero idx *)
let op_slice_lit = 83  (* site idx, n: pop n copied V *)
let op_struct_lit = 84  (* n: pop n copied V *)
let op_addr_struct_lit = 85  (* site idx, n *)
let op_append = 86  (* site idx, n, zero idx: pop n copied elems V, base V *)
let op_addr_slot = 87  (* slot, name idx: push VPtr *)
let op_addr_gslot = 88
let op_addr_index = 89  (* pop idx I, base V; push VPtr *)
let op_addr_field_ptr = 90  (* field idx: pop ptr-base V; push VPtr *)
let op_addr_field_slot = 91  (* slot, field idx, name idx *)
let op_addr_field_gslot = 92
let op_tuple_check = 93  (* n, kind (0 decl / 1 assign): peek V *)
let op_tuple_get = 94  (* i: peek tuple V, push element V *)
let op_print = 95  (* n: pop n strings V *)
let op_tostr = 96  (* pop V, push VStr *)
let op_tcfree = 97  (* slot, free kind (0 slice / 1 map / 2 obj) *)
let op_delete = 98  (* pop key V, map V *)
let op_panic = 99  (* pop V *)
let op_recover = 100  (* push V *)
let op_range_start = 101  (* exit target: pop map V, push key iterator *)
let op_range_next = 102  (* decl idx, end target *)
let op_range_pop = 103  (* drop the top key iterator (break) *)
let op_thunk_v = 104  (* thunk idx: push V *)
let op_assign_thunk = 105  (* assign idx: pop value V *)

(* Superinstructions: fusions of the sequences above that dominate hot
   loops.  Each replicates its unfused expansion exactly (same
   evaluation order, same panics in the same order), so observable
   behaviour cannot differ; they only cut dispatches and the
   allocations the expansion's boxing steps would make. *)
let op_addk_i = 106  (* k: top of I += k *)
let op_subk_i = 107
let op_mulk_i = 108
let op_divk_i = 109  (* k: keeps the divide-by-zero panic when k = 0 *)
let op_modk_i = 110
let op_ltk_i = 111  (* k: top of I := top < k *)
let op_lek_i = 112
let op_gtk_i = 113
let op_gek_i = 114
let op_eqk_i = 115
let op_nek_i = 116
let op_sfield_v = 117  (* slot, field, cache, var name, field name *)
let op_sfield_i = 118  (* = [vload slot; field_i f] fused *)
let op_fstore_i = 119  (* field idx: pop ptr-base V, value I; store *)
let op_jlt_not = 120  (* target: pop 2 I, jump unless a < b *)
let op_jle_not = 121
let op_jgt_not = 122
let op_jge_not = 123
let op_jeq_not = 124
let op_jne_not = 125
let op_jltk_not = 126  (* k, target: pop 1 I, jump unless a < k *)
let op_jlek_not = 127
let op_jgtk_not = 128
let op_jgek_not = 129
let op_jeqk_not = 130
let op_jnek_not = 131
let op_iinc = 132  (* slot, k, name idx: int local += k in place *)

let n_opcodes = 133

(** A map-key site's cache contents, immutable so a reader sees one
    coherent snapshot through a single pointer load — goroutines on
    different domains may race on the cache, and a torn
    address/key/value combination would return a wrong value.  A hit
    requires the same header address (addresses are never reused), an
    unchanged [md_version] (bumped by every store/delete/grow/free) and
    an equal key, and returns the cached value — the same physical
    value the full lookup would find, so aliasing is unchanged and no
    allocator event is skipped (map reads never allocate). *)
type centry = {
  ce_a : int;  (* map header address; -1 empty *)
  ce_md : Value.map_data;  (* header payload; version read directly *)
  ce_ver : int;
  ce_key : Value.value;
  ce_val : Value.value;
  ce_b : (Value.value * Value.value) list array;
      (* the map's bucket array as of [ce_ver]; lets a same-map
         different-key miss probe the buckets directly, skipping both
         header/buckets object lookups *)
}

(** A monomorphic inline-cache record.  Map-key sites replace the whole
    [c_e] snapshot on update; struct-field sites use [c_a] as the
    cached base shape (1 = struct value, 2 = pointer) — a single
    immediate field, so races can at worst cause a spurious miss. *)
type cache = {
  mutable c_a : int;  (* field-site shape; -1 empty *)
  mutable c_e : centry;  (* map-key site snapshot *)
}

let empty_md : Value.map_data =
  {
    Value.md_buckets = -1;
    md_nbuckets = 1;
    md_count = 0;
    md_entry_size = 2;
    md_version = -1;
  }

let empty_centry =
  { ce_a = -1; ce_md = empty_md; ce_ver = -1; ce_key = Value.VUnit;
    ce_val = Value.VUnit; ce_b = [||] }

let fresh_cache () = { c_a = -1; c_e = empty_centry }

(** One lowered function: the flat code plus its side tables.  The
    header fields pre-size the frame slot array and both operand stacks
    for the whole call. *)
type fn = {
  bf_fn : Tast.func;
  bf_name : string;
  bf_nslots : int;
  bf_max_v : int;  (* value operand stack depth *)
  bf_max_i : int;  (* unboxed int/bool operand stack depth *)
  bf_code : int array;
  bf_consts : Value.value array;  (* strings, floats, nil *)
  bf_sites : Tast.alloc_site array;
  bf_zeros : (unit -> Value.value) array;
  bf_binops : Ast.binop array;
  bf_names : string array;  (* variable/callee names for errors/disasm *)
  bf_decls : (Interp.state -> Interp.frame -> Value.value -> unit) array;
  bf_assigns : (Interp.state -> Interp.frame -> Value.value -> unit) array;
  bf_thunks : (Interp.state -> Interp.frame -> Value.value) array;
  bf_caches : cache array;
  bf_bind : Interp.state -> Interp.frame -> Value.value list -> unit;
  bf_zeros_ret : Interp.state -> Value.value list;
}

type program = fn array

(* ------------------------------------------------------------------ *)
(* Disassembler                                                        *)
(* ------------------------------------------------------------------ *)

let op_name = function
  | 0 -> "halt"
  | 1 -> "safepoint"
  | 2 -> "jmp"
  | 3 -> "jmpifnot"
  | 4 -> "jmpif"
  | 5 -> "push_scope"
  | 6 -> "pop_scope"
  | 7 -> "ret"
  | 8 -> "iconst"
  | 9 -> "const"
  | 10 -> "iload"
  | 11 -> "bload"
  | 12 -> "vload"
  | 13 -> "giload"
  | 14 -> "gbload"
  | 15 -> "gvload"
  | 16 -> "box_i"
  | 17 -> "box_b"
  | 18 -> "unbox_i"
  | 19 -> "unbox_b"
  | 20 -> "copy"
  | 21 -> "pop_v"
  | 22 -> "pop_i"
  | 23 -> "add_i"
  | 24 -> "sub_i"
  | 25 -> "mul_i"
  | 26 -> "div_i"
  | 27 -> "mod_i"
  | 28 -> "and_i"
  | 29 -> "or_i"
  | 30 -> "xor_i"
  | 31 -> "shl_i"
  | 32 -> "shr_i"
  | 33 -> "neg_i"
  | 34 -> "lt_i"
  | 35 -> "le_i"
  | 36 -> "gt_i"
  | 37 -> "ge_i"
  | 38 -> "eq_i"
  | 39 -> "ne_i"
  | 40 -> "not_b"
  | 41 -> "binop"
  | 42 -> "neg_v"
  | 43 -> "decl"
  | 44 -> "decl_zero"
  | 45 -> "store_slot"
  | 46 -> "store_gslot"
  | 47 -> "store_slot_i"
  | 48 -> "store_gslot_i"
  | 49 -> "store_slot_b"
  | 50 -> "store_gslot_b"
  | 51 -> "store_deref"
  | 52 -> "store_index"
  | 53 -> "store_map"
  | 54 -> "store_thru"
  | 55 -> "index_v"
  | 56 -> "index_i"
  | 57 -> "index_b"
  | 58 -> "field_v"
  | 59 -> "field_i"
  | 60 -> "field_b"
  | 61 -> "mapget_v"
  | 62 -> "mapget_i"
  | 63 -> "mapget_b"
  | 64 -> "mapget_ok"
  | 65 -> "len"
  | 66 -> "cap"
  | 67 -> "itoa"
  | 68 -> "rand"
  | 69 -> "substr"
  | 70 -> "slice_sub"
  | 71 -> "slice_copy"
  | 72 -> "deref"
  | 73 -> "call"
  | 74 -> "call_undef"
  | 75 -> "go"
  | 76 -> "go_undef"
  | 77 -> "defer"
  | 78 -> "defer_undef"
  | 79 -> "check_len"
  | 80 -> "make_slice"
  | 81 -> "make_map"
  | 82 -> "new"
  | 83 -> "slice_lit"
  | 84 -> "struct_lit"
  | 85 -> "addr_struct_lit"
  | 86 -> "append"
  | 87 -> "addr_slot"
  | 88 -> "addr_gslot"
  | 89 -> "addr_index"
  | 90 -> "addr_field_ptr"
  | 91 -> "addr_field_slot"
  | 92 -> "addr_field_gslot"
  | 93 -> "tuple_check"
  | 94 -> "tuple_get"
  | 95 -> "print"
  | 96 -> "tostr"
  | 97 -> "tcfree"
  | 98 -> "delete"
  | 99 -> "panic"
  | 100 -> "recover"
  | 101 -> "range_start"
  | 102 -> "range_next"
  | 103 -> "range_pop"
  | 104 -> "thunk_v"
  | 105 -> "assign_thunk"
  | 106 -> "addk_i"
  | 107 -> "subk_i"
  | 108 -> "mulk_i"
  | 109 -> "divk_i"
  | 110 -> "modk_i"
  | 111 -> "ltk_i"
  | 112 -> "lek_i"
  | 113 -> "gtk_i"
  | 114 -> "gek_i"
  | 115 -> "eqk_i"
  | 116 -> "nek_i"
  | 117 -> "sfield_v"
  | 118 -> "sfield_i"
  | 119 -> "fstore_i"
  | 120 -> "jlt_not"
  | 121 -> "jle_not"
  | 122 -> "jgt_not"
  | 123 -> "jge_not"
  | 124 -> "jeq_not"
  | 125 -> "jne_not"
  | 126 -> "jltk_not"
  | 127 -> "jlek_not"
  | 128 -> "jgtk_not"
  | 129 -> "jgek_not"
  | 130 -> "jeqk_not"
  | 131 -> "jnek_not"
  | 132 -> "iinc"
  | op -> Printf.sprintf "op%d" op

(** Operand count per opcode (instruction width − 1). *)
let arity op =
  match op with
  | 2 | 3 | 4 | 7 | 8 | 9 | 41 | 43 | 64 | 70 | 81 | 84 | 90 | 94 | 95
  | 101 | 104 | 105 | 106 | 107 | 108 | 109 | 110 | 111 | 112 | 113 | 114
  | 115 | 116 | 119 | 120 | 121 | 122 | 123 | 124 | 125 ->
    1
  | 10 | 11 | 12 | 13 | 14 | 15 | 44 | 45 | 46 | 47 | 48 | 49 | 50 | 61
  | 62 | 63 | 73 | 74 | 75 | 76 | 77 | 78 | 82 | 83 | 85 | 87 | 88
  | 93 | 97 | 102 | 126 | 127 | 128 | 129 | 130 | 131 ->
    2
  | 58 | 59 | 60 | 80 | 86 | 91 | 92 | 132 -> 3
  | 117 | 118 -> 5
  | _ -> 0

(* Which operand slots hold jump targets, per opcode. *)
let jump_operand op =
  match op with
  | 2 | 3 | 4 | 101 | 120 | 121 | 122 | 123 | 124 | 125 -> Some 0
  | 102 | 126 | 127 | 128 | 129 | 130 | 131 -> Some 1
  | _ -> None

let binop_name : Ast.binop -> string = function
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

let disasm_fn (b : Buffer.t) (f : fn) =
  Printf.bprintf b "func %s: slots=%d stack=%d/%d code=%d caches=%d\n"
    f.bf_name f.bf_nslots f.bf_max_v f.bf_max_i (Array.length f.bf_code)
    (Array.length f.bf_caches);
  let code = f.bf_code in
  let name i =
    if i >= 0 && i < Array.length f.bf_names then f.bf_names.(i) else "?"
  in
  let pc = ref 0 in
  while !pc < Array.length code do
    let op = code.(!pc) in
    let o k = code.(!pc + 1 + k) in
    Printf.bprintf b "  %4d  %-16s" !pc (op_name op);
    (match op with
    | 2 (* jmp *) -> Printf.bprintf b "-> %d" (o 0)
    | 3 | 4 -> Printf.bprintf b "-> %d" (o 0)
    | 7 | 8 | 84 | 94 | 95 -> Printf.bprintf b "%d" (o 0)
    | 9 -> Printf.bprintf b "%d  ; %s" (o 0) (Value.to_string f.bf_consts.(o 0))
    | 10 | 11 | 12 | 13 | 14 | 15 | 45 | 46 | 47 | 48 | 49 | 50 | 87 | 88
      ->
      Printf.bprintf b "%d  ; %s" (o 0) (name (o 1))
    | 41 ->
      Printf.bprintf b "%d  ; %s" (o 0) (binop_name f.bf_binops.(o 0))
    | 43 -> Printf.bprintf b "decl#%d" (o 0)
    | 44 -> Printf.bprintf b "decl#%d zero#%d" (o 0) (o 1)
    | 58 | 59 | 60 ->
      Printf.bprintf b ".%d ic#%d  ; %s" (o 0) (o 1) (name (o 2))
    | 61 | 62 | 63 -> Printf.bprintf b "zero#%d ic#%d" (o 0) (o 1)
    | 64 -> Printf.bprintf b "zero#%d" (o 0)
    | 70 -> Printf.bprintf b "flags=%d" (o 0)
    | 73 | 75 | 77 -> Printf.bprintf b "fn#%d nargs=%d" (o 0) (o 1)
    | 74 | 76 | 78 -> Printf.bprintf b "%s nargs=%d" (name (o 0)) (o 1)
    | 80 ->
      Printf.bprintf b "site#%d zero#%d cap=%b"
        f.bf_sites.(o 0).Tast.site_id (o 1) (o 2 = 1)
    | 81 -> Printf.bprintf b "site#%d" f.bf_sites.(o 0).Tast.site_id
    | 82 | 83 | 85 ->
      Printf.bprintf b "site#%d %d" f.bf_sites.(o 0).Tast.site_id (o 1)
    | 86 ->
      Printf.bprintf b "site#%d %d zero#%d" f.bf_sites.(o 0).Tast.site_id
        (o 1) (o 2)
    | 90 -> Printf.bprintf b ".%d" (o 0)
    | 91 | 92 ->
      Printf.bprintf b "%d .%d  ; %s" (o 0) (o 1) (name (o 2))
    | 93 ->
      Printf.bprintf b "%d %s" (o 0)
        (if o 1 = 0 then "decl" else "assign")
    | 97 ->
      Printf.bprintf b "%d %s" (o 0)
        (match o 1 with 0 -> "slice" | 1 -> "map" | _ -> "obj")
    | 101 -> Printf.bprintf b "exit -> %d" (o 0)
    | 102 -> Printf.bprintf b "decl#%d end -> %d" (o 0) (o 1)
    | 104 -> Printf.bprintf b "thunk#%d" (o 0)
    | 105 -> Printf.bprintf b "assign#%d" (o 0)
    | 106 | 107 | 108 | 109 | 110 | 111 | 112 | 113 | 114 | 115 | 116 ->
      Printf.bprintf b "%d" (o 0)
    | 117 | 118 ->
      Printf.bprintf b "%d .%d ic#%d  ; %s.%s" (o 0) (o 1) (o 2)
        (name (o 3)) (name (o 4))
    | 119 -> Printf.bprintf b ".%d" (o 0)
    | 120 | 121 | 122 | 123 | 124 | 125 -> Printf.bprintf b "-> %d" (o 0)
    | 126 | 127 | 128 | 129 | 130 | 131 ->
      Printf.bprintf b "%d -> %d" (o 0) (o 1)
    | 132 -> Printf.bprintf b "%d %+d  ; %s" (o 0) (o 1) (name (o 2))
    | _ -> ());
    Buffer.add_char b '\n';
    pc := !pc + 1 + arity op
  done

let disasm (p : program) : string =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b '\n';
      disasm_fn b f)
    p;
  Buffer.contents b
