(** The bytecode dispatch loop: the third execution engine.

    Each call runs one flat [int array] ({!Bytecode.fn}) over two
    operand stacks — boxed values and unboxed native ints (MiniGo ints
    and bools), so hot arithmetic/compare/branch sequences never touch
    the OCaml allocator.  Map-key and struct-field sites carry
    monomorphic inline caches; a map-site hit returns the same physical
    value a full lookup would find, guarded by the header address
    (never reused) and [md_version] (bumped on every
    store/delete/grow/free).  A same-map different-key miss still skips
    both heap-object lookups by probing the cached bucket array
    directly.

    The dispatch loop is registerized: the program counter and both
    stack pointers are parameters of a self-tail-recursive top-level
    function, so they live in registers and every opcode ends in a jump
    rather than a call; stack and code accesses are unchecked.  That is
    safe because the emitter precomputes exact operand-stack bounds
    ([bf_max_v]/[bf_max_i]) and every jump operand is a patched label —
    invariants the differential suite exercises end to end.  Everything
    else the loop needs travels in one mutable {!regs} record, the only
    allocation a call makes beyond the shared frame: the operand stacks
    themselves are LIFO windows carved out of per-goroutine pooled
    arrays ([g_stk_v]/[g_stk_i]).  Calls within a goroutine are
    strictly LIFO even across yields, and the windows are dead at every
    safepoint and invisible to the simulated GC, so pooling cannot
    change observable behaviour.

    Every opcode's implementation follows the reference walker's case
    for it in {!Interp} and calls the same shared {!Interp} helpers in
    the same order, so allocation counts, free attempts, GC cycle points
    and scheduler interleavings are bit-identical across both engines.
    The opcode numbering is frozen in {!Bytecode}; the literal patterns
    below must stay in sync. *)

open Minigo
module B = Bytecode
module Rt = Gofree_runtime

open Interp

(* Everything the dispatch loop needs besides pc and the two stack
   pointers.  One of these is the only per-call allocation. *)
type regs = {
  x_f : B.fn;
  x_st : state;
  x_fr : frame;
  x_code : int array;
  x_stk_v : Value.value array;  (* this call's window of g_stk_v *)
  x_stk_i : int array;  (* this call's window of g_stk_i *)
  x_slots : binding array;
  mutable x_scopes : int;  (* open lexical scopes, for the unwind path *)
  mutable x_iters : Value.value list list;
      (* active range-loop key iterators, innermost first *)
}

let unbound_local (r : regs) nidx =
  raise (Runtime_error ("unbound variable " ^ r.x_f.B.bf_names.(nidx)))

let unbound_global (r : regs) nidx =
  raise (Runtime_error ("unbound global " ^ r.x_f.B.bf_names.(nidx)))

(* The rare tail of {!Interp.safepoint}, reached only when one of the
   fast-path guards fired; [st.steps] has already been incremented and
   the frame's temps cleared.  The shared slow path also handles the
   multi-domain stop-the-world handshake. *)
let safepoint_slow (r : regs) = Interp.safepoint_slow r.x_st

(* {!Interp.safepoint}, inlined for the dispatch loop: during a VM
   body the innermost frame of the current goroutine is [r.x_fr], so
   the [cur_frame] list walk is unnecessary.  The common step touches
   three fields and falls through. *)
let vm_safepoint (r : regs) =
  let st = r.x_st in
  let steps = st.steps + 1 in
  st.steps <- steps;
  r.x_fr.temps <- [];
  let heap = st.heap in
  if
    steps >= st.yield_at || Atomic.get heap.Rt.Heap.gc_requested
    || heap.Rt.Heap.sampler != None
    || steps > st.config.max_steps
  then safepoint_slow r

(* The n values most recently pushed, oldest first. *)
let popped (stk_v : Value.value array) sp_v n =
  let rec build i acc =
    if i < sp_v - n then acc
    else build (i - 1) (Array.unsafe_get stk_v i :: acc)
  in
  build (sp_v - 1) []

(* The value behind a pointer, poison included: for the fast paths that
   match [VPoison] themselves.  An element index was bounds-checked when
   the pointer was made, and backing arrays never shrink. *)
let[@inline] ptr_peek = function
  | Value.Pcell { cell; _ } -> cell.Value.v
  | Value.Pelem { arr; idx; _ } -> Array.unsafe_get arr idx

(* Shared by the three index opcodes: the full base match of the
   reference walker, yielding the element value. *)
let index_value (va : Value.value) (vi : int) : Value.value =
  match va with
  | Value.VSlice s ->
    if vi < 0 || vi >= s.Value.s_len then
      raise (Panic (Value.VStr "index out of range"));
    Value.read_elem s.Value.s_elems (s.Value.s_off + vi)
  | Value.VStr s ->
    if vi < 0 || vi >= String.length s then
      raise (Panic (Value.VStr "index out of range"));
    Value.vint (Char.code s.[vi])
  | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
  | _ -> raise (Runtime_error "cannot index this value")

(* Shared by the three field opcodes: base normalization (implicit
   pointer dereference), the struct-shape inline-cache bookkeeping, and
   the field read. *)
let field_value (r : regs) (va : Value.value) fidx cidx nidx : Value.value =
  let shape, base =
    match va with
    | Value.VPtr p -> (2, Value.ptr_get p)
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | v -> (1, v)
  in
  match base with
  | Value.VStruct cells ->
    let st = r.x_st in
    let c = r.x_f.B.bf_caches.(cidx) in
    if c.B.c_a = shape then st.ic_hits <- st.ic_hits + 1
    else begin
      st.ic_misses <- st.ic_misses + 1;
      c.B.c_a <- shape
    end;
    Value.read_cell cells.(fidx)
  | _ ->
    raise
      (Runtime_error
         ("field access ." ^ r.x_f.B.bf_names.(nidx) ^ " on non-struct"))

(* Shared by the three map-get opcodes.  The inline cache caches the
   map's identity (header address, version, bucket array) plus one
   present (key, value) pair per site.  A hit needs the same header
   address, an unchanged version and an equal key, and yields the
   cached value — the identical physical value the bucket search would
   find (map reads never allocate, so no heap event is skipped).  When
   the map matches but the key differs, the cached bucket array is by
   construction the map's current one, so the probe runs on it directly
   and skips the header and buckets object lookups.  Absent keys never
   populate the (key, value) pair: their zero value is freshly made per
   read. *)
let rec bucket_probe vk entries =
  match entries with
  | [] -> None
  | (k, v) :: rest ->
    if Value.equal_key k vk then Some v else bucket_probe vk rest

let mapget_value (r : regs) (vm : Value.value) (vk : Value.value) zidx cidx :
    Value.value =
  match vm with
  | Value.VMap addr ->
    let st = r.x_st in
    let c = r.x_f.B.bf_caches.(cidx) in
    (* one pointer load = one coherent snapshot, even when goroutines
       on other domains are racing to repopulate this site *)
    let e = c.B.c_e in
    if e.B.ce_a = addr && e.B.ce_ver = e.B.ce_md.Value.md_version then begin
      if Value.equal_key vk e.B.ce_key then begin
        st.ic_hits <- st.ic_hits + 1;
        e.B.ce_val
      end
      else begin
        st.ic_misses <- st.ic_misses + 1;
        (* same map, same version: probe the cached buckets directly *)
        let idx =
          Value.hash_key vk land max_int mod e.B.ce_md.Value.md_nbuckets
        in
        match bucket_probe vk e.B.ce_b.(idx) with
        | Some v ->
          c.B.c_e <- { e with B.ce_key = vk; ce_val = v };
          v
        | None -> r.x_f.B.bf_zeros.(zidx) ()
      end
    end
    else begin
      st.ic_misses <- st.ic_misses + 1;
      (* the same probe + bucket search as Interp.map_get *)
      let md, buckets = Interp.map_data st addr in
      let idx = Value.hash_key vk land max_int mod md.Value.md_nbuckets in
      let fill ~key ~v =
        c.B.c_e <-
          { B.ce_a = addr; ce_md = md; ce_ver = md.Value.md_version;
            ce_key = key; ce_val = v; ce_b = buckets }
      in
      match bucket_probe vk buckets.(idx) with
      | Some v ->
        fill ~key:vk ~v;
        v
      | None ->
        (* remember the map but no pair; VUnit never equals a key *)
        fill ~key:Value.VUnit ~v:Value.VUnit;
        r.x_f.B.bf_zeros.(zidx) ()
    end
  | Value.VNil -> r.x_f.B.bf_zeros.(zidx) ()
  | _ -> raise (Runtime_error "not a map")

let rec loop (r : regs) pc sp_v sp_i =
  let code = r.x_code in
  let stk_v = r.x_stk_v in
  let stk_i = r.x_stk_i in
  match Array.unsafe_get code pc with
  | 0 (* halt *) -> ()
  | 1 (* safepoint *) ->
    vm_safepoint r;
    loop r (pc + 1) sp_v sp_i
  | 2 (* jmp *) -> loop r (Array.unsafe_get code (pc + 1)) sp_v sp_i
  | 3 (* jmpifnot *) ->
    if Array.unsafe_get stk_i (sp_i - 1) = 0 then
      loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 1)
    else loop r (pc + 2) sp_v (sp_i - 1)
  | 4 (* jmpif *) ->
    if Array.unsafe_get stk_i (sp_i - 1) <> 0 then
      loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 1)
    else loop r (pc + 2) sp_v (sp_i - 1)
  | 5 (* push_scope *) ->
    ignore (push_scope r.x_st r.x_fr);
    r.x_scopes <- r.x_scopes + 1;
    loop r (pc + 1) sp_v sp_i
  | 6 (* pop_scope *) ->
    pop_scope r.x_st r.x_fr;
    r.x_scopes <- r.x_scopes - 1;
    loop r (pc + 1) sp_v sp_i
  | 7 (* ret *) ->
    raise (Return_values (popped stk_v sp_v (Array.unsafe_get code (pc + 1))))
  | 8 (* iconst *) ->
    Array.unsafe_set stk_i sp_i (Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v (sp_i + 1)
  | 9 (* const *) ->
    Array.unsafe_set stk_v sp_v
      r.x_f.B.bf_consts.(Array.unsafe_get code (pc + 1));
    loop r (pc + 2) (sp_v + 1) sp_i
  | 10 (* iload *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match c.Value.v with
      | Value.VInt n -> Array.unsafe_set stk_i sp_i n
      | _ -> Array.unsafe_set stk_i sp_i (as_int (Value.read_cell c)));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 11 (* bload *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match c.Value.v with
      | Value.VBool b -> Array.unsafe_set stk_i sp_i (if b then 1 else 0)
      | _ ->
        Array.unsafe_set stk_i sp_i
          (if truthy (Value.read_cell c) then 1 else 0));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 12 (* vload *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (* Value.read_cell, inlined *)
      (match c.Value.v with
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_v sp_v v);
      loop r (pc + 3) (sp_v + 1) sp_i
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 13 (* giload *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match c.Value.v with
      | Value.VInt n -> Array.unsafe_set stk_i sp_i n
      | _ -> Array.unsafe_set stk_i sp_i (as_int (Value.read_cell c)));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 14 (* gbload *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match c.Value.v with
      | Value.VBool b -> Array.unsafe_set stk_i sp_i (if b then 1 else 0)
      | _ ->
        Array.unsafe_set stk_i sp_i
          (if truthy (Value.read_cell c) then 1 else 0));
      loop r (pc + 3) sp_v (sp_i + 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 15 (* gvload *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match c.Value.v with
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_v sp_v v);
      loop r (pc + 3) (sp_v + 1) sp_i
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 16 (* box_i *) ->
    Array.unsafe_set stk_v sp_v
      (Value.vint (Array.unsafe_get stk_i (sp_i - 1)));
    loop r (pc + 1) (sp_v + 1) (sp_i - 1)
  | 17 (* box_b *) ->
    Array.unsafe_set stk_v sp_v
      (Value.VBool (Array.unsafe_get stk_i (sp_i - 1) <> 0));
    loop r (pc + 1) (sp_v + 1) (sp_i - 1)
  | 18 (* unbox_i *) ->
    Array.unsafe_set stk_i sp_i (as_int (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 19 (* unbox_b *) ->
    Array.unsafe_set stk_i sp_i
      (if truthy (Array.unsafe_get stk_v (sp_v - 1)) then 1 else 0);
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 20 (* copy *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (Value.copy (Array.unsafe_get stk_v (sp_v - 1)));
    loop r (pc + 1) sp_v sp_i
  | 21 (* pop_v *) -> loop r (pc + 1) (sp_v - 1) sp_i
  | 22 (* pop_i *) -> loop r (pc + 1) sp_v (sp_i - 1)
  | 23 (* add_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) + Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 24 (* sub_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) - Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 25 (* mul_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) * Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 26 (* div_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 2) (Array.unsafe_get stk_i (sp_i - 2) / b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 27 (* mod_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2) mod b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 28 (* and_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2)
      land Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 29 (* or_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2)
      lor Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 30 (* xor_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (Array.unsafe_get stk_i (sp_i - 2)
      lxor Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 31 (* shl_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b < 0 then raise (Panic (Value.VStr "negative shift amount"));
    Array.unsafe_set stk_i (sp_i - 2)
      (if b >= 63 then 0 else Array.unsafe_get stk_i (sp_i - 2) lsl b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 32 (* shr_i *) ->
    let b = Array.unsafe_get stk_i (sp_i - 1) in
    if b < 0 then raise (Panic (Value.VStr "negative shift amount"));
    Array.unsafe_set stk_i (sp_i - 2)
      (if b >= 63 then 0 else Array.unsafe_get stk_i (sp_i - 2) asr b);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 33 (* neg_i *) ->
    Array.unsafe_set stk_i (sp_i - 1) (-Array.unsafe_get stk_i (sp_i - 1));
    loop r (pc + 1) sp_v sp_i
  | 34 (* lt_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if Array.unsafe_get stk_i (sp_i - 2) < Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 35 (* le_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if
         Array.unsafe_get stk_i (sp_i - 2)
         <= Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 36 (* gt_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if Array.unsafe_get stk_i (sp_i - 2) > Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 37 (* ge_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if
         Array.unsafe_get stk_i (sp_i - 2)
         >= Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 38 (* eq_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if Array.unsafe_get stk_i (sp_i - 2) = Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 39 (* ne_i *) ->
    Array.unsafe_set stk_i (sp_i - 2)
      (if
         Array.unsafe_get stk_i (sp_i - 2)
         <> Array.unsafe_get stk_i (sp_i - 1)
       then 1
       else 0);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 40 (* not_b *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) lxor 1);
    loop r (pc + 1) sp_v sp_i
  | 41 (* binop *) ->
    let vb = Array.unsafe_get stk_v (sp_v - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 2) in
    Array.unsafe_set stk_v (sp_v - 2)
      (eval_binop r.x_f.B.bf_binops.(Array.unsafe_get code (pc + 1)) va vb);
    loop r (pc + 2) (sp_v - 1) sp_i
  | 42 (* neg_v *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VInt n -> Array.unsafe_set stk_v (sp_v - 1) (Value.VInt (-n))
    | Value.VFloat x -> Array.unsafe_set stk_v (sp_v - 1) (Value.VFloat (-.x))
    | _ -> raise (Runtime_error "cannot negate"));
    loop r (pc + 1) sp_v sp_i
  | 43 (* decl *) ->
    r.x_f.B.bf_decls.(Array.unsafe_get code (pc + 1)) r.x_st r.x_fr
      (Array.unsafe_get stk_v (sp_v - 1));
    loop r (pc + 2) (sp_v - 1) sp_i
  | 44 (* decl_zero *) ->
    r.x_f.B.bf_decls.(Array.unsafe_get code (pc + 1)) r.x_st r.x_fr
      (r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 2)) ());
    loop r (pc + 3) sp_v sp_i
  | 45 (* store_slot *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      c.Value.v <- Value.copy (Array.unsafe_get stk_v (sp_v - 1));
      loop r (pc + 3) (sp_v - 1) sp_i
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 46 (* store_gslot *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      c.Value.v <- Value.copy (Array.unsafe_get stk_v (sp_v - 1));
      loop r (pc + 3) (sp_v - 1) sp_i
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 47 (* store_slot_i *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      c.Value.v <- Value.vint (Array.unsafe_get stk_i (sp_i - 1));
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 48 (* store_gslot_i *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      c.Value.v <- Value.vint (Array.unsafe_get stk_i (sp_i - 1));
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 49 (* store_slot_b *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      c.Value.v <- Value.VBool (Array.unsafe_get stk_i (sp_i - 1) <> 0);
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2))
  end
  | 50 (* store_gslot_b *) -> begin
    match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      c.Value.v <- Value.VBool (Array.unsafe_get stk_i (sp_i - 1) <> 0);
      loop r (pc + 3) sp_v (sp_i - 1)
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2))
  end
  | 51 (* store_deref *) ->
    let p = Array.unsafe_get stk_v (sp_v - 1) in
    let v = Array.unsafe_get stk_v (sp_v - 2) in
    (match p with
    | Value.VPtr p -> Value.ptr_set p (Value.copy v)
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "assignment through non-pointer"));
    loop r (pc + 1) (sp_v - 2) sp_i
  | 52 (* store_index *) ->
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    let v = Array.unsafe_get stk_v (sp_v - 2) in
    (match va with
    | Value.VSlice s ->
      if vi < 0 || vi >= s.Value.s_len then
        raise (Panic (Value.VStr "index out of range"));
      s.Value.s_elems.(s.Value.s_off + vi) <- Value.copy v
    | Value.VNil -> raise (Panic (Value.VStr "index of nil slice"))
    | _ -> raise (Runtime_error "cannot assign into this value"));
    loop r (pc + 1) (sp_v - 2) (sp_i - 1)
  | 53 (* store_map *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    let v = Array.unsafe_get stk_v (sp_v - 3) in
    (match vm with
    | Value.VMap addr -> map_store r.x_st addr vk (Value.copy v)
    | Value.VNil -> raise (Panic (Value.VStr "assignment to entry in nil map"))
    | _ -> raise (Runtime_error "not a map"));
    loop r (pc + 1) (sp_v - 3) sp_i
  | 54 (* store_thru *) ->
    let p = Array.unsafe_get stk_v (sp_v - 1) in
    let v = Array.unsafe_get stk_v (sp_v - 2) in
    (match p with
    | Value.VPtr p -> Value.ptr_set p (Value.copy v)
    | _ -> raise (Runtime_error "bad field target"));
    loop r (pc + 1) (sp_v - 2) sp_i
  | 55 (* index_v *) ->
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    Array.unsafe_set stk_v (sp_v - 1) (index_value va vi);
    loop r (pc + 1) sp_v (sp_i - 1)
  | 56 (* index_i *) ->
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    (* the common case inlined: int element of a live slice *)
    (match va with
    | Value.VSlice s when vi >= 0 && vi < s.Value.s_len -> begin
      match Array.unsafe_get s.Value.s_elems (s.Value.s_off + vi) with
      | Value.VInt n -> Array.unsafe_set stk_i (sp_i - 1) n
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_i (sp_i - 1) (as_int v)
    end
    | Value.VStr s when vi >= 0 && vi < String.length s ->
      (* byte of a string, sans the boxed VInt the generic path makes *)
      Array.unsafe_set stk_i (sp_i - 1) (Char.code (String.unsafe_get s vi))
    | _ -> Array.unsafe_set stk_i (sp_i - 1) (as_int (index_value va vi)));
    loop r (pc + 1) (sp_v - 1) sp_i
  | 57 (* index_b *) ->
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    Array.unsafe_set stk_i (sp_i - 1)
      (if truthy (index_value va vi) then 1 else 0);
    loop r (pc + 1) (sp_v - 1) sp_i
  | 58 (* field_v *) -> begin
    (* field_value, inlined for the two cached shapes *)
    match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p -> begin
      match ptr_peek p with
      | Value.VStruct cells ->
        let st = r.x_st in
        let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
        if c.B.c_a = 2 then st.ic_hits <- st.ic_hits + 1
        else begin
          st.ic_misses <- st.ic_misses + 1;
          c.B.c_a <- 2
        end;
        (match cells.(Array.unsafe_get code (pc + 1)).Value.v with
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | v -> Array.unsafe_set stk_v (sp_v - 1) v);
        loop r (pc + 4) sp_v sp_i
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | _ ->
        raise
          (Runtime_error
             ("field access ."
             ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 3))
             ^ " on non-struct"))
    end
    | Value.VStruct cells ->
      let st = r.x_st in
      let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
      if c.B.c_a = 1 then st.ic_hits <- st.ic_hits + 1
      else begin
        st.ic_misses <- st.ic_misses + 1;
        c.B.c_a <- 1
      end;
      (match cells.(Array.unsafe_get code (pc + 1)).Value.v with
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_v (sp_v - 1) v);
      loop r (pc + 4) sp_v sp_i
    | va ->
      Array.unsafe_set stk_v (sp_v - 1)
        (field_value r va
           (Array.unsafe_get code (pc + 1))
           (Array.unsafe_get code (pc + 2))
           (Array.unsafe_get code (pc + 3)));
      loop r (pc + 4) sp_v sp_i
  end
  | 59 (* field_i *) -> begin
    match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p -> begin
      match ptr_peek p with
      | Value.VStruct cells ->
        let st = r.x_st in
        let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
        if c.B.c_a = 2 then st.ic_hits <- st.ic_hits + 1
        else begin
          st.ic_misses <- st.ic_misses + 1;
          c.B.c_a <- 2
        end;
        (match cells.(Array.unsafe_get code (pc + 1)).Value.v with
        | Value.VInt n -> Array.unsafe_set stk_i sp_i n
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | v -> Array.unsafe_set stk_i sp_i (as_int v));
        loop r (pc + 4) (sp_v - 1) (sp_i + 1)
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | _ ->
        raise
          (Runtime_error
             ("field access ."
             ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 3))
             ^ " on non-struct"))
    end
    | Value.VStruct cells ->
      let st = r.x_st in
      let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 2)) in
      if c.B.c_a = 1 then st.ic_hits <- st.ic_hits + 1
      else begin
        st.ic_misses <- st.ic_misses + 1;
        c.B.c_a <- 1
      end;
      (match cells.(Array.unsafe_get code (pc + 1)).Value.v with
      | Value.VInt n -> Array.unsafe_set stk_i sp_i n
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | v -> Array.unsafe_set stk_i sp_i (as_int v));
      loop r (pc + 4) (sp_v - 1) (sp_i + 1)
    | va ->
      Array.unsafe_set stk_i sp_i
        (as_int
           (field_value r va
              (Array.unsafe_get code (pc + 1))
              (Array.unsafe_get code (pc + 2))
              (Array.unsafe_get code (pc + 3))));
      loop r (pc + 4) (sp_v - 1) (sp_i + 1)
  end
  | 60 (* field_b *) ->
    let va = Array.unsafe_get stk_v (sp_v - 1) in
    Array.unsafe_set stk_i sp_i
      (if
         truthy
           (field_value r va
              (Array.unsafe_get code (pc + 1))
              (Array.unsafe_get code (pc + 2))
              (Array.unsafe_get code (pc + 3)))
       then 1
       else 0);
    loop r (pc + 4) (sp_v - 1) (sp_i + 1)
  | 61 (* mapget_v *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    Array.unsafe_set stk_v (sp_v - 2)
      (mapget_value r vm vk
         (Array.unsafe_get code (pc + 1))
         (Array.unsafe_get code (pc + 2)));
    loop r (pc + 3) (sp_v - 1) sp_i
  | 62 (* mapget_i *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    Array.unsafe_set stk_i sp_i
      (as_int
         (mapget_value r vm vk
            (Array.unsafe_get code (pc + 1))
            (Array.unsafe_get code (pc + 2))));
    loop r (pc + 3) (sp_v - 2) (sp_i + 1)
  | 63 (* mapget_b *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    Array.unsafe_set stk_i sp_i
      (if
         truthy
           (mapget_value r vm vk
              (Array.unsafe_get code (pc + 1))
              (Array.unsafe_get code (pc + 2)))
       then 1
       else 0);
    loop r (pc + 3) (sp_v - 2) (sp_i + 1)
  | 64 (* mapget_ok *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    let zidx = Array.unsafe_get code (pc + 1) in
    let res =
      match vm with
      | Value.VMap addr ->
        let present = ref true in
        let v =
          map_get r.x_st addr vk ~zero:(fun () ->
              present := false;
              r.x_f.B.bf_zeros.(zidx) ())
        in
        Value.VTuple [ v; Value.VBool !present ]
      | Value.VNil ->
        Value.VTuple [ r.x_f.B.bf_zeros.(zidx) (); Value.VBool false ]
      | _ -> raise (Runtime_error "not a map")
    in
    Array.unsafe_set stk_v (sp_v - 2) res;
    loop r (pc + 2) (sp_v - 1) sp_i
  | 65 (* len *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VSlice s -> Array.unsafe_set stk_i sp_i s.Value.s_len
    | Value.VStr s -> Array.unsafe_set stk_i sp_i (String.length s)
    | Value.VMap addr -> Array.unsafe_set stk_i sp_i (map_len r.x_st addr)
    | Value.VNil -> Array.unsafe_set stk_i sp_i 0
    | _ -> raise (Runtime_error "len of unsupported value"));
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 66 (* cap *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VSlice s ->
      Array.unsafe_set stk_i sp_i
        (Array.length s.Value.s_elems - s.Value.s_off)
    | Value.VNil -> Array.unsafe_set stk_i sp_i 0
    | _ -> raise (Runtime_error "cap of unsupported value"));
    loop r (pc + 1) (sp_v - 1) (sp_i + 1)
  | 67 (* itoa *) ->
    Array.unsafe_set stk_v sp_v
      (Value.VStr (string_of_int (Array.unsafe_get stk_i (sp_i - 1))));
    loop r (pc + 1) (sp_v + 1) (sp_i - 1)
  | 68 (* rand *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (rand_int r.x_st (Array.unsafe_get stk_i (sp_i - 1)));
    loop r (pc + 1) sp_v sp_i
  | 69 (* substr *) ->
    let hi = Array.unsafe_get stk_i (sp_i - 1) in
    let lo = Array.unsafe_get stk_i (sp_i - 2) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VStr s ->
      if lo < 0 || hi > String.length s || lo > hi then
        raise (Panic (Value.VStr "substr out of range"))
      else
        Array.unsafe_set stk_v (sp_v - 1)
          (Value.VStr (String.sub s lo (hi - lo)))
    | _ -> raise (Runtime_error "substr on non-string"));
    loop r (pc + 1) sp_v (sp_i - 2)
  | 70 (* slice_sub *) ->
    let flags = Array.unsafe_get code (pc + 1) in
    let npop = (flags land 1) + ((flags land 2) lsr 1) in
    let chi =
      if flags land 2 <> 0 then Some (Array.unsafe_get stk_i (sp_i - 1))
      else None
    in
    let clo =
      if flags land 1 <> 0 then Some (Array.unsafe_get stk_i (sp_i - npop))
      else None
    in
    let base = Array.unsafe_get stk_v (sp_v - 1) in
    let bound default = function Some n -> n | None -> default in
    let res =
      match base with
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
      | _ -> raise (Runtime_error "slice of unsupported value")
    in
    Array.unsafe_set stk_v (sp_v - 1) res;
    loop r (pc + 2) sp_v (sp_i - npop)
  | 71 (* slice_copy *) ->
    let vs = Array.unsafe_get stk_v (sp_v - 1) in
    let vd = Array.unsafe_get stk_v (sp_v - 2) in
    let n =
      match (vd, vs) with
      | Value.VSlice d, Value.VSlice s -> slice_copy d s
      | Value.VNil, _ | _, Value.VNil -> 0
      | _ -> raise (Runtime_error "copy on non-slices")
    in
    Array.unsafe_set stk_i sp_i n;
    loop r (pc + 1) (sp_v - 2) (sp_i + 1)
  | 72 (* deref *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p ->
      Array.unsafe_set stk_v (sp_v - 1) (Value.ptr_get p)
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "dereference of a non-pointer"));
    loop r (pc + 1) sp_v sp_i
  | 73 (* call *) ->
    let fid = Array.unsafe_get code (pc + 1) in
    let n = Array.unsafe_get code (pc + 2) in
    let args = popped stk_v sp_v n in
    let st = r.x_st in
    let res =
      match st.dispatch st fid args with
      | [] -> Value.VUnit
      | [ v ] -> pin st r.x_fr v
      | vs -> pin st r.x_fr (Value.VTuple vs)
    in
    Array.unsafe_set stk_v (sp_v - n) res;
    loop r (pc + 3) (sp_v - n + 1) sp_i
  | 74 (* call_undef *) ->
    raise
      (Runtime_error
         ("undefined function "
         ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 1))))
  | 75 (* go *) ->
    let fid = Array.unsafe_get code (pc + 1) in
    let n = Array.unsafe_get code (pc + 2) in
    spawn_goroutine r.x_st fid (popped stk_v sp_v n);
    loop r (pc + 3) (sp_v - n) sp_i
  | 76 (* go_undef *) ->
    raise
      (Runtime_error
         ("undefined function "
         ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 1))))
  | 77 (* defer *) ->
    let fid = Array.unsafe_get code (pc + 1) in
    let n = Array.unsafe_get code (pc + 2) in
    r.x_fr.defers <- (fid, popped stk_v sp_v n) :: r.x_fr.defers;
    loop r (pc + 3) (sp_v - n) sp_i
  | 78 (* defer_undef *) ->
    raise
      (Runtime_error
         ("undefined function "
         ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 1))))
  | 79 (* check_len *) ->
    if Array.unsafe_get stk_i (sp_i - 1) < 0 then
      raise (Panic (Value.VStr "makeslice: negative length"));
    loop r (pc + 1) sp_v sp_i
  | 80 (* make_slice *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let zero_of = r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 2)) in
    let has_cap = Array.unsafe_get code (pc + 3) = 1 in
    let npop = if has_cap then 2 else 1 in
    let len = Array.unsafe_get stk_i (sp_i - npop) in
    let cap = if has_cap then Array.unsafe_get stk_i (sp_i - 1) else len in
    Array.unsafe_set stk_v sp_v
      (make_slice_obj r.x_st r.x_fr ~site ~len ~cap ~zero_of);
    loop r (pc + 4) (sp_v + 1) (sp_i - npop)
  | 81 (* make_map *) ->
    Array.unsafe_set stk_v sp_v
      (make_map_obj r.x_st r.x_fr
         ~site:r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)));
    loop r (pc + 2) (sp_v + 1) sp_i
  | 82 (* new *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let c =
      Value.cell (r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 2)) ())
    in
    let obj =
      alloc_obj r.x_st r.x_fr ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pbox c)
    in
    Array.unsafe_set stk_v sp_v
      (pin r.x_st r.x_fr
         (Value.VPtr (Value.Pcell { owner = obj.Rt.Heap.addr; cell = c })));
    loop r (pc + 3) (sp_v + 1) sp_i
  | 83 (* slice_lit *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    Array.unsafe_set stk_v (sp_v - n)
      (slice_lit r.x_st r.x_fr ~site (popped stk_v sp_v n));
    loop r (pc + 3) (sp_v - n + 1) sp_i
  | 84 (* struct_lit *) ->
    let n = Array.unsafe_get code (pc + 1) in
    Array.unsafe_set stk_v (sp_v - n)
      (Value.VStruct
         (Array.of_list (List.map Value.cell (popped stk_v sp_v n))));
    loop r (pc + 2) (sp_v - n + 1) sp_i
  | 85 (* addr_struct_lit *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    let v =
      Value.VStruct
        (Array.of_list (List.map Value.cell (popped stk_v sp_v n)))
    in
    let c = Value.cell v in
    let obj =
      alloc_obj r.x_st r.x_fr ~site ~category:Rt.Metrics.Cat_other
        ~size:(max 8 site.Tast.site_elem_size)
        ~payload:(Value.Pbox c)
    in
    Array.unsafe_set stk_v (sp_v - n)
      (pin r.x_st r.x_fr
         (Value.VPtr (Value.Pcell { owner = obj.Rt.Heap.addr; cell = c })));
    loop r (pc + 3) (sp_v - n + 1) sp_i
  | 86 (* append *) ->
    let site = r.x_f.B.bf_sites.(Array.unsafe_get code (pc + 1)) in
    let n = Array.unsafe_get code (pc + 2) in
    let zero_of = r.x_f.B.bf_zeros.(Array.unsafe_get code (pc + 3)) in
    let elems = popped stk_v sp_v n in
    let base = Array.unsafe_get stk_v (sp_v - n - 1) in
    Array.unsafe_set stk_v (sp_v - n - 1)
      (eval_append r.x_st r.x_fr ~site ~zero_of base elems);
    loop r (pc + 4) (sp_v - n) sp_i
  | 87 (* addr_slot *) ->
    (match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.Pcell { owner = 0; cell = c }))
    | Bboxed (addr, c) ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.Pcell { owner = addr; cell = c }))
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 2)));
    loop r (pc + 3) (sp_v + 1) sp_i
  | 88 (* addr_gslot *) ->
    (match Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1)) with
    | Bdirect c ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.Pcell { owner = 0; cell = c }))
    | Bboxed (addr, c) ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.Pcell { owner = addr; cell = c }))
    | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 2)));
    loop r (pc + 3) (sp_v + 1) sp_i
  | 89 (* addr_index *) ->
    let vi = Array.unsafe_get stk_i (sp_i - 1) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VSlice s ->
      if vi < 0 || vi >= s.Value.s_len then
        raise (Panic (Value.VStr "index out of range"));
      Array.unsafe_set stk_v (sp_v - 1)
        (Value.VPtr
           (Value.Pelem
              { owner = s.Value.s_addr; arr = s.Value.s_elems;
                idx = s.Value.s_off + vi }))
    | _ -> raise (Runtime_error "cannot take address of this element"));
    loop r (pc + 1) sp_v (sp_i - 1)
  | 90 (* addr_field_ptr *) ->
    let fidx = Array.unsafe_get code (pc + 1) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p -> begin
      match Value.ptr_get p with
      | Value.VStruct cells ->
        Array.unsafe_set stk_v (sp_v - 1)
          (Value.VPtr
             (Value.Pcell { owner = Value.ptr_owner p; cell = cells.(fidx) }))
      | _ -> raise (Runtime_error "field of non-struct")
    end
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "field of non-pointer"));
    loop r (pc + 2) sp_v sp_i
  | 91 (* addr_field_slot *) ->
    let fidx = Array.unsafe_get code (pc + 2) in
    let c, owner =
      match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
      | Bdirect c -> (c, 0)
      | Bboxed (addr, c) -> (c, addr)
      | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 3))
    in
    (match Value.read_cell c with
    | Value.VStruct cells ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.Pcell { owner; cell = cells.(fidx) }))
    | _ -> raise (Runtime_error "field of non-struct"));
    loop r (pc + 4) (sp_v + 1) sp_i
  | 92 (* addr_field_gslot *) ->
    let fidx = Array.unsafe_get code (pc + 2) in
    let c, owner =
      match
        Array.unsafe_get r.x_st.globals (Array.unsafe_get code (pc + 1))
      with
      | Bdirect c -> (c, 0)
      | Bboxed (addr, c) -> (c, addr)
      | Bunbound -> unbound_global r (Array.unsafe_get code (pc + 3))
    in
    (match Value.read_cell c with
    | Value.VStruct cells ->
      Array.unsafe_set stk_v sp_v
        (Value.VPtr (Value.Pcell { owner; cell = cells.(fidx) }))
    | _ -> raise (Runtime_error "field of non-struct"));
    loop r (pc + 4) (sp_v + 1) sp_i
  | 93 (* tuple_check *) ->
    let n = Array.unsafe_get code (pc + 1) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VTuple vs when List.length vs = n -> ()
    | _ ->
      raise
        (Runtime_error
           (if Array.unsafe_get code (pc + 2) = 0 then
              "multi-value declaration mismatch"
            else "multi-value assignment mismatch")));
    loop r (pc + 3) sp_v sp_i
  | 94 (* tuple_get *) ->
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VTuple vs ->
      Array.unsafe_set stk_v sp_v
        (List.nth vs (Array.unsafe_get code (pc + 1)))
    | _ -> raise (Runtime_error "expected a tuple"));
    loop r (pc + 2) (sp_v + 1) sp_i
  | 95 (* print *) ->
    let n = Array.unsafe_get code (pc + 1) in
    let parts = List.map Value.to_string (popped stk_v sp_v n) in
    Interp.emit_str r.x_st (String.concat " " parts ^ "\n");
    loop r (pc + 2) (sp_v - n) sp_i
  | 96 (* tostr *) ->
    Array.unsafe_set stk_v (sp_v - 1)
      (Value.VStr (Value.to_string (Array.unsafe_get stk_v (sp_v - 1))));
    loop r (pc + 1) sp_v sp_i
  | 97 (* tcfree *) ->
    let s = Array.unsafe_get code (pc + 1) in
    let kind =
      match Array.unsafe_get code (pc + 2) with
      | 0 -> Tast.Free_slice
      | 1 -> Tast.Free_map
      | _ -> Tast.Free_obj
    in
    (match r.x_slots.(s) with
    | Bunbound -> ()  (* declaration never executed on this path *)
    | b -> tcfree_binding r.x_st b kind);
    loop r (pc + 3) sp_v sp_i
  | 98 (* delete *) ->
    let vk = Array.unsafe_get stk_v (sp_v - 1) in
    let vm = Array.unsafe_get stk_v (sp_v - 2) in
    (match vm with
    | Value.VMap addr -> map_delete r.x_st addr vk
    | Value.VNil -> ()
    | _ -> raise (Runtime_error "delete on non-map"));
    loop r (pc + 1) (sp_v - 2) sp_i
  | 99 (* panic *) -> raise (Panic (Array.unsafe_get stk_v (sp_v - 1)))
  | 100 (* recover *) ->
    (match r.x_st.unwinding with
    | Some v ->
      r.x_st.unwinding <- None;
      Array.unsafe_set stk_v sp_v (Value.VStr (Value.to_string v))
    | None -> Array.unsafe_set stk_v sp_v (Value.VStr ""));
    loop r (pc + 1) (sp_v + 1) sp_i
  | 101 (* range_start *) -> begin
    match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VMap addr ->
      r.x_iters <- map_range_keys r.x_st addr :: r.x_iters;
      loop r (pc + 2) (sp_v - 1) sp_i
    | Value.VNil -> loop r (Array.unsafe_get code (pc + 1)) (sp_v - 1) sp_i
    | _ -> raise (Runtime_error "range over non-map")
  end
  | 102 (* range_next *) -> begin
    match r.x_iters with
    | keys :: outer -> begin
      match keys with
      | [] ->
        r.x_iters <- outer;
        loop r (Array.unsafe_get code (pc + 2)) sp_v sp_i
      | key :: rest ->
        r.x_iters <- rest :: outer;
        vm_safepoint r;
        r.x_f.B.bf_decls.(Array.unsafe_get code (pc + 1)) r.x_st r.x_fr
          (Value.copy key);
        loop r (pc + 3) sp_v sp_i
    end
    | [] -> raise (Runtime_error "vm: range_next without iterator")
  end
  | 103 (* range_pop *) ->
    r.x_iters <- List.tl r.x_iters;
    loop r (pc + 1) sp_v sp_i
  | 104 (* thunk_v *) ->
    Array.unsafe_set stk_v sp_v
      (r.x_f.B.bf_thunks.(Array.unsafe_get code (pc + 1)) r.x_st r.x_fr);
    loop r (pc + 2) (sp_v + 1) sp_i
  | 105 (* assign_thunk *) ->
    r.x_f.B.bf_assigns.(Array.unsafe_get code (pc + 1)) r.x_st r.x_fr
      (Array.unsafe_get stk_v (sp_v - 1));
    loop r (pc + 2) (sp_v - 1) sp_i
  (* Superinstructions.  Each case is the literal composition of its
     unfused expansion above — same evaluation order, same panics. *)
  | 106 (* addk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) + Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 107 (* subk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) - Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 108 (* mulk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) * Array.unsafe_get code (pc + 1));
    loop r (pc + 2) sp_v sp_i
  | 109 (* divk_i *) ->
    let b = Array.unsafe_get code (pc + 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 1) (Array.unsafe_get stk_i (sp_i - 1) / b);
    loop r (pc + 2) sp_v sp_i
  | 110 (* modk_i *) ->
    let b = Array.unsafe_get code (pc + 1) in
    if b = 0 then raise (Panic (Value.VStr "integer divide by zero"));
    Array.unsafe_set stk_i (sp_i - 1)
      (Array.unsafe_get stk_i (sp_i - 1) mod b);
    loop r (pc + 2) sp_v sp_i
  | 111 (* ltk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (if Array.unsafe_get stk_i (sp_i - 1) < Array.unsafe_get code (pc + 1)
       then 1
       else 0);
    loop r (pc + 2) sp_v sp_i
  | 112 (* lek_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (if Array.unsafe_get stk_i (sp_i - 1) <= Array.unsafe_get code (pc + 1)
       then 1
       else 0);
    loop r (pc + 2) sp_v sp_i
  | 113 (* gtk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (if Array.unsafe_get stk_i (sp_i - 1) > Array.unsafe_get code (pc + 1)
       then 1
       else 0);
    loop r (pc + 2) sp_v sp_i
  | 114 (* gek_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (if Array.unsafe_get stk_i (sp_i - 1) >= Array.unsafe_get code (pc + 1)
       then 1
       else 0);
    loop r (pc + 2) sp_v sp_i
  | 115 (* eqk_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (if Array.unsafe_get stk_i (sp_i - 1) = Array.unsafe_get code (pc + 1)
       then 1
       else 0);
    loop r (pc + 2) sp_v sp_i
  | 116 (* nek_i *) ->
    Array.unsafe_set stk_i (sp_i - 1)
      (if Array.unsafe_get stk_i (sp_i - 1) <> Array.unsafe_get code (pc + 1)
       then 1
       else 0);
    loop r (pc + 2) sp_v sp_i
  | 117 (* sfield_v = vload; field_v *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) -> begin
      match c.Value.v with
      | Value.VPtr p -> begin
        match ptr_peek p with
        | Value.VStruct cells ->
          let st = r.x_st in
          let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 3)) in
          if c.B.c_a = 2 then st.ic_hits <- st.ic_hits + 1
          else begin
            st.ic_misses <- st.ic_misses + 1;
            c.B.c_a <- 2
          end;
          (match cells.(Array.unsafe_get code (pc + 2)).Value.v with
          | Value.VPoison -> raise (Value.Corruption "read of freed memory")
          | v -> Array.unsafe_set stk_v sp_v v);
          loop r (pc + 6) (sp_v + 1) sp_i
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | _ ->
          raise
            (Runtime_error
               ("field access ."
               ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 5))
               ^ " on non-struct"))
      end
      | Value.VStruct cells ->
        let st = r.x_st in
        let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 3)) in
        if c.B.c_a = 1 then st.ic_hits <- st.ic_hits + 1
        else begin
          st.ic_misses <- st.ic_misses + 1;
          c.B.c_a <- 1
        end;
        (match cells.(Array.unsafe_get code (pc + 2)).Value.v with
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | v -> Array.unsafe_set stk_v sp_v v);
        loop r (pc + 6) (sp_v + 1) sp_i
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | va ->
        Array.unsafe_set stk_v sp_v
          (field_value r va
             (Array.unsafe_get code (pc + 2))
             (Array.unsafe_get code (pc + 3))
             (Array.unsafe_get code (pc + 5)));
        loop r (pc + 6) (sp_v + 1) sp_i
    end
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 4))
  end
  | 118 (* sfield_i = vload; field_i *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) -> begin
      match c.Value.v with
      | Value.VPtr p -> begin
        match ptr_peek p with
        | Value.VStruct cells ->
          let st = r.x_st in
          let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 3)) in
          if c.B.c_a = 2 then st.ic_hits <- st.ic_hits + 1
          else begin
            st.ic_misses <- st.ic_misses + 1;
            c.B.c_a <- 2
          end;
          (match cells.(Array.unsafe_get code (pc + 2)).Value.v with
          | Value.VInt n -> Array.unsafe_set stk_i sp_i n
          | Value.VPoison -> raise (Value.Corruption "read of freed memory")
          | v -> Array.unsafe_set stk_i sp_i (as_int v));
          loop r (pc + 6) sp_v (sp_i + 1)
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | _ ->
          raise
            (Runtime_error
               ("field access ."
               ^ r.x_f.B.bf_names.(Array.unsafe_get code (pc + 5))
               ^ " on non-struct"))
      end
      | Value.VStruct cells ->
        let st = r.x_st in
        let c = r.x_f.B.bf_caches.(Array.unsafe_get code (pc + 3)) in
        if c.B.c_a = 1 then st.ic_hits <- st.ic_hits + 1
        else begin
          st.ic_misses <- st.ic_misses + 1;
          c.B.c_a <- 1
        end;
        (match cells.(Array.unsafe_get code (pc + 2)).Value.v with
        | Value.VInt n -> Array.unsafe_set stk_i sp_i n
        | Value.VPoison -> raise (Value.Corruption "read of freed memory")
        | v -> Array.unsafe_set stk_i sp_i (as_int v));
        loop r (pc + 6) sp_v (sp_i + 1)
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | va ->
        Array.unsafe_set stk_i sp_i
          (as_int
             (field_value r va
                (Array.unsafe_get code (pc + 2))
                (Array.unsafe_get code (pc + 3))
                (Array.unsafe_get code (pc + 5))));
        loop r (pc + 6) sp_v (sp_i + 1)
    end
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 4))
  end
  | 119 (* fstore_i = addr_field_ptr; store_thru, value from I *) ->
    let fidx = Array.unsafe_get code (pc + 1) in
    (match Array.unsafe_get stk_v (sp_v - 1) with
    | Value.VPtr p -> begin
      match ptr_peek p with
      | Value.VStruct cells ->
        cells.(fidx).Value.v <-
          Value.vint (Array.unsafe_get stk_i (sp_i - 1))
      | Value.VPoison -> raise (Value.Corruption "read of freed memory")
      | _ -> raise (Runtime_error "field of non-struct")
    end
    | Value.VNil -> raise (Panic (Value.VStr "nil pointer dereference"))
    | _ -> raise (Runtime_error "field of non-pointer"));
    loop r (pc + 2) (sp_v - 1) (sp_i - 1)
  | 120 (* jlt_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) < Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 121 (* jle_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) <= Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 122 (* jgt_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) > Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 123 (* jge_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) >= Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 124 (* jeq_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) = Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 125 (* jne_not *) ->
    if Array.unsafe_get stk_i (sp_i - 2) <> Array.unsafe_get stk_i (sp_i - 1)
    then loop r (pc + 2) sp_v (sp_i - 2)
    else loop r (Array.unsafe_get code (pc + 1)) sp_v (sp_i - 2)
  | 126 (* jltk_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) < Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 127 (* jlek_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) <= Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 128 (* jgtk_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) > Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 129 (* jgek_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) >= Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 130 (* jeqk_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) = Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 131 (* jnek_not *) ->
    if Array.unsafe_get stk_i (sp_i - 1) <> Array.unsafe_get code (pc + 1)
    then loop r (pc + 3) sp_v (sp_i - 1)
    else loop r (Array.unsafe_get code (pc + 2)) sp_v (sp_i - 1)
  | 132 (* iinc = iload; addk_i; store_slot_i, same slot *) -> begin
    match Array.unsafe_get r.x_slots (Array.unsafe_get code (pc + 1)) with
    | Bdirect c | Bboxed (_, c) ->
      (match c.Value.v with
      | Value.VInt n ->
        c.Value.v <- Value.vint (n + Array.unsafe_get code (pc + 2))
      | _ ->
        c.Value.v <-
          Value.VInt
            (as_int (Value.read_cell c) + Array.unsafe_get code (pc + 2)));
      loop r (pc + 4) sp_v sp_i
    | Bunbound -> unbound_local r (Array.unsafe_get code (pc + 3))
  end
  | op -> raise (Runtime_error ("vm: bad opcode " ^ string_of_int op))

let exec (f : B.fn) (st : state) (fr : frame) : unit =
  let g = st.current in
  (* Acquire LIFO windows from the goroutine's pooled operand stacks.
     On growth the array is replaced without copying: outer calls keep
     their windows in the old array (kept alive by their own [regs]),
     and LIFO order guarantees none of them runs again until every call
     using the replacement has released it. *)
  let need_v = f.B.bf_max_v in
  let base_v =
    if g.g_top_v + need_v <= Array.length g.g_stk_v then g.g_top_v
    else begin
      let len = max (2 * Array.length g.g_stk_v) (max (2 * need_v) 64) in
      g.g_stk_v <- Array.make len Value.VUnit;
      0
    end
  in
  g.g_top_v <- base_v + need_v;
  let need_i = f.B.bf_max_i in
  let base_i =
    if g.g_top_i + need_i <= Array.length g.g_stk_i then g.g_top_i
    else begin
      let len = max (2 * Array.length g.g_stk_i) (max (2 * need_i) 64) in
      g.g_stk_i <- Array.make len 0;
      0
    end
  in
  g.g_top_i <- base_i + need_i;
  let r =
    {
      x_f = f;
      x_st = st;
      x_fr = fr;
      x_code = f.B.bf_code;
      x_stk_v = g.g_stk_v;
      x_stk_i = g.g_stk_i;
      x_slots = fr.slots;
      x_scopes = 0;
      x_iters = [];
    }
  in
  (try loop r 0 base_v base_i
   with e ->
     (* release open scopes innermost-first, exactly like the reference
        walker's nested per-block handlers, before the exception reaches
        call_fn (whose defers must see the blocks already dead) *)
     while r.x_scopes > 0 do
       pop_scope st fr;
       r.x_scopes <- r.x_scopes - 1
     done;
     g.g_top_v <- base_v;
     g.g_top_i <- base_i;
     raise e);
  g.g_top_v <- base_v;
  g.g_top_i <- base_i

(** A dispatch function executing bytecode bodies, suitable for
    [state.dispatch].  Body closures are built once per function here
    rather than per call. *)
let dispatch (prog : B.program) :
    state -> int -> Value.value list -> Value.value list =
  let bodies = Array.map (fun f -> exec f) prog in
  fun st fid args ->
    let f = prog.(fid) in
    call_fn st f.B.bf_fn ~nslots:f.B.bf_nslots ~bind:f.B.bf_bind
      ~body:(Array.unsafe_get bodies fid) ~zeros:f.B.bf_zeros_ret args

(** Point [state.dispatch] at the bytecode. *)
let install (st : state) (prog : B.program) = st.dispatch <- dispatch prog
