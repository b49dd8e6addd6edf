(** Runtime values of MiniGo and their payload representation inside the
    simulated heap.

    Mutable storage comes in two shapes.  A slice's backing array is one
    flat [value array] shared by every slice header that views it, so
    [make], [append] growth and [copy] allocate one host block per
    backing array, not one per element.  Everything else that is
    addressable — frame slots, 1-cell boxes ([new], [&T{...}], escaping
    variables) and struct fields — is a {!cell}.  A pointer names either
    a cell or an element (array, index), plus the address of the heap
    object that owns it, so the GC can keep the owner alive while the
    interpreter mutates the storage directly.  Struct values are cell
    arrays copied on assignment (Go value semantics); slice values are
    headers (backing-array address + elements + view) copied freely while
    sharing the backing store.

    Strings are modelled as static immutable data (no heap object): GoFree
    never frees strings, and the paper's reclaim comes from slices and
    maps, so this keeps the value model small without changing any
    measured behaviour (recorded as a substitution in DESIGN.md). *)

type cell = { mutable v : value }

and value =
  | VUnit
  | VInt of int
  | VFloat of float
  | VBool of bool
  | VStr of string
  | VNil
  | VPtr of ptr
  | VSlice of slice
  | VMap of int  (** address of the map header object *)
  | VStruct of cell array
  | VTuple of value list
  | VPoison  (** contents of mock-freed memory (§6.8) *)

(* [owner] is the heap/stack object owning the storage; 0 = frame slot *)
and ptr =
  | Pcell of { owner : int; cell : cell }
      (** a frame slot, a 1-cell box or a struct field *)
  | Pelem of { owner : int; arr : value array; idx : int }
      (** element [idx] of a slice backing array *)

and slice = {
  s_addr : int;  (** backing-array object *)
  s_elems : value array;  (** the shared backing array *)
  s_off : int;  (** view offset into the backing array *)
  s_len : int;  (** view length; capacity = Array.length s_elems − s_off *)
}

type map_data = {
  mutable md_buckets : int;  (** address of the buckets object *)
  mutable md_nbuckets : int;
  mutable md_count : int;
  md_entry_size : int;  (** key + value bytes, from the allocation site *)
  mutable md_version : int;
      (** bumped on every store/delete/grow/free — the shape check that
          invalidates the bytecode engine's map-site inline caches.
          Purely an interpreter-side fast-path guard: no allocator or GC
          behaviour reads it *)
}

(** Heap payloads carrying interpreter values. *)
type Gofree_runtime.Heap.payload +=
  | Pelems of value array  (** slice backing array *)
  | Pbox of cell  (** 1-cell box: [new], [&T{...}], escaping variable *)
  | Pmap of map_data
  | Pbuckets of (value * value) list array

exception Corruption of string
    (** read of poisoned memory: a wrong explicit free was observed *)

let cell v = { v }

(* Shared boxes for small ints.  [VInt] is immutable and compared
   structurally everywhere (maps, ==, caches), so one box can appear in
   any number of cells; loop counters and small lengths dominate cell
   stores, and reusing their boxes keeps those stores off the OCaml
   allocator. *)
let small_ints = Array.init 1024 (fun i -> VInt i)

let vint n =
  if n >= 0 && n < 1024 then Array.unsafe_get small_ints n else VInt n

let read_cell c =
  match c.v with
  | VPoison -> raise (Corruption "read of freed memory")
  | v -> v

let read_elem (arr : value array) i =
  match arr.(i) with
  | VPoison -> raise (Corruption "read of freed memory")
  | v -> v

let ptr_owner = function Pcell { owner; _ } | Pelem { owner; _ } -> owner

let ptr_get = function
  | Pcell { cell; _ } -> read_cell cell
  | Pelem { arr; idx; _ } -> read_elem arr idx

let ptr_set p v =
  match p with
  | Pcell { cell; _ } -> cell.v <- v
  | Pelem { arr; idx; _ } -> arr.(idx) <- v

let ptr_equal a b =
  match (a, b) with
  | Pcell x, Pcell y -> x.cell == y.cell
  | Pelem x, Pelem y -> x.arr == y.arr && x.idx = y.idx
  | _ -> false

(** Deep-copy for assignment: struct values copy their cells; everything
    else has reference or immutable semantics. *)
let rec copy = function
  | VStruct cells -> VStruct (Array.map (fun c -> cell (copy c.v)) cells)
  | ( VUnit | VInt _ | VFloat _ | VBool _ | VStr _ | VNil | VPtr _
    | VSlice _ | VMap _ | VTuple _ | VPoison ) as v ->
    v

(** Zero value of a type (Go semantics). *)
let rec zero (tenv : Minigo.Types.env) (ty : Minigo.Types.t) : value =
  match ty with
  | Minigo.Types.Int -> VInt 0
  | Minigo.Types.Float -> VFloat 0.0
  | Minigo.Types.Bool -> VBool false
  | Minigo.Types.String -> VStr ""
  | Minigo.Types.Ptr _ | Minigo.Types.Slice _ | Minigo.Types.Map _ -> VNil
  | Minigo.Types.Struct name ->
    VStruct
      (Array.of_list
         (List.map
            (fun (_, fty) -> cell (zero tenv fty))
            (Minigo.Types.struct_fields tenv name)))
  | Minigo.Types.Tuple _ | Minigo.Types.Unit | Minigo.Types.Nil -> VUnit

(** Enumerate the heap addresses a value references (GC tracing). *)
let rec trace (v : value) (k : int -> unit) =
  match v with
  | VStr _ | VUnit | VInt _ | VFloat _ | VBool _ | VNil | VPoison -> ()
  | VPtr p ->
    let owner = ptr_owner p in
    if owner > 0 then k owner
    (* owner 0: pointer to a frame slot; the frame is scanned as a root *)
  | VSlice s -> if s.s_addr > 0 then k s.s_addr
  | VMap addr -> if addr > 0 then k addr
  | VStruct cells -> Array.iter (fun c -> trace c.v k) cells
  | VTuple vs -> List.iter (fun v -> trace v k) vs

(** Payload tracer registered with the heap. *)
let trace_payload (p : Gofree_runtime.Heap.payload) (k : int -> unit) =
  match p with
  | Pelems elems -> Array.iter (fun v -> trace v k) elems
  | Pbox c -> trace c.v k
  | Pmap md -> if md.md_buckets > 0 then k md.md_buckets
  | Pbuckets buckets ->
    Array.iter
      (fun entries ->
        List.iter
          (fun (key, v) ->
            trace key k;
            trace v k)
          entries)
      buckets
  | _ -> ()

(* A struct value owns its field cells (assignment copies them), and a
   field pointer ([&o.f], [&a[i].f]) holds one of those cells: poison
   them all, nested structs included. *)
let rec poison_fields = function
  | VStruct cells ->
    Array.iter
      (fun c ->
        poison_fields c.v;
        c.v <- VPoison)
      cells
  | _ -> ()

(** Poison-mode payload corruption (§6.8's bit-flipping mock, made
    deterministic): every element or cell the payload owns becomes
    [VPoison], down to the field cells of struct values, so any read
    through a stale reference raises {!Corruption} instead of silently
    yielding the old data. *)
let poison_payload (p : Gofree_runtime.Heap.payload) =
  match p with
  | Pelems elems ->
    Array.iter poison_fields elems;
    Array.fill elems 0 (Array.length elems) VPoison
  | Pbox c ->
    poison_fields c.v;
    c.v <- VPoison
  | Pbuckets buckets ->
    Array.iteri (fun i _ -> buckets.(i) <- [ (VPoison, VPoison) ]) buckets
  | Pmap md ->
    md.md_buckets <- -1;
    md.md_count <- -1;
    md.md_version <- md.md_version + 1
  | _ -> ()

(* Structural equality for map keys and '=='. *)
let equal_key a b =
  match (a, b) with
  | VInt x, VInt y -> x = y
  | VStr x, VStr y -> String.equal x y
  | VBool x, VBool y -> x = y
  | VFloat x, VFloat y -> x = y
  | _ -> false

let hash_key = function
  | VInt n -> Hashtbl.hash n
  | VStr s -> Hashtbl.hash s
  | VBool b -> Hashtbl.hash b
  | VFloat f -> Hashtbl.hash f
  | _ -> 0

(** Deterministic textual form for println (pointer addresses are hidden
    so output is identical across Go/GoFree settings). *)
let rec to_string = function
  | VUnit -> "()"
  | VInt n -> string_of_int n
  | VFloat f -> Printf.sprintf "%g" f
  | VBool b -> string_of_bool b
  | VStr s -> s
  | VNil -> "<nil>"
  | VPtr _ -> "<ptr>"
  | VSlice s ->
    let elems =
      List.init s.s_len (fun i ->
          to_string (read_elem s.s_elems (s.s_off + i)))
    in
    "[" ^ String.concat " " elems ^ "]"
  | VMap _ -> "map"
  | VStruct cells ->
    let fields =
      Array.to_list
        (Array.map (fun c -> to_string (read_cell c)) cells)
    in
    "{" ^ String.concat " " fields ^ "}"
  | VTuple vs -> String.concat ", " (List.map to_string vs)
  | VPoison -> raise (Corruption "print of freed memory")
