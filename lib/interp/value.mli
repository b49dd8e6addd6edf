(** Runtime values of MiniGo and their payload representation inside the
    simulated heap.

    A slice's backing array is one flat [value array]; every other piece
    of mutable storage (frame slot, 1-cell box, struct field) is a
    {!cell}.  A pointer names a cell or a backing-array element together
    with the address of its owning object, so the GC can keep the owner
    alive while the interpreter mutates the storage directly. *)

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
  | VStruct of cell array  (** value semantics: copied on assignment *)
  | VTuple of value list  (** multi-value call result *)
  | VPoison  (** contents of mock-freed memory (§6.8) *)

(* [owner] is the heap/stack object owning the storage; 0 = frame slot *)
and ptr =
  | Pcell of { owner : int; cell : cell }
      (** a frame slot, a 1-cell box or a struct field *)
  | Pelem of { owner : int; arr : value array; idx : int }
      (** element [idx] of a slice backing array *)

and slice = {
  s_addr : int;  (** backing-array object *)
  s_elems : value array;  (** shared backing store *)
  s_off : int;  (** view offset into the backing array *)
  s_len : int;  (** view length; capacity = Array.length s_elems − s_off *)
}

type map_data = {
  mutable md_buckets : int;
  mutable md_nbuckets : int;
  mutable md_count : int;
  md_entry_size : int;
  mutable md_version : int;
      (** bumped on every store/delete/grow/free; invalidates the
          bytecode engine's map-site inline caches *)
}

type Gofree_runtime.Heap.payload +=
  | Pelems of value array  (** slice backing array *)
  | Pbox of cell  (** 1-cell box: [new], [&T{...}], escaping variable *)
  | Pmap of map_data
  | Pbuckets of (value * value) list array

exception Corruption of string
(** read of poisoned memory: a wrong explicit free was observed *)

val cell : value -> cell

(** [VInt n], from a shared pool of boxes when [n] is small.  [VInt] is
    immutable and compared structurally everywhere, so sharing is
    invisible; small ints dominate cell stores. *)
val vint : int -> value

(** Read a cell; raises {!Corruption} on poison. *)
val read_cell : cell -> value

(** Read a backing-array element; raises {!Corruption} on poison. *)
val read_elem : value array -> int -> value

(** The object owning a pointer's storage (0 = frame slot). *)
val ptr_owner : ptr -> int

(** Read through a pointer; raises {!Corruption} on poison. *)
val ptr_get : ptr -> value

val ptr_set : ptr -> value -> unit

(** Pointer identity: the same cell, or the same element of the same
    backing array. *)
val ptr_equal : ptr -> ptr -> bool

(** Assignment copy: deep for struct values, identity otherwise. *)
val copy : value -> value

(** Zero value of a type (Go semantics). *)
val zero : Minigo.Types.env -> Minigo.Types.t -> value

(** Heap addresses referenced by a value (GC tracing). *)
val trace : value -> (int -> unit) -> unit

(** Payload tracer registered with the heap. *)
val trace_payload : Gofree_runtime.Heap.payload -> (int -> unit) -> unit

(** Poison-mode payload corruption: every owned element or cell becomes
    [VPoison], including the field cells of struct values. *)
val poison_payload : Gofree_runtime.Heap.payload -> unit

(** Structural equality for map keys. *)
val equal_key : value -> value -> bool

val hash_key : value -> int

(** Deterministic textual form for [println] (addresses hidden so output
    is identical across compiler settings). *)
val to_string : value -> string
