(** Unit-record store: per package, one record per analysis unit
    (call-graph SCC) holding its serialized extended parameter tags plus
    the recorded instrumentation and stack/heap decisions, keyed by the
    unit's content hash (paper §4.4's separate compilation, one SCC at a
    time).  Variable/site ids are relative to their {e function}'s first
    id, so they survive other functions and packages changing size. *)

open Minigo
module E := Gofree_escape

type unit_record = {
  u_key : string;  (** {!Gofree_escape.Callgraph.unit_key} content key *)
  u_funcs : string list;  (** the unit's functions, unit order *)
  u_summaries : E.Summary.t list;
      (** extended parameter tags; empty when the build ran without IPA *)
  u_frees : (string * int * int * Tast.free_kind) list;
      (** inserted tcfrees: function, function-relative var id, field
          index ([-1] for a whole-variable free), kind *)
  u_sites : (string * int * bool) list;
      (** function, function-relative site id, heap decision *)
  u_boxed : (string * int) list;
      (** boxed variables: function, function-relative var id *)
}

val units_to_string : unit_record list -> string

val units_of_string : string -> (unit_record list, string) result

val units_path : dir:string -> pkg:string -> string

(** Replace the package's stored unit records with the latest full set. *)
val save_units : dir:string -> pkg:string -> unit_record list -> unit

(** [None] is just "no unit cache for the package". *)
val load_units : dir:string -> pkg:string -> unit_record list option
