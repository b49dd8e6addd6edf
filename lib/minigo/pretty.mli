(** Pretty-printer for the typed AST; shows inserted tcfree calls with an
    [// inserted] marker.

    The printed text of a function is also the body text an analysis
    unit's cache key digests ([Gofree_escape.Callgraph]): any change to
    the output, even whitespace, moves every unit key.  Such a change
    must bump the key version in [Callgraph.unit_key] and regenerate
    both goldens of [test/test_keys.ml] ([test/golden/pretty_all.txt]
    and [test/golden/units/]). *)

val free_kind_str : Tast.free_kind -> string

(** [add_func b f] appends the text of [f] to [b]. *)
val add_func : Buffer.t -> Tast.func -> unit

val func_to_string : Tast.func -> string

(** Every function's text, each followed by a blank line. *)
val program_to_string : Tast.program -> string
