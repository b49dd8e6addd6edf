(** Call-graph condensation into analysis units: SCCs with a dependency
    DAG (reverse topological order, callees first) and content keys for
    function-granular caching.  Tarjan runs on an explicit stack, so
    pathologically deep call chains cannot overflow the OCaml stack. *)

open Minigo

type unit_def = {
  u_id : int;  (** index into the reverse-topological unit array *)
  u_funcs : Tast.func list;  (** the SCC, in Tarjan discovery order *)
  u_deps : int list;  (** units this unit calls into; always [< u_id] *)
  u_dependents : int list;  (** units calling into this one *)
  u_body_hash : string;
      (** digest of [structs ^ "\000" ^ f1 ^ "\000" ^ ...]: one digest
          of every struct layout in [tenv], then the unit's functions as
          {!Minigo.Pretty.func_to_string} prints them, in unit order *)
  u_callees : string list;
      (** sorted distinct out-of-unit callee names (imported/external
          included) — the summary inputs of the unit *)
}

type t = {
  cg_units : unit_def array;  (** reverse topological order *)
  cg_unit_of : (string, int) Hashtbl.t;  (** function name → unit id *)
}

(** Callee names reachable from a function body (including go/defer). *)
val callees_of : Tast.func -> string list

(** Strongly connected components, callees first (iterative Tarjan). *)
val condense : Tast.func list -> Tast.func list list

(** Condense [funcs] into units; the layouts of all of [tenv]'s structs
    (imported ones included) are folded into each unit's body hash.
    Walks each body's callees once and prints each unit's text into one
    reused buffer, digested once. *)
val build : tenv:Types.env -> Tast.func list -> t

(** Names of the unit's functions, in unit order. *)
val unit_names : unit_def -> string list

(** Content key of a unit: digest over the configuration signature, the
    analysis-mode signature, the unit's body hash and every out-of-unit
    callee's summary {e content} ([callee_summary name = None] stands
    for the conservative default tag).  Equal keys guarantee equal
    analysis results for the unit. *)
val unit_key :
  config_sig:string ->
  mode_sig:string ->
  callee_summary:(string -> string option) ->
  unit_def ->
  string
