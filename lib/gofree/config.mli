(** GoFree pipeline configuration; the defaults match the paper's shipped
    system (§6.5: slices and maps only, IPA on, map-growth freeing on).
    The {!precision} record carries the opt-in precision modes layered on
    top of the paper's analysis. *)

type free_targets =
  | Slices_and_maps  (** the paper's choice (§6.5) *)
  | All_pointers  (** also free [new]/[&T{}] objects (ablation) *)

type free_placement =
  | Scope_exit  (** the paper's placement (§5) *)
  | Last_use  (** free after the last syntactic use / local alias use *)

type precision = {
  field_sensitive : bool;
      (** per-field points-to/escape facts for one-hop field projections *)
  placement : free_placement;
}

type t = {
  insert_tcfree : bool;  (** [false] reproduces stock Go *)
  targets : free_targets;
  ipa : bool;  (** extended parameter tags (§4.4) *)
  backprop : bool;
      (** fig. 5 lines 10–13; disabling is unsound — robustness ablation
          only *)
  precision : precision;
}

(** The paper's precision: field-insensitive, scope-exit placement. *)
val baseline_precision : precision

(** Both precision upgrades on. *)
val precise_precision : precision

(** The paper's configuration. *)
val gofree : t

val placement_str : free_placement -> string

val placement_of_string : string -> free_placement option

(** Canonical cache-key signature in [cfg-v2;key=value;...] form
    (exhaustive over the record: adding a config field without extending
    it is a compile error, not a silent cache-aliasing bug).  Used by
    the analysis-unit keys and the daemon's resident caches. *)
val signature : t -> string

(** Stock Go: no tcfree insertion. *)
val go : t

val all_targets : t

val no_ipa : t

val unsound_no_backprop : t

(** Field-sensitive escape tracking only. *)
val field_sensitive : t

(** Last-use free placement only. *)
val last_use : t

(** Both precision upgrades ({!field_sensitive} + {!last_use}). *)
val precise : t
