(** The unit-record store (paper §4.4's separate-compilation story
    made concrete, one call-graph SCC at a time).

    One file per package, [<cache>/<pkg>.units], holding one record per
    analysis unit (call-graph SCC) of its latest build — everything a
    rebuild needs to skip re-analyzing a unit whose content key is
    unchanged:
    - the extended parameter tags ({!Gofree_escape.Summary.t}) of its
      functions, for callers' IPA;
    - the tcfree insertions ((function, variable, field, kind)) so the
      replay can re-instrument the freshly typechecked bodies;
    - the stack/heap decision per allocation site and the set of boxed
      variables, which the runtime needs and which only the (skipped)
      analysis could otherwise provide.

    Variable and site ids are stored relative to their {e function}'s
    first id: absolute ids shift whenever an upstream package or an
    earlier function changes size, but the relative ids are stable
    because typechecking is deterministic and the unit's key covers its
    bodies.

    The key is {!Gofree_escape.Callgraph.unit_key}: a content hash over
    the unit's bodies and the struct layouts in scope, its out-of-unit
    callees' summary contents and the pipeline configuration. *)

open Minigo
module E = Gofree_escape

(* ---------------------------------------------------------------- *)
(* Serialization                                                     *)
(* ---------------------------------------------------------------- *)

let kind_atom = function
  | Tast.Free_slice -> "slice"
  | Tast.Free_map -> "map"
  | Tast.Free_obj -> "obj"

let kind_of_atom = function
  | "slice" -> Some Tast.Free_slice
  | "map" -> Some Tast.Free_map
  | "obj" -> Some Tast.Free_obj
  | _ -> None

exception Bad of string

(* Bump when the file layout changes: a stale-format file then simply
   misses. *)
let units_format_version = "gofree-units-v2"

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

let unit_record_to_sexp (u : unit_record) : E.Sexp.t =
  let atom s = E.Sexp.Atom s in
  let int n = atom (string_of_int n) in
  E.Sexp.List
    [
      atom "unit";
      E.Sexp.List [ atom "key"; atom u.u_key ];
      E.Sexp.List (atom "funcs" :: List.map atom u.u_funcs);
      E.Sexp.List
        (atom "summaries" :: List.map E.Summary.to_sexp u.u_summaries);
      E.Sexp.List
        (atom "frees"
        :: List.map
             (fun (func, rel, fidx, kind) ->
               E.Sexp.List
                 [ atom "free"; atom func; int rel; int fidx;
                   atom (kind_atom kind) ])
             u.u_frees);
      E.Sexp.List
        (atom "sites"
        :: List.map
             (fun (func, rel, heap) ->
               E.Sexp.List
                 [ atom "site"; atom func; int rel;
                   atom (string_of_bool heap) ])
             u.u_sites);
      E.Sexp.List
        (atom "boxed"
        :: List.map
             (fun (func, rel) ->
               E.Sexp.List [ atom "box"; atom func; int rel ])
             u.u_boxed);
    ]

let unit_record_of_sexp (sx : E.Sexp.t) : (unit_record, string) result =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let int_atom = function
    | E.Sexp.Atom a -> begin
      match int_of_string_opt a with
      | Some n -> n
      | None -> fail "expected an integer, got %s" a
    end
    | E.Sexp.List _ -> fail "expected an integer"
  in
  let str_atom = function
    | E.Sexp.Atom a -> a
    | E.Sexp.List _ -> fail "expected an atom"
  in
  match sx with
  | E.Sexp.List (E.Sexp.Atom "unit" :: fields) -> begin
    let field name =
      List.find_map
        (function
          | E.Sexp.List (E.Sexp.Atom head :: rest) when head = name ->
            Some rest
          | _ -> None)
        fields
    in
    let req name =
      match field name with
      | Some rest -> rest
      | None -> fail "missing (%s ...) in unit" name
    in
    match
      {
        u_key =
          (match req "key" with
          | [ E.Sexp.Atom a ] -> a
          | _ -> fail "malformed (key ...)");
        u_funcs = List.map str_atom (req "funcs");
        u_summaries =
          List.map
            (fun sx ->
              match E.Summary.of_sexp sx with
              | Ok s -> s
              | Error m -> fail "bad summary: %s" m)
            (req "summaries");
        u_frees =
          List.map
            (function
              | E.Sexp.List
                  [ E.Sexp.Atom "free"; E.Sexp.Atom func; rel; fidx;
                    E.Sexp.Atom k ] -> begin
                match kind_of_atom k with
                | Some kind -> (func, int_atom rel, int_atom fidx, kind)
                | None -> fail "bad free kind %s" k
              end
              | _ -> fail "malformed free")
            (req "frees");
        u_sites =
          List.map
            (function
              | E.Sexp.List
                  [ E.Sexp.Atom "site"; E.Sexp.Atom func; rel;
                    E.Sexp.Atom heap ] -> begin
                match bool_of_string_opt heap with
                | Some h -> (func, int_atom rel, h)
                | None -> fail "bad site decision %s" heap
              end
              | _ -> fail "malformed site")
            (req "sites");
        u_boxed =
          List.map
            (function
              | E.Sexp.List [ E.Sexp.Atom "box"; E.Sexp.Atom func; rel ] ->
                (func, int_atom rel)
              | _ -> fail "malformed box")
            (req "boxed");
      }
    with
    | u -> Ok u
    | exception Bad m -> Error m
    | exception Failure m -> Error m
  end
  | _ -> Error "expected (unit ...)"

let units_to_string (records : unit_record list) : string =
  String.concat "\n"
    (E.Sexp.to_string
       (E.Sexp.List
          [ E.Sexp.Atom "format"; E.Sexp.Atom units_format_version ])
    :: List.map
         (fun u -> E.Sexp.to_string (unit_record_to_sexp u))
         records)
  ^ "\n"

let units_of_string (s : string) : (unit_record list, string) result =
  match E.Sexp.of_string_many s with
  | Error m -> Error m
  | Ok [] -> Error "empty unit file"
  | Ok (header :: records) -> begin
    match header with
    | E.Sexp.List [ E.Sexp.Atom "format"; E.Sexp.Atom v ]
      when v = units_format_version -> begin
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | sx :: rest -> begin
          match unit_record_of_sexp sx with
          | Ok u -> parse (u :: acc) rest
          | Error m -> Error m
        end
      in
      parse [] records
    end
    | _ -> Error "stale unit-file format"
  end

(* ---------------------------------------------------------------- *)
(* Files                                                             *)
(* ---------------------------------------------------------------- *)

let units_path ~dir ~pkg = Filename.concat dir (pkg ^ ".units")

(** Replace the package's stored unit records with [records] (the full
    set from the latest analysis, so the file never accumulates dead
    units). *)
let save_units ~dir ~pkg (records : unit_record list) : unit =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = units_path ~dir ~pkg in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (units_to_string records);
  close_out oc;
  Sys.rename tmp path

(** Load a package's unit records; [None] is just "no unit cache". *)
let load_units ~dir ~pkg : unit_record list option =
  let path = units_path ~dir ~pkg in
  if not (Sys.file_exists path) then None
  else begin
    match
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      units_of_string s
    with
    | Ok records -> Some records
    | Error _ -> None
    | exception Sys_error _ -> None
  end
