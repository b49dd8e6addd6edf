(** Seeded inputs of the benchmark.  Everything a workload feeds the
    program is derived here from the benchmark's [--seed]: the program
    sources and their [rand] seeds, the per-pass run order, the build
    tree and its edit sequence.  The same seed gives byte-identical
    inputs; nothing here reads the clock or the environment. *)

module W = Gofree_workloads.Workloads

(* SplitMix64: small, seedable and independent of [Stdlib.Random], whose
   stream may change between compiler releases. *)
type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next r =
  let z = Int64.add r.s 0x9E3779B97F4A7C15L in
  r.s <- z;
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let below r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A stream per purpose, so adding draws to one input never shifts
   another. *)
let stream ~seed purpose = rng ((seed * 1_000_003) + purpose)

(* ---------------------------------------------------------------- *)
(* Programs run by the exec and fanout-2d workloads                  *)
(* ---------------------------------------------------------------- *)

type program = {
  name : string;
  source : string;
  run_seed : int64;  (** seed of the program's [rand] builtin *)
}

(** Percent of each Table 6 proxy's default size run by [exec]: large
    enough that every program still collects several times under the
    96 KiB first-GC threshold, small enough for 100+ runs per
    measurement. *)
let exec_scale = 25

let exec_programs ~seed =
  let r = stream ~seed 1 in
  List.map
    (fun (w : W.t) ->
      {
        name = w.W.w_name;
        source =
          W.source_of ~size:(max 10 (w.W.w_default_size * exec_scale / 100)) w;
        run_seed = next r;
      })
    W.all

(** Run order of [passes] round-robin passes over [n] programs: each
    pass runs every program once, in a seeded order. *)
let exec_order ~seed ~n ~passes =
  let r = stream ~seed 2 in
  Array.concat
    (List.init passes (fun _ ->
         let a = Array.init n Fun.id in
         shuffle r a;
         a))

let fanout_size = 10

let fanout_program ~seed =
  {
    name = "fanout";
    source = W.source_of ~size:fanout_size W.fanout;
    run_seed = next (stream ~seed 3);
  }

(* ---------------------------------------------------------------- *)
(* The build tree                                                    *)
(* ---------------------------------------------------------------- *)

(** Size of the generated package standing in for §6.7's "compile the
    ssa package": [ssa_funcs] functions of about [ssa_stmts]
    statements each, in a deep call DAG. *)
let ssa_funcs = 120

let ssa_stmts = 24

let ssa_file = Filename.concat "ssa" "ssa.go"

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace_first: " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

(** The ssa package source: a {!Gofree_workloads.Progen.package} whose
    [main] becomes an exported entry point, so it loads as a library
    package of the tree. *)
let ssa_source ~seed =
  let src =
    Gofree_workloads.Progen.package
      ~seed:(next (stream ~seed 4))
      ~funcs:ssa_funcs ~stmts:ssa_stmts ()
  in
  "package ssa\n\n" ^ replace_first ~sub:"func main() {" ~by:"func Run() {" src

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** Files of the build tree, relative path → source: the repository's
    [examples/multipkg] packages (read from [multipkg_dir]) plus the
    seeded ssa package. *)
let build_tree ~multipkg_dir ~seed =
  let mp rel = (rel, read_file (Filename.concat multipkg_dir rel)) in
  [
    mp "main.go";
    mp (Filename.concat "util" "util.go");
    mp (Filename.concat "data" "data.go");
    (ssa_file, ssa_source ~seed);
  ]

(* ---------------------------------------------------------------- *)
(* The one-function edit                                             *)
(* ---------------------------------------------------------------- *)

let pad = [ "\tpad9 := 0"; "\tpad9 = pad9" ]

let is_header fname line =
  let needle = "func " ^ fname ^ "(" in
  String.length line >= String.length needle
  && String.sub line 0 (String.length needle) = needle

(** Toggle a no-op statement pair at the top of [fname]'s body: the
    typed body, and so the function's analysis-unit key, changes; its
    escape summary does not, so exactly one unit re-solves. *)
let toggle_pad src fname =
  let rec go acc = function
    | [] -> invalid_arg ("toggle_pad: no function " ^ fname)
    | l :: a :: b :: rest when is_header fname l && [ a; b ] = pad ->
      List.rev_append acc (l :: rest)
    | l :: rest when is_header fname l -> List.rev_append acc ((l :: pad) @ rest)
    | l :: rest -> go (l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' src))

(** The first [n] functions of the ssa package to edit, in a seeded
    order.  A longer sequence extends a shorter one, so a run can draw
    as many edits as its time allows. *)
let edit_sequence ~seed ~n =
  let r = stream ~seed 5 in
  List.init n (fun _ -> Printf.sprintf "fn%d" (below r ssa_funcs))
