(** Differential tests for function-granular incremental analysis: a
    warm rebuild after editing one function must re-solve only that
    function's analysis unit (call-graph SCC) and still produce results
    byte-identical to a cold build of the edited tree — tcfree
    insertions, program output and the runtime metrics JSON.  Also the
    iterative-Tarjan stress tests (10k-deep chains must not overflow
    the stack) and the unit-record store round-trips. *)

open Minigo
module B = Gofree_build
module E = Gofree_escape

(* ---------------------------------------------------------------- *)
(* Temporary package trees                                           *)
(* ---------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let tree_counter = ref 0

let write_file path src =
  let oc = open_out_bin path in
  output_string oc src;
  close_out oc

(** Create a fresh directory holding [files] (relative path → source). *)
let make_tree files =
  incr tree_counter;
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-incr-test-%d-%d" (Unix.getpid ())
         !tree_counter)
  in
  mkdir_p root;
  List.iter
    (fun (rel, src) ->
      let path = Filename.concat root rel in
      mkdir_p (Filename.dirname path);
      write_file path src)
    files;
  root

(* The same three-package program as examples/multipkg: util (4 funcs,
   one private) ← data (2 funcs) ← main. *)

let util_src =
  {|package util

func Sum(xs []int) int {
	s := 0
	for i := range xs {
		s = s + xs[i]
	}
	return s
}

func MakeRange(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

func scale(x int, k int) int {
	return x * k
}

func Scale(xs []int, k int) []int {
	ys := make([]int, len(xs))
	for i := range xs {
		ys[i] = scale(xs[i], k)
	}
	return ys
}
|}

let data_src =
  {|package data

import "util"

type Point struct {
	X int
	Y int
}

func Centroid(ps []Point) Point {
	n := len(ps)
	if n == 0 {
		return Point{}
	}
	sx := 0
	sy := 0
	for i := range ps {
		sx = sx + ps[i].X
		sy = sy + ps[i].Y
	}
	return Point{X: sx / n, Y: sy / n}
}

func Grid(n int) []Point {
	xs := util.MakeRange(n)
	ps := make([]Point, n)
	total := util.Sum(xs)
	for i := range ps {
		ps[i] = Point{X: xs[i], Y: total}
	}
	return ps
}
|}

let main_src =
  {|package main

import (
	"util"
	"data"
)

func main() {
	xs := util.MakeRange(16)
	ys := util.Scale(xs, 3)
	total := util.Sum(ys)
	ps := data.Grid(8)
	c := data.Centroid(ps)
	println("total", total)
	println("centroid", c.X, c.Y)
}
|}

let tree_files =
  [
    ("util/util.go", util_src);
    ("data/data.go", data_src);
    ("main.go", main_src);
  ]

(* ---------------------------------------------------------------- *)
(* Source edits                                                      *)
(* ---------------------------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** Insert a semantics-preserving pad statement at the top of [fname]'s
    body.  The typed body changes (new unit content key) but the
    function's summary — and so every dependent's key — does not. *)
let edit_func src fname =
  let needle = "func " ^ fname ^ "(" in
  let rec go acc = function
    | [] -> Alcotest.failf "edit_func: no function %s" fname
    | l :: rest when starts_with ~prefix:needle l ->
      List.rev_append acc (l :: "\tpad9 := 0" :: "\tpad9 = pad9" :: rest)
    | l :: rest -> go (l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' src))

let copy_edit files rel fname =
  List.map
    (fun (r, s) -> if r = rel then (r, edit_func s fname) else (r, s))
    files

let unit_counts (r : B.Driver.result) =
  ( r.B.Driver.b_stats.B.Driver.bs_unit_hits,
    r.B.Driver.b_stats.B.Driver.bs_unit_misses )

(* ---------------------------------------------------------------- *)
(* Differential per-function edits of the three-package tree         *)
(* ---------------------------------------------------------------- *)

(** Cold-build the tree, edit one function in place, rebuild warm, and
    compare against a from-scratch cold build of the edited tree: the
    results must be byte-identical and only the edited function's unit
    re-solved, the tree's other 6 units replayed from the cache. *)
let check_one_edit ?(jobs = 0) ~rel ~fname () =
  let root = make_tree tree_files in
  ignore (B.Driver.build root);
  let edited = copy_edit tree_files rel fname in
  write_file (Filename.concat root rel) (List.assoc rel edited);
  let warm = B.Driver.build ~jobs root in
  let cold = B.Driver.build (make_tree edited) in
  Alcotest.(check string)
    (fname ^ ": warm rebuild byte-identical to cold")
    (Helpers.build_fingerprint cold) (Helpers.build_fingerprint warm);
  Alcotest.(check (pair int int))
    (fname ^ ": expected units replayed/re-solved")
    (6, 1) (unit_counts warm)

(* Each function of the tree: the pad edit changes the function's body
   but not its summary, so whichever package it sits in, only its own
   unit re-solves and the other 6 of the tree's 7 units replay. *)
let edit_cases =
  [
    ("util/util.go", "Sum");
    ("util/util.go", "MakeRange");
    ("util/util.go", "scale");
    ("util/util.go", "Scale");
    ("data/data.go", "Centroid");
    ("data/data.go", "Grid");
    ("main.go", "main");
  ]

let test_every_function_edit () =
  List.iter (fun (rel, fname) -> check_one_edit ~rel ~fname ()) edit_cases

let test_parallel_warm_rebuild () =
  (* the pooled scheduler takes the same cache hits and produces the
     same bytes *)
  check_one_edit ~jobs:4 ~rel:"util/util.go" ~fname:"Sum" ()

let test_formatting_only_edit_replays_everything () =
  (* changed bytes, but no typed body changed, so no unit re-solves *)
  let root = make_tree tree_files in
  let cold = B.Driver.build root in
  write_file (Filename.concat root "util/util.go") (util_src ^ "\n");
  let warm = B.Driver.build root in
  Alcotest.(check string)
    "formatting-only rebuild byte-identical" (Helpers.build_fingerprint cold)
    (Helpers.build_fingerprint warm);
  Alcotest.(check (pair int int))
    "every unit replayed, none re-solved" (7, 0) (unit_counts warm)

(* A struct shared across packages: store's functions and main's body
   address Log's fields by index. *)
let log_store_src ~pad =
  Printf.sprintf
    {|package store

type Log struct {
%s	Entries [][]int
	Sizes []int
}

func New(n int) *Log {
	return &Log{Entries: make([][]int, 0, n), Sizes: make([]int, 0, n)}
}

func Push(l *Log, xs []int) {
	l.Entries = append(l.Entries, xs)
	l.Sizes = append(l.Sizes, len(xs))
}

func Total(l *Log) int {
	t := 0
	for i := range l.Sizes {
		t = t + l.Sizes[i]
	}
	return t
}
|}
    (if pad then "\tPad []int\n" else "")

let log_main_src =
  {|package main

import "store"

func main() {
	n := 8
	l := store.New(n)
	for i := 0; i < n; i++ {
		store.Push(l, make([]int, i+1))
	}
	println(store.Total(l))
}
|}

let log_files ~pad =
  [ ("store/store.go", log_store_src ~pad); ("main.go", log_main_src) ]

let test_struct_layout_edit () =
  (* inserting a field shifts the later fields' indices while every
     function body prints the same: the unit keys must still change, or
     replayed field frees land on the wrong field *)
  List.iter
    (fun (mname, config) ->
      let root = make_tree (log_files ~pad:false) in
      ignore (B.Driver.build ~config root);
      write_file
        (Filename.concat root "store/store.go")
        (log_store_src ~pad:true);
      let warm = B.Driver.build ~config root in
      let cold = B.Driver.build ~config (make_tree (log_files ~pad:true)) in
      Alcotest.(check bool)
        (mname ^ ": the tree frees struct fields") true
        (List.exists
           (fun i -> i.Gofree_core.Instrument.ins_field <> None)
           cold.B.Driver.b_inserted);
      let fingerprint =
        Helpers.build_fingerprint ~run_config:Helpers.poison_run_config
      in
      Alcotest.(check string)
        (mname ^ ": warm rebuild after a field insert == cold")
        (fingerprint cold) (fingerprint warm))
    [
      ("field-sensitive", Gofree_core.Config.field_sensitive);
      ("precise", Gofree_core.Config.precise);
    ]

(* ---------------------------------------------------------------- *)
(* Random mutation differential                                      *)
(* ---------------------------------------------------------------- *)

(** Plain function names of a generated whole-program source. *)
let func_names src =
  List.filter_map
    (fun line ->
      if starts_with ~prefix:"func " line then
        match String.index_opt line '(' with
        | Some i ->
          let name = String.trim (String.sub line 5 (i - 5)) in
          if name <> "" && not (String.contains name ' ') then Some name
          else None
        | None -> None
      else None)
    (String.split_on_char '\n' src)

let test_random_mutations () =
  (* 20 generated programs, each mutated in one pseudo-randomly chosen
     function: the warm rebuild re-solves exactly that function's SCC
     unit and matches the cold build of the mutant byte for byte *)
  for seed = 0 to 19 do
    let src = Gofree_workloads.Randprog.generate seed in
    let names = func_names src in
    let fname = List.nth names (seed * 7 mod List.length names) in
    let root = make_tree [ ("main.go", src) ] in
    ignore (B.Driver.build root);
    let mutant = edit_func src fname in
    write_file (Filename.concat root "main.go") mutant;
    let warm = B.Driver.build root in
    let cold = B.Driver.build (make_tree [ ("main.go", mutant) ]) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d (%s): warm == cold" seed fname)
      (Helpers.build_fingerprint cold) (Helpers.build_fingerprint warm);
    Alcotest.(check int)
      (Printf.sprintf "seed %d (%s): one unit re-solved" seed fname)
      1
      (snd (unit_counts warm))
  done

(* ---------------------------------------------------------------- *)
(* Iterative Tarjan: pathological call-graph shapes                  *)
(* ---------------------------------------------------------------- *)

let chain_src n =
  let b = Buffer.create (n * 40) in
  for i = 0 to n - 1 do
    if i < n - 1 then
      Buffer.add_string b
        (Printf.sprintf "func f%d() int { return f%d() }\n" i (i + 1))
    else Buffer.add_string b (Printf.sprintf "func f%d() int { return 1 }\n" i)
  done;
  Buffer.add_string b "func main() { println(f0()) }\n";
  Buffer.contents b

let cycle_src n =
  let b = Buffer.create (n * 50) in
  for i = 0 to n - 1 do
    Buffer.add_string b
      (Printf.sprintf "func f%d(d int) int { if d <= 0 { return 0 }\nreturn f%d(d - 1) }\n"
         i ((i + 1) mod n))
  done;
  Buffer.add_string b "func main() { println(f0(3)) }\n";
  Buffer.contents b

let test_deep_chain_condenses () =
  (* a 10k-deep call chain would overflow the OCaml stack under a
     recursive Tarjan; the explicit-stack version must digest it *)
  let n = 10_000 in
  let tp = Typecheck.check (Parser.parse (chain_src n)) in
  let cg = E.Callgraph.build ~tenv:tp.Tast.p_tenv tp.Tast.p_funcs in
  Alcotest.(check int)
    "one unit per function" (n + 1)
    (Array.length cg.E.Callgraph.cg_units);
  Array.iter
    (fun u ->
      List.iter
        (fun d ->
          if d >= u.E.Callgraph.u_id then
            Alcotest.failf "unit %d depends forward on %d"
              u.E.Callgraph.u_id d)
        u.E.Callgraph.u_deps)
    cg.E.Callgraph.cg_units;
  (* reverse topological: the leaf first, main last *)
  Alcotest.(check int) "leaf is unit 0" 0
    (Hashtbl.find cg.E.Callgraph.cg_unit_of (Printf.sprintf "f%d" (n - 1)));
  Alcotest.(check int) "chain head below main" (n - 1)
    (Hashtbl.find cg.E.Callgraph.cg_unit_of "f0");
  Alcotest.(check int) "main is last" n
    (Hashtbl.find cg.E.Callgraph.cg_unit_of "main")

let test_deep_cycle_is_one_unit () =
  let n = 10_000 in
  let tp = Typecheck.check (Parser.parse (cycle_src n)) in
  let cg = E.Callgraph.build ~tenv:tp.Tast.p_tenv tp.Tast.p_funcs in
  Alcotest.(check int) "cycle + main" 2
    (Array.length cg.E.Callgraph.cg_units);
  Alcotest.(check int) "the SCC holds every function" n
    (List.length cg.E.Callgraph.cg_units.(0).E.Callgraph.u_funcs)

let test_deep_chain_pooled_analysis () =
  (* the dependency scheduler walks a 2k-deep unit chain with worker
     domains and reproduces the sequential summaries exactly *)
  let tp = Typecheck.check (Parser.parse (chain_src 2_000)) in
  let seq = E.Analysis.analyze tp in
  let pool = Gofree_sched.Pool.create ~workers:4 () in
  let par =
    Fun.protect
      ~finally:(fun () -> Gofree_sched.Pool.shutdown pool)
      (fun () -> E.Analysis.analyze ~pool tp)
  in
  let dump (a : E.Analysis.t) =
    Hashtbl.fold
      (fun name s acc -> (name, E.Summary.to_string s) :: acc)
      a.E.Analysis.summaries []
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "pooled summaries == sequential" (dump seq) (dump par)

(* ---------------------------------------------------------------- *)
(* Unit-record store round-trips                                     *)
(* ---------------------------------------------------------------- *)

let sample_summary =
  {
    E.Summary.s_name = "util.MakeRange";
    s_nparams = 1;
    s_flows =
      [ { E.Summary.pf_param = 0; pf_target = `Heap; pf_derefs = 1 } ];
    s_contents =
      [|
        {
          E.Summary.ct_heap_alloc = true;
          ct_incomplete = false;
          ret_incomplete = false;
        };
      |];
    s_fields = [];
  }

let sample_units =
  [
    {
      B.Store.u_key = "0123456789abcdef0123456789abcdef";
      u_funcs = [ "util.MakeRange" ];
      u_summaries = [ sample_summary ];
      u_frees = [ ("util.MakeRange", 1, -1, Tast.Free_slice) ];
      u_sites = [ ("util.MakeRange", 0, true) ];
      u_boxed = [ ("util.MakeRange", 2) ];
    };
    {
      (* a no-IPA record: no summaries is a valid stored shape *)
      B.Store.u_key = "fedcba9876543210fedcba9876543210";
      u_funcs = [ "util.scale"; "util.Scale" ];
      u_summaries = [];
      u_frees = [];
      u_sites = [ ("util.Scale", 0, false) ];
      u_boxed = [];
    };
  ]

let golden_units_text =
  "(format gofree-units-v2)\n\
   (unit (key 0123456789abcdef0123456789abcdef) (funcs util.MakeRange) \
   (summaries (summary (name util.MakeRange) (nparams 1) (flows (flow 0 \
   heap 1)) (contents (content true false false)))) (frees (free \
   util.MakeRange 1 -1 slice)) (sites (site util.MakeRange 0 true)) (boxed \
   (box util.MakeRange 2)))\n\
   (unit (key fedcba9876543210fedcba9876543210) (funcs util.scale \
   util.Scale) (summaries) (frees) (sites (site util.Scale 0 false)) \
   (boxed))\n"

let test_unit_store_golden () =
  Alcotest.(check string)
    "serialized unit records match the golden text" golden_units_text
    (B.Store.units_to_string sample_units)

let test_unit_store_roundtrip () =
  match B.Store.units_of_string (B.Store.units_to_string sample_units) with
  | Error e -> Alcotest.failf "unit round-trip failed: %s" e
  | Ok us ->
    Alcotest.(check bool) "unit round-trip identity" true (us = sample_units)

let test_unit_store_save_load () =
  let dir = Filename.concat (make_tree []) "cache" in
  B.Store.save_units ~dir ~pkg:"util" sample_units;
  (match B.Store.load_units ~dir ~pkg:"util" with
  | Some us ->
    Alcotest.(check bool) "load returns the saved records" true
      (us = sample_units)
  | None -> Alcotest.fail "saved unit records did not load");
  Alcotest.(check bool) "absent package misses" true
    (B.Store.load_units ~dir ~pkg:"nosuch" = None);
  write_file
    (B.Store.units_path ~dir ~pkg:"util")
    "(format ancient-units-v0)\n";
  Alcotest.(check bool) "stale format misses" true
    (B.Store.load_units ~dir ~pkg:"util" = None)

let test_unit_key_sensitivity () =
  let tp, _, _ = Typecheck.check_package (Parser.parse_file util_src) in
  let cg = E.Callgraph.build ~tenv:tp.Tast.p_tenv tp.Tast.p_funcs in
  let scale_unit =
    cg.E.Callgraph.cg_units.(Hashtbl.find cg.E.Callgraph.cg_unit_of
                               "util.Scale")
  in
  Alcotest.(check (list string))
    "Scale's summary inputs" [ "util.scale" ]
    scale_unit.E.Callgraph.u_callees;
  let key ~config_sig ~summary =
    E.Callgraph.unit_key ~config_sig ~mode_sig:"m"
      ~callee_summary:(fun _ -> summary)
      scale_unit
  in
  let base = key ~config_sig:"c" ~summary:None in
  Alcotest.(check string)
    "keys are deterministic" base
    (key ~config_sig:"c" ~summary:None);
  Alcotest.(check bool) "callee summary content feeds the key" true
    (base <> key ~config_sig:"c" ~summary:(Some "tag"));
  Alcotest.(check bool) "config signature feeds the key" true
    (base <> key ~config_sig:"c2" ~summary:None)

let suite =
  [
    Alcotest.test_case "every function edit re-solves one unit" `Quick
      test_every_function_edit;
    Alcotest.test_case "parallel warm rebuild identical" `Quick
      test_parallel_warm_rebuild;
    Alcotest.test_case "formatting-only edit replays every unit" `Quick
      test_formatting_only_edit_replays_everything;
    Alcotest.test_case "struct layout edit: warm == cold" `Quick
      test_struct_layout_edit;
    Alcotest.test_case "20 random mutations: warm == cold" `Quick
      test_random_mutations;
    Alcotest.test_case "10k-deep chain condenses iteratively" `Quick
      test_deep_chain_condenses;
    Alcotest.test_case "10k cycle is one unit" `Quick
      test_deep_cycle_is_one_unit;
    Alcotest.test_case "deep chain: pooled analysis == sequential" `Quick
      test_deep_chain_pooled_analysis;
    Alcotest.test_case "unit store golden file" `Quick
      test_unit_store_golden;
    Alcotest.test_case "unit store round-trip" `Quick
      test_unit_store_roundtrip;
    Alcotest.test_case "unit store save/load/corrupt" `Quick
      test_unit_store_save_load;
    Alcotest.test_case "unit key sensitivity" `Quick
      test_unit_key_sensitivity;
  ]
