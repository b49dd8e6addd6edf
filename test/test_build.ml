(** Tests for the multi-package build subsystem: package/import syntax,
    export rules, the unit store, cache behavior, and — the headline
    acceptance check — that a multi-package build inserts exactly the
    tcfree calls a whole-program single-file compile would (paper §4.4:
    stored tags lose no precision). *)

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
      (Printf.sprintf "gofree-build-test-%d-%d" (Unix.getpid ())
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

(* ---------------------------------------------------------------- *)
(* The reference three-package program and its single-file twin      *)
(* ---------------------------------------------------------------- *)

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

(* The same program as one whole-program source: declarations
   concatenated in dependency order (util, data, main), qualifiers
   dropped.  This is the reference the multi-package build must match. *)
let single_src =
  {|
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
	xs := MakeRange(n)
	ps := make([]Point, n)
	total := Sum(xs)
	for i := range ps {
		ps[i] = Point{X: xs[i], Y: total}
	}
	return ps
}

func main() {
	xs := MakeRange(16)
	ys := Scale(xs, 3)
	total := Sum(ys)
	ps := Grid(8)
	c := Centroid(ps)
	println("total", total)
	println("centroid", c.X, c.Y)
}
|}

(* ---------------------------------------------------------------- *)
(* Insertion-site comparison helpers                                 *)
(* ---------------------------------------------------------------- *)

(** Strip a ["pkg."] qualifier so multi-package names compare against
    their single-file twins. *)
let strip name =
  match String.index_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let kind_str = function
  | Tast.Free_slice -> "slice"
  | Tast.Free_map -> "map"
  | Tast.Free_obj -> "obj"

let inserted_triples inserted =
  List.sort compare
    (List.map
       (fun { Gofree_core.Instrument.ins_func; ins_var; ins_field;
              ins_kind } ->
         ( strip ins_func,
           (strip ins_var.Tast.v_name
           ^
           match ins_field with
           | Some (_, fname) -> "." ^ fname
           | None -> ""),
           kind_str ins_kind ))
       inserted)

let triple3 = Alcotest.(triple string string string)

let decisions_of (r : B.Driver.result) =
  {
    Gofree_interp.Decisions.site_heap = r.B.Driver.b_site_heap;
    var_boxed = r.B.Driver.b_var_boxed;
  }

(* ---------------------------------------------------------------- *)
(* Frontend: package / import syntax and export rules                *)
(* ---------------------------------------------------------------- *)

let test_parse_package_imports () =
  let file =
    Parser.parse_file
      "package main\nimport (\n\t\"util\"\n\t\"lib/extra\"\n)\nfunc main() {}\n"
  in
  Alcotest.(check string) "package clause" "main" file.Ast.file_package;
  Alcotest.(check (list (pair string string)))
    "import paths and aliases"
    [ ("util", "util"); ("lib/extra", "extra") ]
    (List.map
       (fun i -> (i.Ast.imp_path, i.Ast.imp_alias))
       file.Ast.file_imports)

let test_parse_import_alias () =
  let file =
    Parser.parse_file
      "package data\nimport u \"util\"\nfunc F() int { return u.G() }\n"
  in
  Alcotest.(check (list (pair string string)))
    "aliased import"
    [ ("util", "u") ]
    (List.map
       (fun i -> (i.Ast.imp_path, i.Ast.imp_alias))
       file.Ast.file_imports)

let test_parse_discards_package_in_whole_program_mode () =
  (* the classic entry point still accepts package/import headers *)
  let prog = Parser.parse "package main\nfunc main() { println(1) }\n" in
  Alcotest.(check int) "one decl" 1 (List.length prog)

let check_type_error ~substring src_of_pkg =
  match src_of_pkg () with
  | _ -> Alcotest.failf "expected a type error mentioning %S" substring
  | exception Typecheck.Error (msg, _) ->
    if not (Helpers.contains msg substring) then
      Alcotest.failf "error %S does not mention %S" msg substring

let util_iface () =
  let _, iface, _ = Typecheck.check_package (Parser.parse_file util_src) in
  iface

let test_unexported_rejected () =
  let iface = util_iface () in
  check_type_error ~substring:"not exported" (fun () ->
      Typecheck.check_package ~imports:[ iface ]
        (Parser.parse_file
           "package main\nimport \"util\"\nfunc main() { println(util.scale(2, 3)) }\n"))

let test_unknown_package_rejected () =
  (* an import whose interface is not supplied: the package-level
     analogue of "undefined: util" *)
  check_type_error ~substring:"cannot find package" (fun () ->
      Typecheck.check_package
        (Parser.parse_file
           "package main\nimport \"util\"\nfunc main() { println(util.Sum(nil)) }\n"))

(* ---------------------------------------------------------------- *)
(* Equivalence: multi-package build == single-file whole program     *)
(* ---------------------------------------------------------------- *)

let test_equivalence_with_single_file () =
  let root = make_tree tree_files in
  let r = B.Driver.build root in
  let single = Helpers.compile single_src in
  Alcotest.(check (list triple3))
    "same tcfree insertion sites"
    (List.sort compare (Helpers.inserted_vars single))
    (inserted_triples r.B.Driver.b_inserted);
  let rm =
    Gofree_interp.Runner.run_program ~decisions:(decisions_of r)
      r.B.Driver.b_program
  in
  let rs = Gofree_interp.Runner.run single in
  Alcotest.(check string)
    "same program output" rs.Gofree_interp.Runner.output
    rm.Gofree_interp.Runner.output;
  let ms = rs.Gofree_interp.Runner.metrics
  and mm = rm.Gofree_interp.Runner.metrics in
  Alcotest.(check int)
    "same allocated bytes" ms.Gofree_runtime.Metrics.alloced_bytes
    mm.Gofree_runtime.Metrics.alloced_bytes;
  Alcotest.(check int)
    "same freed bytes" ms.Gofree_runtime.Metrics.freed_bytes
    mm.Gofree_runtime.Metrics.freed_bytes;
  Alcotest.(check int)
    "same tcfree calls" ms.Gofree_runtime.Metrics.tcfree_calls
    mm.Gofree_runtime.Metrics.tcfree_calls;
  Alcotest.(check bool)
    "frees actually happened" true
    (mm.Gofree_runtime.Metrics.freed_bytes > 0)

let test_parallel_matches_sequential () =
  let root = make_tree tree_files in
  let seq = B.Driver.build ~jobs:1 ~force:true root in
  let par = B.Driver.build ~jobs:4 ~force:true root in
  Alcotest.(check (list triple3))
    "same insertions with domains"
    (inserted_triples seq.B.Driver.b_inserted)
    (inserted_triples par.B.Driver.b_inserted)

(* ---------------------------------------------------------------- *)
(* Incrementality: warm cache, replay, transitive invalidation       *)
(* ---------------------------------------------------------------- *)

let test_warm_cache_skips_analysis () =
  let root = make_tree tree_files in
  let r1 = B.Driver.build root in
  Alcotest.(check int)
    "cold build analyzes everything" 3
    r1.B.Driver.b_stats.B.Driver.bs_misses;
  let r2 = B.Driver.build root in
  Alcotest.(check int)
    "warm build hits every package" 3 r2.B.Driver.b_stats.B.Driver.bs_hits;
  Alcotest.(check int)
    "warm build analyzes nothing" 0 r2.B.Driver.b_stats.B.Driver.bs_misses;
  List.iter
    (fun pr ->
      Alcotest.(check bool)
        (pr.B.Driver.pr_name ^ " served from cache")
        true pr.B.Driver.pr_cached)
    r2.B.Driver.b_stats.B.Driver.bs_pkgs;
  (* the replayed (cache-hit) program is the same program *)
  Alcotest.(check (list triple3))
    "replay reproduces the insertions"
    (inserted_triples r1.B.Driver.b_inserted)
    (inserted_triples r2.B.Driver.b_inserted);
  let run r =
    (Gofree_interp.Runner.run_program ~decisions:(decisions_of r)
       r.B.Driver.b_program)
      .Gofree_interp.Runner.output
  in
  Alcotest.(check string) "replay runs identically" (run r1) (run r2)

let unit_hits_by_pkg (r : B.Driver.result) =
  List.map
    (fun pr ->
      (pr.B.Driver.pr_name, (pr.B.Driver.pr_unit_hits, pr.B.Driver.pr_units)))
    r.B.Driver.b_stats.B.Driver.bs_pkgs

let test_change_invalidates_transitively () =
  (* invalidation is content-keyed: an edit re-solves its own unit plus
     the units whose callee summaries actually changed, in whichever
     package they sit *)
  let root = make_tree tree_files in
  ignore (B.Driver.build root);
  let util_path = Filename.concat root "util/util.go" in
  (* a cold build of the tree with util replaced *)
  let fresh util =
    B.Driver.build
      (make_tree
         (("util/util.go", util) :: List.remove_assoc "util/util.go" tree_files))
  in
  (* a new function no one calls: util's summaries stay as they were *)
  let extra = "\nfunc Extra() int { return 7 }\n" in
  write_file util_path (util_src ^ extra);
  let r = B.Driver.build root in
  Alcotest.(check (list (pair string (pair int int))))
    "an unused addition re-solves only itself"
    [ ("util", (4, 5)); ("data", (2, 2)); ("main", (1, 1)) ]
    (unit_hits_by_pkg r);
  Alcotest.(check int)
    "its dependents are cache hits" 2 r.B.Driver.b_stats.B.Driver.bs_hits;
  Alcotest.(check string)
    "warm rebuild == cold build"
    (Helpers.build_fingerprint (fresh (util_src ^ extra)))
    (Helpers.build_fingerprint r);
  (* Sum now leaks its argument to a global: its summary changes, so
     every caller of Sum re-solves against the new tag *)
  let leaky =
    String.concat "\n"
      (List.concat_map
         (fun l ->
           if l = "func Sum(xs []int) int {" then [ l; "\tkept = xs" ]
           else [ l ])
         (String.split_on_char '\n' util_src))
    ^ extra ^ "\nvar kept []int\n"
  in
  write_file util_path leaky;
  let r = B.Driver.build root in
  Alcotest.(check (list (pair string (pair int int))))
    "Sum and its callers data.Grid and main re-solve"
    [ ("util", (4, 5)); ("data", (1, 2)); ("main", (0, 1)) ]
    (unit_hits_by_pkg r);
  Alcotest.(check string)
    "warm rebuild == cold build after a summary change"
    (Helpers.build_fingerprint (fresh leaky))
    (Helpers.build_fingerprint r)

(* Every file in the cache directory with its inode and mtime: a
   rewrite, even of identical bytes, changes both. *)
let cache_snapshot root =
  let dir = Filename.concat root ".gofree-cache" in
  List.map
    (fun f ->
      let st = Unix.stat (Filename.concat dir f) in
      (f, (st.Unix.st_ino, st.Unix.st_mtime)))
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let test_types_only_package_writes_nothing () =
  (* a package without functions has no units: it counts as cached on
     every build, and an unedited rebuild rewrites no cache file *)
  let root =
    make_tree
      [
        ("shapes/shapes.go", "package shapes\n\ntype Point struct {\n\tX int\n\tY int\n}\n");
        ( "main.go",
          "package main\n\nimport \"shapes\"\n\nfunc main() {\n\tp := shapes.Point{X: 1, Y: 2}\n\tprintln(p.X + p.Y)\n}\n" );
      ]
  in
  ignore (B.Driver.build root);
  let before = cache_snapshot root in
  let r = B.Driver.build root in
  Alcotest.(check (list (pair string (pair int int))))
    "shapes has no units, main replays its one"
    [ ("shapes", (0, 0)); ("main", (1, 1)) ]
    (unit_hits_by_pkg r);
  Alcotest.(check int)
    "both packages are cache hits" 2 r.B.Driver.b_stats.B.Driver.bs_hits;
  Alcotest.(check (list (pair string (pair int (float 0.)))))
    "no cache file rewritten" before (cache_snapshot root)

let test_force_ignores_cache () =
  let root = make_tree tree_files in
  ignore (B.Driver.build root);
  let r = B.Driver.build ~force:true root in
  Alcotest.(check int)
    "force re-analyzes everything" 3 r.B.Driver.b_stats.B.Driver.bs_misses

(* ---------------------------------------------------------------- *)
(* Conservative fallback without a summary                           *)
(* ---------------------------------------------------------------- *)

let fallback_main_src =
  {|package main

import "util"

func main() {
	xs := util.MakeRange(16)
	println(util.Sum(xs))
}
|}

let test_missing_summary_is_conservative () =
  let tp_u, iface_u, c_u =
    Typecheck.check_package (Parser.parse_file util_src)
  in
  let cu = Gofree_core.Pipeline.compile_program tp_u in
  let util_summaries =
    List.filter_map
      (fun (f : Tast.func) ->
        Hashtbl.find_opt
          cu.Gofree_core.Pipeline.c_analysis.E.Analysis.summaries
          f.Tast.f_name)
      tp_u.Tast.p_funcs
  in
  let tp_m, _, _ =
    Typecheck.check_package ~imports:[ iface_u ]
      ~first_var:c_u.Typecheck.c_next_var
      ~first_scope:c_u.Typecheck.c_next_scope
      ~first_site:c_u.Typecheck.c_next_site
      (Parser.parse_file fallback_main_src)
  in
  let with_sums =
    Gofree_core.Pipeline.compile_program ~imported:util_summaries tp_m
  in
  let without_sums = Gofree_core.Pipeline.compile_program tp_m in
  let frees c =
    inserted_triples c.Gofree_core.Pipeline.c_inserted
    |> List.filter (fun (f, _, _) -> f = "main")
  in
  Alcotest.(check (list triple3))
    "with the callee summary, main frees the returned slice"
    [ ("main", "xs", "slice") ]
    (frees with_sums);
  Alcotest.(check (list triple3))
    "without it, the default tag forbids freeing" [] (frees without_sums)

(* ---------------------------------------------------------------- *)
(* Loader and graph errors                                           *)
(* ---------------------------------------------------------------- *)

let expect_build_error ~substring root =
  match B.Driver.build root with
  | _ -> Alcotest.failf "expected a build error mentioning %S" substring
  | exception (B.Driver.Error msg | B.Loader.Error msg) ->
    if not (Helpers.contains msg substring) then
      Alcotest.failf "error %S does not mention %S" msg substring

let test_import_cycle_rejected () =
  let root =
    make_tree
      [
        ("a/a.go", "package a\nimport \"b\"\nfunc A() int { return b.B() }\n");
        ("b/b.go", "package b\nimport \"a\"\nfunc B() int { return a.A() }\n");
        ("main.go", "package main\nimport \"a\"\nfunc main() { println(a.A()) }\n");
      ]
  in
  expect_build_error ~substring:"import cycle" root

let test_unresolved_import_rejected () =
  let root =
    make_tree
      [ ("main.go", "package main\nimport \"nosuch\"\nfunc main() {}\n") ]
  in
  expect_build_error ~substring:"nosuch" root

let test_missing_main_rejected () =
  let root = make_tree [ ("util/util.go", util_src) ] in
  expect_build_error ~substring:"main" root

(* ---------------------------------------------------------------- *)
(* Unit store                                                        *)
(* ---------------------------------------------------------------- *)

let test_stored_summary_survives_store () =
  (* a summary produced by real analysis, through the store and back *)
  let root = make_tree tree_files in
  let r = B.Driver.build root in
  ignore r;
  let dir = Filename.concat root ".gofree-cache" in
  match B.Store.load_units ~dir ~pkg:"util" with
  | None -> Alcotest.fail "build did not persist util's unit records"
  | Some records ->
    let mk =
      List.find
        (fun s -> s.E.Summary.s_name = "util.MakeRange")
        (List.concat_map (fun u -> u.B.Store.u_summaries) records)
    in
    Alcotest.(check bool)
      "stored MakeRange returns a fresh heap allocation" true
      mk.E.Summary.s_contents.(0).E.Summary.ct_heap_alloc;
    (match E.Summary.of_string (E.Summary.to_string mk) with
    | Ok s ->
      Alcotest.(check bool) "summary text round-trip" true (s = mk)
    | Error err -> Alcotest.failf "summary did not re-parse: %s" err)

let suite =
  [
    Alcotest.test_case "parse package and imports" `Quick
      test_parse_package_imports;
    Alcotest.test_case "parse aliased import" `Quick
      test_parse_import_alias;
    Alcotest.test_case "whole-program parse ignores header" `Quick
      test_parse_discards_package_in_whole_program_mode;
    Alcotest.test_case "unexported reference rejected" `Quick
      test_unexported_rejected;
    Alcotest.test_case "unknown package rejected" `Quick
      test_unknown_package_rejected;
    Alcotest.test_case "multi-package == single-file insertions" `Quick
      test_equivalence_with_single_file;
    Alcotest.test_case "parallel build matches sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "warm cache skips analysis" `Quick
      test_warm_cache_skips_analysis;
    Alcotest.test_case "change invalidates transitively" `Quick
      test_change_invalidates_transitively;
    Alcotest.test_case "types-only package writes nothing" `Quick
      test_types_only_package_writes_nothing;
    Alcotest.test_case "force ignores cache" `Quick test_force_ignores_cache;
    Alcotest.test_case "missing summary is conservative" `Quick
      test_missing_summary_is_conservative;
    Alcotest.test_case "import cycle rejected" `Quick
      test_import_cycle_rejected;
    Alcotest.test_case "unresolved import rejected" `Quick
      test_unresolved_import_rejected;
    Alcotest.test_case "missing main rejected" `Quick
      test_missing_main_rejected;
    Alcotest.test_case "stored summary survives the store" `Quick
      test_stored_summary_survives_store;
  ]
