(** Slice backing store: element pointers, aliasing and host allocation.

    A slice's backing array is one flat [value array]; [&s[i]] names an
    (array, index) pair.  These tests pin the Go semantics that
    representation must keep — write-through, pointer identity, pointers
    into an array that [append] has since replaced, struct elements,
    overlapping [copy], views sharing one array — on every engine, with
    and without poison, and check that a stale element pointer into a
    freed array is still caught.  The last test bounds the host OCaml
    minor collections of a fan-out run, the cost a per-element
    representation would bring back. *)

module Rt = Gofree_runtime
module I = Gofree_interp.Interp
module W = Gofree_workloads.Workloads

let engines =
  [ ("reference", I.Eng_reference); ("closure", I.Eng_closure);
    ("bytecode", I.Eng_bytecode) ]

let run_config ~engine ~poison =
  {
    I.default_config with
    engine;
    heap_config = { Rt.Heap.default_config with poison_on_free = poison };
  }

let aliasing_src =
  {|
type Pt struct {
  x int
  y int
}

func main() {
  s := make([]int, 4)
  p := &s[1]
  *p = 7
  println("write-through", s[1])
  q := &s[1]
  r := &s[2]
  println("identity", p == q, p == r)
  s = append(s, 9)
  s[1] = 100
  println("after growth", *p, s[1], len(s), cap(s))
  *p = 8
  println("old array only", *p, s[1])
  ps := make([]Pt, 3)
  f := &ps[1].y
  *f = 5
  ps[1].x = 6
  e := &ps[2]
  e.x = 11
  println("struct fields", ps[1].x, ps[1].y, ps[2].x, *f, ps[0].x)
  a := []int{1, 2, 3, 4, 5, 6}
  n := copy(a[1:], a)
  println("copy right", n, a)
  b := []int{1, 2, 3, 4, 5, 6}
  n = copy(b, b[2:])
  println("copy left", n, b)
  base := make([]int, 6)
  v1 := base[1:4]
  v2 := base[2:5]
  v1[1] = 33
  pv := &v2[2]
  *pv = 44
  println("views", base, v1, v2, &v1[1] == &v2[0], &base[2] == &v1[2])
  v3 := append(v1[:2], 55)
  println("append in place", base, v3, cap(v1))
}
|}

(* What Go prints for [aliasing_src]. *)
let aliasing_expected =
  String.concat "\n"
    [
      "write-through 7";
      "identity true false";
      "after growth 7 100 5 8";
      "old array only 8 100";
      "struct fields 6 5 11 5 0";
      "copy right 5 [1 1 2 3 4 5]";
      "copy left 4 [3 4 5 6 5 6]";
      "views [0 0 33 0 44 0] [0 33 0] [33 0 44] true false";
      "append in place [0 0 33 55 44 0] [0 33 55] 5";
      "";
    ]

let test_aliasing () =
  let reference =
    Gofree_interp.Runner.compile_and_run
      ~run_config:(run_config ~engine:I.Eng_reference ~poison:false)
      aliasing_src
  in
  Alcotest.(check string) "reference walker matches Go" aliasing_expected
    reference.Gofree_interp.Runner.output;
  List.iter
    (fun poison ->
      List.iter
        (fun (name, engine) ->
          let r =
            Gofree_interp.Runner.compile_and_run
              ~run_config:(run_config ~engine ~poison) aliasing_src
          in
          Alcotest.(check string)
            (Printf.sprintf "%s, poison %b" name poison)
            reference.Gofree_interp.Runner.output
            r.Gofree_interp.Runner.output)
        engines)
    [ false; true ]

(* [s] is heap-allocated (its length is not a constant); the test
   inserts a wrong tcfree of [s] between the two reads through [p]. *)
let stale_src =
  {|
func main() {
  s := make([]int, 4+rand(2))
  s[2] = 42
  p := &s[2]
  println(*p)
  println(*p)
}
|}

let with_wrong_free () =
  let compiled = Helpers.compile_go stale_src in
  let main =
    Option.get
      (Minigo.Tast.find_func compiled.Gofree_core.Pipeline.c_program "main")
  in
  let body = main.Minigo.Tast.f_body in
  let s =
    List.find_map
      (function
        | Minigo.Tast.Sdecl (v, _) when v.Minigo.Tast.v_name = "s" -> Some v
        | _ -> None)
      body.Minigo.Tast.b_stmts
    |> Option.get
  in
  (* after the first println *)
  let rec insert seen = function
    | [] -> []
    | (Minigo.Tast.Sprint _ as st) :: rest when not seen ->
      st :: Minigo.Tast.Stcfree (s, Minigo.Tast.Free_slice) :: insert true rest
    | st :: rest -> st :: insert seen rest
  in
  body.Minigo.Tast.b_stmts <- insert false body.Minigo.Tast.b_stmts;
  compiled

let test_stale_element_pointer () =
  List.iter
    (fun (name, engine) ->
      (* without poison the freed array keeps its old contents *)
      let r =
        Gofree_interp.Runner.run
          ~config:(run_config ~engine ~poison:false)
          (with_wrong_free ())
      in
      Alcotest.(check string) (name ^ ": no poison") "42\n42\n"
        r.Gofree_interp.Runner.output;
      Alcotest.(check int) (name ^ ": the free succeeded") 1
        r.Gofree_interp.Runner.metrics.Rt.Metrics.tcfree_success;
      match
        Gofree_interp.Runner.run
          ~config:(run_config ~engine ~poison:true)
          (with_wrong_free ())
      with
      | _ -> Alcotest.failf "%s: stale element read not caught" name
      | exception Gofree_interp.Value.Corruption _ -> ())
    engines

(* Host OCaml minor collections of one fan-out run at one domain.  With
   a per-element cell store this run took ~388; the flat store takes
   a handful.  The bound is about twice the measured value. *)
let minor_gc_bound = 30

let test_host_minor_gcs () =
  let compiled = Helpers.compile (W.source_of ~size:10 W.fanout) in
  let config = { I.default_config with domains = 1; seed = 7L } in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let r = Gofree_interp.Runner.run ~config compiled in
  let minors = (Gc.quick_stat ()).Gc.minor_collections - before in
  Alcotest.(check bool) "fanout ran" false r.Gofree_interp.Runner.panicked;
  if minors >= minor_gc_bound then
    Alcotest.failf "fanout size 10: %d host minor GCs (bound %d)" minors
      minor_gc_bound

let suite =
  [
    Alcotest.test_case "element pointers and aliasing, all engines" `Quick
      test_aliasing;
    Alcotest.test_case "stale element pointer caught under poison" `Quick
      test_stale_element_pointer;
    Alcotest.test_case "fanout host minor GCs bounded" `Quick
      test_host_minor_gcs;
  ]
