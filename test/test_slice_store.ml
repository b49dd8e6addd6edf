(** Slice backing store: element pointers, aliasing and host allocation.

    A slice's backing array is one flat [value array]; [&s[i]] names an
    (array, index) pair.  These tests pin the Go semantics that
    representation must keep — write-through, pointer identity, pointers
    into an array that [append] has since replaced, struct elements,
    overlapping [copy], views sharing one array, [append] growth copying
    struct elements and zero-filling its spare capacity — on every
    engine, with and without poison, and check that a stale element or
    field pointer into a freed object is still caught.  The last test
    bounds the host OCaml minor collections of a fan-out run, the cost a
    per-element representation would bring back. *)

module Rt = Gofree_runtime
module I = Gofree_interp.Interp
module W = Gofree_workloads.Workloads

let engines =
  [ ("reference", I.Eng_reference); ("bytecode", I.Eng_bytecode) ]

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

(* [append] past capacity copies struct elements into the new array:
   the two slices no longer share them. *)
let growth_src =
  {|
type T struct {
  f int
  g int
}

func main() {
  a := make([]T, 1, 1)
  b := append(a, T{f: 1})
  b[0].f = 5
  println(a[0].f, b[0].f)
  p := &b[0].g
  *p = 7
  println(a[0].g, b[0].g)
}
|}

let growth_expected = "0 5
0 7
"

(* The spare capacity of a grown array holds the element zero: one
   shared scalar zero, a fresh struct per slot.  Growth from capacity 4
   gives capacity 8 here and in Go. *)
let tail_src =
  {|
type T struct {
  f int
  g int
}

func main() {
  s := make([]int, 4, 4)
  s = append(s, 3)
  t := s[0:cap(s)]
  println(t[4], t[5], t[7], len(t))
  ts := make([]T, 4, 4)
  ts = append(ts, T{f: 2})
  u := ts[0:cap(ts)]
  u[6].f = 9
  println(u[4].f, u[5].f, u[6].f, u[7].f, u[6].g)
}
|}

let tail_expected = "3 0 0 8
2 0 9 0 0
"

let test_aliasing () =
  List.iter
    (fun (what, src, expected) ->
      let reference =
        Gofree_interp.Runner.compile_and_run
          ~run_config:(run_config ~engine:I.Eng_reference ~poison:false)
          src
      in
      Alcotest.(check string)
        (what ^ ": reference walker matches Go")
        expected reference.Gofree_interp.Runner.output;
      List.iter
        (fun poison ->
          List.iter
            (fun (name, engine) ->
              let r =
                Gofree_interp.Runner.compile_and_run
                  ~run_config:(run_config ~engine ~poison) src
              in
              Alcotest.(check string)
                (Printf.sprintf "%s: %s, poison %b" what name poison)
                reference.Gofree_interp.Runner.output
                r.Gofree_interp.Runner.output)
            engines)
        [ false; true ])
    [
      ("aliasing", aliasing_src, aliasing_expected);
      ("growth", growth_src, growth_expected);
      ("tail", tail_src, tail_expected);
    ]

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

(* [src] compiled under stock Go, plus a wrong tcfree of [var]'s object
   (of [kind]) inserted right after main's first println. *)
let with_wrong_free ?(src = stale_src) ?(var = "s")
    ?(kind = Minigo.Tast.Free_slice) () =
  let compiled = Helpers.compile_go src in
  let main =
    Option.get
      (Minigo.Tast.find_func compiled.Gofree_core.Pipeline.c_program "main")
  in
  let body = main.Minigo.Tast.f_body in
  let v =
    List.find_map
      (function
        | Minigo.Tast.Sdecl (v, _) when v.Minigo.Tast.v_name = var -> Some v
        | _ -> None)
      body.Minigo.Tast.b_stmts
    |> Option.get
  in
  let rec insert seen = function
    | [] -> []
    | (Minigo.Tast.Sprint _ as st) :: rest when not seen ->
      st :: Minigo.Tast.Stcfree (v, kind) :: insert true rest
    | st :: rest -> st :: insert seen rest
  in
  body.Minigo.Tast.b_stmts <- insert false body.Minigo.Tast.b_stmts;
  compiled

(* The stale program prints "42\n42\n" without poison, after a free
   that succeeded, and raises [Corruption] with poison. *)
let check_stale_read_caught ~what make =
  List.iter
    (fun (name, engine) ->
      (* without poison the freed object keeps its old contents *)
      let r =
        Gofree_interp.Runner.run
          ~config:(run_config ~engine ~poison:false)
          (make ())
      in
      Alcotest.(check string) (name ^ ": no poison") "42\n42\n"
        r.Gofree_interp.Runner.output;
      Alcotest.(check int) (name ^ ": the free succeeded") 1
        r.Gofree_interp.Runner.metrics.Rt.Metrics.tcfree_success;
      match
        Gofree_interp.Runner.run
          ~config:(run_config ~engine ~poison:true)
          (make ())
      with
      | _ -> Alcotest.failf "%s: stale %s read not caught" name what
      | exception Gofree_interp.Value.Corruption _ -> ())
    engines

let test_stale_element_pointer () =
  check_stale_read_caught ~what:"element" (fun () -> with_wrong_free ())

(* Field pointers hold a struct's inner field cell: one into a heap
   struct ([&o.f], freed as an object) and one into a struct element of
   a heap slice ([&a[i].f], freed as a slice). *)
let stale_field_src =
  {|
type O struct {
  f int
  g int
}

var keep *O

func main() {
  o := &O{f: 42}
  keep = o
  p := &o.f
  println(*p)
  println(*p)
}
|}

let stale_elem_field_src =
  {|
type O struct {
  f int
  g int
}

func main() {
  a := make([]O, 4+rand(2))
  a[2].f = 42
  p := &a[2].f
  println(*p)
  println(*p)
}
|}

let test_stale_field_pointer () =
  check_stale_read_caught ~what:"field" (fun () ->
      with_wrong_free ~src:stale_field_src ~var:"o"
        ~kind:Minigo.Tast.Free_obj ());
  check_stale_read_caught ~what:"element field" (fun () ->
      with_wrong_free ~src:stale_elem_field_src ~var:"a" ())

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
    Alcotest.test_case "stale field pointer caught under poison" `Quick
      test_stale_field_pointer;
    Alcotest.test_case "fanout host minor GCs bounded" `Quick
      test_host_minor_gcs;
  ]
