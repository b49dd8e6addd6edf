(** Differential tests for the lowered execution engine: the bytecode
    VM must be observationally identical to the reference tree-walker —
    same program output, same step count, and the same runtime metrics
    down to the byte (alloc/free volumes, free ratio numerator and
    denominator, GC cycle count, maxheap, tcfree
    attempt/success/give-up counters).

    The two engines share the allocator/map/call helpers, so a
    divergence here means a lowering changed evaluation order or
    skipped/added a safepoint or allocation somewhere. *)

module Rt = Gofree_runtime
module W = Gofree_workloads.Workloads

let engines =
  [
    ("reference", Gofree_interp.Interp.Eng_reference);
    ("bytecode", Gofree_interp.Interp.Eng_bytecode);
  ]

let run_mode ~engine ?(config = Gofree_core.Config.gofree) ?(poison = false)
    src =
  let run_config =
    {
      Gofree_interp.Interp.default_config with
      heap_config =
        {
          Rt.Heap.default_config with
          min_heap = 96 * 1024;  (* small heap: force real GC activity *)
          grow_map_free_old = config.Gofree_core.Config.insert_tcfree;
          poison_on_free = poison;
        };
      engine;
    }
  in
  Gofree_interp.Runner.compile_and_run ~gofree_config:config ~run_config src

(* Metrics comparison via the JSON export (covers every counter,
   including per-category and per-giveup arrays), with the one
   wall-clock field normalized out. *)
let metrics_fingerprint (m : Rt.Metrics.t) : string =
  m.Rt.Metrics.gc_time_ns <- 0L;
  Gofree_obs.Json.to_string_pretty (Rt.Metrics.to_json m)

(* Run under every engine and require byte-identical observables,
   pairwise against the reference walker. *)
let check_identical ~name ?config ?poison src =
  let r_ref =
    run_mode ~engine:Gofree_interp.Interp.Eng_reference ?config ?poison src
  in
  List.iter
    (fun (ename, engine) ->
      if engine <> Gofree_interp.Interp.Eng_reference then begin
        let r_cmp = run_mode ~engine ?config ?poison src in
        Alcotest.(check string)
          (name ^ ": output (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.output r_cmp.Gofree_interp.Runner.output;
        Alcotest.(check int)
          (name ^ ": steps (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.steps r_cmp.Gofree_interp.Runner.steps;
        Alcotest.(check bool)
          (name ^ ": panicked (" ^ ename ^ ")")
          r_ref.Gofree_interp.Runner.panicked
          r_cmp.Gofree_interp.Runner.panicked;
        Alcotest.(check string)
          (name ^ ": metrics (" ^ ename ^ ")")
          (metrics_fingerprint r_ref.Gofree_interp.Runner.metrics)
          (metrics_fingerprint r_cmp.Gofree_interp.Runner.metrics)
      end)
    engines

(* ---- the six workload proxies -------------------------------------- *)

let test_workload (w : W.t) () =
  let size = max 10 (w.W.w_default_size / 5) in
  let src = W.source_of ~size w in
  check_identical ~name:w.W.w_name src;
  (* the Go setting exercises the no-tcfree configuration too *)
  check_identical ~name:(w.W.w_name ^ " (go)")
    ~config:Gofree_core.Config.go src

let workload_cases =
  List.map
    (fun (w : W.t) ->
      Alcotest.test_case ("workload " ^ w.W.w_name) `Quick (test_workload w))
    W.all

(* ---- feature-dense programs ---------------------------------------- *)

(* Goroutines, defers and a cross-fiber map: exercises the scheduler
   interleaving, defer argument pinning and interned spawn targets. *)
let src_goroutines =
  {|
var results map[int]int

func worker(base int, n int) {
  s := make([]int, 0, 1)
  for i := 0; i < n; i = i + 1 {
    s = append(s, base*100+i)
  }
  total := 0
  for i := 0; i < len(s); i = i + 1 {
    total = total + s[i]
  }
  results[base] = total
}

func cleanup(tag int) {
  results[tag] = results[tag] + 1000000
}

func main() {
  results = make(map[int]int)
  defer cleanup(1)
  for g := 0; g < 4; g = g + 1 {
    go worker(g, 200)
  }
  spin := 0
  for i := 0; i < 2000; i = i + 1 {
    spin = spin + i
  }
  println(spin)
}
|}

(* Panic/recover through nested calls with defers on the unwind path. *)
let src_panic_recover =
  {|
func guard() string {
  msg := recover()
  println("recovered:", msg)
  return msg
}

func risky(n int) int {
  defer guard()
  buf := make([]int, 4)
  if n > 2 {
    panic("too big")
  }
  return buf[n]
}

func main() {
  println(risky(1))
  println(risky(5))
  println("done")
}
|}

(* Map churn with growth (GrowMapAndFreeOld), deletes and range. *)
let src_map_churn =
  {|
func main() {
  m := make(map[string]int)
  for i := 0; i < 300; i = i + 1 {
    m[itoa(i)] = i * 2
  }
  for i := 0; i < 150; i = i + 1 {
    delete(m, itoa(i*2))
  }
  sum := 0
  for k := range m {
    sum = sum + m[k]
  }
  println(len(m), sum)
}
|}

(* Struct/pointer traffic: nested field addresses, boxed locals, slices
   of structs — the eval_addr / owner-of-base corner cases, plus the
   bytecode engine's struct-field inline caches. *)
let src_structs =
  {|
type Point struct { x int; y int }
type Box struct { p Point; tag int }

func bump(pt *Point) {
  pt.x = pt.x + 1
}

func main() {
  boxes := make([]Box, 8)
  for i := 0; i < len(boxes); i = i + 1 {
    boxes[i] = Box{p: Point{x: i, y: i * 2}, tag: i}
  }
  for i := 0; i < len(boxes); i = i + 1 {
    bump(&boxes[i].p)
  }
  total := 0
  for i := 0; i < len(boxes); i = i + 1 {
    total = total + boxes[i].p.x + boxes[i].p.y
  }
  b := Box{p: Point{x: 1, y: 2}, tag: 9}
  q := &b.p
  q.y = 40
  println(total, b.p.y)
}
|}

(* Slices: literals, sub-slicing, copy, append growth and shrink. *)
let src_slices =
  {|
func main() {
  base := []int{1, 2, 3, 4, 5, 6, 7, 8}
  view := base[2:6]
  out := make([]int, len(view))
  n := copy(out, view)
  for i := 0; i < 50; i = i + 1 {
    out = append(out, i*i)
  }
  s := "hello world"
  sub := substr(s, 6, len(s))
  total := 0
  for i := 0; i < len(out); i = i + 1 {
    total = total + out[i]
  }
  println(n, total, sub, cap(out))
}
|}

(* Repeated same-key map reads with interleaved stores and deletes: the
   map-site inline cache's hit and invalidation paths must not change
   what a lookup observes. *)
let src_ic_invalidation =
  {|
func main() {
  m := make(map[string]int)
  m["hot"] = 1
  total := 0
  for i := 0; i < 100; i = i + 1 {
    total = total + m["hot"]
    if i == 30 {
      m["hot"] = 7
    }
    if i == 60 {
      delete(m, "hot")
    }
    if i == 80 {
      m["hot"] = 3
    }
  }
  for i := 0; i < 40; i = i + 1 {
    m[itoa(i)] = i
    total = total + m["hot"]
  }
  println(total, len(m))
}
|}

(* A field address whose base is a nested struct value, one function per
   arm of the owner computation: through a pointer ([&p.in.f]), a slice
   element ([&a[i].in.g]), a variable ([o.in.f = ...], [&o.in.f]) and an
   explicit dereference ([&( *q).in.g]).  Each returned pointer is the last
   reference to its object across the GCs [churn] forces, so under
   poison a pointer that lost its owner reads freed memory. *)
let src_nested_field_addr =
  {|
type In struct {
  f int
  g int
}

type Outer struct {
  in  In
  tag int
}

var keep []int

func churn(n int) {
  for i := 0; i < n; i = i + 1 {
    t := make([]int, 32+rand(2))
    t[1] = i
    keep = t
  }
}

func viaPtr() *int {
  p := &Outer{tag: 1}
  p.in.f = 11
  return &p.in.f
}

func viaElem() *int {
  a := make([]Outer, 3+rand(2))
  a[1].in.g = 22
  return &a[1].in.g
}

func viaLocal() *int {
  var o Outer
  o.in.f = 33
  return &o.in.f
}

func viaDeref() *int {
  q := &Outer{tag: 4}
  (*q).in.g = 44
  return &(*q).in.g
}

func main() {
  var o Outer
  o.in.g = 5
  r := &o.in.g
  p1 := viaPtr()
  p2 := viaElem()
  p3 := viaLocal()
  p4 := viaDeref()
  churn(3000)
  println(*p1, *p2, *p3, *p4, *r)
  *p1 = *p1 + 1
  *p2 = *p2 + 1
  *p3 = *p3 + 1
  *p4 = *p4 + 1
  *r = *r + 1
  churn(3000)
  println(*p1, *p2, *p3, *p4, *r, o.in.g)
}
|}

let test_nested_field_addr () =
  List.iter
    (fun (name, config) ->
      check_identical ~name ~config ~poison:true src_nested_field_addr;
      let r =
        run_mode ~engine:Gofree_interp.Interp.Eng_reference ~config
          ~poison:true src_nested_field_addr
      in
      Alcotest.(check string)
        (name ^ ": output") "11 22 33 44 5\n12 23 34 45 6 6\n"
        r.Gofree_interp.Runner.output;
      Alcotest.(check bool)
        (name ^ ": GC ran") true
        (r.Gofree_interp.Runner.metrics.Rt.Metrics.gc_cycles > 0))
    [ ("nested field addr", Gofree_core.Config.gofree);
      ("nested field addr (go)", Gofree_core.Config.go) ]

let feature_cases =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          check_identical ~name src;
          check_identical ~name:(name ^ " (go)")
            ~config:Gofree_core.Config.go src))
    [
      ("goroutines+defer", src_goroutines);
      ("panic+recover", src_panic_recover);
      ("map churn", src_map_churn);
      ("structs+pointers", src_structs);
      ("slices", src_slices);
      ("ic invalidation", src_ic_invalidation);
    ]
  @ [
      Alcotest.test_case "nested field addresses under poison" `Quick
        test_nested_field_addr;
    ]

(* ---- random programs ----------------------------------------------- *)

let prop_random_identical =
  QCheck.Test.make ~count:40
    ~name:"random programs: all engines == reference metrics"
    QCheck.(make ~print:string_of_int Gen.(0 -- 1_000_000))
    (fun seed ->
      let src = Gen_program.generate seed in
      let r_ref = run_mode ~engine:Gofree_interp.Interp.Eng_reference src in
      List.iter
        (fun (ename, engine) ->
          if engine <> Gofree_interp.Interp.Eng_reference then begin
            let r_cmp = run_mode ~engine src in
            if
              not
                (String.equal r_ref.Gofree_interp.Runner.output
                   r_cmp.Gofree_interp.Runner.output)
            then
              QCheck.Test.fail_reportf "%s output differs for seed %d:\n%s"
                ename seed src;
            if
              r_ref.Gofree_interp.Runner.steps
              <> r_cmp.Gofree_interp.Runner.steps
            then
              QCheck.Test.fail_reportf "%s step count differs for seed %d"
                ename seed;
            if
              not
                (String.equal
                   (metrics_fingerprint r_ref.Gofree_interp.Runner.metrics)
                   (metrics_fingerprint r_cmp.Gofree_interp.Runner.metrics))
            then
              QCheck.Test.fail_reportf "%s metrics differ for seed %d:\n%s"
                ename seed src
          end)
        engines;
      true)

let suite =
  workload_cases @ feature_cases
  @ [ QCheck_alcotest.to_alcotest prop_random_identical ]
