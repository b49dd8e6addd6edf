(* Tests of the benchmark itself: its inputs are a function of the seed
   alone, and the deterministic counters it reports repeat exactly. *)

open Perfbench

let multipkg_dir = Filename.concat ".." (Filename.concat "examples" "multipkg")

(* Everything a run with [seed] feeds the program, in one string. *)
let inputs seed =
  let progs = Gen.exec_programs ~seed @ [ Gen.fanout_program ~seed ] in
  let tree = Gen.build_tree ~multipkg_dir ~seed in
  let edits = Gen.edit_sequence ~seed ~n:64 in
  let ssa = List.assoc Gen.ssa_file tree in
  let edited = List.fold_left Gen.toggle_pad ssa edits in
  String.concat "\x00"
    (List.concat_map
       (fun (p : Gen.program) -> [ p.Gen.name; p.Gen.source; Int64.to_string p.Gen.run_seed ])
       progs
    @ List.map string_of_int (Array.to_list (Gen.exec_order ~seed ~n:6 ~passes:8))
    @ List.concat_map (fun (f, s) -> [ f; s ]) tree
    @ edits @ [ edited ])

let test_same_seed () =
  Alcotest.(check bool) "byte-identical" true (String.equal (inputs 7) (inputs 7))

let test_other_seed () =
  let a = 7 and b = 8 in
  Alcotest.(check bool) "inputs differ" false (String.equal (inputs a) (inputs b));
  Alcotest.(check bool) "run seeds differ" true
    (List.map (fun p -> p.Gen.run_seed) (Gen.exec_programs ~seed:a)
    <> List.map (fun p -> p.Gen.run_seed) (Gen.exec_programs ~seed:b));
  Alcotest.(check bool) "run order differs" true
    (Gen.exec_order ~seed:a ~n:6 ~passes:8 <> Gen.exec_order ~seed:b ~n:6 ~passes:8);
  Alcotest.(check bool) "ssa package differs" true
    (Gen.ssa_source ~seed:a <> Gen.ssa_source ~seed:b);
  Alcotest.(check bool) "edit sequence differs" true
    (Gen.edit_sequence ~seed:a ~n:64 <> Gen.edit_sequence ~seed:b ~n:64)

let test_toggle_roundtrip () =
  let ssa = Gen.ssa_source ~seed:3 in
  let once = Gen.toggle_pad ssa "fn7" in
  Alcotest.(check bool) "edit changes the source" false (String.equal ssa once);
  Alcotest.(check string) "second toggle restores it" ssa (Gen.toggle_pad once "fn7")

(* One traced exec pass (each of the six programs once), returning the
   counters that must repeat exactly. *)
let exec_counters seed =
  let spans = Spans.create () in
  spans.Spans.enabled <- true;
  let ctx =
    {
      Bench.seed; root = Sys.getcwd (); spans; domains = 1;
      setup_layer = Hashtbl.create 64; op_layer = Hashtbl.create 64;
      traced_ops = 0; attempted = 0; failed = 0; cal_ms = [];
    }
  in
  let w = Bench.exec ctx in
  (* the loop always completes its first pass *)
  let samples = w.Bench.run ~seconds:0. in
  let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
  let op k = get ctx.Bench.op_layer k in
  ( Array.length samples,
    ctx.Bench.failed,
    [
      ("escape.walk_steps", get ctx.Bench.setup_layer "escape.walk_steps");
      ("interp.steps", op "interp.steps");
      ("runtime.gc_cycles", op "runtime.gc_cycles");
      ("runtime.free_ratio", op "runtime.freed_bytes" /. op "runtime.alloced_bytes");
    ] )

let test_deterministic_counters () =
  let n1, f1, c1 = exec_counters 5 and n2, f2, c2 = exec_counters 5 in
  Alcotest.(check int) "one pass" 6 n1;
  Alcotest.(check int) "same ops" n1 n2;
  Alcotest.(check int) "no failed op" 0 (f1 + f2);
  List.iter2
    (fun (k, a) (_, b) ->
      Alcotest.(check bool) (k ^ " is measured") true (a > 0.);
      Alcotest.(check (float 0.)) k a b)
    c1 c2

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "other seed, other inputs" `Quick test_other_seed;
          Alcotest.test_case "edit toggle round-trips" `Quick test_toggle_roundtrip;
        ] );
      ( "counters",
        [ Alcotest.test_case "exec counters repeat" `Quick test_deterministic_counters ] );
    ]
