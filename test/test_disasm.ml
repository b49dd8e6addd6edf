(** Golden-file tests of the bytecode disassembler ([gofreec disasm]).

    Each case compiles a checked-in source under the gofree preset,
    lowers it with {!Gofree_interp.Emit} and compares the disassembly
    against the checked-in [.disasm] listing byte for byte.  The listing
    is the frozen shape of the ISA: opcode names, operand resolution
    (slot names, interned callees, inline-cache sites) and the stack /
    frame header.  A diff here means the emitter or the opcode table
    changed — regenerate with
    [dune exec bin/gofreec.exe -- disasm test/golden/FILE.go] only when
    that change is intentional. *)

let check_golden name () =
  let src = Helpers.read_file (Helpers.golden (name ^ ".go")) in
  let expected = Helpers.read_file (Helpers.golden (name ^ ".disasm")) in
  let got =
    match Gofree_api.disassemble_string src with
    | Ok s -> s
    | Error e -> Alcotest.fail (Gofree_api.error_message e)
  in
  Alcotest.(check string) (name ^ ": disassembly") expected got

(* The disassembly must stay in sync with what actually executes: the
   listed program and the one the runner installs come from the same
   lowering, so a listing that parses as non-empty with the expected
   header shape is cross-checked by running the program too. *)
let test_disasm_matches_run () =
  let src = Helpers.read_file (Helpers.golden "maps_structs.go") in
  (match Gofree_api.run_string src with
  | Ok outcome ->
    Alcotest.(check bool) "runs clean" false outcome.Gofree_api.panicked
  | Error e -> Alcotest.fail (Gofree_api.error_message e));
  match Gofree_api.disassemble_string src with
  | Ok s ->
    Alcotest.(check bool)
      "has per-function headers" true
      (String.length s > 0
      && String.sub s 0 5 = "func "
      && String.length (String.concat "" (String.split_on_char '\n' s))
         > 100)
  | Error e -> Alcotest.fail (Gofree_api.error_message e)

let suite =
  [
    Alcotest.test_case "golden arith_loop" `Quick
      (check_golden "arith_loop");
    Alcotest.test_case "golden maps_structs" `Quick
      (check_golden "maps_structs");
    Alcotest.test_case "disasm consistent with run" `Quick
      test_disasm_matches_run;
  ]
