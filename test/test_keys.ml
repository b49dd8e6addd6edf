(** Unit keys must not move.  An analysis unit's key digests the
    pretty-printed text of its bodies ({!Minigo.Pretty.func_to_string}),
    so any change to that text silently invalidates every [.units]
    cache on disk.  Both goldens below were written by the printer the
    current key version ([gofree-unit-key-v2]) was defined with:

    - [golden/pretty_all.txt]: [gofreec instrument --all-targets] of
      [golden/pretty_all.go], a program that reaches every expression,
      lvalue and statement constructor of the typed AST, inserted frees
      of all three kinds included;
    - [golden/units/*.units]: the unit records a cold
      [gofreec build examples/multipkg] writes, keys included.

    Regenerate them only together with a key-version bump. *)

open Minigo

let read = Helpers.read_file

let test_pretty_golden () =
  let c =
    Helpers.compile ~config:Gofree_core.Config.all_targets
      (read (Helpers.golden "pretty_all.go"))
  in
  let p = c.Gofree_core.Pipeline.c_program in
  let expected = read (Helpers.golden "pretty_all.txt") in
  Alcotest.(check string)
    "program text matches the golden" expected (Pretty.program_to_string p);
  Alcotest.(check string)
    "program text is the functions' text, blank-line separated" expected
    (String.concat ""
       (List.map (fun f -> Pretty.func_to_string f ^ "\n\n") p.Tast.p_funcs))

(* [examples/multipkg] sits beside the test directory under dune and
   under the repository root otherwise. *)
let multipkg_dir () =
  let beside =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../examples/multipkg"
  in
  if Sys.file_exists beside then beside else "examples/multipkg"

let rec copy_go_files ~src ~dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = Filename.concat src name and d = Filename.concat dst name in
      if Sys.is_directory s then begin
        if name.[0] <> '.' then copy_go_files ~src:s ~dst:d
      end
      else if Filename.check_suffix name ".go" then begin
        let oc = open_out_bin d in
        output_string oc (read s);
        close_out oc
      end)
    (Sys.readdir src)

let test_units_golden () =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gofree-keys-test-%d" (Unix.getpid ()))
  in
  copy_go_files ~src:(multipkg_dir ()) ~dst:root;
  let cache_dir = Filename.concat root "cache" in
  ignore (Gofree_build.Driver.build ~cache_dir root);
  List.iter
    (fun pkg ->
      let file = pkg ^ ".units" in
      Alcotest.(check string)
        (file ^ " matches the golden")
        (read (Helpers.golden ("units/" ^ file)))
        (read (Filename.concat cache_dir file)))
    [ "util"; "data"; "main" ];
  Alcotest.(check int)
    "a cold build writes one record file per package" 3
    (Array.length (Sys.readdir cache_dir))

let suite =
  [
    Alcotest.test_case "pretty-printer golden" `Quick test_pretty_golden;
    Alcotest.test_case "multipkg unit records golden" `Quick
      test_units_golden;
  ]
