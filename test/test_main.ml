(** Test entry point: one alcotest run over every suite. *)

let () =
  Alcotest.run "gofree"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("typecheck", Test_typecheck.suite);
      ("escape", Test_escape.suite);
      ("propagate", Test_propagate.suite);
      ("lifetime", Test_lifetime.suite);
      ("ipa", Test_ipa.suite);
      ("summary", Test_summary.suite);
      ("instrument", Test_instrument.suite);
      ("build", Test_build.suite);
      ("incremental", Test_incremental.suite);
      ("keys", Test_keys.suite);
      ("runtime", Test_runtime.suite);
      ("tcfree", Test_tcfree.suite);
      ("gc", Test_gc.suite);
      ("interp", Test_interp.suite);
      ("slicing", Test_slicing.suite);
      ("baselines", Test_baselines.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("workloads", Test_workloads.suite);
      ("robustness", Test_robustness.suite);
      ("properties", Test_props.suite);
      ("sizeclass-equiv", Test_sizeclass_equiv.suite);
      ("compile-differential", Test_compile_differential.suite);
      ("slice-store", Test_slice_store.suite);
      ("parallel", Test_parallel.suite);
      ("precision", Test_precision.suite);
      ("disasm", Test_disasm.suite);
      ("api", Test_api.suite);
      ("server", Test_server.suite);
      ("load", Test_load.suite);
      ("telemetry", Test_telemetry.suite);
    ]
