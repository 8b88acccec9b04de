let () =
  (* VMALLOC_OBS=1 (or true, yes) runs the whole suite with live metric
     sinks (the CI matrix does), so the instrumented paths get exercised
     too. *)
  (match Sys.getenv_opt "VMALLOC_OBS" with
  | Some ("1" | "true" | "yes") -> Obs.Metrics.set_enabled true
  | Some _ | None -> ());
  Alcotest.run "vmalloc"
    [
      ("vector", Test_vector.suite);
      ("epair+metric", Test_epair.suite);
      ("lp", Test_lp.suite);
      ("simplex-diff", Test_simplex_diff.suite);
      ("branch-bound", Test_branch_bound.suite);
      ("model", Test_model.suite);
      ("codec", Test_codec.suite);
      ("packing", Test_packing.suite);
      ("heuristics", Test_heuristics.suite);
      ("binary-search-diff", Test_binary_search_diff.suite);
      ("batch-diff", Test_batch_diff.suite);
      ("kernel-diff", Test_kernel_diff.suite);
      ("greedy-criteria", Test_greedy_criteria.suite);
      ("workload", Test_workload.suite);
      ("sharing", Test_sharing.suite);
      ("stats", Test_stats.suite);
      ("experiments", Test_experiments.suite);
      ("rng", Test_rng.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("timeline", Test_timeline.suite);
      ("simulator", Test_simulator.suite);
      ("sharded", Test_sharded.suite);
      ("repair-diff", Test_repair_diff.suite);
    ]
