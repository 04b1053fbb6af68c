let () =
  Alcotest.run "stm-strong"
    (Test_runtime.suite @ Test_core.suite @ Test_litmus.suite @ Test_jtlang.suite @ Test_interp.suite @ Test_analysis.suite @ Test_jit.suite @ Test_workloads.suite @ Test_oracles.suite @ Test_serializability.suite @ Test_check.suite @ Test_mvcc.suite @ Test_more.suite @ Test_obs.suite @ Test_cm.suite @ Test_diag.suite @ Test_store.suite @ Test_lint.suite)
