let () =
  Alcotest.run "mdqa"
    (Test_relational.suites @ Test_datalog.suites @ Test_multidim.suites
    @ Test_hospital.suites @ Test_telecom.suites @ Test_extensions.suites
    @ Test_tutorial.suites @ Test_guard.suites @ Test_diag.suites
    @ Test_store.suites @ Test_server.suites @ Test_replication.suites
    @ Test_obs.suites @ Test_plan.suites @ Test_incremental.suites)
