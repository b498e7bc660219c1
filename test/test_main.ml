(* Aggregated alcotest entry point: one section per library. *)

let () =
  Alcotest.run "recflow"
    (Test_sim.suites @ Test_stats.suites @ Test_lang.suites @ Test_net.suites
   @ Test_balance.suites @ Test_recovery.suites @ Test_node.suites @ Test_machine.suites
   @ Test_fault.suites @ Test_chaos.suites @ Test_workload.suites @ Test_baselines.suites @ Test_experiments.suites
   @ Test_trace.suites @ Test_obs.suites @ Test_parallel.suites @ Test_analysis.suites
   @ Test_cost_prop.suites
   @ Test_stamp_prop.suites @ Test_eval_prop.suites @ Test_determinism.suites @ Test_scale.suites
   @ Test_service.suites @ Test_alloc_budget.suites @ Test_uid_index.suites
   @ Test_child_slots.suites @ Test_instance_model.suites @ Test_settle.suites)
