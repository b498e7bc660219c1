(* Tests for the comparator models: periodic checkpointing and TMR. *)

module Periodic = Recflow_baselines.Periodic
module Tmr = Recflow_baselines.Tmr

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p ~interval ~save ~restore = { Periodic.interval; save_cost = save; restore_cost = restore }

let periodic_fault_free () =
  (* 100 work, checkpoint every 25 costing 10: saves at 25,50,75,100 *)
  let r = Periodic.simulate (p ~interval:25 ~save:10 ~restore:0) ~work:100 ~failures:[] in
  check_int "checkpoints" 4 (Periodic.(r.checkpoints_taken));
  check_int "completion" 140 Periodic.(r.completion_time);
  Alcotest.(check (float 1e-9)) "overhead" 0.4 Periodic.(r.overhead);
  check_int "nothing lost" 0 Periodic.(r.work_lost)

let periodic_zero_work () =
  let r = Periodic.simulate (p ~interval:10 ~save:1 ~restore:1) ~work:0 ~failures:[ 5 ] in
  check_int "instant" 0 Periodic.(r.completion_time)

let periodic_failure_rolls_back () =
  (* interval 25, save 10: the first snapshot commits at t=35.  A failure
     at t=45 is ten ticks into the second span and loses exactly that
     uncheckpointed work. *)
  let r = Periodic.simulate (p ~interval:25 ~save:10 ~restore:5) ~work:50 ~failures:[ 45 ] in
  check "work was lost" true (Periodic.(r.work_lost) > 0);
  check "completion delayed beyond fault-free" true
    (Periodic.(r.completion_time)
    > Periodic.(
        (simulate (p ~interval:25 ~save:10 ~restore:5) ~work:50 ~failures:[]).completion_time))

let periodic_more_frequent_less_lost () =
  (* with a late failure, tighter checkpoint intervals lose less work *)
  let lost interval =
    Periodic.(
      (simulate (p ~interval ~save:5 ~restore:5) ~work:1000 ~failures:[ 800 ]).work_lost)
  in
  check "10 <= 100" true (lost 10 <= lost 100);
  check "100 <= 1000" true (lost 100 <= lost 1000)

let periodic_tradeoff () =
  (* ...but tighter intervals cost more fault-free overhead: the paper's
     argument against periodic schemes *)
  let overhead interval =
    Periodic.fault_free_overhead (p ~interval ~save:5 ~restore:5) ~work:1000
  in
  check "overhead decreasing in interval" true
    (overhead 10 > overhead 100 && overhead 100 > overhead 500)

let periodic_multi_failures () =
  let r =
    Periodic.simulate (p ~interval:50 ~save:5 ~restore:5) ~work:200 ~failures:[ 60; 60; 300 ]
  in
  check "completes" true (Periodic.(r.completion_time) > 200)

let periodic_validation () =
  check "bad interval" true
    (try
       ignore (Periodic.simulate (p ~interval:0 ~save:1 ~restore:1) ~work:10 ~failures:[]);
       false
     with Invalid_argument _ -> true);
  check "negative work" true
    (try
       ignore (Periodic.simulate (p ~interval:5 ~save:1 ~restore:1) ~work:(-1) ~failures:[]);
       false
     with Invalid_argument _ -> true)

let tmr_estimates () =
  check_int "3x work over 6 procs" 500
    (Tmr.completion_estimate Tmr.default ~work:1000 ~procs:6 ~tasks:0);
  check_int "votes included" 510
    (Tmr.completion_estimate Tmr.default ~work:1000 ~procs:6 ~tasks:60);
  Alcotest.(check (float 1e-9)) "overhead" 2.0 (Tmr.overhead Tmr.default);
  check_int "masks one" 1 (Tmr.masked_failures Tmr.default);
  check_int "5 copies mask two" 2 (Tmr.masked_failures { Tmr.copies = 5; vote_cost = 0 })

let suites =
  [
    ( "baselines.periodic",
      [
        Alcotest.test_case "fault free" `Quick periodic_fault_free;
        Alcotest.test_case "zero work" `Quick periodic_zero_work;
        Alcotest.test_case "failure rolls back" `Quick periodic_failure_rolls_back;
        Alcotest.test_case "frequency vs loss" `Quick periodic_more_frequent_less_lost;
        Alcotest.test_case "frequency vs overhead" `Quick periodic_tradeoff;
        Alcotest.test_case "multiple failures" `Quick periodic_multi_failures;
        Alcotest.test_case "validation" `Quick periodic_validation;
      ] );
    ("baselines.tmr", [ Alcotest.test_case "estimates" `Quick tmr_estimates ]);
  ]
