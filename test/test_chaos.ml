(* Tests for the hostile-network layer: the chaos spec/verdict machinery
   in isolation, the reliable transport's counters end-to-end, and the
   gauntlet the ISSUE demands — every workload through loss, duplication,
   reordering, delay spikes and a transient partition, on dozens of
   seeds, with the recovery oracle asserted on every single run. *)

module Chaos = Recflow_net.Chaos
module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Counter = Recflow_stats.Counter
module Plan = Recflow_fault.Plan
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- spec classification & validation ---------------- *)

let spec_classes () =
  check "none is quiet" true (Chaos.quiet Chaos.none);
  check "none is not lossy" false (Chaos.lossy Chaos.none);
  let dropping = Plan.drop_rate 0.1 Chaos.none in
  check "drop is not quiet" false (Chaos.quiet dropping);
  check "drop is lossy" true (Chaos.lossy dropping);
  let dupping = Plan.duplicate_rate 0.3 Chaos.none in
  check "dup is not quiet" false (Chaos.quiet dupping);
  check "dup alone is not lossy" false (Chaos.lossy dupping);
  let cut = Plan.partition ~from:10 ~until:20 ~groups:[ [ 1 ] ] Chaos.none in
  check "partition is lossy" true (Chaos.lossy cut)

let spec_validation () =
  let bad name spec =
    check name true (Result.is_error (Chaos.validate spec))
  in
  check "none validates" true (Result.is_ok (Chaos.validate Chaos.none));
  bad "drop_rate 1.0" { Chaos.none with Chaos.drop_rate = 1.0 };
  bad "negative drop_rate" { Chaos.none with Chaos.drop_rate = -0.1 };
  bad "dup_rate 1.0" { Chaos.none with Chaos.dup_rate = 1.0 };
  bad "reorder rate without spread"
    { Chaos.none with Chaos.reorder_rate = 0.5; reorder_spread = 0 };
  bad "spike rate without max"
    { Chaos.none with Chaos.spike_rate = 0.5; spike_max = 0 };
  bad "inverted window"
    (Plan.partition ~from:100 ~until:100 ~groups:[ [ 1 ] ] Chaos.none);
  bad "negative window start"
    (Plan.partition ~from:(-1) ~until:100 ~groups:[ [ 1 ] ] Chaos.none)

(* ---------------- partition semantics ---------------- *)

let severed_islands () =
  let spec = Plan.partition ~from:100 ~until:200 ~groups:[ [ 1; 2 ] ] Chaos.none in
  let cut now src dst = Chaos.severed spec ~now ~src ~dst in
  check "closed before the window" false (cut 99 0 1);
  check "cut during the window" true (cut 100 0 1);
  check "cut is symmetric" true (cut 150 1 0);
  check "same island passes" false (cut 150 1 2);
  check "implicit island passes" false (cut 150 0 3);
  check "implicit to listed is cut" true (cut 150 3 2);
  check "window end is exclusive" false (cut 200 0 1);
  check "self-send never severed" false (cut 150 1 1);
  check "super-root never severed" false (cut 150 (-1) 1)

(* ---------------- verdict stream determinism ---------------- *)

let stormy =
  Chaos.none |> Plan.drop_rate 0.3 |> Plan.duplicate_rate 0.3
  |> Plan.reorder ~rate:0.3 ~spread:50
  |> Plan.delay_spikes ~rate:0.2 ~max_delay:300

let verdicts t n =
  List.init n (fun i -> Chaos.decide t ~now:i ~src:(i mod 7) ~dst:((i + 1) mod 7))

let decide_deterministic () =
  let a = verdicts (Chaos.create ~seed:99 stormy) 300 in
  let b = verdicts (Chaos.create ~seed:99 stormy) 300 in
  check "same seed, same weather" true (a = b);
  let c = verdicts (Chaos.create ~seed:100 stormy) 300 in
  check "different seed, different weather" false (a = c)

let self_sends_draw_nothing () =
  (* local delivery must neither be perturbed nor advance the stream —
     otherwise arming chaos would re-time purely local computation *)
  let a = Chaos.create ~seed:7 stormy and b = Chaos.create ~seed:7 stormy in
  for i = 0 to 49 do
    check "self-send passes untouched" true
      (Chaos.decide a ~now:i ~src:3 ~dst:3 = Chaos.Pass { extra_delays = [ 0 ] })
  done;
  check "self-sends consumed no randomness" true (verdicts a 100 = verdicts b 100)

let none_spec_passes_everything () =
  let t = Chaos.create ~seed:5 Chaos.none in
  check "quiet spec is a no-op" true
    (List.for_all
       (fun v -> v = Chaos.Pass { extra_delays = [ 0 ] })
       (verdicts t 200))

let drop_rate_statistics () =
  let t = Chaos.create ~seed:11 (Plan.drop_rate 0.5 Chaos.none) in
  let n = 4000 in
  let dropped =
    List.length (List.filter (function Chaos.Drop _ -> true | _ -> false) (verdicts t n))
  in
  let frac = float_of_int dropped /. float_of_int n in
  check "empirical drop rate near 0.5" true (frac > 0.45 && frac < 0.55)

(* ---------------- transport end-to-end ---------------- *)

let run_chaotic ?(nodes = 8) ?(seed = 1) ?(suspicion_after = 1500) chaos w =
  let base = Config.default ~nodes in
  let cfg =
    {
      base with
      Config.recovery = Config.Splice;
      seed;
      chaos;
      reliable = true;
      retry = { Config.suspicion_after };
    }
  in
  let c = Cluster.create cfg (Workload.program w) in
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Tiny);
  let o = Cluster.run ~drain:true c in
  ignore (Oracle.assert_ok c);
  (match o.Cluster.answer with
  | Some v ->
      check (w.Workload.name ^ " answer") true
        (Value.equal v (Workload.expected w Workload.Tiny))
  | None -> Alcotest.failf "%s: no answer under chaos" w.Workload.name);
  c

let counter c name = Counter.get (Cluster.counters c) name

let duplicates_suppressed () =
  let c = run_chaotic (Plan.duplicate_rate 0.5 Chaos.none) Workload.tree_sum in
  check "duplicates were injected and caught" true (counter c "net.dup_suppressed" > 0);
  check_int "nothing was dropped" 0 (counter c "net.msg_dropped");
  check_int "no one was suspected" 0 (counter c "net.suspected")

let losses_retransmitted () =
  let c = run_chaotic (Plan.drop_rate 0.25 Chaos.none) Workload.tree_sum in
  check "losses occurred" true (counter c "net.msg_dropped" > 0);
  check "retransmission recovered them" true (counter c "net.retransmit" > 0);
  check_int "patience avoided suspicion" 0 (counter c "net.suspected")

let partition_breeds_false_suspicion () =
  (* a long partition with an aggressive timeout: senders give up on the
     island, falsely suspect live processors, and twins finish the job —
     determinacy (§2) makes the duplicated computation benign *)
  let chaos =
    Chaos.none
    |> Plan.drop_rate 0.05
    |> Plan.partition ~from:300 ~until:30_000 ~groups:[ [ 1; 2 ] ]
  in
  let c = run_chaotic ~suspicion_after:600 chaos Workload.tree_sum in
  check "silence bred suspicion" true (counter c "net.suspected" > 0);
  check "and every suspicion was false" true
    (counter c "net.false_suspicion" = counter c "net.suspected")

(* ---------------- the gauntlet ---------------- *)

let gauntlet_seeds = [ 11; 42; 137; 271; 828; 1729; 4242; 90001 ]

let hostile =
  Chaos.none |> Plan.drop_rate 0.2 |> Plan.duplicate_rate 0.1
  |> Plan.reorder ~rate:0.15 ~spread:80
  |> Plan.delay_spikes ~rate:0.05 ~max_delay:400
  |> Plan.partition ~from:600 ~until:1500 ~groups:[ [ 1; 2 ] ]

let gauntlet () =
  (* ISSUE acceptance: with drop 0.2, dup 0.1 and one transient
     partition, every workload reaches the serial answer on >= 50 seeded
     runs, oracle asserted each time (run_chaotic does both) *)
  let runs = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun seed ->
          ignore (run_chaotic ~seed ~suspicion_after:900 hostile w);
          incr runs)
        gauntlet_seeds)
    Workload.all;
  check "at least 50 chaos runs" true (!runs >= 50)

let suites =
  [
    ( "chaos.spec",
      [
        Alcotest.test_case "classification" `Quick spec_classes;
        Alcotest.test_case "validation" `Quick spec_validation;
        Alcotest.test_case "partition islands" `Quick severed_islands;
        Alcotest.test_case "decide deterministic" `Quick decide_deterministic;
        Alcotest.test_case "self-sends untouched" `Quick self_sends_draw_nothing;
        Alcotest.test_case "quiet spec passes all" `Quick none_spec_passes_everything;
        Alcotest.test_case "drop statistics" `Quick drop_rate_statistics;
      ] );
    ( "chaos.transport",
      [
        Alcotest.test_case "duplicates suppressed" `Quick duplicates_suppressed;
        Alcotest.test_case "losses retransmitted" `Quick losses_retransmitted;
        Alcotest.test_case "false suspicion benign" `Quick partition_breeds_false_suspicion;
      ] );
    ("chaos.gauntlet", [ Alcotest.test_case "50+ hostile runs, all correct" `Slow gauntlet ]);
  ]
