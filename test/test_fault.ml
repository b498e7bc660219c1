(* Tests for fault plans plus a correctness fuzz: random multi-failure
   schedules against the full machine.  The fuzz is the broadest net in
   the suite — any protocol hole that loses a result or deadlocks shows
   up as a wrong/missing answer here. *)

module Plan = Recflow_fault.Plan
module Rng = Recflow_sim.Rng
module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value
module Policy = Recflow_balance.Policy

let check = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- plan generators ---------------- *)

let burst_shape () =
  let rng = Rng.create 5 in
  let plan = Plan.random_burst ~rng ~procs:8 ~count:3 ~lo:100 ~hi:500 in
  check "three failures" true (List.length plan = 3);
  check "times in range and sorted" true
    (let rec sorted = function
       | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
       | _ -> true
     in
     sorted plan && List.for_all (fun (t, _) -> t >= 100 && t <= 500) plan);
  check "victims distinct and in range" true
    (let vs = List.map snd plan in
     List.length (List.sort_uniq compare vs) = 3 && List.for_all (fun v -> v >= 0 && v < 8) vs)

let burst_caps_at_procs () =
  let rng = Rng.create 5 in
  let plan = Plan.random_burst ~rng ~procs:4 ~count:10 ~lo:0 ~hi:10 in
  check "capped at processor count" true (List.length plan = 4)

let poisson_shape () =
  let rng = Rng.create 7 in
  let plan = Plan.poisson ~rng ~procs:8 ~mean_interval:300.0 ~until:2000 in
  check "within horizon" true (List.for_all (fun (t, _) -> t <= 2000) plan);
  check "times nondecreasing" true
    (let rec sorted = function
       | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
       | _ -> true
     in
     sorted plan);
  check "victims distinct" true
    (let vs = List.map snd plan in
     List.length (List.sort_uniq compare vs) = List.length vs)

let generators_validate () =
  let rng = Rng.create 1 in
  check "bad procs" true
    (try ignore (Plan.random_burst ~rng ~procs:0 ~count:1 ~lo:0 ~hi:1); false
     with Invalid_argument _ -> true);
  check "bad count" true
    (try ignore (Plan.random_burst ~rng ~procs:2 ~count:(-1) ~lo:0 ~hi:1); false
     with Invalid_argument _ -> true);
  check "bad range" true
    (try ignore (Plan.random_burst ~rng ~procs:2 ~count:1 ~lo:5 ~hi:1); false
     with Invalid_argument _ -> true);
  check "bad interval" true
    (try ignore (Plan.poisson ~rng ~procs:2 ~mean_interval:0.0 ~until:10); false
     with Invalid_argument _ -> true);
  check "bad horizon" true
    (try ignore (Plan.poisson ~rng ~procs:2 ~mean_interval:5.0 ~until:(-1)); false
     with Invalid_argument _ -> true);
  check "bad poisson procs" true
    (try ignore (Plan.poisson ~rng ~procs:0 ~mean_interval:5.0 ~until:10); false
     with Invalid_argument _ -> true)

(* ---------------- plan properties ---------------- *)

let prop_burst =
  QCheck.Test.make ~name:"prop: random_burst victims distinct, times within [lo,hi]" ~count:200
    QCheck.(quad (int_range 0 99_999) (int_range 1 12) (int_range 0 8) (int_range 0 5_000))
    (fun (seed, procs, count, lo) ->
      let rng = Rng.create seed in
      let hi = lo + (seed mod 3_000) in
      let plan = Plan.random_burst ~rng ~procs ~count ~lo ~hi in
      let vs = List.map snd plan in
      List.length plan = min count procs
      && List.length (List.sort_uniq compare vs) = List.length vs
      && List.for_all (fun v -> v >= 0 && v < procs) vs
      && List.for_all (fun (t, _) -> t >= lo && t <= hi) plan)

let prop_poisson =
  QCheck.Test.make ~name:"prop: poisson respects its horizon, victims fresh" ~count:200
    QCheck.(triple (int_range 0 99_999) (int_range 1 12) (int_range 0 5_000))
    (fun (seed, procs, until) ->
      let rng = Rng.create seed in
      let plan = Plan.poisson ~rng ~procs ~mean_interval:250.0 ~until in
      let vs = List.map snd plan in
      List.length plan <= procs
      && List.for_all (fun (t, _) -> t <= until) plan
      && List.length (List.sort_uniq compare vs) = List.length vs)

let prop_at_fractions =
  QCheck.Test.make ~name:"prop: at_fractions clamps into [0.01, 0.99] of the makespan"
    ~count:200
    QCheck.(pair (int_range 1 100_000) (small_list (float_range (-2.0) 3.0)))
    (fun (makespan, fracs) ->
      let specs = List.mapi (fun i f -> (f, i)) fracs in
      let plan = Plan.at_fractions ~makespan specs in
      let m = float_of_int makespan in
      List.length plan = List.length specs
      && List.for_all
           (fun (t, _) ->
             let ft = float_of_int t in
             ft >= (0.01 *. m) -. 1.0 && ft <= (0.99 *. m) +. 1.0)
           plan)

(* ---------------- fuzz ---------------- *)

let run_with cfg w plan =
  let c = Cluster.create cfg (Workload.program w) in
  Plan.apply c plan;
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Tiny);
  let o = Cluster.run c in
  match o.Cluster.answer with
  | Some v -> Value.equal v (Workload.expected w Workload.Tiny)
  | None -> false

let policies = [| Policy.Gradient { weight = 2 }; Policy.Random; Policy.Round_robin |]

(* ---------------- regressions ---------------- *)

let deep_orphan_salvage () =
  (* Found by the splice fuzz (seed 2936): with ancestor links deep
     enough to skip past a dead grandparent, a grandchild's salvaged
     result reaches the super-root.  Filing it directly into a root call
     slot substitutes one subtree fragment for the whole slot — the run
     "completes" with a silently wrong answer.  The super-root must keep
     the orphan's [To_grandparent] shape and let the root twin drive it
     down the chain of twins. *)
  let rng = Rng.create (2936 * 7 + 1) in
  let plan = Plan.random_burst ~rng ~procs:8 ~count:2 ~lo:50 ~hi:2500 in
  let cfg =
    { (Config.default ~nodes:8) with Config.recovery = Config.Splice; seed = 2936;
      ancestor_depth = 2; policy = Policy.Random }
  in
  check "grandchild salvage keeps the full subtree" true (run_with cfg Workload.tree_sum plan)

(* ---------------- level stamps under splice ---------------- *)

(* A run of [w] at size Small: its outcome, the oracle's verdict against
   the serial reference, and the call every stamp it spawned named. *)
let run_small cfg w plan =
  let c = Cluster.create cfg (Workload.program w) in
  Plan.apply c plan;
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Small);
  let o = Cluster.run c in
  ( o,
    Oracle.check ~expected:(Workload.expected w Workload.Small) c,
    Journal.named_calls (Cluster.journal c) )

(* A faulty run must answer right, pass the oracle (which includes "one
   stamp names one call"), and spawn only stamps that name the same call
   as in the fault-free run of its configuration (§4.3: a twin regenerates
   the subtree it replaces). *)
let check_faulty tag ~fault_free (o, report, named) w =
  (match o.Cluster.answer with
  | Some v when Value.equal v (Workload.expected w Workload.Small) -> ()
  | Some v -> Alcotest.failf "%s: wrong answer %s" tag (Value.to_string v)
  | None -> Alcotest.failf "%s: no answer" tag);
  if not (Oracle.ok report) then
    Alcotest.failf "%s: oracle: %s" tag (String.concat "; " report.Oracle.violations);
  let reference = Hashtbl.create 256 in
  List.iter (fun (s, p) -> Hashtbl.replace reference (Stamp.to_string s) p) fault_free;
  List.iter
    (fun (s, p) ->
      match Hashtbl.find_opt reference (Stamp.to_string s) with
      | Some p0 when p0 = p -> ()
      | Some _ -> Alcotest.failf "%s: stamp %s names another call than fault-free" tag (Stamp.to_string s)
      | None -> Alcotest.failf "%s: stamp %s is not in the fault-free run" tag (Stamp.to_string s))
    named

let splice_config ~seed ~inline_depth ~ancestor_depth =
  {
    (Config.default ~nodes:8) with
    Config.recovery = Config.Splice;
    policy = Policy.Random;
    inline_depth;
    ancestor_depth;
    seed;
  }

(* The wrong-answer repro of the dynamic spawn counter: a twin whose
   children's results arrived in another order numbered its [qsort] calls
   the other way round and inherited the living [qsort(ge)] orphan into
   its [qsort(lt)] slot, answering 936026. *)
let splice_quicksort_repro () =
  let cfg = splice_config ~seed:11 ~inline_depth:8 ~ancestor_depth:1 in
  let w = Workload.quicksort in
  let (_, _, fault_free) = run_small cfg w [] in
  let ((o, _, _) as faulty) = run_small cfg w (Plan.single ~time:4548 5) in
  Alcotest.(check (option string))
    "answer" (Some "339303")
    (Option.map Value.to_string o.Cluster.answer);
  check_faulty "repro" ~fault_free faulty w

(* A slice of the grid where the spawn counter answered wrong: both list
   sorts under splice with random placement, inline depth 8 and 12,
   ancestor depth 1 and 2, three seeds, one failure at a quarter, half and
   three quarters of the fault-free makespan on two victims. *)
let splice_list_grid () =
  List.iter
    (fun w ->
      List.iter
        (fun inline_depth ->
          List.iter
            (fun ancestor_depth ->
              List.iter
                (fun seed ->
                  let cfg = splice_config ~seed ~inline_depth ~ancestor_depth in
                  let (o, _, fault_free) = run_small cfg w [] in
                  let makespan = Option.value ~default:o.Cluster.sim_time o.Cluster.answer_time in
                  List.iter
                    (fun (frac, victim) ->
                      let tag =
                        Printf.sprintf "%s inline %d ancestors %d seed %d fail %.2f@%d"
                          w.Workload.name inline_depth ancestor_depth seed frac victim
                      in
                      check_faulty tag ~fault_free
                        (run_small cfg w (Plan.at_fractions ~makespan [ (frac, victim) ]))
                        w)
                    [ (0.25, 1); (0.25, 5); (0.5, 1); (0.5, 5); (0.75, 1); (0.75, 5) ])
                [ 3; 7; 11 ])
            [ 1; 2 ])
        [ 8; 12 ])
    [ Workload.quicksort; Workload.mergesort ]

let fuzz_recovery recovery name =
  QCheck.Test.make ~name ~count:40
    QCheck.(
      quad (int_range 0 10_000) (int_range 1 3) (int_range 0 2) (int_range 1 2))
    (fun (seed, failures, policy_idx, ancestor_depth) ->
      let rng = Rng.create (seed * 7 + 1) in
      let plan = Plan.random_burst ~rng ~procs:8 ~count:failures ~lo:50 ~hi:2500 in
      let cfg =
        {
          (Config.default ~nodes:8) with
          Config.recovery;
          seed;
          ancestor_depth;
          policy = policies.(policy_idx);
        }
      in
      run_with cfg Workload.tree_sum plan)

let fuzz_splice = fuzz_recovery Config.Splice
    "fuzz: splice correct under random multi-failure schedules"

let fuzz_rollback = fuzz_recovery Config.Rollback
    "fuzz: rollback correct under random multi-failure schedules"

let fuzz_literal_splice =
  QCheck.Test.make ~name:"fuzz: literal-protocol splice (no inheritance) stays correct"
    ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 1 2))
    (fun (seed, failures) ->
      let rng = Rng.create (seed + 13) in
      let plan = Plan.random_burst ~rng ~procs:8 ~count:failures ~lo:50 ~hi:2500 in
      let cfg =
        { (Config.default ~nodes:8) with Config.recovery = Config.Splice;
          adoption_grace = 0; seed }
      in
      run_with cfg Workload.tree_sum plan)

let fuzz_workload_mix =
  QCheck.Test.make ~name:"fuzz: every workload survives one random failure (splice)" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 6))
    (fun (seed, widx) ->
      let w = List.nth Workload.all (widx mod List.length Workload.all) in
      let rng = Rng.create (seed + 29) in
      let plan = Plan.random_burst ~rng ~procs:8 ~count:1 ~lo:50 ~hi:1500 in
      let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Splice; seed } in
      run_with cfg w plan)

let fuzz_poisson_replication =
  QCheck.Test.make ~name:"fuzz: replicate:3 masks a random early failure" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create (seed + 31) in
      let plan = Plan.random_burst ~rng ~procs:8 ~count:1 ~lo:50 ~hi:1000 in
      let cfg =
        { (Config.default ~nodes:8) with Config.recovery = Config.Replicate 3; seed }
      in
      run_with cfg Workload.tree_sum plan)

let suites =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "burst shape" `Quick burst_shape;
        Alcotest.test_case "burst caps" `Quick burst_caps_at_procs;
        Alcotest.test_case "poisson shape" `Quick poisson_shape;
        Alcotest.test_case "validation" `Quick generators_validate;
        qtest prop_burst;
        qtest prop_poisson;
        qtest prop_at_fractions;
      ] );
    ( "fault.fuzz",
      [
        Alcotest.test_case "deep orphan salvage regression" `Quick deep_orphan_salvage;
        Alcotest.test_case "splice quicksort stamp repro" `Quick splice_quicksort_repro;
        Alcotest.test_case "splice list-sort grid" `Quick splice_list_grid;
        qtest fuzz_splice;
        qtest fuzz_rollback;
        qtest fuzz_literal_splice;
        qtest fuzz_workload_mix;
        qtest fuzz_poisson_replication;
      ] );
  ]
