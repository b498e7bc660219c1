(* Scale smoke and arena invariants for the reworked hot data plane.

   The arena task store, the O(1) load counters and batched delivery were
   introduced to push the machine to 1k+ processors and ~10^5..10^6 tasks
   without changing behaviour.  This file pins that claim from two sides:

   - a 1024-processor, ~131k-task run with chaos and one mid-run failure
     must satisfy the recovery oracle, reproduce the serial answer, and
     replay byte-identically — the journal digest is pinned as a golden
     and re-checked on a pool domain (jobs=2), so no arena or batching
     state may leak between domains or depend on allocation history;
   - a QCheck property drives random small clusters through random
     failures and compares the incremental counters ([Node.live_tasks],
     [Node.blocked_tasks], [Node.wasted_work]) against the brute-force
     [Node.recount] oracle, both mid-run and at quiescence.

   Regenerate the golden after an intentional semantic change with

     RECFLOW_GOLDEN=print dune exec test/test_main.exe -- test scale *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Node = Recflow_machine.Node
module Oracle = Recflow_machine.Oracle
module Workload = Recflow_workload.Workload
module Chaos = Recflow_net.Chaos
module Plan = Recflow_fault.Plan
module Pool = Recflow_parallel.Pool
module Value = Recflow_lang.Value

let check = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- 1024-processor smoke ---------------- *)

let scale_depth = 17 (* distributed tasks = 2^17 - 1 = 131_071, leaves inlined *)

let scale_workload = Workload.synthetic ~branching:2 ~depth:scale_depth ~grain:20

let scale_cfg =
  let chaos =
    Chaos.none |> Plan.drop_rate 0.01 |> Plan.duplicate_rate 0.01
    |> Plan.reorder ~rate:0.02 ~spread:40
  in
  {
    (Config.default ~nodes:1024) with
    Config.policy = Recflow_balance.Policy.Static_hash;
    inline_depth = scale_depth;
    batched_delivery = true;
    chaos;
    reliable = true;
    seed = 7;
  }

(* One full run: oracle asserted, answer checked, journal digested the
   same way as the PR-5 determinism suite (every entry + answer + clock +
   event count). *)
let scale_digest () =
  let c = Cluster.create scale_cfg (Workload.program scale_workload) in
  Cluster.fail_at c ~time:4_000 11;
  Cluster.start c ~fname:scale_workload.Workload.entry
    ~args:(scale_workload.Workload.args Workload.Medium);
  let o = Cluster.run c in
  ignore (Oracle.assert_ok c);
  check "scale answer matches the serial reference" true
    (o.Cluster.answer = Some (Workload.expected scale_workload Workload.Medium));
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" Journal.pp_entry e))
    (Journal.entries (Cluster.journal c));
  Buffer.add_string buf
    (match o.Cluster.answer with Some v -> Value.to_string v | None -> "<no-answer>");
  Buffer.add_string buf
    (Printf.sprintf "|sim_time=%d|events=%d" o.Cluster.sim_time o.Cluster.events);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let scale_golden = "b9eb79a71d1ef1293d2e45059b935004"

let scale_smoke () =
  let d1 = scale_digest () in
  if Sys.getenv_opt "RECFLOW_GOLDEN" = Some "print" then
    Printf.printf "    scale_golden = %S\n%!" d1;
  Alcotest.(check string) "scale digest at jobs=1" scale_golden d1;
  (* The same run on a pool domain must reproduce the digest: the arena,
     the batching buffers and the incremental counters hold no
     domain-local or allocation-history-dependent state. *)
  let pool = Pool.create ~jobs:2 () in
  let d2 =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> List.hd (Pool.map pool scale_digest [ () ]))
  in
  Alcotest.(check string) "scale digest at jobs=2" d1 d2

(* ---------------- counters vs brute-force recount ---------------- *)

let counters_match c =
  List.for_all
    (fun n ->
      let live, blocked, wasted = Node.recount n in
      live = Node.live_tasks n
      && blocked = Node.blocked_tasks n
      && wasted = Node.wasted_work n)
    (Cluster.nodes c)

type scenario = {
  s_workload : int;  (* index into [prop_workloads] *)
  s_nodes : int;
  s_seed : int;
  s_rollback : bool;
  s_fail_time : int;
  s_victim : int;  (* taken mod s_nodes, skipping 0 sometimes hosting root *)
}

let prop_workloads = [| Workload.fib; Workload.tree_sum; Workload.nqueens |]

let gen_scenario =
  QCheck.Gen.(
    map
      (fun (w, (nodes, (seed, (rb, (ft, v))))) ->
        {
          s_workload = w;
          s_nodes = nodes;
          s_seed = seed;
          s_rollback = rb;
          s_fail_time = ft;
          s_victim = v;
        })
      (pair (int_range 0 2)
         (pair (int_range 2 12)
            (pair (int_range 0 9999) (pair bool (pair (int_range 50 2500) (int_range 1 11)))))))

let print_scenario s =
  Printf.sprintf "%s nodes=%d seed=%d %s fail=%d@%d"
    prop_workloads.(s.s_workload).Workload.name s.s_nodes s.s_seed
    (if s.s_rollback then "rollback" else "splice")
    s.s_fail_time s.s_victim

let arb_scenario = QCheck.make ~print:print_scenario gen_scenario

(* Run the scenario and compare the O(1) counters against [Node.recount]
   at several mid-run instants (while tasks are live, blocked, aborting)
   and again at quiescence. *)
let counters_invariant s =
  let w = prop_workloads.(s.s_workload) in
  let cfg =
    {
      (Config.default ~nodes:s.s_nodes) with
      Config.recovery = (if s.s_rollback then Config.Rollback else Config.Splice);
      seed = s.s_seed;
      inline_depth = 6;
      policy = Recflow_balance.Policy.Random;
    }
  in
  let c = Cluster.create cfg (Workload.program w) in
  let victim = 1 + (s.s_victim mod max 1 (s.s_nodes - 1)) in
  Cluster.fail_at c ~time:s.s_fail_time victim;
  (* Sample mid-run through the journal stream: every 17th lifecycle
     entry lands between protocol actions, while tasks are queued,
     blocked, aborting — exactly where an unbalanced increment would
     show. *)
  let mid_ok = ref true in
  Journal.attach_sink (Cluster.journal c)
    (Recflow_obs_core.Sink.sample ~every:17
       (Recflow_obs_core.Sink.of_fun (fun _ ->
            if not (counters_match c) then mid_ok := false)));
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Tiny);
  ignore (Cluster.run c);
  !mid_ok && counters_match c

let counters_vs_recount =
  QCheck.Test.make ~count:30 ~name:"incremental counters = brute-force recount" arb_scenario
    counters_invariant

let suites =
  [
    ( "scale",
      [
        Alcotest.test_case "1024 procs, 131k tasks, chaos + failure" `Slow scale_smoke;
        qtest counters_vs_recount;
      ] );
  ]
