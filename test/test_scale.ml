(* Scale smoke and arena invariants for the reworked hot data plane.

   The arena task store, the O(1) load counters and batched delivery were
   introduced to push the machine to 1k+ processors and ~10^5..10^6 tasks
   without changing behaviour.  This file pins that claim from two sides:

   - a 1024-processor, ~131k-task run with chaos and one mid-run failure
     must satisfy the recovery oracle, reproduce the serial answer, and
     replay byte-identically — the journal digest is pinned as a golden,
     and a rerun on a pool domain (jobs=2) must record the same journal,
     entry by entry, so no arena or batching state may leak between
     domains or depend on allocation history;
   - a QCheck property drives random small clusters through random
     failures and compares the incremental counters ([Node.live_tasks],
     [Node.blocked_tasks], [Node.wasted_work]) against the brute-force
     [Node.recount] oracle, both mid-run and at quiescence.

   Regenerate the golden after an intentional semantic change with

     RECFLOW_GOLDEN=print dune exec test/test_main.exe -- test scale *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
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

(* One full run: oracle asserted, answer checked.  Returns the outcome
   and the retained journal. *)
let scale_run () =
  let c = Cluster.create scale_cfg (Workload.program scale_workload) in
  Cluster.fail_at c ~time:4_000 11;
  Cluster.start c ~fname:scale_workload.Workload.entry
    ~args:(scale_workload.Workload.args Workload.Medium);
  let o = Cluster.run c in
  ignore (Oracle.assert_ok c);
  check "scale answer matches the serial reference" true
    (o.Cluster.answer = Some (Workload.expected scale_workload Workload.Medium));
  (o, Journal.entries (Cluster.journal c))

(* A run's journal digested the same way as the determinism suite: every
   entry, the answer, the clock and the event count. *)
let scale_digest (o, entries) =
  let buf = Buffer.create (1 lsl 20) in
  List.iter (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" Journal.pp_entry e)) entries;
  Buffer.add_string buf
    (match o.Cluster.answer with Some v -> Value.to_string v | None -> "<no-answer>");
  Buffer.add_string buf
    (Printf.sprintf "|sim_time=%d|events=%d" o.Cluster.sim_time o.Cluster.events);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let scale_golden = "b9eb79a71d1ef1293d2e45059b935004"

(* The index of the first journal entry two runs disagree on (time, stamp
   or event), if any. *)
let rec first_difference i (a : Journal.entry list) (b : Journal.entry list) =
  match (a, b) with
  | [], [] -> None
  | x :: a, y :: b
    when x.Journal.time = y.Journal.time
         && Stamp.equal x.Journal.stamp y.Journal.stamp
         && x.Journal.event = y.Journal.event ->
    first_difference (i + 1) a b
  | _ -> Some i

let scale_smoke () =
  let ((o1, entries1) as run1) = scale_run () in
  let d1 = scale_digest run1 in
  if Sys.getenv_opt "RECFLOW_GOLDEN" = Some "print" then
    Printf.printf "    scale_golden = %S\n%!" d1;
  Alcotest.(check string) "scale digest at jobs=1" scale_golden d1;
  (* The same run on a pool domain must reproduce the run: the arena, the
     batching buffers and the incremental counters hold no domain-local or
     allocation-history-dependent state.  Comparing the journal entry by
     entry, with the answer, clock and event count, is at least as strict
     as comparing digests, without rendering the journal again. *)
  let pool = Pool.create ~jobs:2 () in
  let o2, entries2 =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> List.hd (Pool.map pool scale_run [ () ]))
  in
  check "answer at jobs=2" true (Option.equal Value.equal o1.Cluster.answer o2.Cluster.answer);
  Alcotest.(check int) "clock at jobs=2" o1.Cluster.sim_time o2.Cluster.sim_time;
  Alcotest.(check int) "events at jobs=2" o1.Cluster.events o2.Cluster.events;
  Alcotest.(check int) "journal length at jobs=2" (List.length entries1) (List.length entries2);
  Alcotest.(check (option int))
    "first journal entry that differs at jobs=2" None (first_difference 0 entries1 entries2)

(* Per-run state is sized by what the run holds: after a fault-free
   1024-processor run (X8's configuration, a 4k-task tree) no node keeps a
   task record, a checkpoint peer entry or trie node, or any of the side
   tables only failures, salvage or gradient placement need. *)
let drained_state () =
  let depth = 12 in
  let w = Workload.synthetic ~branching:2 ~depth ~grain:20 in
  let cfg =
    {
      (Config.default ~nodes:1024) with
      Config.policy = Recflow_balance.Policy.Static_hash;
      inline_depth = depth;
      batched_delivery = true;
      journal_retain = false;
    }
  in
  let c = Cluster.create cfg (Workload.program w) in
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Medium);
  let o = Cluster.run c in
  let expected = Value.Int (20 * (1 lsl depth)) in
  ignore (Oracle.assert_ok ~expected c);
  check "answer" true (o.Cluster.answer = Some expected);
  List.iter
    (fun n ->
      let id = string_of_int (Node.id n) in
      let cp = Node.checkpoints n in
      check ("no peer entry on " ^ id) true (Recflow_recovery.Ckpt_table.destinations cp = []);
      Alcotest.(check int) ("no trie node on " ^ id) 0 (Recflow_recovery.Ckpt_table.node_count cp);
      Alcotest.(check int) ("no task record on " ^ id) 0 (Node.resident_tasks n);
      Alcotest.(check int) ("no side table on " ^ id) 0 (Node.allocated_side_tables n))
    (Cluster.nodes c)

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

(* The same property over a service stream, where settled requests have
   their tombstones reclaimed while later ones still run: [Node.recount]
   reads the reclaimed tombstones' waste from the node's baseline.  Ten
   fib requests, two kills of distinct processors mid-stream. *)
type stream_scenario = {
  t_nodes : int;
  t_seed : int;
  t_rollback : bool;
  t_kills : (int * int) * (int * int);  (* (tick, victim), victim mod t_nodes *)
}

let gen_stream =
  QCheck.Gen.(
    map
      (fun (nodes, (seed, (rb, (k1, k2)))) ->
        { t_nodes = nodes; t_seed = seed; t_rollback = rb; t_kills = (k1, k2) })
      (pair (int_range 3 10)
         (pair (int_range 0 9999)
            (pair bool
               (pair
                  (pair (int_range 100 1500) (int_range 0 11))
                  (pair (int_range 1500 3000) (int_range 0 11)))))))

let stream_victims s =
  let (t1, v1), (t2, v2) = s.t_kills in
  let v1 = v1 mod s.t_nodes in
  let v2 = v2 mod s.t_nodes in
  ((t1, v1), (t2, if v2 = v1 then (v1 + 1) mod s.t_nodes else v2))

let print_stream s =
  let (t1, v1), (t2, v2) = stream_victims s in
  Printf.sprintf "nodes=%d seed=%d %s kills=%d@%d,%d@%d" s.t_nodes s.t_seed
    (if s.t_rollback then "rollback" else "splice")
    t1 v1 t2 v2

(* Whether the counters matched throughout, and whether some request was
   reclaimed while others were still in flight. *)
let stream_counters s =
  let w = Workload.fib in
  let cfg =
    {
      (Config.default ~nodes:s.t_nodes) with
      Config.recovery = (if s.t_rollback then Config.Rollback else Config.Splice);
      seed = s.t_seed;
      inline_depth = 7;
      policy = Recflow_balance.Policy.Random;
    }
  in
  let c = Cluster.create cfg (Workload.program w) in
  let (t1, v1), (t2, v2) = stream_victims s in
  Cluster.fail_at c ~time:t1 v1;
  Cluster.fail_at c ~time:t2 v2;
  let mid_ok = ref true and reclaimed_mid_stream = ref false in
  Journal.attach_sink (Cluster.journal c)
    (Recflow_obs_core.Sink.sample ~every:17
       (Recflow_obs_core.Sink.of_fun (fun _ ->
            if Cluster.in_flight c > 0 && Cluster.reclaimed_tombstones c > 0 then
              reclaimed_mid_stream := true;
            if not (counters_match c) then mid_ok := false)));
  Cluster.begin_service c;
  let rec arrive k () =
    ignore (Cluster.submit c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Tiny) ());
    if k > 1 then Cluster.schedule_callback c ~delay:150 (arrive (k - 1))
    else Cluster.close_arrivals c
  in
  Cluster.schedule_callback c ~delay:1 (arrive 10);
  ignore (Cluster.run c);
  ignore (Oracle.assert_ok ~expected:(Workload.expected w Workload.Tiny) c);
  (!mid_ok && counters_match c && Cluster.reclaimed_hits c = 0, !reclaimed_mid_stream)

let stream_counters_vs_recount =
  QCheck.Test.make ~count:20 ~name:"service stream: incremental counters = recount"
    (QCheck.make ~print:print_stream gen_stream)
    (fun s -> fst (stream_counters s))

(* A drawn stream may finish too late for a sample to land between a
   reclamation and the last answer, so two fixed ones pin that the
   property does see reclaimed tombstones mid-stream. *)
let stream_recount_mid_stream () =
  List.iter
    (fun s ->
      let ok, reclaimed_mid = stream_counters s in
      check (print_stream s ^ ": counters = recount") true ok;
      check (print_stream s ^ ": reclaimed mid-stream") true reclaimed_mid)
    [
      { t_nodes = 6; t_seed = 3; t_rollback = false; t_kills = ((600, 1), (1800, 2)) };
      { t_nodes = 5; t_seed = 8; t_rollback = true; t_kills = ((500, 2), (1700, 4)) };
    ]

let suites =
  [
    ( "scale",
      [
        Alcotest.test_case "1024 procs, 131k tasks, chaos + failure" `Slow scale_smoke;
        Alcotest.test_case "1024 procs drain every per-run table" `Quick drained_state;
        qtest counters_vs_recount;
        qtest stream_counters_vs_recount;
        Alcotest.test_case "service stream: recount sees reclamation" `Quick
          stream_recount_mid_stream;
      ] );
  ]
