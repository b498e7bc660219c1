(* Allocation budget of the per-event path: minor words allocated per
   dispatched engine event on two machine configurations, each held to its
   measured value plus stated slack (the style of lang.instance-cost).

   What an event may still allocate is protocol data: the event itself, the
   message and packet it carries, checkpoint-trie nodes, the journal event
   block its caller builds, a retaining journal's column chunks (five
   words per kept entry, allocated 64 entries at a time) and the graph
   instance of each activated task; the footprint gate below holds what a
   kept entry costs once it is live.  An inlined leaf call allocates
   nothing once its result is in the cluster's inline cache: only the
   first run of each distinct scalar call builds [Eval_serial] frames.
   Option results, closures built per send or per trie hop, boxed RNG
   state, string-hashed counter bumps and re-running a cached leaf are not
   allowed, and a change that brings one back onto the hot path shows up
   here as a few words per event. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Workload = Recflow_workload.Workload
module Service = Recflow_service.Service
module Policy = Recflow_balance.Policy
module Latency = Recflow_net.Latency
module Value = Recflow_lang.Value
module Inline_cache = Recflow_lang.Inline_cache
module Counter = Recflow_stats.Counter

let words () = Gc.minor_words ()

(* tree_1024's machine at test size: 64 processors, static-hash placement,
   batched delivery, non-retaining journal, latency jitter 0–2 ticks, a
   b=2 d=10 synthetic tree with its leaf level inlined, fault-free.  Only
   [Cluster.run] is measured: set-up is not per-event work. *)
let tree_cluster () =
  let depth = 10 in
  let w = Workload.synthetic ~branching:2 ~depth ~grain:20 in
  let base = Config.default ~nodes:64 in
  let cfg =
    {
      base with
      Config.policy = Policy.Static_hash;
      inline_depth = depth;
      batched_delivery = true;
      journal_retain = false;
      latency = { base.Config.latency with Latency.jitter = 2 };
      seed = 1;
    }
  in
  let c = Cluster.create cfg (Workload.program w) in
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Medium);
  c

let check_tree_answer (o : Cluster.outcome) =
  match o.Cluster.answer with
  | Some (Value.Int n) when n = 20 * 1024 -> ()
  | _ -> Alcotest.fail "tree run: wrong or missing answer"

let tree_words_per_event () =
  let c = tree_cluster () in
  let before = words () in
  let o = Cluster.run c in
  let used = words () -. before in
  check_tree_answer o;
  used /. float_of_int o.Cluster.events

(* Every leaf of the tree is the same call, so the evaluator runs once and
   each other inlined leaf is a hit. *)
let tree_one_miss () =
  let c = tree_cluster () in
  check_tree_answer (Cluster.run c);
  let cache = Cluster.inline_cache c in
  let inlined = Counter.get (Cluster.counters c) "spawn.inline" in
  Alcotest.(check bool) "leaves inlined" true (inlined > 1);
  Alcotest.(check int) "misses" 1 (Inline_cache.misses cache);
  Alcotest.(check int) "hits" (inlined - 1) (Inline_cache.hits cache)

(* service_k3's machine at test size: 8 processors, gradient placement,
   unbatched delivery, retained journal, k = 3 replication under splice,
   an open-loop stream of fib requests with one mid-stream kill.  The whole
   [Service.run] is measured (stream, drain, vote accounting and oracle),
   as the benchmark measures a whole iteration. *)
let service_words_per_event () =
  let base = Config.default ~nodes:8 in
  let cfg =
    {
      base with
      Config.recovery = Config.Splice;
      seed = 17;
      service = { base.Config.service with Config.arrival_mean = 400.0; replicas = 3 };
    }
  in
  let before = words () in
  let o =
    Service.run ~failures:[ (6000, 0) ] ~config:cfg ~workload:Workload.fib ~size:Workload.Tiny
      ~requests:60 ()
  in
  let used = words () -. before in
  if not o.Service.all_correct then Alcotest.fail "service run: a wrong answer";
  used /. float_of_int o.Service.events

let gate name measured bound =
  Printf.printf "%s: %.2f words/event (bound %.1f)\n" name measured bound;
  if measured > bound then
    Alcotest.failf "%s allocates %.2f minor words per event (bound %.1f)" name measured bound

(* Each bound is the measured value plus 3 words of slack: 24.2 words per
   event on the tree configuration and 26.4 on the service one, in the test
   build (dev profile, no cross-module inlining, so a little above what
   the benchmark's release build allocates). *)
let tree_budget () = gate "tree" (tree_words_per_event ()) 27.2

let service_budget () = gate "service" (service_words_per_event ()) 29.4

(* Live words per kept entry of a retaining journal: 20 000 entries of
   every event kind under 64 shared stamps, measured with
   [Obj.reachable_words] less the stamps themselves.  The columns hold five
   words per entry (four ints and the stamp pointer) plus chunk headers
   and the journal's fixed tables; a list of entry records costs 10–11. *)
let journal_words_per_entry () =
  let n = 20_000 in
  let stamps = Array.init 64 (fun k -> Stamp.of_digits [ k mod 8; k / 8 ]) in
  let j = Journal.create () in
  for i = 0 to n - 1 do
    let p = i mod 8 in
    let event =
      match i mod 15 with
      | 0 -> Journal.Spawned { task = i; dest = p; replica = 0 }
      | 1 -> Journal.Activated { task = i; proc = p }
      | 2 -> Journal.Acked { task = i; proc = p }
      | 3 -> Journal.Completed { task = i; proc = p; work = 20 }
      | 4 -> Journal.Inlined { parent_task = i; proc = p; work = 20 }
      | 5 -> Journal.Aborted { task = i; proc = p; work = 3 }
      | 6 -> Journal.Lost { task = i; proc = p; work = 3 }
      | 7 -> Journal.Respawned { task = i; dest = p; reason = "notice" }
      | 8 -> Journal.Inherited { orphan_task = i; proc = p }
      | 9 -> Journal.Result_accepted { task = i }
      | 10 -> Journal.Duplicate_ignored { task = i }
      | 11 -> Journal.Relayed { via = p }
      | 12 -> Journal.Relay_dropped { at = p; reason = "step-parent died" }
      | 13 -> Journal.Orphan_dropped { task = i }
      | _ -> Journal.Failure { proc = p }
    in
    Journal.record j ~time:i ~stamp:stamps.(i mod 64) event
  done;
  let words = Obj.reachable_words (Obj.repr (j, stamps)) - Obj.reachable_words (Obj.repr stamps) in
  float_of_int words /. float_of_int n

let journal_footprint () =
  let measured = journal_words_per_entry () in
  Printf.printf "journal: %.2f words/entry (bound 6.0)\n" measured;
  if measured > 6.0 then
    Alcotest.failf "a retained journal entry costs %.2f live words (bound 6.0)" measured

let suites =
  [
    ( "machine.alloc-budget",
      [
        Alcotest.test_case "tree_1024 config" `Quick tree_budget;
        Alcotest.test_case "service_k3 config" `Quick service_budget;
        Alcotest.test_case "tree_1024 config: one inline miss" `Quick tree_one_miss;
        Alcotest.test_case "retained journal footprint" `Quick journal_footprint;
      ] );
  ]
