(* Allocation budget of the per-event path: minor words allocated per
   dispatched engine event on two machine configurations, each held to its
   measured value plus stated slack (the style of lang.instance-cost).

   What an event may still allocate is protocol data: the event itself, the
   message and packet it carries, checkpoint-trie nodes, the journal event
   block its caller builds, a retaining journal's column chunks (three
   words per kept entry, allocated 64 entries at a time), the graph
   instance of each activated task and the retired-uid list of a running
   service request.  The footprint gates below hold what a kept journal
   entry costs once it is live and what a settled request leaves behind,
   with and without journal retention.
   An inlined leaf call allocates nothing once its result is in the
   cluster's inline cache: only the
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

(* Each bound is the measured value plus 3 words of slack, in the test
   build (dev profile, no cross-module inlining, so a little above what
   the benchmark's release build allocates): 17.91 words per event on
   the tree configuration and 20.20 on the service one (21.22 while a
   retained journal entry took four ints and its stamp pointer, and each
   latency histogram allocated all 1,888 slots at creation; 19.5 and 22.1
   while a checkpoint table built a 5-word trie node per stamp prefix and
   a bucket and entry record per peer, and a preheld skip built a packet;
   22.7 and 25.1 while a graph instance gave every node, leaves included,
   a node word, a value and a waiter slot per use).  The service
   configuration also pays for each running request listing the uids it
   retires, 3 words per finished task, until it settles, and for the
   journal's call fingerprints in 65-word pages, one per 64 tasks, freed
   with the settled requests that noted them. *)
let tree_budget () = gate "tree" (tree_words_per_event ()) 20.9

let service_budget () = gate "service" (service_words_per_event ()) 23.2

(* Live words per kept entry of a retaining journal: 20 000 entries of
   every event kind under 64 shared stamps, measured with
   [Obj.reachable_words] less the stamps themselves.  The columns hold
   three words per entry (two packed ints and the stamp pointer) plus
   chunk headers and the journal's fixed tables: 3.19 measured, bound
   about 10% above (5.21 with four ints per entry); a list of entry
   records costs 10–11. *)
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
  Printf.printf "journal: %.2f words/entry (bound 3.5)\n" measured;
  if measured > 3.5 then
    Alcotest.failf "a retained journal entry costs %.2f live words (bound 3.5)" measured

(* Live words a drained request stream leaves behind: service_k3's
   machine (8 processors, gradient placement, k = 3 replicas under splice,
   fib tiny at a mean gap of 400 ticks, seed 17), measured with
   [Obj.reachable_words] over the whole cluster once [Service.run]
   returns.  A settled request's index cells are freed, and the
   super-root and the settle ledger drop its records; what it leaves is
   its share of the node indexes' bucket arrays (about 0.65 words per uid
   ever inserted) and, when the journal retains and a kill touched it,
   its journal entries. *)
let drained_stream ~requests ~retain ~failures =
  let base = Config.default ~nodes:8 in
  let cfg =
    {
      base with
      Config.recovery = Config.Splice;
      seed = 17;
      journal_retain = retain;
      service =
        { base.Config.service with Config.arrival_mean = 400.0; replicas = 3; max_inflight = 64 };
    }
  in
  let o =
    Service.run ~failures ~config:cfg ~workload:Workload.fib ~size:Workload.Tiny ~requests ()
  in
  if not o.Service.all_correct then Alcotest.fail "service run: a wrong answer";
  let c = o.Service.cluster in
  Alcotest.(check int) "every request settled" (Cluster.submitted_requests c)
    (Cluster.settled_requests c);
  c

let stream_residue ~requests ~retain ~failures =
  Obj.reachable_words (Obj.repr (drained_stream ~requests ~retain ~failures))

(* Without retention a settled request leaves about 131 words, all of
   them its share of the node indexes' bucket arrays (3 replicas of about
   67 task uids), which only a uid map that frees settled pages removes;
   it left about 370 while the super-root and the settle ledger kept a
   record of it and its callbacks, about 1.2k while each reclaimed uid
   kept its index cell and about 6.1k when every tombstone was kept.  The
   bound is the slope between 250 and 1000 requests, about 10% above the
   131 measured. *)
let stream_residue_slope () =
  let w250 = stream_residue ~requests:250 ~retain:false ~failures:[] in
  let w1000 = stream_residue ~requests:1000 ~retain:false ~failures:[] in
  let slope = float_of_int (w1000 - w250) /. 750.0 in
  Printf.printf
    "stream residue: %d words at 250 requests, %d at 1000: %.0f words/request (bound 145)\n" w250
    w1000 slope;
  if slope > 145.0 then Alcotest.failf "a settled request leaves %.0f live words (bound 145)" slope

(* With retention the journal drops each settled request's entries and
   call fingerprints, so a retaining stream leaves about what a
   non-retaining one does, its share of the node indexes' bucket arrays
   (135 measured, bound about 10% above; 374 while the super-root and
   the ledger kept its records): the slope was about 7.3k words per
   request while every entry was kept. *)
let retained_stream_residue_slope () =
  let w250 = stream_residue ~requests:250 ~retain:true ~failures:[] in
  let w1000 = stream_residue ~requests:1000 ~retain:true ~failures:[] in
  let slope = float_of_int (w1000 - w250) /. 750.0 in
  Printf.printf
    "retained stream residue: %d words at 250 requests, %d at 1000: %.0f words/request (bound \
     150)\n"
    w250 w1000 slope;
  if slope > 150.0 then
    Alcotest.failf "a settled request leaves %.0f live words with retention (bound 150)" slope

(* The benchmark's service_k3 iteration itself: 500 requests, retained
   journal, kills at 60k on processor 0 and 120k on processor 2.  It held
   5.71 M words when every tombstone was kept, 4.02 M when every journal
   entry was, 0.64 M once the journal kept, of the settled requests, only
   the 16 a kill touched (each request it still holds an entry of has a
   failure within the span of its entries' times), 0.24 M once a
   reclaimed uid's index cell was freed, and 0.11 M now that the
   super-root and the settle ledger drop a settled request's records and
   callbacks (the callbacks reached the service's per-request state),
   and 0.090 M now that a retained journal entry is two packed ints and
   its stamp pointer and a latency histogram holds slots only up to its
   highest octave.  Of the 90,010 measured, 55k are the node indexes'
   bucket arrays and 30k the journal's retained entries
   ([bin/live_words.exe --service]); the bound is about 10% above. *)
let service_k3_residue () =
  let c = drained_stream ~requests:500 ~retain:true ~failures:[ (60_000, 0); (120_000, 2) ] in
  let w = Obj.reachable_words (Obj.repr c) in
  let j = Cluster.journal c in
  Printf.printf "service_k3 drained: %d words, %d journal entries retained (bound 99000)\n" w
    (Journal.retained j);
  let fails = List.map fst (Journal.failures j) in
  let spans = Hashtbl.create 16 in
  List.iter
    (fun (e : Journal.entry) ->
      if Stamp.depth e.Journal.stamp > 0 then begin
        let uid = Stamp.digit e.Journal.stamp 0 and time = e.Journal.time in
        let lo, hi = Option.value ~default:(time, time) (Hashtbl.find_opt spans uid) in
        Hashtbl.replace spans uid (min lo time, max hi time)
      end)
    (Journal.entries j);
  Hashtbl.iter
    (fun uid (lo, hi) ->
      if not (List.exists (fun f -> lo <= f && f <= hi) fails) then
        Alcotest.failf "request %d settled undisturbed but its entries were kept" uid)
    spans;
  Alcotest.(check int) "requests with kept entries are the ones kept whole"
    (Journal.kept_whole j) (Hashtbl.length spans);
  if w > 99_000 then
    Alcotest.failf "the drained service_k3 cluster holds %d words (bound 99,000)" w

let suites =
  [
    ( "machine.alloc-budget",
      [
        Alcotest.test_case "tree_1024 config" `Quick tree_budget;
        Alcotest.test_case "service_k3 config" `Quick service_budget;
        Alcotest.test_case "tree_1024 config: one inline miss" `Quick tree_one_miss;
        Alcotest.test_case "retained journal footprint" `Quick journal_footprint;
        Alcotest.test_case "stream residue per settled request" `Quick stream_residue_slope;
        Alcotest.test_case "retained stream residue per settled request" `Quick
          retained_stream_residue_slope;
        Alcotest.test_case "service_k3 drained footprint" `Quick service_k3_residue;
      ] );
  ]
