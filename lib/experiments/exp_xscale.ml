module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Node = Recflow_machine.Node
module Oracle = Recflow_machine.Oracle
module Journal = Recflow_machine.Journal
module Sink = Recflow_obs_core.Sink
module Workload = Recflow_workload.Workload
module Counter = Recflow_stats.Counter
module Table = Recflow_stats.Table
module Value = Recflow_lang.Value

type point = {
  procs : int;
  depth : int;
  tasks : int;  (* distributed task instances: root + every remote spawn *)
  makespan : int;
  events : int;
  residual : int;  (* unretired task records after quiescence (must be 0) *)
  ckpt_nodes : int;  (* checkpoint peer entries + trie nodes after quiescence (must be 0) *)
  side_tables : int;  (* lazily allocated node side tables (fault-free: must be 0) *)
  correct : bool;
  peak_live_words : int;
}

(* Peak live words of a run: the largest [Obj.reachable_words] of its
   [Cluster.t], sampled from a journal sink every [stride] entries.
   Reachable words depend only on the run, not on the host or on what else
   the process holds, so the column is deterministic and its check gates
   quick mode too.  Sampling stops with the last journal entry: what the
   root's answer allocates after it is not a per-task cost.  Returns
   (result, peak_live_words). *)
let probe_peak ~stride (c : Cluster.t) f =
  let peak = ref 0 and seen = ref 0 in
  Journal.attach_sink (Cluster.journal c)
    (Sink.of_fun (fun _ ->
         incr seen;
         if !seen mod stride = 0 then peak := max !peak (Obj.reachable_words (Obj.repr c))));
  let r = f () in
  (r, !peak)

(* Measured peaks: 97 and 81 words per task on the quick rows, 62 and 62
   on the two smaller full rows (128, 126, 73 and 66 while a checkpoint
   table kept a trie node per stamp prefix and a 16-bucket peer map, and a
   filled call slot kept its child's packet; 138, 135, 81 and 74 while a
   task built its graph instance when its packet arrived rather than at
   its first step; 173, 169, 111 and 105 while a graph instance kept a word, a value
   and a waiter slot per use for every node, leaves included; 198, 193,
   135 and 129 when a task kept its children in a [Hashtbl] and each child
   its copies in two association lists; 211, 206, 148 and 143 before graph
   instances packed their node state; 226, 223, 155 and 150 before per-run
   state was sized by what the run holds).  A quick row carries the fixed
   per-processor state over few tasks, so it sits well above a full row
   and gets its own bound; each bound is about 10% above the largest
   measured row of its mode (141 and 80 before the compressed tables, 152
   and 90 before the deferred instance; the
   1024-processor full row, about 1 GB, was not run; words per task fall
   as the tree grows).  perfbench's 5% bound on [peak_live_words] is the
   tighter regression gate. *)
let words_per_task_bound ~quick = if quick then 107 else 68

let run ?(quick = false) () =
  (* (processors, tree depth): distributed tasks = 2^depth - 1 once the
     leaf level is inlined.  The full grid tops out at 1024 processors and
     a >= 1M-task tree; quick keeps the same shape at toy sizes. *)
  let grid = if quick then [ (16, 8); (64, 10) ] else [ (64, 14); (256, 17); (1024, 20) ] in
  let points =
    (* Sequential: one large row at a time bounds the process's memory,
       and sequential is trivially identical at any --jobs. *)
    List.map
      (fun (procs, depth) ->
        let grain = 20 in
        let w = Workload.synthetic ~branching:2 ~depth ~grain in
        let cfg =
          {
            (Config.default ~nodes:procs) with
            Config.policy = Recflow_balance.Policy.Static_hash;
            inline_depth = depth;
            batched_delivery = true;
            journal_retain = false;
          }
        in
        (* Driven directly rather than through [Harness.probe]: the
           million-call tree of the big row is beyond the serial
           evaluator's fuel, and the synthetic answer is known in closed
           form anyway — 2^depth leaves of [grain] each. *)
        let expected = Value.Int (grain * (1 lsl depth)) in
        let c = Cluster.create cfg (Workload.program w) in
        let o, peak_live_words =
          probe_peak ~stride:(1 lsl (depth - 2)) c (fun () ->
              Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Medium);
              let o = Cluster.run c in
              ignore (Oracle.assert_ok ~expected c);
              o)
        in
        let tasks = 1 + Counter.get (Cluster.counters c) "spawn.remote" in
        let sum f = List.fold_left (fun acc n -> acc + f n) 0 (Cluster.nodes c) in
        let residual = sum Node.resident_tasks in
        let ckpt_nodes = sum (fun n -> Recflow_recovery.Ckpt_table.node_count (Node.checkpoints n)) in
        let side_tables = sum Node.allocated_side_tables in
        {
          procs;
          depth;
          tasks;
          makespan = (match o.Cluster.answer_time with Some t -> t | None -> o.Cluster.sim_time);
          events = o.Cluster.events;
          residual;
          ckpt_nodes;
          side_tables;
          correct = o.Cluster.answer = Some expected;
          peak_live_words;
        })
      grid
  in
  let table =
    Table.create
      ~title:
        "Scale sweep: slim tombstones + batched delivery + O(1) journal (static placement, \
         fault-free)"
      ~columns:
        [ "processors"; "tree depth"; "tasks"; "makespan"; "events"; "events/task";
          "live words/task"; "answer ok" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Harness.c_int p.procs;
          Harness.c_int p.depth;
          Harness.c_int p.tasks;
          Harness.c_int p.makespan;
          Harness.c_int p.events;
          Printf.sprintf "%.1f" (float_of_int p.events /. float_of_int p.tasks);
          Harness.c_int (p.peak_live_words / p.tasks);
          Harness.c_bool p.correct;
        ])
    points;
  let last = List.nth points (List.length points - 1) in
  let checks =
    [
      ("every run produces the serial answer", List.for_all (fun p -> p.correct) points);
      ( "task grid is exactly the inlined tree (2^depth - 1)",
        List.for_all (fun p -> p.tasks = (1 lsl p.depth) - 1) points );
      ( "event count stays linear in the task count (< 40 events/task)",
        List.for_all (fun p -> p.events < 40 * p.tasks) points );
      ( "the task index drains: no unretired tasks after quiescence",
        List.for_all (fun p -> p.residual = 0) points );
      ( "checkpoint tables drain: no peer entries or trie nodes after quiescence",
        List.for_all (fun p -> p.ckpt_nodes = 0) points );
      ( "no node allocates a failure, salvage or gradient side table",
        List.for_all (fun p -> p.side_tables = 0) points );
      ( (if quick then "largest quick row reaches 64 processors"
         else "largest row reaches 1024 processors and >= 1M tasks"),
        if quick then last.procs = 64 else last.procs = 1024 && last.tasks >= 1_000_000 );
      ( Printf.sprintf "peak live words stay within %d per task" (words_per_task_bound ~quick),
        List.for_all (fun p -> p.peak_live_words <= words_per_task_bound ~quick * p.tasks) points );
    ]
  in
  Report.make ~id:"X8" ~title:"Scale: 1024 processors, a million-task tree"
    ~paper_source:"§1 (aggregation of processors); §3.3 (dynamic allocation at scale)"
    ~notes:
      [ "Tasks retire to slim tombstones on completion; deliveries \
         coalesce per destination tick; the journal streams without retention.  Live words \
         are the peak reachable words of the run's cluster, sampled every 2^(depth-2) \
         journal entries.  Host time is not reported here: perfbench's tree_1024 \
         workload measures it at this configuration." ]
    ~checks [ table ]
