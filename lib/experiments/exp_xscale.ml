module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Node = Recflow_machine.Node
module Oracle = Recflow_machine.Oracle
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
  residual : int;  (* arena-resident tasks after quiescence (must be 0) *)
  ckpt_nodes : int;  (* checkpoint-table trie nodes after quiescence (must be 0) *)
  correct : bool;
  (* Wall-clock-derived numbers exist only in the full run: quick mode is
     part of the --jobs determinism gate, so its report must not contain
     anything the host machine can perturb. *)
  cpu_s : float;
  peak_heap_words : int;
}

(* Peak heap size sampled at every major-GC slice — an upper bound on peak
   live words that costs one [Gc.quick_stat] per slice instead of a heap
   walk.  Returns (result, cpu_seconds, peak_heap_words). *)
let probe_peak f =
  Gc.compact ();
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let alarm =
    Gc.create_alarm (fun () ->
        let h = (Gc.quick_stat ()).Gc.heap_words in
        if h > !peak then peak := h)
  in
  let t0 = Sys.time () in
  let r = f () in
  let dt = Sys.time () -. t0 in
  Gc.delete_alarm alarm;
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !peak then peak := h;
  (r, dt, !peak)

let run ?(quick = false) () =
  (* (processors, tree depth): distributed tasks = 2^depth - 1 once the
     leaf level is inlined.  The full grid tops out at 1024 processors and
     a >= 1M-task tree; quick keeps the same shape at toy sizes. *)
  let grid = if quick then [ (16, 8); (64, 10) ] else [ (64, 14); (256, 17); (1024, 20) ] in
  let points =
    (* Sequential on purpose: the Gc probe of each row must not see
       another row's allocation, and the big rows dwarf the small ones
       anyway.  Sequential is also trivially identical at any --jobs. *)
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
        let (c, o), cpu_s, peak_heap_words =
          probe_peak (fun () ->
              let c = Cluster.create cfg (Workload.program w) in
              Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Medium);
              let o = Cluster.run c in
              ignore (Oracle.assert_ok c);
              (c, o))
        in
        let tasks = 1 + Counter.get (Cluster.counters c) "spawn.remote" in
        let sum f = List.fold_left (fun acc n -> acc + f n) 0 (Cluster.nodes c) in
        let residual = sum Node.resident_tasks in
        let ckpt_nodes = sum (fun n -> Recflow_recovery.Ckpt_table.node_count (Node.checkpoints n)) in
        {
          procs;
          depth;
          tasks;
          makespan = (match o.Cluster.answer_time with Some t -> t | None -> o.Cluster.sim_time);
          events = o.Cluster.events;
          residual;
          ckpt_nodes;
          correct = o.Cluster.answer = Some (Value.Int (grain * (1 lsl depth)));
          cpu_s;
          peak_heap_words;
        })
      grid
  in
  let table =
    Table.create
      ~title:
        "Scale sweep: arena storage + batched delivery + O(1) journal (static placement, \
         fault-free)"
      ~columns:
        [ "processors"; "tree depth"; "tasks"; "makespan"; "events"; "events/task";
          "peak heap (Mw)"; "cpu (s)"; "events/s"; "answer ok" ]
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
          (if quick then "-"
           else Printf.sprintf "%.1f" (float_of_int p.peak_heap_words /. 1e6));
          (if quick then "-" else Printf.sprintf "%.1f" p.cpu_s);
          (if quick then "-"
           else Printf.sprintf "%.0f" (float_of_int p.events /. max 0.001 p.cpu_s));
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
      ( "the arena drains: no resident tasks after quiescence",
        List.for_all (fun p -> p.residual = 0) points );
      ( "checkpoint tables drain: no trie nodes after quiescence",
        List.for_all (fun p -> p.ckpt_nodes = 0) points );
      ( (if quick then "largest quick row reaches 64 processors"
         else "largest row reaches 1024 processors and >= 1M tasks"),
        if quick then last.procs = 64 else last.procs = 1024 && last.tasks >= 1_000_000 );
    ]
    @
    if quick then []
    else
      [
        ( "peak heap stays under 1000 words per task (+64Mw floor)",
          List.for_all
            (fun p -> p.peak_heap_words < (1000 * p.tasks) + 64_000_000)
            points );
      ]
  in
  Report.make ~id:"X8" ~title:"Scale: 1024 processors, a million-task tree"
    ~paper_source:"§1 (aggregation of processors); §3.3 (dynamic allocation at scale)"
    ~notes:
      [ "Tasks live in per-node arenas and retire to tombstones on completion; deliveries \
         coalesce per destination tick; the journal streams without retention.  Wall-clock \
         and heap columns are suppressed in quick mode so the report stays bit-identical \
         across --jobs." ]
    ~checks [ table ]
