module Config = Recflow_machine.Config
module Table = Recflow_stats.Table
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan

type point = {
  inline_depth : int;
  makespan : int;
  tasks : int;
  messages : int;
  faulty_delta : int;
  correct : bool;
}

let run ?(quick = false) () =
  let depth = 8 in
  let w = Workload.synthetic ~branching:2 ~depth ~grain:60 in
  let size = if quick then Workload.Small else Workload.Medium in
  let eff_depth = match size with Workload.Small -> depth - 1 | _ -> depth in
  let thresholds =
    (* 2 = almost everything inline; eff_depth+1 = leaves inline;
       max_int = every spin iteration its own task *)
    [ 2; 3; eff_depth / 2; eff_depth - 1; eff_depth + 1; max_int ]
    |> List.sort_uniq compare
  in
  let points =
    Harness.run_many
      (fun inline_depth ->
        let cfg =
          {
            (Config.default ~nodes:8) with
            Config.inline_depth;
            recovery = Config.Splice;
            policy = Recflow_balance.Policy.Random;
          }
        in
        let probe = Harness.probe cfg w size in
        let t_fail = probe.Harness.makespan / 2 in
        let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
        let faulty = Harness.run cfg w size ~failures:(Plan.single ~time:t_fail victim) in
        {
          inline_depth;
          makespan = probe.Harness.makespan;
          tasks = Harness.counter probe "msg.task_packet";
          messages = Harness.counter probe "msg.sent";
          faulty_delta = faulty.Harness.makespan - probe.Harness.makespan;
          correct = probe.Harness.correct && faulty.Harness.correct;
        })
      thresholds
  in
  let table =
    Table.create ~title:"Grain sweep: inline threshold vs cost (synthetic b=2, 8 processors)"
      ~columns:
        [ "inline at depth"; "tasks"; "messages"; "makespan"; "recovery delta"; "answer ok" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          (if p.inline_depth = max_int then "never" else Harness.c_int p.inline_depth);
          Harness.c_int p.tasks;
          Harness.c_int p.messages;
          Harness.c_int p.makespan;
          Printf.sprintf "%+d" p.faulty_delta;
          Harness.c_bool p.correct;
        ])
    points;
  let coarsest = List.find (fun p -> p.inline_depth = 2) points in
  let finest = List.find (fun p -> p.inline_depth = max_int) points in
  let best = List.fold_left (fun acc p -> if p.makespan < acc.makespan then p else acc)
      (List.hd points) points in
  let checks =
    [
      ("every grain recovers correctly", List.for_all (fun p -> p.correct) points);
      ("task count grows monotonically with finer grain",
       let rec mono = function
         | a :: (b :: _ as rest) -> a.tasks <= b.tasks && mono rest
         | _ -> true
       in
       mono points);
      ( "both extremes lose to an intermediate grain",
        best.makespan < coarsest.makespan && best.makespan < finest.makespan );
      ( "too-fine grain pays an order of magnitude more messages",
        finest.messages > 10 * best.messages );
    ]
  in
  Report.make ~id:"X3" ~title:"Ablation: task granularity (inline threshold)"
    ~paper_source:"DESIGN.md grain control; §1 (dynamic task creation)"
    ~notes:
      [
        "The re-issued unit of recovery is the task packet, so recovery cost tracks grain: \
         coarse grains lose bigger subtrees per failure but need fewer re-issues.";
      ]
    ~checks [ table ]
