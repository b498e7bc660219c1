module Config = Recflow_machine.Config
module Table = Recflow_stats.Table
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan
module Tmr = Recflow_baselines.Tmr

type row = {
  name : string;
  ff_makespan : int;
  overhead : float;
  faulty_delta : int;
  reissues : int;
  vote_inconclusive : int;
  correct : bool;
}

let run ?(quick = false) () =
  (* A shallow bushy tree: every spawn lies within replicate_depth, so the
     whole computation is a replicated "critical section".  Six processors
     for 20 logical tasks: capacity binds, so the k-fold redundancy shows
     up in the makespan. *)
  let w = Workload.synthetic ~branching:4 ~depth:2 ~grain:(if quick then 150 else 400) in
  let size = Workload.Medium in
  let base =
    {
      (Config.default ~nodes:6) with
      Config.inline_depth = 3;
      replicate_depth = 3;
      policy = Recflow_balance.Policy.Random;
    }
  in
  let schemes =
    [
      ("rollback", Config.Rollback);
      ("splice", Config.Splice);
      ("replicate k=2", Config.Replicate 2);
      ("replicate k=3", Config.Replicate 3);
    ]
  in
  let rows =
    Harness.run_many
      (fun (name, recovery) ->
        let cfg = { base with Config.recovery } in
        let probe = Harness.probe cfg w size in
        let t_fail = probe.Harness.makespan / 3 in
        let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
        let faulty = Harness.run cfg w size ~failures:(Plan.single ~time:t_fail victim) in
        {
          name;
          ff_makespan = probe.Harness.makespan;
          overhead = 0.0;
          faulty_delta = faulty.Harness.makespan - probe.Harness.makespan;
          reissues = Harness.counter faulty "reissue.count";
          vote_inconclusive = Harness.counter faulty "vote.inconclusive";
          correct = probe.Harness.correct && faulty.Harness.correct;
        })
      schemes
  in
  let baseline = (List.hd rows).ff_makespan in
  let rows =
    List.map
      (fun r ->
        { r with overhead = float_of_int (r.ff_makespan - baseline) /. float_of_int baseline })
      rows
  in
  let table =
    Table.create
      ~title:"Replication with majority voting vs checkpoint recovery (one failure at 33%)"
      ~columns:
        [ "scheme"; "fault-free makespan"; "overhead"; "recovery delta"; "re-issues";
          "votes inconclusive"; "answer ok" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.name;
          Harness.c_int r.ff_makespan;
          Printf.sprintf "%+.0f%%" (100.0 *. r.overhead);
          Printf.sprintf "%+d" r.faulty_delta;
          Harness.c_int r.reissues;
          Harness.c_int r.vote_inconclusive;
          Harness.c_bool r.correct;
        ])
    rows;
  (* Misunas whole-program TMR, closed form, on the same workload. *)
  let work = Workload.serial_work w size in
  let tasks = Workload.task_count w size in
  let tmr = Tmr.default in
  let tmr_table =
    Table.create ~title:"Misunas TMR closed form (whole program, 6 processors)"
      ~columns:[ "copies"; "ideal completion"; "work overhead"; "failures masked" ]
  in
  Table.add_row tmr_table
    [
      Harness.c_int tmr.Tmr.copies;
      Harness.c_int (Tmr.completion_estimate tmr ~work ~procs:6 ~tasks);
      Printf.sprintf "%+.0f%%" (100.0 *. Tmr.overhead tmr);
      Harness.c_int (Tmr.masked_failures tmr);
    ];
  let find name = List.find (fun r -> r.name = name) rows in
  let k3 = find "replicate k=3" and roll = find "rollback" in
  let checks =
    [
      ("all schemes survive the failure with the serial answer",
       List.for_all (fun r -> r.correct) rows);
      ("replication overhead grows with k",
       (find "replicate k=2").overhead < k3.overhead && (find "replicate k=2").overhead > 0.2);
      ( "k=3 masks the failure with less recovery delay than rollback",
        k3.faulty_delta < roll.faulty_delta );
      ("k=3 masks the failure without re-issuing any replicated task", k3.reissues = 0
                                                                       && k3.vote_inconclusive = 0);
      ("checkpointing is free in normal operation; replication is not",
       roll.overhead = 0.0 && k3.overhead > 0.5);
    ]
  in
  Report.make ~id:"Q6" ~title:"Task replication with majority voting (§5.3) vs checkpointing"
    ~paper_source:"§5.3 (hardware redundancy emulation), §5.4 (Misunas TMR)"
    ~notes:
      [
        "The voter decides on ⌊k/2⌋+1 identical results — \"a node does not have to wait for \
         the slowest answer\"; a replica lost to the failure is accounted by the voter, and \
         unanimous survivors still decide.";
      ]
    ~checks [ table; tmr_table ]
