module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Table = Recflow_stats.Table
module Plan = Recflow_fault.Plan

type point = {
  grace : int;
  delta : int;
  extra_work : int;
  inherited : int;
  duplicates : int;
  correct : bool;
}

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let graces = if quick then [ 0; 80; 800 ] else [ 0; 20; 80; 200; 800; 3000 ] in
  let points =
    Harness.run_many
      (fun grace ->
        let cfg =
          {
            (Config.default ~nodes:8) with
            Config.inline_depth;
            recovery = Config.Splice;
            adoption_grace = grace;
            policy = Recflow_balance.Policy.Random;
          }
        in
        let probe = Harness.probe cfg w size in
        let t_fail = probe.Harness.makespan / 2 in
        let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
        let r = Harness.run cfg w size ~failures:(Plan.single ~time:t_fail victim) in
        {
          grace;
          delta = r.Harness.makespan - probe.Harness.makespan;
          extra_work =
            Cluster.total_work r.Harness.cluster - Cluster.total_work probe.Harness.cluster;
          inherited = Harness.counter r "spawn.inherited";
          duplicates = Harness.counter r "dup.ignored";
          correct = r.Harness.correct;
        })
      graces
  in
  let table =
    Table.create ~title:"Adoption grace sweep (splice, one failure at 50%)"
      ~columns:
        [ "grace (ticks)"; "recovery delta"; "extra work"; "orphans inherited"; "duplicates";
          "answer ok" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Harness.c_int p.grace;
          Printf.sprintf "%+d" p.delta;
          Harness.c_int p.extra_work;
          Harness.c_int p.inherited;
          Harness.c_int p.duplicates;
          Harness.c_bool p.correct;
        ])
    points;
  let at g = List.find (fun p -> p.grace = g) points in
  let zero = at 0 and mid = at 80 in
  let best_extra = List.fold_left (fun acc p -> min acc p.extra_work) max_int points in
  let checks =
    [
      ("all graces recover correctly", List.for_all (fun p -> p.correct) points);
      ("grace 0 inherits nothing (literal §4.2 protocol)", zero.inherited = 0);
      ("a modest grace enables inheritance", mid.inherited > 0);
      ( "inheritance cuts redone work vs the literal protocol",
        mid.extra_work < zero.extra_work );
      ( "the default grace (80) is within 25% of the best extra-work in the sweep",
        float_of_int mid.extra_work <= 1.25 *. float_of_int best_extra );
    ]
  in
  Report.make ~id:"X2" ~title:"Ablation: adoption grace for offspring inheritance"
    ~paper_source:"§4.1 (\"inherits all offspring\"); DESIGN.md implementation findings"
    ~notes:
      [
        "Grace 0 also disables orphan self-reports, reverting exactly to the protocol text of \
         §4.2: only completed orphan results are salvaged, and the twin re-demands everything \
         else.";
      ]
    ~checks [ table ]
