module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Table = Recflow_stats.Table
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan

let run ?(quick = false) () =
  let size = if quick then Workload.Small else Workload.Medium in
  let w = Workload.tree_sum in
  let base = Config.default ~nodes:8 in
  (* Slow broadcast detection: orphan returns reach grandparents first, so
     twins are created by the "unexpected partial answer" path of §4.1
     rather than by the notice.  Random placement spreads a task's parent
     and grandparent across processors, so one failure rarely kills both —
     the gradient model co-locates lineages, which yields the stranded
     orphans studied in Q5 instead. *)
  let cfg =
    {
      base with
      Config.recovery = Config.Splice;
      policy = Recflow_balance.Policy.Random;
      detect_delay = 4000;
      bounce_delay = 80;
    }
  in
  let probe = Harness.probe cfg w size in
  let t_fail = probe.Harness.makespan * 2 / 5 in
  let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
  let faulty = Harness.run cfg w size ~failures:(Plan.single ~time:t_fail victim) in
  let journal = Cluster.journal faulty.Harness.cluster in
  (* Twins created on orphan evidence (an unexpected partial answer, or a
     living orphan's adoption report), and the relays they received. *)
  let twins =
    List.filter_map
      (fun (e : Journal.entry) ->
        match e.Journal.event with
        | Journal.Respawned { task; dest; reason }
          when reason = "orphan-result" || reason = "orphan-alive" ->
          Some (e.Journal.stamp, e.Journal.time, task, dest)
        | _ -> None)
      (Journal.entries journal)
  in
  let inherited_count =
    Journal.count journal (function Journal.Inherited _ -> true | _ -> false)
  in
  let relays =
    List.filter_map
      (fun (e : Journal.entry) ->
        match e.Journal.event with
        | Journal.Relayed { via } -> Some (e.Journal.stamp, e.Journal.time, via)
        | _ -> None)
      (Journal.entries journal)
  in
  let summary =
    Table.create ~title:"Splice recovery run (tree_sum, one failure)"
      ~columns:[ "metric"; "value" ]
  in
  let metric k v = Table.add_row summary [ k; v ] in
  metric "fault-free makespan" (Harness.c_int probe.Harness.makespan);
  metric "failure time / victim" (Printf.sprintf "%d / P%d" t_fail victim);
  metric "makespan with failure" (Harness.c_int faulty.Harness.makespan);
  metric "answer correct" (Harness.c_bool faulty.Harness.correct);
  metric "twins from orphan evidence" (Harness.c_int (List.length twins));
  metric "twins from failure notice"
    (Harness.c_int
       (Journal.count journal (function
         | Journal.Respawned { reason; _ } -> reason = "notice"
         | _ -> false)));
  metric "living orphans inherited by twins" (Harness.c_int inherited_count);
  metric "orphan results relayed" (Harness.c_int (List.length relays));
  metric "spawns skipped (answer already there)"
    (Harness.c_int (Harness.counter faulty "spawn.skipped_preheld"));
  metric "duplicate results ignored" (Harness.c_int (Harness.counter faulty "dup.ignored"));
  let twin_table =
    Table.create ~title:"Twin tasks (step-parents) created from checkpoints"
      ~columns:[ "stamp"; "created at"; "twin task"; "new processor"; "relays received" ]
  in
  let shown = if quick then 8 else 16 in
  List.iteri
    (fun i (stamp, time, task, dest) ->
      if i < shown then begin
        let received =
          List.length
            (List.filter
               (fun (s, _, _) ->
                 match Stamp.parent s with Some p -> Stamp.equal p stamp | None -> false)
               relays)
        in
        Table.add_row twin_table
          [
            Stamp.to_string stamp;
            Harness.c_int time;
            Printf.sprintf "task%d" task;
            Printf.sprintf "P%d" dest;
            Harness.c_int received;
          ]
      end)
    twins;
  let checks =
    [
      ("answer survives the failure and matches the serial result", faulty.Harness.correct);
      ("at least one twin was created on orphan evidence", twins <> []);
      ("twins inherited living orphans instead of cloning them", inherited_count > 0);
      ("orphan results were relayed through grandparents", relays <> []);
    ]
  in
  Report.make ~id:"F3" ~title:"Twin creation and offspring inheritance (splice)"
    ~paper_source:"Figures 3–4, §4.1–§4.2"
    ~notes:
      [
        "Detection is deliberately slowed (detect_delay = 4000) so grandchildren returns are \
         the first failure evidence grandparents see — the exact Figure 3 storyline.";
      ]
    ~checks [ summary; twin_table ]
