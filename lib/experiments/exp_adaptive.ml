module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Ckpt_table = Recflow_recovery.Ckpt_table
module Table = Recflow_stats.Table
module Plan = Recflow_fault.Plan
module Workload = Recflow_workload.Workload
module Cost = Recflow_analysis.Cost
module Check = Recflow_analysis.Check
module Policy = Recflow_balance.Policy

(* X7: does *static* cost analysis buy anything at run time?  Sweep the
   (loss rate x work size) plane and at each point race three checkpoint
   admission disciplines:

   - keep-all: every spawn stores a checkpoint (and pays [ckpt_cost] for
     it on the spawn critical path);
   - topmost (paper §3.2): ancestor-covered checkpoints are pruned;
   - auto: [Policy.suggest_ckpt_admission] turns the static depth/work
     bounds from {!Cost.entry_bounds} plus the loss prior into a depth
     cutoff, and spawns below it skip the store entirely
     ([Config.Adaptive]).

   The paper charges nothing for recording (§3.3 argues the table write
   is cheap); the sweep makes the cost explicit so the admission
   trade-off — certain record cost now vs expected regeneration cost
   after a failure — has two non-trivial corners.  Auto should win where
   records are dear and loss is unlikely, and degenerate to topmost-like
   admission where loss is likely. *)

type point = {
  label : string;
  size : Workload.size;
  fail : bool;  (** inject one mid-run failure at this point? *)
  prior : float;  (** loss prior fed to the admission rule *)
}

type row = {
  point : string;
  discipline : string;
  admission : string;  (** depth cutoff chosen by auto, or "-" *)
  stored : int;
  skipped : int;
  reissues : int;
  work : int;  (** total node-time: compute + spawn + record charges *)
  makespan : int;
  correct : bool;
}

let ckpt_cost = 8

let run ?(quick = false) () =
  let w = Workload.synthetic ~branching:2 ~depth:(if quick then 6 else 8) ~grain:40 in
  let report = Check.check_source ~entries:[ w.Workload.entry ] w.Workload.source in
  let cost =
    match report.Check.cost with
    | Some c -> c
    | None -> invalid_arg "X7: synthetic workload failed the static checker"
  in
  let work =
    match Cost.find cost w.Workload.entry with
    | Some fc -> fc.Cost.work_per_activation
    | None -> 1
  in
  let lo, hi = if quick then (Workload.Tiny, Workload.Small) else (Workload.Small, Workload.Medium) in
  let points =
    [
      { label = "loss-, work-"; size = lo; fail = false; prior = 0.02 };
      { label = "loss-, work+"; size = hi; fail = false; prior = 0.02 };
      { label = "loss~, work+"; size = hi; fail = true; prior = 0.1 };
      { label = "loss+, work-"; size = lo; fail = true; prior = 0.6 };
      { label = "loss+, work+"; size = hi; fail = true; prior = 0.6 };
    ]
  in
  let inline_depth =
    (* spawn the full tree, as in the other synthetic experiments *)
    match hi with Workload.Medium -> 9 | _ -> 7
  in
  let cells =
    List.concat_map
      (fun pt ->
        let eb = Cost.entry_bounds cost ~entry:w.Workload.entry ~args:(w.Workload.args pt.size) in
        (* spawns deeper than [inline_depth] are inlined and never reach the
           checkpoint table, so that is the effective depth of admissible
           stamps — the static call-depth bound also counts inlined frames
           (here the leaf spin chains) *)
        let depth_bound = Option.map (fun d -> min d inline_depth) eb.Cost.depth in
        let cutoff =
          Policy.suggest_ckpt_admission ~work_per_activation:work ~fanout:eb.Cost.fanout
            ~depth_bound ~loss_rate:pt.prior ~ckpt_cost
        in
        let auto_mode =
          match cutoff with
          | Some d -> Config.Adaptive { max_depth = d }
          | None -> Config.Fixed Ckpt_table.Topmost
        in
        List.map
          (fun (name, mode) -> (pt, cutoff, name, mode))
          [
            ("keep-all", Config.Fixed Ckpt_table.Keep_all);
            ("topmost", Config.Fixed Ckpt_table.Topmost);
            ("auto", auto_mode);
          ])
      points
  in
  let rows =
    Harness.run_many
      (fun (pt, cutoff, name, mode) ->
        let cfg =
          {
            (Config.default ~nodes:8) with
            Config.inline_depth;
            ckpt_mode = mode;
            ckpt_cost;
            recovery = Config.Rollback;
            policy = Policy.Gradient { weight = 2 };
          }
        in
        let probe = Harness.probe cfg w pt.size in
        let failures =
          if not pt.fail then []
          else begin
            let t_fail = probe.Harness.makespan / 2 in
            let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
            Plan.single ~time:t_fail victim
          end
        in
        let r = if pt.fail then Harness.run ~drain:true cfg w pt.size ~failures else probe in
        {
          point = pt.label;
          discipline = name;
          admission =
            (match (name, cutoff) with
            | "auto", Some d -> string_of_int d
            | _ -> "-");
          stored = Harness.counter r "ckpt.recorded";
          skipped = Harness.counter r "ckpt.skipped_deep";
          reissues = Harness.counter r "reissue.count";
          work = Cluster.total_work r.Harness.cluster;
          makespan = r.Harness.makespan;
          correct = r.Harness.correct;
        })
      cells
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Checkpoint admission across the loss x work plane (ckpt_cost=%d, rollback)" ckpt_cost)
      ~columns:
        [ "plane point"; "admission"; "depth cutoff"; "stored"; "skipped deep"; "re-issues";
          "total work"; "makespan"; "answer ok" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.point;
          r.discipline;
          r.admission;
          Harness.c_int r.stored;
          Harness.c_int r.skipped;
          Harness.c_int r.reissues;
          Harness.c_int r.work;
          Harness.c_int r.makespan;
          Harness.c_bool r.correct;
        ])
    rows;
  let at point discipline =
    List.find (fun r -> String.equal r.point point && String.equal r.discipline discipline) rows
  in
  let auto_wins point =
    let a = at point "auto" and t = at point "topmost" and k = at point "keep-all" in
    a.work < t.work && a.work < k.work
  in
  let checks =
    [
      ("every discipline recovers the right answer everywhere", List.for_all (fun r -> r.correct) rows);
      ( "auto prunes below the static cutoff where loss is unlikely",
        (at "loss-, work+" "auto").skipped > 0 );
      ( "auto spends the least node-time somewhere in the plane",
        List.exists (fun pt -> auto_wins pt.label) points );
      ( "a failure with a pruned table still recovers (parent regeneration)",
        (let r = at "loss~, work+" "auto" in
         r.correct && r.skipped > 0) );
      ( "keep-all never stores fewer checkpoints than topmost",
        List.for_all
          (fun pt -> (at pt.label "keep-all").stored >= (at pt.label "topmost").stored)
          points );
      ( "under a likely failure auto keeps (nearly) everything topmost keeps",
        (at "loss+, work+" "auto").skipped <= (at "loss-, work+" "auto").skipped );
    ]
  in
  Report.make ~id:"X7" ~title:"Adaptive checkpoint admission driven by static cost bounds"
    ~paper_source:"§3.2 (checkpoint table) + §3.3 (recovery cost model); admission rule after Sodre"
    ~notes:
      [
        "The admission cutoff is computed *before* the run from the static \
         depth/fan-out/work bounds (RF3xx cost pass) and the loss prior; the machine then \
         skips the table store for spawns below the cutoff and pays regeneration from the \
         surviving parent if one of them is lost.";
      ]
    ~checks [ table ]
