module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Ckpt_table = Recflow_recovery.Ckpt_table
module Table = Recflow_stats.Table
module Plan = Recflow_fault.Plan

type row = {
  mode : string;
  stored : int;
  covered : int;
  reissues : int;
  extra_work : int;
  delta : int;
  correct : bool;
}

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let mk ckpt_mode =
    {
      (Config.default ~nodes:8) with
      Config.inline_depth;
      ckpt_mode;
      recovery = Config.Rollback;
      (* gradient placement co-locates ancestor chains, which is what makes
         coverage effective — the interesting regime for the ablation *)
      policy = Recflow_balance.Policy.Gradient { weight = 2 };
    }
  in
  let rows =
    Harness.run_many
      (fun (name, mode) ->
        let cfg = mk mode in
        let probe = Harness.probe cfg w size in
        let t_fail = probe.Harness.makespan / 2 in
        let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
        let faulty =
          Harness.run ~drain:true cfg w size ~failures:(Plan.single ~time:t_fail victim)
        in
        {
          mode = name;
          stored = Harness.counter faulty "ckpt.recorded";
          covered = Harness.counter faulty "ckpt.covered";
          reissues = Harness.counter faulty "reissue.count";
          extra_work =
            Cluster.total_work faulty.Harness.cluster - Cluster.total_work probe.Harness.cluster;
          delta = faulty.Harness.makespan - probe.Harness.makespan;
          correct = faulty.Harness.correct;
        })
      [
        ("topmost (paper §3.2)", Config.Fixed Ckpt_table.Topmost);
        ("keep-all", Config.Fixed Ckpt_table.Keep_all);
      ]
  in
  let table =
    Table.create ~title:"Checkpoint table discipline under one mid-run failure (rollback)"
      ~columns:
        [ "discipline"; "checkpoints stored"; "covered (not stored)"; "re-issues";
          "extra work"; "recovery delta"; "answer ok" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.mode;
          Harness.c_int r.stored;
          Harness.c_int r.covered;
          Harness.c_int r.reissues;
          Harness.c_int r.extra_work;
          Printf.sprintf "%+d" r.delta;
          Harness.c_bool r.correct;
        ])
    rows;
  let topmost = List.hd rows and keep_all = List.nth rows 1 in
  let checks =
    [
      ("both disciplines recover correctly", topmost.correct && keep_all.correct);
      ("topmost stores strictly fewer checkpoints", topmost.stored < keep_all.stored);
      ("topmost re-issues no more tasks than keep-all", topmost.reissues <= keep_all.reissues);
      ( "keep-all redoes at least as much work (fruitless descendant re-issues)",
        topmost.extra_work <= keep_all.extra_work );
    ]
  in
  Report.make ~id:"Q8" ~title:"Checkpoint-table ablation: topmost-only vs keep-all"
    ~paper_source:"§3.2 (table of topmost checkpoints; the B5 coverage discussion)"
    ~notes:
      [
        "Keep-all re-issues every checkpoint filed under the dead processor, including \
         descendants whose regenerated ancestors would recreate them anyway — the \"not \
         fruitful\" reactivations of §3 (task B5).";
      ]
    ~checks [ table ]
