type entry = { id : string; title : string; run : ?quick:bool -> unit -> Report.t }

let all =
  [
    { id = "F1"; title = "Call-tree fragmentation and checkpoint distribution (Figure 1)";
      run = Exp_fig1.run };
    { id = "F2"; title = "Grandparent pointers (Figure 2)"; run = Exp_fig2.run };
    { id = "F3"; title = "Twin creation and offspring inheritance (Figures 3-4)";
      run = Exp_fig3.run };
    { id = "F5"; title = "All orderings of child completion vs recovery (Figure 5)";
      run = Exp_cases.run };
    { id = "F6"; title = "Residue-free recovery across spawn states (Figures 6-7)";
      run = Exp_residue.run };
    { id = "Q1"; title = "Fault-free overhead: functional vs periodic checkpointing";
      run = Exp_overhead.run };
    { id = "Q2"; title = "Recovery cost vs fault time (rollback vs splice)";
      run = Exp_fault_time.run };
    { id = "Q3"; title = "Salvage accounting for orphan results"; run = Exp_salvage.run };
    { id = "Q4"; title = "Scalability: speedup and recovery vs processors"; run = Exp_scale.run };
    { id = "Q5"; title = "Multiple faults: disjoint branches vs ancestor chains";
      run = Exp_multifault.run };
    { id = "Q6"; title = "Task replication with majority voting vs checkpointing";
      run = Exp_replication.run };
    { id = "Q7"; title = "Dynamic vs static allocation under recovery"; run = Exp_alloc.run };
    { id = "Q8"; title = "Checkpoint-table ablation: topmost-only vs keep-all";
      run = Exp_table.run };
    { id = "X1"; title = "Fail-soft degradation under sustained failures";
      run = Exp_sustained.run };
    { id = "X2"; title = "Ablation: adoption grace for offspring inheritance";
      run = Exp_grace.run };
    { id = "X3"; title = "Ablation: task granularity (inline threshold)"; run = Exp_grain.run };
    { id = "X4"; title = "Chaos: loss, duplication, reordering, partitions, suspicion";
      run = Exp_chaos.run };
    { id = "X6"; title = "Service: request streams surviving mid-stream failures";
      run = Exp_service.run };
    { id = "X7"; title = "Adaptive checkpoint admission driven by static cost bounds";
      run = Exp_adaptive.run };
    { id = "X8"; title = "Scale: 1024 processors, a million-task tree"; run = Exp_xscale.run };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> String.equal e.id id) all

let ids = List.map (fun e -> e.id) all
