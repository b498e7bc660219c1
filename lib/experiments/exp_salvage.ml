module Config = Recflow_machine.Config
module Table = Recflow_stats.Table
module Plan = Recflow_fault.Plan

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let base = { (Config.default ~nodes:8) with Config.inline_depth } in
  let fractions = if quick then [ 0.3; 0.6 ] else [ 0.15; 0.3; 0.45; 0.6; 0.75 ] in
  let detects = [ 200; 2500 ] in
  let table =
    Table.create ~title:"Fate of orphan results by scheme, fault time and detection delay"
      ~columns:
        [ "fault at"; "detect"; "scheme"; "orphan returns"; "relayed"; "adopted pre-spawn";
          "duplicates"; "stranded"; "dropped (rollback)"; "answer ok" ]
  in
  let splice_adopted = ref 0 and splice_relayed = ref 0 in
  let rollback_dropped = ref 0 and rollback_salvaged = ref 0 in
  let all_correct = ref true in
  (* One block per (detect, scheme): probe once, then every fault time of
     the block in parallel; accumulation and table rows happen afterwards
     on the submitting domain, in sweep order. *)
  let blocks =
    Harness.run_many
      (fun (detect, recovery) ->
        let cfg =
          { base with Config.recovery; detect_delay = detect;
            policy = Recflow_balance.Policy.Random }
        in
        let probe = Harness.probe cfg w size in
        let points =
          Harness.run_many
            (fun frac ->
              let t_fail = int_of_float (frac *. float_of_int probe.Harness.makespan) in
              let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
              let r =
                Harness.run ~drain:true cfg w size
                  ~failures:(Plan.single ~time:t_fail victim)
              in
              let c name = Harness.counter r name in
              ( frac,
                [
                  ("relay.sent", c "relay.sent");
                  ("relay.forwarded", c "relay.forwarded");
                  ("spawn.skipped_preheld", c "spawn.skipped_preheld");
                  ("dup.ignored", c "dup.ignored");
                  ("relay.stranded", c "relay.stranded");
                  ("result.orphan_dropped", c "result.orphan_dropped");
                ],
                r.Harness.correct ))
            fractions
        in
        (detect, recovery, points))
      (List.concat_map
         (fun detect ->
           List.map (fun recovery -> (detect, recovery)) [ Config.Rollback; Config.Splice ])
         detects)
  in
  List.iter
    (fun (detect, recovery, points) ->
      List.iter
        (fun (frac, counters, correct) ->
          if not correct then all_correct := false;
          let c name = List.assoc name counters in
          let adopted = c "spawn.skipped_preheld" in
          (match recovery with
          | Config.Splice ->
            splice_adopted := !splice_adopted + adopted;
            splice_relayed := !splice_relayed + c "relay.forwarded"
          | Config.Rollback ->
            rollback_dropped := !rollback_dropped + c "result.orphan_dropped";
            rollback_salvaged := !rollback_salvaged + c "relay.forwarded"
          | Config.No_recovery | Config.Replicate _ -> ());
          Table.add_row table
            [
              Printf.sprintf "%.0f%%" (100.0 *. frac);
              Harness.c_int detect;
              Config.recovery_to_string recovery;
              Harness.c_int (c "relay.sent" + c "result.orphan_dropped");
              Harness.c_int (c "relay.forwarded");
              Harness.c_int adopted;
              Harness.c_int (c "dup.ignored");
              Harness.c_int (c "relay.stranded");
              Harness.c_int (c "result.orphan_dropped");
              Harness.c_bool correct;
            ])
        points;
      Table.add_separator table)
    blocks;
  let checks =
    [
      ("all runs produce the serial answer", !all_correct);
      ("splice relays orphan results through grandparents", !splice_relayed > 0);
      ( "some salvaged results are adopted by twins before re-spawning (cases 4-5)",
        !splice_adopted > 0 );
      ("rollback drops orphan results instead of relaying", !rollback_salvaged = 0
                                                            && !rollback_dropped > 0);
    ]
  in
  Report.make ~id:"Q3" ~title:"Salvage accounting for orphan results"
    ~paper_source:"§3.4 (orphan tasks), §4.1 (splice salvage)"
    ~notes:
      [
        "Runs use drain mode so orphan returns that arrive after the root answer are still \
         accounted.";
        "\"Adopted pre-spawn\" is the pure salvage win: the twin found the answer already \
         there and skipped re-spawning the subtree.";
      ]
    ~checks [ table ]
