module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Table = Recflow_stats.Table
module Plan = Recflow_fault.Plan

let fractions quick = if quick then [ 0.25; 0.5; 0.75 ] else [ 0.1; 0.25; 0.4; 0.55; 0.7; 0.85 ]

type point = {
  frac : float;
  detect : int;
  delta : int;  (* completion time beyond the fault-free makespan *)
  extra_work : int;  (* busy ticks beyond the fault-free run *)
  waste : int;  (* survivor-side work on aborted/dropped tasks *)
  reissues : int;
  relayed : int;
  correct : bool;
}

let sweep cfg w size quick =
  let probe = Harness.probe cfg w size in
  Harness.run_many
    (fun frac ->
      let t_fail = int_of_float (frac *. float_of_int probe.Harness.makespan) in
      let victim =
        match Harness.busiest_victim probe ~time:t_fail with
        | Ok p -> p
        | Error (Some h) -> (h + 1) mod 8
        | Error None -> 1
      in
      let r = Harness.run cfg w size ~failures:(Plan.single ~time:t_fail victim) in
      {
        frac;
        detect = cfg.Config.detect_delay;
        delta = r.Harness.makespan - probe.Harness.makespan;
        extra_work =
          Cluster.total_work r.Harness.cluster - Cluster.total_work probe.Harness.cluster;
        waste = Cluster.total_waste r.Harness.cluster;
        reissues = Harness.counter r "reissue.count";
        relayed = Harness.counter r "relay.forwarded";
        correct = r.Harness.correct;
      })
    (fractions quick)

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let base = { (Config.default ~nodes:8) with Config.inline_depth } in
  let mk recovery detect =
    { base with Config.recovery; detect_delay = detect; policy = Recflow_balance.Policy.Random }
  in
  let detects = [ 200; 2500 ] in
  let grid =
    Harness.run_many
      (fun (scheme, recovery, detect) -> (scheme, detect, sweep (mk recovery detect) w size quick))
      (List.concat_map
         (fun detect ->
           [ ("rollback", Config.Rollback, detect); ("splice", Config.Splice, detect) ])
         detects)
  in
  let table =
    Table.create ~title:"Recovery cost vs fault time and detection delay"
      ~columns:
        [ "fault at"; "detect delay"; "scheme"; "recovery delta"; "extra work"; "lost work";
          "re-issues"; "salvaged"; "answer ok" ]
  in
  List.iter
    (fun (scheme, detect, points) ->
      List.iter
        (fun p ->
          Table.add_row table
            [
              Printf.sprintf "%.0f%%" (100.0 *. p.frac);
              Harness.c_int detect;
              scheme;
              Printf.sprintf "%+d" p.delta;
              Harness.c_int p.extra_work;
              Harness.c_int p.waste;
              Harness.c_int p.reissues;
              Harness.c_int p.relayed;
              Harness.c_bool p.correct;
            ])
        points;
      Table.add_separator table)
    grid;
  let find scheme detect =
    let _, _, pts = List.find (fun (s, d, _) -> s = scheme && d = detect) grid in
    pts
  in
  let last pts = List.nth pts (List.length pts - 1) in
  let all_points = List.concat_map (fun (_, _, pts) -> pts) grid in
  let roll_slow = find "rollback" 2500 and splice_slow = find "splice" 2500 in
  let roll_fast = find "rollback" 200 and splice_fast = find "splice" 200 in
  let total f pts = List.fold_left (fun acc p -> acc + f p) 0 pts in
  let checks =
    [
      ("every faulty run still produces the serial answer",
       List.for_all (fun p -> p.correct) all_points);
      ( "rollback's recovery delay grows with fault lateness",
        (last roll_fast).delta > (List.hd roll_fast).delta
        && (last roll_slow).delta > (List.hd roll_slow).delta );
      ( "splice completes recovery faster than rollback overall (both detection regimes)",
        total (fun p -> max 0 p.delta) splice_fast < total (fun p -> max 0 p.delta) roll_fast
        && total (fun p -> max 0 p.delta) splice_slow < total (fun p -> max 0 p.delta) roll_slow );
      ( "splice redoes less work than rollback (totals; per-point once there is anything to \
         salvage)",
        let tail = function [] -> [] | _ :: rest -> rest in
        total (fun p -> p.extra_work) splice_fast < total (fun p -> p.extra_work) roll_fast
        && total (fun p -> p.extra_work) splice_slow < total (fun p -> p.extra_work) roll_slow
        && List.for_all2
             (fun (s : point) (r : point) -> s.extra_work < r.extra_work)
             (tail splice_slow) (tail roll_slow)
        && List.for_all2
             (fun (s : point) (r : point) -> s.extra_work < r.extra_work)
             (tail splice_fast) (tail roll_fast) );
      ("splice salvages orphan results; rollback never does",
       List.for_all (fun p -> p.relayed = 0) (roll_fast @ roll_slow)
       && List.exists (fun p -> p.relayed > 0) (splice_fast @ splice_slow));
    ]
  in
  Report.make ~id:"Q2" ~title:"Recovery cost vs fault time (rollback vs splice)"
    ~paper_source:"§6 (rollback \"may be costly\" late); §3.4/§4 (salvage motivation)"
    ~notes:
      [
        "Victim: the busiest processor that does not host the root, chosen per fault time from \
         a fault-free probe.";
        "Splice's edge comes from offspring inheritance: a re-issued twin is held back one \
         adoption-grace interval so living orphans can announce themselves, and inherited \
         pieces keep computing instead of being recomputed.  Duplicates remain only where \
         the adoption race is lost (§4.1 cases 6-7).";
      ]
    ~checks [ table ]
