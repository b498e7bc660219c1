(* X4: survive a hostile network.

   Sweep message-loss rate × suspicion timeout under a fixed background of
   duplication, reordering, delay spikes and one transient partition, with
   the reliable transport armed.  Determinacy (§2) promises the answer
   cannot change; what the sweep measures is the *price*: makespan
   inflation over the chaos-free baseline, retransmission volume, and how
   an aggressive suspicion timeout converts network weather into false
   suspicions (abandoned-but-live processors replaced by twins). *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Chaos = Recflow_net.Chaos
module Plan = Recflow_fault.Plan
module Table = Recflow_stats.Table

type point = {
  drop : float;
  susp : int;
  all_correct : bool;
  all_oracle_ok : bool;
  inflation : float;  (** mean makespan / clean-probe makespan *)
  retransmit : float;  (** mean per run *)
  dropped : float;
  dup_suppressed : float;
  false_suspicions : int;  (** total over seeds *)
  suspected : int;
}

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let drops = if quick then [ 0.0; 0.1; 0.2 ] else [ 0.0; 0.05; 0.1; 0.2 ] in
  let susps = if quick then [ 700; 2400 ] else [ 600; 1200; 2400 ] in
  let seeds = if quick then [ 42; 1042 ] else [ 42; 1042; 2042; 3042 ] in
  let base seed =
    {
      (Config.default ~nodes:8) with
      Config.inline_depth;
      recovery = Config.Splice;
      policy = Recflow_balance.Policy.Random;
      seed;
    }
  in
  (* Chaos-free probes: the makespan baseline, one per seed. *)
  let clean = Harness.run_many (fun s -> (s, Harness.probe (base s) w size)) seeds in
  let clean_makespan s = (List.assoc s clean).Harness.makespan in
  (* One transient partition cutting processors 1-2 off for the middle
     third of the clean run (absolute window, same for every cell). *)
  let m0 = clean_makespan (List.hd seeds) in
  let p_from = m0 / 3 and p_until = (m0 / 3) + (max 900 (m0 / 3)) in
  let cells =
    List.concat_map
      (fun d -> List.concat_map (fun s -> List.map (fun sd -> (d, s, sd)) seeds) susps)
      drops
  in
  let runs =
    Harness.run_many
      (fun (d, susp, seed) ->
        let chaos =
          Chaos.none |> Plan.drop_rate d |> Plan.duplicate_rate 0.1
          |> Plan.reorder ~rate:0.15 ~spread:120
          |> Plan.delay_spikes ~rate:0.05 ~max_delay:800
          |> Plan.partition ~from:p_from ~until:p_until ~groups:[ [ 1; 2 ] ]
        in
        let cfg = base seed in
        let cfg =
          {
            cfg with
            Config.chaos;
            reliable = true;
            retry = { Config.suspicion_after = susp };
          }
        in
        ((d, susp, seed), Harness.run ~drain:true cfg w size ~failures:[]))
      cells
  in
  let point d susp =
    let rs =
      List.filter_map
        (fun ((d', s', seed), r) -> if d' = d && s' = susp then Some (seed, r) else None)
        runs
    in
    let fmean f = mean (List.map (fun (_, r) -> float_of_int (f r)) rs) in
    {
      drop = d;
      susp;
      all_correct = List.for_all (fun (_, r) -> r.Harness.correct) rs;
      all_oracle_ok = List.for_all (fun (_, r) -> Oracle.ok r.Harness.oracle) rs;
      inflation =
        mean
          (List.map
             (fun (seed, r) ->
               float_of_int r.Harness.makespan /. float_of_int (clean_makespan seed))
             rs);
      retransmit = fmean (fun r -> Harness.counter r "net.retransmit");
      dropped = fmean (fun r -> Harness.counter r "net.msg_dropped");
      dup_suppressed = fmean (fun r -> Harness.counter r "net.dup_suppressed");
      false_suspicions =
        List.fold_left (fun acc (_, r) -> acc + Harness.counter r "net.false_suspicion") 0 rs;
      suspected = List.fold_left (fun acc (_, r) -> acc + Harness.counter r "net.suspected") 0 rs;
    }
  in
  let points = List.concat_map (fun d -> List.map (point d) susps) drops in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Loss rate x suspicion timeout (dup 10%%, reorder 15%%, spikes, partition \
            [%d,%d) of procs 1-2, %d seeds)"
           p_from p_until (List.length seeds))
      ~columns:
        [ "drop"; "suspicion"; "correct"; "makespan x"; "retransmits"; "dropped";
          "dup suppressed"; "false suspicions"; "suspected" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Printf.sprintf "%.0f%%" (100.0 *. p.drop);
          Harness.c_int p.susp;
          Harness.c_bool (p.all_correct && p.all_oracle_ok);
          Harness.c_float p.inflation;
          Harness.c_float ~decimals:1 p.retransmit;
          Harness.c_float ~decimals:1 p.dropped;
          Harness.c_float ~decimals:1 p.dup_suppressed;
          Harness.c_int p.false_suspicions;
          Harness.c_int p.suspected;
        ])
    points;
  let max_drop = List.fold_left max 0.0 drops in
  let min_susp = List.fold_left min max_int susps in
  let max_susp = List.fold_left max 0 susps in
  let at d s = List.find (fun p -> p.drop = d && p.susp = s) points in
  let sum_over pred f = List.fold_left (fun acc p -> if pred p then acc + f p else acc) 0 points in
  let checks =
    [
      ("every chaotic run returns the correct answer", List.for_all (fun p -> p.all_correct) points);
      ("the recovery oracle holds on every run", List.for_all (fun p -> p.all_oracle_ok) points);
      ( "retransmissions grow with the loss rate",
        (at max_drop max_susp).retransmit > (at 0.0 max_susp).retransmit );
      ( "the partition alone already costs retransmissions at drop 0",
        (at 0.0 max_susp).dropped > 0.0 );
      ( "injected duplicates are suppressed",
        List.exists (fun p -> p.dup_suppressed > 0.0) points );
      ( "an aggressive suspicion timeout falsely suspects live processors",
        sum_over (fun p -> p.susp = min_susp) (fun p -> p.false_suspicions) > 0 );
      ( "a patient timeout suspects no more than an aggressive one",
        sum_over (fun p -> p.susp = max_susp) (fun p -> p.suspected)
        <= sum_over (fun p -> p.susp = min_susp) (fun p -> p.suspected) );
    ]
  in
  Report.make ~id:"X4" ~title:"Chaos: loss, duplication, reordering, partitions, suspicion"
    ~paper_source:"§1 (timeout ⇒ treat as faulty), §2 (determinacy makes re-execution safe)"
    ~notes:
      [
        "The reliable network of the paper is replaced by a lossy one; \
         Task_packet/Result/Orphan_alive/Reparent sends get transport acks, exponential-backoff \
         retransmission and receiver-side duplicate suppression.";
        "A sender that waits out the whole suspicion window treats the silent destination as \
         faulty (per §1) and routes the message down the existing bounce/recovery path; a \
         falsely-suspected live processor coexists with its twin and determinacy makes \
         whichever result lands first correct.";
      ]
    ~checks [ table ]
