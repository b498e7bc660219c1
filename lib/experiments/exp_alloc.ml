module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Node = Recflow_machine.Node
module Table = Recflow_stats.Table
module Policy = Recflow_balance.Policy
module Plan = Recflow_fault.Plan

let balance_spread cluster =
  (* Coefficient of variation (population stddev over mean) of per-node
     busy time: 0 = perfectly even. *)
  let work =
    List.filter_map
      (fun n -> if Node.is_alive n then Some (float_of_int (Node.work_done n)) else None)
      (Cluster.nodes cluster)
  in
  let n = float_of_int (List.length work) in
  let mean = List.fold_left ( +. ) 0.0 work /. n in
  if work = [] || mean = 0.0 then 0.0
  else
    let var = List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 work /. n in
    sqrt var /. mean

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let nodes = 8 in
  let policies =
    [
      ("gradient (Lin-Keller [10])", Policy.Gradient { weight = 2 }, Recflow_net.Topology.Full nodes);
      ("random", Policy.Random, Recflow_net.Topology.Full nodes);
      ("round-robin", Policy.Round_robin, Recflow_net.Topology.Full nodes);
      ("static hash (§3.3 baseline)", Policy.Static_hash, Recflow_net.Topology.Full nodes);
      ("neighbourhood r=1 on ring (Grit [6])", Policy.Neighborhood { radius = 1 },
       Recflow_net.Topology.Ring nodes);
      ("distributed gradient on ring (ref [10], node-local)",
       Policy.Gradient_distributed { threshold = 1 }, Recflow_net.Topology.Ring nodes);
    ]
  in
  let table =
    Table.create ~title:"Placement policies, fault-free and with one failure (rollback)"
      ~columns:
        [ "policy"; "makespan"; "balance CV"; "faulty makespan"; "recovery delta";
          "static reassignments"; "answer ok" ]
  in
  let results =
    Harness.run_many
      (fun (name, policy, topology) ->
        let cfg =
          {
            (Config.default ~nodes) with
            Config.inline_depth;
            policy;
            topology;
            recovery = Config.Rollback;
          }
        in
        let probe = Harness.probe cfg w size in
        let t_fail = probe.Harness.makespan * 2 / 5 in
        let victim = Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:1 in
        let faulty = Harness.run cfg w size ~failures:(Plan.single ~time:t_fail victim) in
        let reassigned = Harness.counter faulty "static.reassigned" in
        (name, probe, faulty, reassigned))
      policies
  in
  (* Rows are rendered after the fan-out so the table mutates on one
     domain only, in policy order. *)
  List.iter
    (fun (name, probe, faulty, reassigned) ->
      Table.add_row table
        [
          name;
          Harness.c_int probe.Harness.makespan;
          Harness.c_float ~decimals:2 (balance_spread probe.Harness.cluster);
          Harness.c_int faulty.Harness.makespan;
          Printf.sprintf "%+d" (faulty.Harness.makespan - probe.Harness.makespan);
          Harness.c_int reassigned;
          Harness.c_bool (probe.Harness.correct && faulty.Harness.correct);
        ])
    results;
  let reassigned_of name =
    let _, _, _, r = List.find (fun (n, _, _, _) -> n = name) results in
    r
  in
  let dynamic =
    [ "gradient (Lin-Keller [10])"; "random"; "round-robin";
      "distributed gradient on ring (ref [10], node-local)" ]
  in
  let checks =
    [
      ( "every policy completes correctly, fault-free and faulty",
        List.for_all (fun (_, p, f, _) -> p.Harness.correct && f.Harness.correct) results );
      ( "dynamic policies never place a task on a known-dead processor",
        List.for_all (fun n -> reassigned_of n = 0) dynamic );
      ( "static allocation keeps nominating the dead processor and pays reassignments",
        reassigned_of "static hash (§3.3 baseline)" > 0 );
      ( "gradient balances at least as well as static hash fault-free",
        let cv name =
          let _, p, _, _ = List.find (fun (n, _, _, _) -> n = name) results in
          balance_spread p.Harness.cluster
        in
        cv "gradient (Lin-Keller [10])" <= cv "static hash (§3.3 baseline)" +. 0.05 );
    ]
  in
  Report.make ~id:"Q7" ~title:"Dynamic vs static allocation under recovery"
    ~paper_source:"§3.3 (dynamic allocation and recovery), §5.4 (Grit)"
    ~notes:
      [
        "Balance CV = stddev/mean of per-processor busy time over surviving nodes (lower is \
         more even).";
        "Static reassignments approximate §3.3's linkage fix-up cost: each one is a placement \
         that had to be detected as dead and re-homed.";
      ]
    ~checks [ table ]
