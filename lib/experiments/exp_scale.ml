module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Table = Recflow_stats.Table
module Plan = Recflow_fault.Plan

type point = {
  nodes : int;
  makespan : int;
  speedup : float;
  utilisation : float;
  faulty_delta : int option;  (* None for the 1-node cluster *)
  correct : bool;
}

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let node_counts = if quick then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4; 8; 16; 32 ] in
  let points =
    Harness.run_many
      (fun nodes ->
        let cfg =
          {
            (Config.default ~nodes) with
            Config.inline_depth;
            recovery = Config.Splice;
            policy = Recflow_balance.Policy.Gradient { weight = 1 };
          }
        in
        let probe = Harness.probe cfg w size in
        let work = Cluster.total_work probe.Harness.cluster in
        let utilisation =
          float_of_int work /. float_of_int (nodes * max 1 probe.Harness.makespan)
        in
        let faulty =
          if nodes < 2 then None
          else begin
            let t_fail = probe.Harness.makespan / 2 in
            let victim =
              Result.value (Harness.busiest_victim probe ~time:t_fail) ~default:(nodes - 1)
            in
            Some (Harness.run cfg w size ~failures:(Plan.single ~time:t_fail victim))
          end
        in
        {
          nodes;
          makespan = probe.Harness.makespan;
          speedup = 1.0;  (* filled below once the 1-node run is known *)
          utilisation;
          faulty_delta =
            Option.map (fun r -> r.Harness.makespan - probe.Harness.makespan) faulty;
          correct =
            probe.Harness.correct
            && (match faulty with Some r -> r.Harness.correct | None -> true);
        })
      node_counts
  in
  let serial = (List.hd points).makespan in
  let points =
    List.map
      (fun p -> { p with speedup = float_of_int serial /. float_of_int p.makespan })
      points
  in
  let table =
    Table.create ~title:"Speedup and single-failure recovery vs cluster size (splice)"
      ~columns:
        [ "processors"; "makespan"; "speedup"; "utilisation"; "recovery delta (fault @50%)";
          "delta / makespan"; "answer ok" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          Harness.c_int p.nodes;
          Harness.c_int p.makespan;
          Printf.sprintf "%.2fx" p.speedup;
          Printf.sprintf "%.0f%%" (100.0 *. p.utilisation);
          (match p.faulty_delta with Some d -> Printf.sprintf "%+d" d | None -> "-");
          (match p.faulty_delta with
          | Some d -> Printf.sprintf "%.0f%%" (100.0 *. float_of_int d /. float_of_int p.makespan)
          | None -> "-");
          Harness.c_bool p.correct;
        ])
    points;
  let at n = List.find (fun p -> p.nodes = n) points in
  let checks =
    [
      ("all runs, faulty or not, produce the serial answer",
       List.for_all (fun p -> p.correct) points);
      ("speedup grows from 2 to 8 processors", (at 8).speedup > (at 2).speedup);
      ("8 processors give at least 3x speedup", (at 8).speedup > 3.0);
      ( "relative recovery cost shrinks as the cluster grows",
        match ((at 2).faulty_delta, (at (if quick then 16 else 32)).faulty_delta) with
        | Some d2, Some dbig ->
          float_of_int dbig /. float_of_int (at (if quick then 16 else 32)).makespan
          < float_of_int d2 /. float_of_int (at 2).makespan
        | _ -> false );
    ]
  in
  Report.make ~id:"Q4" ~title:"Scalability: speedup and recovery vs processors"
    ~paper_source:"§1 (aggregation of processors); §3.3 (dynamic allocation)"
    ~notes:
      [ "The victim is the busiest non-root processor at mid-run; the smaller its share of \
         the computation, the smaller the re-issued subtrees." ]
    ~checks [ table ]
