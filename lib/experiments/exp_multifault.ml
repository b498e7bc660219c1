module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Table = Recflow_stats.Table
module Plan = Recflow_fault.Plan
module Stamp = Recflow_recovery.Stamp

type row = {
  scenario : string;
  victims : string;
  delta : int;
  stranded : int;
  relayed : int;
  stashed : int;
  branches_recovered : int;
  correct : bool;
}

let branches_with_respawns journal =
  Journal.entries journal
  |> List.filter_map (fun (e : Journal.entry) ->
         match e.Journal.event with
         | Journal.Respawned _ -> (
           match Stamp.digits e.Journal.stamp with d :: _ -> Some d | [] -> None)
         | _ -> None)
  |> List.sort_uniq compare
  |> List.length

let scenario_row cfg w size probe ~scenario ~victims_at =
  let journal = Cluster.journal probe.Harness.cluster in
  let t_fail = probe.Harness.makespan * 2 / 5 in
  match victims_at journal t_fail with
  | None -> None
  | Some victims ->
    let failures = List.map (fun v -> (t_fail, v)) victims in
    let r = Harness.run ~drain:true cfg w size ~failures in
    let j = Cluster.journal r.Harness.cluster in
    Some
      {
        scenario;
        victims = String.concat "," (List.map (Printf.sprintf "P%d") victims);
        delta = r.Harness.makespan - probe.Harness.makespan;
        stranded = Harness.counter r "relay.stranded";
        relayed = Harness.counter r "relay.forwarded";
        stashed = Harness.counter r "relay.stashed";
        branches_recovered = branches_with_respawns j;
        correct = r.Harness.correct;
      }

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let mk ancestor_depth =
    {
      (Config.default ~nodes:8) with
      Config.inline_depth;
      recovery = Config.Splice;
      ancestor_depth;
      (* gradient placement co-locates lineages, making chain failures
         plentiful; detection is slowed so salvage races are visible *)
      policy = Recflow_balance.Policy.Gradient { weight = 2 };
      detect_delay = 1500;
    }
  in
  let cfg1 = mk 1 in
  let cfg2 = mk 2 in
  let probe1, probe2 =
    match Harness.run_many (fun cfg -> Harness.probe cfg w size) [ cfg1; cfg2 ] with
    | [ p1; p2 ] -> (p1, p2)
    | _ -> assert false
  in
  let rows =
    List.filter_map Fun.id
    @@ Harness.run_many
         (fun scenario -> scenario ())
         [
           (fun () ->
             scenario_row cfg1 w size probe1 ~scenario:"single failure (reference)"
               ~victims_at:(fun j t ->
                 Option.map
                   (fun v -> [ v ])
                   Plan.Pick.(busiest (live_activations j ~time:t) ~exclude:[])));
           (fun () ->
             scenario_row cfg1 w size probe1 ~scenario:"two failures, disjoint branches"
               ~victims_at:(fun j t ->
                 Option.map (fun (a, b) -> [ a; b ]) (Plan.Pick.disjoint_pair j ~time:t)));
           (fun () ->
             scenario_row cfg1 w size probe1 ~scenario:"parent+grandparent chain (depth-1 links)"
               ~victims_at:(fun j t ->
                 Option.map
                   (fun (p, g) -> [ p; g ])
                   (Plan.Pick.parent_grandparent_pair j ~time:t)));
           (fun () ->
             scenario_row cfg2 w size probe2 ~scenario:"parent+grandparent chain (depth-2 links)"
               ~victims_at:(fun j t ->
                 Option.map
                   (fun (p, g) -> [ p; g ])
                   (Plan.Pick.parent_grandparent_pair j ~time:t)));
         ]
  in
  let table =
    Table.create ~title:"Multiple simultaneous failures under splice"
      ~columns:
        [ "scenario"; "victims"; "recovery delta"; "stranded"; "relayed"; "stashed";
          "branches recovering"; "answer ok" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.scenario;
          r.victims;
          Printf.sprintf "%+d" r.delta;
          Harness.c_int r.stranded;
          Harness.c_int r.relayed;
          Harness.c_int r.stashed;
          Harness.c_int r.branches_recovered;
          Harness.c_bool r.correct;
        ])
    rows;
  let find s = List.find_opt (fun r -> r.scenario = s) rows in
  let chain1 = find "parent+grandparent chain (depth-1 links)" in
  let chain2 = find "parent+grandparent chain (depth-2 links)" in
  let disjoint = find "two failures, disjoint branches" in
  let checks =
    [
      ("every scenario completes with the serial answer", List.for_all (fun r -> r.correct) rows);
      ("all four scenarios were constructible from the probe run", List.length rows = 4);
      ( "disjoint-branch failures recover in parallel (respawns in both branches)",
        match disjoint with Some r -> r.branches_recovered >= 2 | None -> false );
      ( "chain failure with grandparent-only links strands orphans",
        match chain1 with Some r -> r.stranded > 0 | None -> false );
      ( "great-grandparent links resume salvage past a dead grandparent",
        match (chain1, chain2) with
        | Some c1, Some c2 -> c2.stranded < c1.stranded
        | _ -> false );
    ]
  in
  Report.make ~id:"Q5" ~title:"Multiple faults: disjoint branches vs ancestor chains"
    ~paper_source:"§5.2 (multiple faults; great-grandparent extension)"
    ~notes:
      [
        "\"Stashed\" counts salvaged results held by a twin until it re-created the next chain \
         link — the mechanism behind the depth-2 recovery.";
        "The same victim pair is used for both chain rows when placements coincide; otherwise \
         each probe supplies its own pair.";
      ]
    ~checks [ table ]
