(* X6: continuous request traffic that survives failures mid-stream.

   The batch experiments ask what one program costs to recover; a service
   asks what its *users* see.  Sweep arrival rate × network weather ×
   replication degree over a long open-loop request stream into one
   persistent cluster; each cell first runs fault-free (the probe, which
   doubles as the penalty baseline), then re-runs with two mid-stream
   kills aimed — probe-then-inject, like every fault experiment — at
   processors hosting still-unanswered replica roots.  The answer is read
   off the latency distribution: replication (k=3) masks the kill out of
   the tail that checkpoint recovery alone (k=1) pays in full, while
   admission control keeps every outcome honestly accounted
   (completed / masked / recovered / shed).  Every request in every run
   is checked against the serial reference and the per-request oracle. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Workload = Recflow_workload.Workload
module Service = Recflow_service.Service
module Chaos = Recflow_net.Chaos
module Plan = Recflow_fault.Plan
module Hdr = Recflow_stats.Hdr
module Table = Recflow_stats.Table

type cell = {
  arrival : float;
  lossy : bool;
  k : int;
  faulty : bool;
  counts : Service.counts;
  p50 : int;
  p99 : int;
  p999 : int;
  p99_disturbed : int;  (** 0 when no request was disturbed *)
  penalty : int option;
      (** median sojourn of disturbed requests minus median sojourn of
          undisturbed requests of the same run — both populations share
          the post-kill cluster, so capacity loss cancels and what
          remains is the recovery (or masking) cost of a typical
          disturbed request *)
  goodput : float;
  all_correct : bool;
  oracle_ok : bool;
}

let net_label lossy = if lossy then "lossy" else "clean"

let nearest_rank xs q =
  let n = Array.length xs in
  xs.(max 0 (int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) - 1))

let penalty_of (o : Service.outcome) =
  let sojourns ~disturbed =
    List.filter_map
      (fun r ->
        match r.Service.finish with
        | Some f when r.Service.disturbed_replicas > 0 = disturbed -> Some (f - r.Service.arrival)
        | _ -> None)
      o.Service.records
    |> List.sort compare |> Array.of_list
  in
  let d = sojourns ~disturbed:true and u = sojourns ~disturbed:false in
  if Array.length d = 0 || Array.length u = 0 then None
  else Some (nearest_rank d 50.0 - nearest_rank u 50.0)

(* Pick a kill that provably disturbs the stream: take a mid-stream
   request from the probe, kill — strictly between its arrival and its
   completion — the processor hosting its slowest replica root.  Up to
   the first kill the faulty run replays the probe exactly (determinism),
   so that root is still unanswered when its host dies: under k=1 the
   request must take the recovery path, under k=3 the survivors outvote
   it.  The probe's record of each request carries its replica roots'
   hosts and answer ticks (nothing is shed in the underloaded probe, and
   every replica answers in a fault-free drained run). *)
let kill_for probe ~rid ~after ~not_proc =
  let r = List.nth probe.Service.records rid in
  match r.Service.finish with
  | None -> None
  | Some finish -> (
    let time = (r.Service.arrival + finish) / 2 in
    if time <= after then None
    else
      let slowest =
        Array.fold_left
          (fun best rep ->
            let t = match rep with Some rep -> rep.Service.answered | None -> max_int in
            match best with Some (_, bt) when bt >= t -> best | _ -> Some (rep, t))
          None r.Service.replicas
      in
      match slowest with
      | Some (Some rep, t) when t > time && rep.Service.host <> not_proc ->
        Some (time, rep.Service.host)
      | _ -> None)

let plan_for probe ~requests =
  let rec scan rid stop ~after ~not_proc =
    if rid >= stop then None
    else
      match kill_for probe ~rid ~after ~not_proc with
      | Some kill -> Some kill
      | None -> scan (rid + 1) stop ~after ~not_proc
  in
  match scan (requests * 3 / 10) requests ~after:0 ~not_proc:(-1) with
  | None -> []
  | Some ((t1, p1) as k1) -> (
    match scan (requests * 6 / 10) requests ~after:t1 ~not_proc:p1 with
    | None -> [ k1 ]
    | Some k2 -> [ k1; k2 ])

let run ?(quick = false) () =
  let w = Workload.fib and size = Workload.Tiny in
  let requests = if quick then 120 else 500 in
  let nodes = 8 in
  let arrivals = [ 400.0; 700.0 ] in
  let nets = [ false; true ] in
  let ks = [ 1; 3 ] in
  let specs =
    List.concat_map
      (fun arrival -> List.concat_map (fun lossy -> List.map (fun k -> (arrival, lossy, k)) ks) nets)
      arrivals
  in
  let cells =
    Harness.run_many
      (fun (arrival, lossy, k) ->
        let cfg = Config.default ~nodes in
        let cfg =
          {
            cfg with
            Config.recovery = Config.Splice;
            (* one seed per (arrival, net): the arrival stream is a pure
               function of the seed, so within a comparison pair k and
               the kill plan are the only differences *)
            seed = 42 + (7 * int_of_float arrival) + if lossy then 1 else 0;
            service =
              { Config.arrival_mean = arrival; replicas = k; max_inflight = 64;
                shed_suspect_frac = 0.9 };
          }
        in
        let cfg =
          if lossy then
            { cfg with
              Config.reliable = true;
              chaos = Chaos.none |> Plan.drop_rate 0.05 |> Plan.duplicate_rate 0.05 }
          else cfg
        in
        let service failures = Service.run ~failures ~config:cfg ~workload:w ~size ~requests () in
        let probe = service [] in
        let faulty = service (plan_for probe ~requests) in
        let cell faulty (o : Service.outcome) =
          let h = Cluster.latency o.Service.cluster "service.latency" in
          let hd = Cluster.latency o.Service.cluster "service.latency.disturbed" in
          let q p = if Hdr.count h = 0 then 0 else Hdr.quantile h p in
          {
            arrival; lossy; k; faulty;
            counts = o.Service.counts;
            p50 = q 50.0;
            p99 = q 99.0;
            p999 = q 99.9;
            p99_disturbed = (if Hdr.count hd = 0 then 0 else Hdr.quantile hd 99.0);
            penalty = (if faulty then penalty_of o else None);
            goodput = o.Service.goodput;
            all_correct = o.Service.all_correct;
            oracle_ok = Oracle.ok o.Service.oracle;
          }
        in
        [ cell false probe; cell true faulty ])
      specs
    |> List.concat
  in
  let find arrival lossy k faulty =
    List.find
      (fun c -> c.arrival = arrival && c.lossy = lossy && c.k = k && c.faulty = faulty)
      cells
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Request stream of %d into %d processors; faulty cells lose two root hosts mid-stream"
           requests nodes)
      ~columns:
        [ "arrival"; "net"; "k"; "failures"; "completed"; "masked"; "recovered"; "shed";
          "p50"; "p99"; "p999"; "goodput/kt"; "ok" ]
  in
  List.iter
    (fun c ->
      Table.add_row table
        [
          Printf.sprintf "1/%.0f" c.arrival;
          net_label c.lossy;
          Harness.c_int c.k;
          (if c.faulty then "2" else "0");
          Harness.c_int c.counts.Service.completed;
          Harness.c_int c.counts.Service.masked;
          Harness.c_int c.counts.Service.recovered;
          Harness.c_int (Service.shed c.counts);
          Harness.c_int c.p50;
          Harness.c_int c.p99;
          Harness.c_int c.p999;
          Harness.c_float ~decimals:2 c.goodput;
          Harness.c_bool (c.all_correct && c.oracle_ok);
        ])
    cells;
  (* The tentpole claim: what a *disturbed* request pays over its
     undisturbed neighbours in the same run must shrink when replication
     can outvote the killed replica.  (Whole-stream p99, or the fault-free
     baseline, would confound this with the capacity the dead processors
     take from every later request.) *)
  let penalty arrival lossy k =
    Option.value ~default:0 (find arrival lossy k true).penalty
  in
  let penalties =
    List.concat_map (fun a -> List.map (fun l -> (a, l, penalty a l 1, penalty a l 3)) nets)
      arrivals
  in
  let ptable =
    Table.create
      ~title:"recovery penalty (median disturbed minus median undisturbed sojourn, same run)"
      ~columns:[ "arrival"; "net"; "penalty k=1"; "penalty k=3" ]
  in
  List.iter
    (fun (a, l, p1, p3) ->
      Table.add_row ptable
        [ Printf.sprintf "1/%.0f" a; net_label l; Harness.c_int p1; Harness.c_int p3 ])
    penalties;
  let faulty_cells b = List.filter (fun c -> c.faulty && c.k = b) cells in
  let checks =
    [
      ( "every request in every run returns the serial answer (per-request oracle held)",
        List.for_all (fun c -> c.all_correct && c.oracle_ok) cells );
      ( "every offered request is accounted: finished + shed = offered",
        List.for_all
          (fun c -> Service.finished c.counts + Service.shed c.counts = c.counts.Service.offered)
          cells );
      ( "without replication, mid-stream failures force requests down the recovery path",
        List.for_all (fun c -> c.counts.Service.recovered > 0) (faulty_cells 1) );
      ( "with k=3, surviving replicas mask failures before recovery completes",
        List.for_all (fun c -> c.counts.Service.masked > 0) (faulty_cells 3) );
      ( "a kill costs an unreplicated disturbed request real latency (positive penalty)",
        List.for_all (fun (_, _, p1, _) -> p1 > 0) penalties );
      ( "replication shrinks the recovery penalty under each network weather",
        List.for_all
          (fun l ->
            let sum f =
              List.fold_left (fun acc (_, l', p1, p3) -> if l' = l then acc + f p1 p3 else acc) 0
                penalties
            in
            sum (fun _ p3 -> p3) < sum (fun p1 _ -> p1))
          nets );
      ( "the stream keeps flowing: positive goodput everywhere",
        List.for_all (fun c -> c.goodput > 0.0) cells );
    ]
  in
  Report.make ~id:"X6"
    ~title:"Service: request streams surviving mid-stream failures"
    ~paper_source:"§4.3.1 (super-root), §5.3 (replication + majority voting), §1 (fail-soft)"
    ~notes:
      [
        "Open-loop Poisson arrivals from a dedicated RNG stream; each request is an independent \
         root under its own depth-1 level stamp, so the §4.3.1 super-root supervises many \
         concurrent roots whose checkpoint subtrees can never alias.";
        "Probe-then-inject: each cell's fault-free run picks the kills — a mid-stream request's \
         slowest replica root host, killed between arrival and completion, so determinism \
         guarantees the first kill lands on a still-unanswered root in the faulty re-run.";
        "k=3 dispatches each request as three replica roots on distinct processors and takes \
         the first majority (§5.3); a killed replica is voted out by the survivors, so the \
         client never waits for checkpoint recovery — that is the masked column.";
        "Lossy cells run drop 5% + duplicate 5% over the reliable transport; the same seed is \
         shared within a (arrival, net) pair so k and the kill plan are the only differences.";
      ]
    ~checks [ table; ptable ]
