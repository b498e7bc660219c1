module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Node = Recflow_machine.Node
module Oracle = Recflow_machine.Oracle
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value
module Vote = Recflow_recovery.Vote
module Rng = Recflow_sim.Rng
module Hdr = Recflow_stats.Hdr
module Json = Recflow_obs_core.Json
module Episode = Recflow_obs.Episode
module Metrics = Recflow_obs.Metrics

let schema = "recflow.service/1"

type verdict = Completed | Masked | Recovered | Shed_overload | Shed_suspects

let verdict_label = function
  | Completed -> "completed"
  | Masked -> "masked"
  | Recovered -> "recovered"
  | Shed_overload -> "shed.overload"
  | Shed_suspects -> "shed.suspects"

type replica = { host : int; answered : int }

type record = {
  rid : int;
  arrival : int;
  verdict : verdict;
  finish : int option;
  value : Value.t option;
  disturbed_replicas : int;
  replicas : replica option array;
}

type counts = {
  offered : int;
  completed : int;
  masked : int;
  recovered : int;
  shed_overload : int;
  shed_suspects : int;
}

let finished c = c.completed + c.masked + c.recovered

let shed c = c.shed_overload + c.shed_suspects

type outcome = {
  counts : counts;
  records : record list;
  sim_time : int;
  events : int;
  goodput : float;
  all_correct : bool;
  oracle : Oracle.report;
  cluster : Cluster.t;
}

(* One logical request mid-flight: k replica roots feeding one voter. *)
type state = Voting | Await_recovery | Done

type pending = {
  p_rid : int;
  p_arrival : int;
  vote : Value.t Vote.t;
  replica_disturbed : bool array;
  replica_uids : int array;
  replica_answers : replica option array;  (* filled in as they land *)
  mutable disturbed : int;
  mutable state : state;
}

let run ?(failures = []) ?sink ~config ~workload ~size ~requests () =
  if requests < 1 then invalid_arg "Service.run: requests must be >= 1";
  (* Service roots sit at stamp depth 1 (their uid digit), so an absolute
     inline-depth limit would cut the call tree one level short of what the
     same config means in batch mode; shift it to compensate. *)
  let config =
    if config.Config.inline_depth = max_int then config
    else { config with Config.inline_depth = config.Config.inline_depth + 1 }
  in
  let svc = config.Config.service in
  let k = svc.Config.replicas in
  let cluster = Cluster.create config (Workload.program workload) in
  Option.iter (Recflow_machine.Journal.attach_sink (Cluster.journal cluster)) sink;
  Recflow_fault.Plan.apply cluster failures;
  let expected = Workload.expected workload size in
  let fname = workload.Workload.entry in
  let args = workload.Workload.args size in
  (* A dedicated arrival stream: traffic must not perturb the machine's
     placement/jitter draws (same isolation trick as the chaos stream). *)
  let arr_rng = Rng.create (config.Config.seed lxor 0x0a5e12b7) in
  let lat_all = Cluster.latency cluster "service.latency" in
  let lat_disturbed = Cluster.latency cluster "service.latency.disturbed" in
  let records = Array.make requests None in
  let inflight = ref 0 in
  let nodes = Cluster.nodes cluster in
  let total_nodes = List.length nodes in
  let file p verdict ~finish ~value =
    records.(p.p_rid) <-
      Some
        {
          rid = p.p_rid;
          arrival = p.p_arrival;
          verdict;
          finish;
          value;
          disturbed_replicas = p.disturbed;
          replicas = p.replica_answers;
        }
  in
  let complete p verdict value =
    p.state <- Done;
    decr inflight;
    let now = Cluster.now cluster in
    Hdr.record lat_all (now - p.p_arrival);
    if p.disturbed > 0 then Hdr.record lat_disturbed (now - p.p_arrival);
    file p verdict ~finish:(Some now) ~value:(Some value)
  in
  (* The replication state machine.  Fast path: the vote decides from the
     healthy replicas.  Degenerate end: [Vote.give_up] accepts a strict
     plurality; failing even that, the request waits for checkpoint
     recovery to push an answer through — the paper's slow path, counted
     honestly as [Recovered]. *)
  let on_vote p = function
    | Vote.Decided v ->
      complete p (if p.disturbed > 0 && k > 1 then Masked else Completed) v
    | Vote.Inconclusive -> (
      match Vote.give_up p.vote with
      | Some v -> complete p Recovered v
      | None -> p.state <- Await_recovery)
    | Vote.Undecided -> ()
  in
  (* A replica's first answer: where its root ran, and when.  The cluster
     drops the replica once it settles, so this is read now. *)
  let replica_answer p i v =
    (match Cluster.request_dest cluster p.replica_uids.(i) with
    | Some host -> p.replica_answers.(i) <- Some { host; answered = Cluster.now cluster }
    | None -> ());
    match p.state with
    | Done -> ()
    | Await_recovery -> complete p Recovered v
    | Voting -> on_vote p (Vote.add p.vote v)
  in
  let replica_disturbed p i =
    if p.state = Voting && not p.replica_disturbed.(i) then begin
      p.replica_disturbed.(i) <- true;
      p.disturbed <- p.disturbed + 1;
      on_vote p (Vote.lose p.vote)
    end
  in
  let suspect_frac () =
    let suspected = Cluster.suspected_nodes cluster in
    let bad =
      List.fold_left
        (fun acc n ->
          if (not (Node.is_alive n)) || List.mem (Node.id n) suspected then acc + 1 else acc)
        0 nodes
    in
    float_of_int bad /. float_of_int total_nodes
  in
  let offer rid =
    let now = Cluster.now cluster in
    let shed_as verdict =
      let p =
        { p_rid = rid; p_arrival = now; vote = Vote.create ~replicas:1 ~equal:Value.equal;
          replica_disturbed = [||]; replica_uids = [||]; replica_answers = [||]; disturbed = 0;
          state = Done }
      in
      file p verdict ~finish:None ~value:None
    in
    if !inflight >= svc.Config.max_inflight then shed_as Shed_overload
    else if suspect_frac () > svc.Config.shed_suspect_frac then shed_as Shed_suspects
    else begin
      let p =
        {
          p_rid = rid;
          p_arrival = now;
          vote = Vote.create ~replicas:k ~equal:Value.equal;
          replica_disturbed = Array.make k false;
          replica_uids = Array.make k (-1);
          replica_answers = Array.make k None;
          disturbed = 0;
          state = Voting;
        }
      in
      incr inflight;
      (* Replicas avoid each other's current hosts: co-located replicas
         would fall to one failure together, voiding the vote's point. *)
      let dests = ref [] in
      for i = 0 to k - 1 do
        let uid =
          Cluster.submit cluster ~avoid:!dests
            ~on_answer:(fun v -> replica_answer p i v)
            ~on_disturbed:(fun _reason -> replica_disturbed p i)
            ~fname ~args ()
        in
        p.replica_uids.(i) <- uid;
        match Cluster.request_dest cluster uid with
        | Some d when not (List.mem d !dests) -> dests := d :: !dests
        | Some _ | None -> ()
      done
    end
  in
  let next_rid = ref 0 in
  let gap () = max 1 (int_of_float (ceil (Rng.exponential arr_rng svc.Config.arrival_mean))) in
  let rec arrival () =
    let rid = !next_rid in
    incr next_rid;
    offer rid;
    if !next_rid < requests then Cluster.schedule_callback cluster ~delay:(gap ()) arrival
    else Cluster.close_arrivals cluster
  in
  Cluster.begin_service cluster;
  Cluster.schedule_callback cluster ~delay:(gap ()) arrival;
  let run_outcome = Cluster.run cluster in
  let oracle = Oracle.assert_ok cluster in
  let records =
    Array.to_list records
    |> List.map (function
         | Some r -> r
         | None -> failwith "Service.run: request neither finished nor shed")
  in
  let count v = List.length (List.filter (fun r -> r.verdict = v) records) in
  let counts =
    {
      offered = requests;
      completed = count Completed;
      masked = count Masked;
      recovered = count Recovered;
      shed_overload = count Shed_overload;
      shed_suspects = count Shed_suspects;
    }
  in
  let all_correct =
    List.for_all
      (fun r ->
        match r.value with
        | Some v -> Value.equal v expected
        | None -> r.verdict = Shed_overload || r.verdict = Shed_suspects)
      records
  in
  let sim_time = run_outcome.Cluster.sim_time in
  let goodput =
    if sim_time = 0 then 0.0 else 1000.0 *. float_of_int (finished counts) /. float_of_int sim_time
  in
  { counts; records; sim_time; events = run_outcome.Cluster.events; goodput; all_correct;
    oracle; cluster }

let to_json ?workload ?size outcome =
  let journal = Cluster.journal outcome.cluster in
  let episodes = Episode.analyze journal in
  let c = outcome.counts in
  let latency =
    (* every family the machine recorded, plus the journal-derived episode
       durations — same shape as the recflow.metrics/1 latency block *)
    let ep = Hdr.create () in
    List.iter
      (fun (e : Episode.t) ->
        match e.Episode.recovery_latency with Some d -> Hdr.record ep d | None -> ())
      episodes;
    let families = Cluster.latency_hists outcome.cluster in
    let families =
      if Hdr.count ep > 0 then
        List.sort (fun (a, _) (b, _) -> String.compare a b) (("episode.duration", ep) :: families)
      else families
    in
    Json.Obj (List.map (fun (name, h) -> (name, Metrics.hdr_json h)) families)
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("meta", Metrics.meta_json ?workload ?size (Cluster.config outcome.cluster));
      ( "traffic",
        Json.Obj
          [
            ("offered", Json.Int c.offered);
            ("completed", Json.Int c.completed);
            ("masked", Json.Int c.masked);
            ("recovered", Json.Int c.recovered);
            ("shed_overload", Json.Int c.shed_overload);
            ("shed_suspects", Json.Int c.shed_suspects);
            ("finished", Json.Int (finished c));
            ("goodput_per_kilotick", Json.Float outcome.goodput);
          ] );
      ("latency", latency);
      ( "outcome",
        Json.Obj
          [
            ("sim_time", Json.Int outcome.sim_time);
            ("events", Json.Int outcome.events);
            ("all_correct", Json.Bool outcome.all_correct);
            ("oracle_ok", Json.Bool (Oracle.ok outcome.oracle));
          ] );
      ("episode_summary", Episode.aggregate_to_json (Episode.aggregate episodes));
    ]
