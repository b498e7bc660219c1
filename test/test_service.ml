(* Service mode: multi-root clusters, the traffic/replication/shedding
   layer, and overlapping recovery episodes across concurrent requests. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Journal = Recflow_machine.Journal
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan
module Stamp = Recflow_recovery.Stamp
module Value = Recflow_lang.Value
module Service = Recflow_service.Service
module Episode = Recflow_obs.Episode
module Hdr = Recflow_stats.Hdr
module Json = Recflow_obs_core.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let value = Alcotest.testable Value.pp Value.equal

let svc_cfg ?(nodes = 8) ?(arrival_mean = 250.0) ?(replicas = 1) ?(max_inflight = 64)
    ?(shed_suspect_frac = 1.0) ?(seed = 11) () =
  let cfg = Config.default ~nodes in
  {
    cfg with
    Config.recovery = Config.Splice;
    seed;
    service = { Config.arrival_mean; replicas; max_inflight; shed_suspect_frac };
  }

let run ?(failures = []) ?(workload = Workload.fib) ?(size = Workload.Tiny) ?(requests = 20) cfg
    =
  Service.run ~failures ~config:cfg ~workload ~size ~requests ()

(* ---------------- multi-root cluster primitives ---------------- *)

let submit_requires_service () =
  let c = Cluster.create (svc_cfg ()) (Workload.program Workload.fib) in
  check "submit before begin_service" true
    (try
       ignore (Cluster.submit c ~fname:"fib" ~args:[ Value.Int 5 ] ());
       false
     with Invalid_argument _ -> true);
  Cluster.begin_service c;
  check "start after begin_service" true
    (try
       Cluster.start c ~fname:"fib" ~args:[ Value.Int 5 ];
       false
     with Invalid_argument _ -> true);
  check "begin_service twice" true
    (try
       Cluster.begin_service c;
       false
     with Invalid_argument _ -> true)

(* A batch run is the one-request case of the same table: request -1,
   answered through the same accessors a service request uses. *)
let batch_is_request_minus_one () =
  let c = Cluster.create (svc_cfg ()) (Workload.program Workload.fib) in
  Cluster.start c ~fname:"fib" ~args:[ Value.Int 8 ];
  let uids = ref [] in
  Cluster.iter_request_uids c (fun uid -> uids := uid :: !uids);
  Alcotest.(check (list int)) "one request" [ -1 ] !uids;
  check_int "not a service submission" 0 (Cluster.submitted_requests c);
  check "submit after start" true
    (try
       ignore (Cluster.submit c ~fname:"fib" ~args:[ Value.Int 5 ] ());
       false
     with Invalid_argument _ -> true);
  let o = Cluster.run c in
  Alcotest.(check (option value)) "outcome answer" (Some (Value.Int 21)) o.Cluster.answer;
  Alcotest.(check (list value)) "request answers" [ Value.Int 21 ] (Cluster.request_answers c (-1));
  Alcotest.(check (option int)) "answer time" o.Cluster.answer_time
    (Cluster.request_answer_time c (-1));
  check "root stamp" true (Stamp.equal Stamp.root (Cluster.request_stamp c (-1)))

let concurrent_roots_isolated () =
  (* Two different programs in flight at once: answers must file under
     their own request, never leak across. *)
  let c = Cluster.create (svc_cfg ()) (Workload.program Workload.fib) in
  Cluster.begin_service c;
  let u0 = Cluster.submit c ~fname:"fib" ~args:[ Value.Int 5 ] () in
  let u1 = Cluster.submit c ~fname:"fib" ~args:[ Value.Int 8 ] () in
  Cluster.close_arrivals c;
  check_int "uids sequential" 0 u0;
  check_int "uids sequential 2" 1 u1;
  check "stamps disjoint" false
    (Stamp.related (Cluster.request_stamp c u0) (Cluster.request_stamp c u1));
  let _ = Cluster.run c in
  let oracle = Oracle.assert_ok c in
  check "oracle ok" true (Oracle.ok oracle);
  (match Cluster.request_answers c u0 with
  | [ v ] -> Alcotest.check value "fib 5" (Value.Int 5) v
  | l -> Alcotest.failf "request 0: %d answers" (List.length l));
  (match Cluster.request_answers c u1 with
  | [ v ] -> Alcotest.check value "fib 8" (Value.Int 21) v
  | l -> Alcotest.failf "request 1: %d answers" (List.length l));
  check_int "submitted" 2 (Cluster.submitted_requests c);
  check_int "nothing in flight" 0 (Cluster.in_flight c)

let per_request_oracle_catches_missing () =
  (* Under No_recovery the per-request completion check is undecidable
     (same rule as batch), so a lost request is not a violation — but the
     run must still report the request unanswered. *)
  let cfg = { (svc_cfg ~nodes:4 ()) with Config.recovery = Config.Rollback } in
  let c = Cluster.create cfg (Workload.program Workload.fib) in
  Cluster.fail_at c ~time:50 1;
  Cluster.begin_service c;
  let u0 = Cluster.submit c ~fname:"fib" ~args:[ Value.Int 8 ] () in
  Cluster.close_arrivals c;
  let _ = Cluster.run c in
  let oracle = Oracle.assert_ok c in
  check "oracle ok despite mid-run failure" true (Oracle.ok oracle);
  (match Cluster.request_answers c u0 with
  | v :: _ -> Alcotest.check value "recovered answer" (Value.Int 21) v
  | [] -> Alcotest.fail "request lost")

(* ---------------- service layer ---------------- *)

let clean_stream () =
  let o = run (svc_cfg ()) in
  let c = o.Service.counts in
  check_int "all offered" 20 c.Service.offered;
  check_int "all completed" 20 c.Service.completed;
  check_int "none masked" 0 c.Service.masked;
  check_int "none recovered" 0 c.Service.recovered;
  check_int "none shed" 0 (Service.shed c);
  check "all correct" true o.Service.all_correct;
  check "oracle ok" true (Oracle.ok o.Service.oracle);
  check "goodput positive" true (o.Service.goodput > 0.0);
  check_int "one latency sample per request" 20
    (Hdr.count (Cluster.latency o.Service.cluster "service.latency"));
  check_int "no disturbed samples" 0
    (Hdr.count (Cluster.latency o.Service.cluster "service.latency.disturbed"));
  (* records are per-rid, finished, and timestamped consistently *)
  List.iteri
    (fun i r ->
      check_int "rid order" i r.Service.rid;
      match r.Service.finish with
      | Some f -> check "finish after arrival" true (f >= r.Service.arrival)
      | None -> Alcotest.fail "clean request not finished")
    o.Service.records

let failures_mid_stream_k1 () =
  (* k=1: a failure striking a request's root host sends that request down
     the full checkpoint-recovery path. *)
  let cfg = svc_cfg ~nodes:4 ~arrival_mean:150.0 ~seed:7 () in
  let o = run ~failures:[ (2000, 0); (3500, 2) ] ~requests:24 cfg in
  let c = o.Service.counts in
  check "all correct" true o.Service.all_correct;
  check "oracle ok" true (Oracle.ok o.Service.oracle);
  check_int "all finished" 24 (Service.finished c);
  check "some request paid the recovery path" true (c.Service.recovered > 0);
  check "disturbed latencies recorded" true
    (Hdr.count (Cluster.latency o.Service.cluster "service.latency.disturbed") > 0)

let replication_masks_k3 () =
  (* Same failure plan, k=3: surviving replicas decide before the disturbed
     one recovers, so failures are masked instead of recovered. *)
  let cfg = svc_cfg ~nodes:8 ~arrival_mean:150.0 ~replicas:3 ~seed:7 () in
  let o = run ~failures:[ (2000, 0); (3500, 2) ] ~requests:24 cfg in
  let c = o.Service.counts in
  check "all correct" true o.Service.all_correct;
  check "oracle ok" true (Oracle.ok o.Service.oracle);
  check_int "all finished" 24 (Service.finished c);
  check "replication masked a failure" true (c.Service.masked > 0)

let overload_sheds () =
  let cfg = svc_cfg ~nodes:4 ~arrival_mean:5.0 ~max_inflight:2 () in
  let o = run ~requests:30 cfg in
  let c = o.Service.counts in
  check "sheds under overload" true (c.Service.shed_overload > 0);
  check "still serves some" true (Service.finished c > 0);
  check_int "offered = finished + shed" 30 (Service.finished c + Service.shed c);
  check "all correct" true o.Service.all_correct;
  List.iter
    (fun r ->
      if r.Service.verdict = Service.Shed_overload then begin
        check "shed has no finish" true (r.Service.finish = None);
        check "shed has no value" true (r.Service.value = None)
      end)
    o.Service.records

let suspects_shed () =
  (* A zero tolerance for dead processors: once the failure lands, every
     later arrival is turned away. *)
  let cfg = svc_cfg ~nodes:4 ~arrival_mean:200.0 ~shed_suspect_frac:0.0 ~seed:3 () in
  let o = run ~failures:[ (300, 1) ] ~requests:16 cfg in
  let c = o.Service.counts in
  check "sheds on suspects" true (c.Service.shed_suspects > 0);
  check "served the pre-failure stream" true (Service.finished c > 0);
  check "all correct" true o.Service.all_correct;
  check "oracle ok" true (Oracle.ok o.Service.oracle)

let service_json_shape () =
  let cfg = svc_cfg ~nodes:4 ~arrival_mean:150.0 ~seed:7 () in
  let o = run ~failures:[ (400, 1) ] ~requests:12 cfg in
  let doc = Service.to_json ~workload:"fib" ~size:"tiny" o in
  (* round-trips through the in-tree codec *)
  let doc =
    match Json.parse (Json.to_string doc) with
    | Ok d -> d
    | Error e -> Alcotest.failf "service json does not parse: %s" e
  in
  check "schema" true (Json.member "schema" doc = Some (Json.Str "recflow.service/1"));
  let traffic = Option.get (Json.member "traffic" doc) in
  check_int "offered" 12 (Option.get (Json.int (Option.get (Json.member "offered" traffic))));
  let latency = Option.get (Json.member "latency" doc) in
  let req = Option.get (Json.member "service.latency" latency) in
  List.iter
    (fun q -> check (q ^ " present") true (Json.member q req <> None))
    [ "count"; "p50"; "p99"; "p999" ];
  check "goodput present" true (Json.member "goodput_per_kilotick" traffic <> None);
  check "episode summary present" true (Json.member "episode_summary" doc <> None)

(* ---------------- overlapping episodes across requests ---------------- *)

let hand_built_journal () =
  let j = Journal.create () in
  let r0 = Stamp.child Stamp.root 0 and r1 = Stamp.child Stamp.root 1 in
  Journal.record j ~time:0 ~stamp:r0 (Journal.Spawned { task = 0; dest = 0; replica = 0 });
  Journal.record j ~time:10 ~stamp:r1 (Journal.Spawned { task = 1; dest = 1; replica = 0 });
  Journal.record j ~time:100 ~stamp:Stamp.root (Journal.Failure { proc = 0 });
  Journal.record j ~time:150 ~stamp:r0
    (Journal.Respawned { task = 2; dest = 2; reason = "notice" });
  Journal.record j ~time:300 ~stamp:Stamp.root (Journal.Failure { proc = 1 });
  Journal.record j ~time:380 ~stamp:r1
    (Journal.Respawned { task = 3; dest = 3; reason = "notice" });
  j

let episodes_hand_built () =
  (* Two failures, each disturbing a different request: the analyzer must
     emit two independent spans, windows partitioned at the second
     failure, detection latency measured within each window. *)
  match Episode.analyze (hand_built_journal ()) with
  | [ e1; e2 ] ->
    check_int "first failed proc" 0 e1.Episode.failed_proc;
    check_int "second failed proc" 1 e2.Episode.failed_proc;
    check "first window ends at second failure" true (e1.Episode.window_end = Some 300);
    check "second window open" true (e2.Episode.window_end = None);
    check "first detection" true (e1.Episode.detection_latency = Some 50);
    check "second detection" true (e2.Episode.detection_latency = Some 80);
    check_int "one reissue each" 1 e1.Episode.reissued;
    check_int "one reissue each 2" 1 e2.Episode.reissued
  | eps -> Alcotest.failf "expected 2 episodes, got %d" (List.length eps)

let episodes_in_gauntlet () =
  (* Full service run: two failures while requests are in flight must fold
     into two episode spans, and every per-request sojourn recorded in the
     Hdr must match the records exactly. *)
  let cfg = svc_cfg ~nodes:4 ~arrival_mean:150.0 ~seed:7 () in
  let o = run ~failures:[ (2000, 0); (3500, 2) ] ~requests:24 cfg in
  check "all correct" true o.Service.all_correct;
  (match Episode.analyze (Cluster.journal o.Service.cluster) with
  | [ e1; e2 ] ->
    check_int "episode 1 proc" 0 e1.Episode.failed_proc;
    check_int "episode 2 proc" 2 e2.Episode.failed_proc;
    check "episode 1 window closed by episode 2" true (e1.Episode.window_end = Some 3500);
    check "both episodes re-issued work" true
      (e1.Episode.reissued > 0 && e2.Episode.reissued > 0)
  | eps -> Alcotest.failf "expected 2 episodes, got %d" (List.length eps));
  (* distinct requests disturbed — the overlap is across requests *)
  let disturbed = List.filter (fun r -> r.Service.disturbed_replicas > 0) o.Service.records in
  check "at least two distinct requests disturbed" true (List.length disturbed >= 2);
  let h = Hdr.create () in
  List.iter
    (fun r ->
      match r.Service.finish with
      | Some f -> Hdr.record h (f - r.Service.arrival)
      | None -> ())
    o.Service.records;
  let recorded = Cluster.latency o.Service.cluster "service.latency" in
  check_int "sojourn sample count matches records" (Hdr.count h) (Hdr.count recorded);
  check_int "sojourn sample mass matches records" (Hdr.total h) (Hdr.total recorded)

let partition_spans_requests () =
  (* A partition window (no fail-stop at all) isolating two processors
     while requests are in flight: suspicion re-homes their roots, both
     requests finish correctly, and the oracle stays green. *)
  let base = svc_cfg ~nodes:4 ~arrival_mean:120.0 ~seed:5 () in
  let cfg =
    {
      base with
      Config.reliable = true;
      chaos = Recflow_net.Chaos.none |> Plan.partition ~from:300 ~until:4500 ~groups:[ [ 2; 3 ] ];
    }
  in
  let o = run ~requests:16 cfg in
  check "all correct" true o.Service.all_correct;
  check "oracle ok" true (Oracle.ok o.Service.oracle);
  check_int "all finished" 16 (Service.finished o.Service.counts);
  let disturbed = List.filter (fun r -> r.Service.disturbed_replicas > 0) o.Service.records in
  check "the partition disturbed in-flight requests" true (List.length disturbed >= 2)

(* ---------------- episode analysis against its reference ---------------- *)

(* The episode analysis as it was before it was made linear: for every
   [Result_accepted] in a window it rescans the whole journal, and it
   re-filters every stamp once per dead stamp.  It is kept verbatim as the
   model the linear [Episode.analyze] must reproduce field for field. *)
module Quadratic_episodes = struct
  module Splice_case = Recflow_recovery.Splice_case

  let in_window ~fail_time ~window_end time =
    time >= fail_time && match window_end with Some w -> time < w | None -> true

  (* §4.1 classification for every child of every task that died with the
     failed processor. *)
  let case_histogram journal ~fail_time ~dead_stamps =
    let first_time stamp pred =
      List.find_map
        (fun (e : Journal.entry) -> if pred e.Journal.event e.Journal.time then Some e.Journal.time else None)
        (Journal.for_stamp journal stamp)
    in
    let orig_task stamp =
      (* the pre-failure activation this episode lost *)
      List.find_map
        (fun (e : Journal.entry) ->
          match e.Journal.event with
          | Journal.Activated { task; _ } when e.Journal.time < fail_time -> Some task
          | _ -> None)
        (Journal.for_stamp journal stamp)
    in
    let all_stamps = Journal.stamps journal in
    let children p =
      List.filter
        (fun s -> match Stamp.parent s with Some q -> Stamp.equal p q | None -> false)
        all_stamps
    in
    let tally = Hashtbl.create 8 in
    List.iter
      (fun p ->
        let p_orig = orig_task p in
        let twin_time want orig =
          first_time p (fun ev time ->
              match (ev, want) with
              | Journal.Activated { task; _ }, `Invoked -> time >= fail_time && Some task <> orig
              | Journal.Completed { task; _ }, `Completed -> time >= fail_time && Some task <> orig
              | _ -> false)
        in
        let p'_invoked = twin_time `Invoked p_orig in
        let p'_completed = twin_time `Completed p_orig in
        List.iter
          (fun c ->
            let c_orig =
              List.find_map
                (fun (e : Journal.entry) ->
                  match e.Journal.event with
                  | Journal.Spawned { task; _ } when e.Journal.time < fail_time -> Some task
                  | _ -> None)
                (Journal.for_stamp journal c)
            in
            let orig_time want =
              match c_orig with
              | None -> None
              | Some orig ->
                first_time c (fun ev _ ->
                    match (ev, want) with
                    | Journal.Activated { task; _ }, `Invoked -> task = orig
                    | Journal.Completed { task; _ }, `Completed -> task = orig
                    | _ -> false)
            in
            let clone_time want =
              first_time c (fun ev time ->
                  match (ev, want) with
                  | Journal.Activated { task; _ }, `Invoked -> time >= fail_time && Some task <> c_orig
                  | Journal.Completed { task; _ }, `Completed -> time >= fail_time && Some task <> c_orig
                  | _ -> false)
            in
            let tl =
              {
                Splice_case.c_invoked = orig_time `Invoked;
                c_completed = orig_time `Completed;
                p_failed = fail_time;
                p'_invoked;
                p'_completed;
                c'_invoked = clone_time `Invoked;
                c'_completed = clone_time `Completed;
              }
            in
            let case = Splice_case.classify tl in
            Hashtbl.replace tally case (1 + Option.value ~default:0 (Hashtbl.find_opt tally case)))
          (children p))
      dead_stamps;
    List.filter_map
      (fun case -> Hashtbl.find_opt tally case |> Option.map (fun n -> (case, n)))
      Splice_case.all

  let analyze journal =
    let entries = Journal.entries journal in
    let failures =
      List.filter_map
        (fun (e : Journal.entry) ->
          match e.Journal.event with
          | Journal.Failure { proc } -> Some (e.Journal.time, proc)
          | _ -> None)
        entries
    in
    List.mapi
      (fun i (fail_time, failed_proc) ->
        let window_end =
          List.nth_opt failures (i + 1) |> Option.map (fun (time, _) -> time)
        in
        let in_window time = in_window ~fail_time ~window_end time in
        (* Exact busy ticks per task id, straight from the journal: every
           task's execution ends in exactly one of Completed / Aborted /
           Lost, each of which records the work consumed. *)
        let work_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
        (* stamp digits -> first pre-failure activated task id *)
        let pre_activated : (int list, int) Hashtbl.t = Hashtbl.create 256 in
        List.iter
          (fun (e : Journal.entry) ->
            match e.Journal.event with
            | Journal.Completed { task; work; _ }
            | Journal.Aborted { task; work; _ }
            | Journal.Lost { task; work; _ } ->
              Hashtbl.replace work_of task work
            | Journal.Activated { task; _ } when e.Journal.time < fail_time ->
              let key = Stamp.digits e.Journal.stamp in
              if not (Hashtbl.mem pre_activated key) then Hashtbl.add pre_activated key task
            | _ -> ())
          entries;
        (* The tasks the failure destroyed, as journalled at kill time. *)
        let dead =
          List.filter_map
            (fun (e : Journal.entry) ->
              match e.Journal.event with
              | Journal.Lost { task; proc; work } when proc = failed_proc && in_window e.Journal.time
                ->
                Some (task, e.Journal.stamp, work)
              | _ -> None)
            entries
        in
        let dead_stamps = List.map (fun (_, stamp, _) -> stamp) dead in
        let lost_work = List.fold_left (fun acc (_, _, w) -> acc + w) 0 dead in
        let dead_stamp_keys =
          List.fold_left
            (fun set s -> Stamp.digits s :: set)
            [] dead_stamps
        in
        let parent_died stamp =
          match Stamp.parent stamp with
          | Some p -> List.mem (Stamp.digits p) dead_stamp_keys
          | None -> false
        in
        let spawned_before task =
          List.exists
            (fun (e : Journal.entry) ->
              e.Journal.time < fail_time
              && match e.Journal.event with Journal.Spawned { task = s; _ } -> s = task | _ -> false)
            entries
        in
        (* Single pass over the window for counts, detection and quiesce. *)
        let reissued = ref 0 and inherited = ref 0 and relayed = ref 0 in
        let orphans_dropped = ref 0 and aborted = ref 0 and duplicates = ref 0 in
        let salvaged = ref 0 in
        let first_respawn = ref None and quiesce = ref None in
        let redone = Hashtbl.create 64 in
        let touch_quiesce time =
          match !quiesce with Some q when q >= time -> () | _ -> quiesce := Some time
        in
        List.iter
          (fun (e : Journal.entry) ->
            if in_window e.Journal.time then begin
              let recovery_event =
                match e.Journal.event with
                | Journal.Respawned _ ->
                  incr reissued;
                  if !first_respawn = None then first_respawn := Some e.Journal.time;
                  true
                | Journal.Inherited _ -> incr inherited; true
                | Journal.Relayed _ -> incr relayed; true
                | Journal.Relay_dropped _ -> true
                | Journal.Orphan_dropped _ -> incr orphans_dropped; true
                | Journal.Duplicate_ignored _ -> incr duplicates; true
                | Journal.Aborted _ -> incr aborted; true
                | Journal.Result_accepted { task } ->
                  if spawned_before task && parent_died e.Journal.stamp then begin
                    incr salvaged;
                    true
                  end
                  else false
                | Journal.Activated { task; _ } -> (
                  (* re-execution of a stamp the failure wiped out: charge the
                     original execution's recorded busy ticks as redone work *)
                  match Hashtbl.find_opt pre_activated (Stamp.digits e.Journal.stamp) with
                  | Some orig when orig <> task ->
                    if not (Hashtbl.mem redone (Stamp.digits e.Journal.stamp)) then
                      Hashtbl.add redone (Stamp.digits e.Journal.stamp)
                        (Option.value ~default:0 (Hashtbl.find_opt work_of orig));
                    true
                  | _ -> false)
                | _ -> false
              in
              if recovery_event then touch_quiesce e.Journal.time
            end)
          entries;
        let redone_tasks = Hashtbl.length redone in
        let redone_work = Hashtbl.fold (fun _ w acc -> acc + w) redone 0 in
        let cases = case_histogram journal ~fail_time ~dead_stamps in
        {
          Episode.ordinal = i + 1;
          failed_proc;
          fail_time;
          window_end;
          detection_latency = Option.map (fun time -> time - fail_time) !first_respawn;
          recovery_latency = Option.map (fun time -> time - fail_time) !quiesce;
          quiesce_time = !quiesce;
          lost_tasks = List.length dead;
          lost_work;
          reissued = !reissued;
          inherited = !inherited;
          relayed = !relayed;
          salvaged_results = !salvaged;
          orphans_dropped = !orphans_dropped;
          aborted = !aborted;
          duplicates_ignored = !duplicates;
          redone_tasks;
          redone_work;
          cases;
        })
      failures
end

let episodes_match_reference () =
  let same name journal =
    let expected = Quadratic_episodes.analyze journal and got = Episode.analyze journal in
    let json eps = List.map (fun e -> Json.to_string (Episode.to_json e)) eps in
    Alcotest.(check (list string)) name (json expected) (json got);
    check (name ^ ": field for field") true (expected = got)
  in
  same "hand-built" (hand_built_journal ());
  let gauntlet =
    run ~failures:[ (2000, 0); (3500, 2) ] ~requests:24
      (svc_cfg ~nodes:4 ~arrival_mean:150.0 ~seed:7 ())
  in
  same "gauntlet" (Cluster.journal gauntlet.Service.cluster);
  let partition =
    let base = svc_cfg ~nodes:4 ~arrival_mean:120.0 ~seed:5 () in
    run ~requests:16
      {
        base with
        Config.reliable = true;
        chaos = Recflow_net.Chaos.none |> Plan.partition ~from:300 ~until:4500 ~groups:[ [ 2; 3 ] ];
      }
  in
  same "partition" (Cluster.journal partition.Service.cluster);
  let faulty =
    run ~failures:[ (3000, 0); (6000, 2) ] ~requests:100 (svc_cfg ~seed:17 ())
  in
  check "faulty stream: two episodes, one with losses and splice cases" true
    (match Episode.analyze (Cluster.journal faulty.Service.cluster) with
    | [ e1; e2 ] ->
      List.exists (fun e -> e.Episode.lost_tasks > 0 && e.Episode.cases <> []) [ e1; e2 ]
    | _ -> false);
  same "100-request stream" (Cluster.journal faulty.Service.cluster)

let suites =
  [
    ( "service.cluster",
      [
        Alcotest.test_case "submit requires service" `Quick submit_requires_service;
        Alcotest.test_case "batch is request -1" `Quick batch_is_request_minus_one;
        Alcotest.test_case "concurrent roots isolated" `Quick concurrent_roots_isolated;
        Alcotest.test_case "recovered request" `Quick per_request_oracle_catches_missing;
      ] );
    ( "service.traffic",
      [
        Alcotest.test_case "clean stream" `Quick clean_stream;
        Alcotest.test_case "failures mid-stream k=1" `Quick failures_mid_stream_k1;
        Alcotest.test_case "replication masks k=3" `Quick replication_masks_k3;
        Alcotest.test_case "overload sheds" `Quick overload_sheds;
        Alcotest.test_case "suspects shed" `Quick suspects_shed;
        Alcotest.test_case "service json" `Quick service_json_shape;
      ] );
    ( "service.episodes",
      [
        Alcotest.test_case "hand-built journal" `Quick episodes_hand_built;
        Alcotest.test_case "gauntlet" `Quick episodes_in_gauntlet;
        Alcotest.test_case "partition spans requests" `Quick partition_spans_requests;
        Alcotest.test_case "analyze = quadratic reference" `Quick episodes_match_reference;
      ] );
  ]
