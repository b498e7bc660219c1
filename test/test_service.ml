(* Service mode: multi-root clusters, the traffic/replication/shedding
   layer, and overlapping recovery episodes across concurrent requests. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Journal = Recflow_machine.Journal
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan
module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ids = Recflow_recovery.Ids
module Message = Recflow_machine.Message
module Node = Recflow_machine.Node
module Value = Recflow_lang.Value
module Service = Recflow_service.Service
module Episode = Recflow_obs.Episode
module Hdr = Recflow_stats.Hdr
module Json = Recflow_obs_core.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let value = Alcotest.testable Value.pp Value.equal

(* What the super-root keeps of its settled requests' answers: (value,
   answers, requests) per distinct value. *)
let settled_tallies c =
  List.map
    (fun (tl : Cluster.tally) -> (Value.to_string tl.value, tl.n_answers, tl.n_requests))
    (Cluster.settled_answers c)

let tallies = Alcotest.(list (triple string int int))

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
  let a0 = ref [] and a1 = ref [] in
  let submit answers n =
    Cluster.submit c ~on_answer:(fun v -> answers := v :: !answers) ~fname:"fib"
      ~args:[ Value.Int n ] ()
  in
  let u0 = submit a0 5 in
  let u1 = submit a1 8 in
  Cluster.close_arrivals c;
  check_int "uids sequential" 0 u0;
  check_int "uids sequential 2" 1 u1;
  check "stamps disjoint" false
    (Stamp.related (Cluster.request_stamp c u0) (Cluster.request_stamp c u1));
  let _ = Cluster.run c in
  let oracle = Oracle.assert_ok c in
  check "oracle ok" true (Oracle.ok oracle);
  Alcotest.(check (list value)) "fib 5" [ Value.Int 5 ] !a0;
  Alcotest.(check (list value)) "fib 8" [ Value.Int 21 ] !a1;
  Alcotest.check tallies "one answer each, filed apart" [ ("5", 1, 1); ("21", 1, 1) ]
    (settled_tallies c);
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
  let first = ref None in
  let _ =
    Cluster.submit c ~on_answer:(fun v -> first := Some v) ~fname:"fib" ~args:[ Value.Int 8 ] ()
  in
  Cluster.close_arrivals c;
  let _ = Cluster.run c in
  let oracle = Oracle.assert_ok c in
  check "oracle ok despite mid-run failure" true (Oracle.ok oracle);
  Alcotest.(check (option value)) "recovered answer" (Some (Value.Int 21)) !first;
  match Cluster.settled_answers c with
  | [ tl ] ->
    Alcotest.check value "settled value" (Value.Int 21) tl.Cluster.value;
    check_int "one request" 1 tl.Cluster.n_requests;
    check "at least one answer" true (tl.Cluster.n_answers >= 1)
  | l -> Alcotest.failf "%d distinct settled values" (List.length l)

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

(* ---------------- reclamation of settled requests ---------------- *)

(* A drained stream under each transport, delivery path and recovery mode,
   with two kills mid-stream: requests settle and give their task uids
   back while the stream runs, every answer is right, and no message ever
   names a reclaimed request ([Service.run]'s oracle would fail the run
   on one; it is checked again here by name). *)
let gauntlet_cases =
  let base = svc_cfg ~nodes:6 ~arrival_mean:150.0 ~seed:9 () in
  let chaos = Recflow_net.Chaos.none in
  [
    ( "chaos drop+dup+reorder, reliable",
      {
        base with
        Config.reliable = true;
        chaos =
          chaos |> Plan.drop_rate 0.02 |> Plan.duplicate_rate 0.02
          |> Plan.reorder ~rate:0.05 ~spread:40;
      } );
    ( "dup+reorder, unreliable",
      {
        base with
        Config.chaos = chaos |> Plan.duplicate_rate 0.03 |> Plan.reorder ~rate:0.05 ~spread:40;
      } );
    ( "partition window, reliable",
      {
        base with
        Config.reliable = true;
        chaos = chaos |> Plan.partition ~from:600 ~until:3000 ~groups:[ [ 4; 5 ] ];
      } );
    ("batched delivery", { base with Config.batched_delivery = true });
    ("batched delivery, reliable", { base with Config.batched_delivery = true; reliable = true });
    ("rollback", { base with Config.recovery = Config.Rollback });
    ("splice", base);
    ("replicate:3", { base with Config.recovery = Config.Replicate 3 });
    ("splice, ancestor depth 2", { base with Config.ancestor_depth = 2 });
    ( "service replicas k=3",
      { base with Config.service = { base.Config.service with Config.replicas = 3 } } );
  ]

(* MD5 of each gauntlet run: every journal entry (fed by a sink, so the
   entries a retaining journal drops count too), the counter list and the
   answers.  Recorded from the index that kept a [Reclaimed] cell for
   every uid ever inserted; the failure scans of these runs walk indexes
   that have since freed their settled cells, and must see the same
   order. *)
let gauntlet_digests =
  [
    ("chaos drop+dup+reorder, reliable", "3d0c9826a5f2c72bef6ef54ddbf9f9bf");
    ("dup+reorder, unreliable", "228000f1d86173bf30821041374ee740");
    ("partition window, reliable", "541562194f17149a56ab866963e908e1");
    ("batched delivery", "a4652dda384ad97d9e23747a29134ff8");
    ("batched delivery, reliable", "0d37534fd1fa135957fbb1546800e49b");
    ("rollback", "1de368030bb3f580dc981f42dcd307da");
    ("splice", "6f8ee3b1b59b6b4dd5ed724e99885f2c");
    ("replicate:3", "8b3434182e8b56d03c6eeb31d22bfb58");
    ("splice, ancestor depth 2", "f159b5dc0c0d072ad77eb4cc839344e3");
    ("service replicas k=3", "9c7f33b30877a879162809e522e203b7");
  ]

let reclamation_gauntlet () =
  List.iter
    (fun (name, cfg) ->
      let buf = Buffer.create 65536 in
      let sink =
        Recflow_obs_core.Sink.of_fun (fun e ->
            Buffer.add_string buf (Format.asprintf "%a\n" Journal.pp_entry e))
      in
      let o =
        Service.run ~failures:[ (1500, 1); (3200, 3) ] ~sink ~config:cfg
          ~workload:Workload.fib ~size:Workload.Tiny ~requests:24 ()
      in
      let c = o.Service.cluster in
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d\n" k v))
        (Recflow_stats.Counter.to_alist (Cluster.counters c));
      List.iter
        (fun r ->
          Buffer.add_string buf
            (match r.Service.value with Some v -> Value.to_string v ^ "\n" | None -> "-\n"))
        o.Service.records;
      let digest = Digest.to_hex (Digest.string (Buffer.contents buf)) in
      Printf.printf "%s: %d of %d requests settled, %d index cells freed, digest %s\n" name
        (Cluster.settled_requests c) (Cluster.submitted_requests c)
        (Cluster.reclaimed_tombstones c) digest;
      check (name ^ ": all correct") true o.Service.all_correct;
      check (name ^ ": oracle ok") true (Oracle.ok o.Service.oracle);
      check_int (name ^ ": messages naming a reclaimed request") 0 (Cluster.reclaimed_hits c);
      check_int (name ^ ": entries under a released request") 0
        (Journal.late_entries (Cluster.journal c));
      check_int (name ^ ": every request settled") (Cluster.submitted_requests c)
        (Cluster.settled_requests c);
      check (name ^ ": tombstones reclaimed") true (Cluster.reclaimed_tombstones c > 0);
      Alcotest.(check string) (name ^ ": run digest") (List.assoc name gauntlet_digests) digest)
    gauntlet_cases

(* [n] fib requests into a service-mode cluster, one every [gap] ticks
   from tick 1; returns the uids submitted so far. *)
let stream c ~n ~gap ?on_answer () =
  let uids = ref [] in
  let rec arrive k () =
    let uid = ref (-1) in
    let on_answer = Option.map (fun f v -> f !uid v) on_answer in
    uid := Cluster.submit c ?on_answer ~fname:"fib" ~args:[ Value.Int 6 ] ();
    uids := !uid :: !uids;
    if k > 1 then Cluster.schedule_callback c ~delay:gap (arrive (k - 1))
    else Cluster.close_arrivals c
  in
  Cluster.begin_service c;
  Cluster.schedule_callback c ~delay:1 (arrive n);
  uids

(* Some violation the oracle reports mentions [needle]. *)
let reports needle (r : Oracle.report) =
  let n = String.length needle in
  List.exists
    (fun v ->
      let rec has i = i + n <= String.length v && (String.sub v i n = needle || has (i + 1)) in
      has 0)
    r.Oracle.violations

(* The witness can fire: reclaiming each request the moment its answer
   lands, before the straggling replica results and acknowledgements of
   its tasks have drained, makes those messages name reclaimed requests,
   and the oracle reports them. *)
let early_reclaim_is_caught () =
  let cfg = { (svc_cfg ~nodes:6 ~seed:4 ()) with Config.recovery = Config.Replicate 3 } in
  let c = Cluster.create cfg (Workload.program Workload.fib) in
  let _ = stream c ~n:12 ~gap:100 ~on_answer:(fun uid _ -> Cluster.reclaim_unsettled c uid) () in
  ignore (Cluster.run c);
  check "a message named a reclaimed request" true (Cluster.reclaimed_hits c > 0);
  let r = Oracle.check c in
  check "oracle reports it" true (reports "reclaimed task uid" r)

(* A late duplicate of an activation whose request has settled: the uid's
   cell is freed, so the index can no longer tell it from a first
   activation, and the ledger's witness must: the packet is counted and
   ignored, and no task is activated under the reclaimed uid (§3.3: a uid
   names one task, once). *)
let late_duplicate_activation_is_caught () =
  let c = Cluster.create (svc_cfg ~nodes:4 ~seed:3 ()) (Workload.program Workload.fib) in
  let activations = ref [] in
  Journal.attach_sink (Cluster.journal c)
    (Recflow_obs_core.Sink.of_fun (fun (e : Journal.entry) ->
         match e.Journal.event with
         | Journal.Activated { task; proc } ->
           activations := (task, proc, e.Journal.stamp) :: !activations
         | _ -> ()));
  let _ = stream c ~n:6 ~gap:100 () in
  ignore (Cluster.run c);
  check_int "every request settled" (Cluster.submitted_requests c) (Cluster.settled_requests c);
  let n = List.length !activations in
  let task, proc, stamp = List.nth !activations (n / 2) in
  let node = Cluster.node c proc in
  let resident = Node.resident_tasks node in
  let packet =
    {
      Packet.stamp;
      fname = "fib";
      args = [| Value.Int 3 |];
      parent = { Packet.task = 0; proc; slot = 0 };
      grandparent = None;
      ancestors = [];
    }
  in
  Cluster.replay c ~dst:proc
    (Message.Task_packet { packet; task_id = task; replica = 0; replicas = 1 });
  check_int "the packet is counted" 1 (Cluster.reclaimed_hits c);
  check_int "no Activated entry" n (List.length !activations);
  check_int "resident tasks unchanged" resident (Node.resident_tasks node);
  check "oracle reports it" true (reports "reclaimed task uid" (Oracle.check c))

(* The journal's witness can fire too: releasing each request's entries
   the moment its answer lands, before its straggling tasks have finished
   recording, leaves entries recorded under released requests, and the
   oracle reports them. *)
let early_release_is_caught () =
  let cfg = { (svc_cfg ~nodes:6 ~seed:4 ()) with Config.recovery = Config.Replicate 3 } in
  let c = Cluster.create cfg (Workload.program Workload.fib) in
  let _ = stream c ~n:12 ~gap:100 ~on_answer:(fun uid _ -> Cluster.release_unsettled c uid) () in
  ignore (Cluster.run c);
  check "an entry was recorded under a released request" true
    (Journal.late_entries (Cluster.journal c) > 0);
  let r = Oracle.check c in
  check "oracle reports it" true (reports "request already released" r)

(* A result that bounces off its dead parent sends [handle_bounce] folding
   over the whole index for its producer, past the reclaimed bindings of
   the requests that settled before the kill.  Failure notices are slowed
   down so that, in the window checked, a producer on a surviving
   processor learns of the death only through its bounced result. *)
let bounce_after_reclaim () =
  let cfg = { (svc_cfg ~nodes:4 ~seed:2 ()) with Config.detect_delay = 1500 } in
  let kill = 2500 in
  let c = Cluster.create cfg (Workload.program Workload.fib) in
  (* the settled requests' entries leave the retained journal, so the
     bounces are looked for in a sink that sees every entry *)
  let entries = ref [] in
  Journal.attach_sink (Cluster.journal c)
    (Recflow_obs_core.Sink.of_fun (fun e -> entries := e :: !entries));
  Cluster.fail_at c ~time:kill 1;
  let _ = stream c ~n:30 ~gap:120 () in
  let reclaimed_before = ref 0 and relayed_in_window = ref 0 in
  let relays () = Recflow_stats.Counter.get (Cluster.counters c) "relay.sent" in
  Cluster.schedule_callback c ~delay:(kill - 1) (fun () ->
      reclaimed_before := Cluster.reclaimed_tombstones c);
  Cluster.schedule_callback c ~delay:(kill + cfg.Config.detect_delay - 1) (fun () ->
      relayed_in_window := relays ());
  ignore (Cluster.run c);
  let r = Oracle.assert_ok c in
  check "oracle ok" true (Oracle.ok r);
  check "older requests reclaimed before the kill" true (!reclaimed_before > 0);
  check "a bounced result was relayed before any notice" true (!relayed_in_window > 0);
  check_int "no message named a reclaimed request" 0 (Cluster.reclaimed_hits c);
  let lost_producer =
    List.exists
      (fun (e : Journal.entry) ->
        match e.Journal.event with
        | Journal.Relay_dropped { reason = "producer gone after bounce"; _ } -> true
        | _ -> false)
      !entries
  in
  check "every bounce found its producer" false lost_producer;
  let n = Cluster.submitted_requests c in
  (match Cluster.settled_answers c with
  | [ tl ] ->
    Alcotest.check value "fib 6" (Value.Int 8) tl.Cluster.value;
    check_int "every request answered it" n tl.Cluster.n_requests;
    check "at least one answer each" true (tl.Cluster.n_answers >= n)
  | l -> Alcotest.failf "%d distinct settled values" (List.length l));
  Alcotest.(check (list (pair int int))) "no request split" [] (Cluster.split_requests c)

(* ---------------- what the super-root keeps of a settled request ---------------- *)

(* The benchmark's service_k3 stream at its quick size: 40 requests, k = 3
   replicas under splice, kills at 3000 on processor 0 and 6000 on
   processor 2. *)
let service_k3_quick () =
  let base = Config.default ~nodes:8 in
  let cfg =
    {
      base with
      Config.recovery = Config.Splice;
      seed = 17;
      journal_retain = true;
      service =
        { base.Config.service with Config.arrival_mean = 400.0; replicas = 3; max_inflight = 64 };
    }
  in
  Service.run ~failures:[ (3_000, 0); (6_000, 2) ] ~config:cfg ~workload:Workload.fib
    ~size:Workload.Tiny ~requests:40 ()

let refused f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Once a drained stream has settled every request, the super-root's table
   is empty: no open uid is left to walk, and the per-request accessors
   refuse a settled uid, while its stamp and re-dispatch count are still
   answered. *)
let drained_holds_no_request () =
  let o = service_k3_quick () in
  let c = o.Service.cluster in
  let n = Cluster.submitted_requests c in
  check_int "every replica root settled" n (Cluster.settled_requests c);
  let open_uids = ref [] in
  Cluster.iter_request_uids c (fun uid -> open_uids := uid :: !open_uids);
  Alcotest.(check (list int)) "no request left in the table" [] !open_uids;
  for uid = 0 to n - 1 do
    check "answers refused" true (refused (fun () -> Cluster.request_answers c uid));
    check "answer time refused" true (refused (fun () -> Cluster.request_answer_time c uid));
    check "host refused" true (refused (fun () -> Cluster.request_dest c uid));
    check "packet refused" true (refused (fun () -> Cluster.request_packet c uid));
    check "stamp still answered" true
      (Stamp.equal (Stamp.child Stamp.root uid) (Cluster.request_stamp c uid));
    check "re-dispatches still answered" true (Cluster.request_redispatches c uid >= 0)
  done;
  check "a uid never issued is refused" true (refused (fun () -> Cluster.request_redispatches c n));
  Alcotest.check tallies "every answer kept by value" [ ("21", 120, 120) ] (settled_tallies c)

(* The request roots of a drained stream (the ledger's window and what
   is kept of the settled requests) hold no more than a window's worth of
   words: 98 + 72 when the super-root and the ledger kept a table each. *)
let drained_request_roots_are_small () =
  let c = (service_k3_quick ()).Service.cluster in
  let roots = Array.of_list (Cluster.request_roots c) in
  let words = Obj.reachable_words (Obj.repr roots) - (Array.length roots + 1) in
  Printf.printf "request roots: %d words\n" words;
  check "request roots hold <= 170 words" true (words <= 170)

(* What makes a settled request heavy is its root packet and the
   callbacks that reach the caller's state.  Once it settles, nothing of
   the cluster reaches either: a full collection clears weak pointers to
   each while the cluster is still live. *)
let settled_request_is_collected () =
  let c = Cluster.create (svc_cfg ~nodes:6 ~seed:5 ()) (Workload.program Workload.fib) in
  let n = 12 in
  let packets = Weak.create n and callbacks = Weak.create n in
  let answered = ref 0 in
  let rec arrive k () =
    let tag = ref k in
    let on_answer (_ : Value.t) =
      incr answered;
      ignore (Sys.opaque_identity tag)
    in
    let uid = Cluster.submit c ~on_answer ~fname:"fib" ~args:[ Value.Int 6 ] () in
    Weak.set packets uid (Some (Cluster.request_packet c uid));
    Weak.set callbacks uid (Some on_answer);
    if k > 1 then Cluster.schedule_callback c ~delay:100 (arrive (k - 1))
    else Cluster.close_arrivals c
  in
  Cluster.begin_service c;
  Cluster.schedule_callback c ~delay:1 (arrive n);
  ignore (Cluster.run c);
  check_int "every request answered" n !answered;
  check_int "every request settled" n (Cluster.settled_requests c);
  Gc.full_major ();
  let kept w = List.length (List.filter (Weak.check w) (List.init n Fun.id)) in
  check_int "root packets still reachable" 0 (kept packets);
  check_int "on_answer closures still reachable" 0 (kept callbacks);
  ignore (Sys.opaque_identity c)

(* [request_redispatches] still answers every issued uid: over the quick
   service_k3 stream the counts sum to the 3 root re-dispatches the
   stream made before settled requests were dropped, which is also the
   [reissue.root] counter. *)
let redispatches_survive_the_drop () =
  let o = service_k3_quick () in
  let c = o.Service.cluster in
  let sum = ref 0 in
  for uid = 0 to Cluster.submitted_requests c - 1 do
    sum := !sum + Cluster.request_redispatches c uid
  done;
  check_int "re-dispatches over every uid" 3 !sum;
  check_int "the reissue.root counter agrees"
    (Recflow_stats.Counter.get (Cluster.counters c) "reissue.root")
    !sum

(* The service analogue of the batch "oracle takes the expected answer":
   the settled requests' answers are checked against [expected] per
   distinct value, in one violation that names the first request and
   counts them all. *)
let oracle_takes_expected_settled () =
  let o = service_k3_quick () in
  let c = o.Service.cluster in
  let viols expected = (Oracle.check ?expected c).Oracle.violations in
  Alcotest.(check (list string)) "no expected value: no violation" [] (viols None);
  Alcotest.(check (list string)) "right value: no violation" [] (viols (Some (Value.Int 21)));
  match viols (Some (Value.Int 22)) with
  | [ v ] ->
    Alcotest.(check string) "names the first request and counts them all"
      "120 answer(s) of 120 settled request(s) differ from the expected 22 (first: request 0, 21)" v
  | vs -> Alcotest.failf "%d violations for a wrong expected value" (List.length vs)

(* A root result for request [uid] carrying [v], as it reaches the
   super-root. *)
let root_result c uid v =
  Message.Result
    {
      Message.stamp = Cluster.request_stamp c uid;
      value = v;
      target = { Packet.task = Ids.no_task; proc = Ids.super_root; slot = uid };
      relay = Message.To_parent;
    }

(* Determinacy is checked as a request settles: a second, different answer
   handed to the super-root while request 0 is open (right after its
   first answer) is reported once it has settled and left the table. *)
let split_answer_is_caught () =
  let c = Cluster.create (svc_cfg ~nodes:6 ~seed:4 ()) (Workload.program Workload.fib) in
  let on_answer uid _ =
    if uid = 0 then Cluster.replay c ~dst:Ids.super_root (root_result c 0 (Value.Int 99))
  in
  let _ = stream c ~n:6 ~gap:100 ~on_answer () in
  ignore (Cluster.run c);
  check_int "every request settled" 6 (Cluster.settled_requests c);
  Alcotest.(check (list (pair int int))) "request 0 gave two values" [ (0, 2) ]
    (Cluster.split_requests c);
  Alcotest.check tallies "both values kept" [ ("8", 6, 6); ("99", 1, 1) ] (settled_tallies c);
  check "oracle reports it" true (reports "request 0 produced 2 distinct answers" (Oracle.check c))

(* A root result reaching the super-root for a request it has dropped
   means the request settled too early: it counts as a reclaimed hit, and
   the oracle reports it. *)
let late_root_result_is_caught () =
  let c = Cluster.create (svc_cfg ~nodes:6 ~seed:4 ()) (Workload.program Workload.fib) in
  let _ = stream c ~n:4 ~gap:100 () in
  ignore (Cluster.run c);
  check_int "no hit yet" 0 (Cluster.reclaimed_hits c);
  Cluster.replay c ~dst:Ids.super_root (root_result c 2 (Value.Int 8));
  check_int "the late result is counted" 1 (Cluster.reclaimed_hits c);
  Alcotest.check tallies "and not filed" [ ("8", 4, 4) ] (settled_tallies c);
  check "oracle reports it" true (reports "reclaimed task uid" (Oracle.check c))

(* The super-root's failure-notice walk re-dispatches each unanswered
   request hosted on the dead processor, inside the walk, and each
   re-dispatch runs the request's [on_disturbed], which here submits 40
   fresh requests.  The window of open requests then slides past the
   settled ones below the walk and grows under it.  The walk must still
   re-dispatch every such request once, in uid order, and none submitted
   during the walk. *)
let notice_walk_survives_window_moves () =
  let c = Cluster.create (svc_cfg ~nodes:4 ~seed:3 ()) (Workload.program Workload.fib) in
  let submit ?on_disturbed n =
    Cluster.submit c ?on_disturbed ~fname:"fib" ~args:[ Value.Int n ] ()
  in
  let notices = ref [] and in_walk = ref [] and long = ref [] and victim = 0 in
  let on_disturbed uid reason =
    if reason = "notice" then begin
      notices := (Cluster.now c, uid) :: !notices;
      in_walk := List.init 40 (fun _ -> submit 2) @ !in_walk
    end
  in
  Cluster.begin_service c;
  (* 60 short requests settle first; of the next 8, the quick one settles
     before the kill, leaving the low slots free to slide past *)
  Cluster.schedule_callback c ~delay:1 (fun () -> for _ = 1 to 60 do ignore (submit 2) done);
  Cluster.schedule_callback c ~delay:2000 (fun () ->
      ignore (submit 3);
      for _ = 1 to 7 do
        let uid = ref (-1) in
        uid := submit ~on_disturbed:(fun r -> on_disturbed !uid r) 14;
        long := !uid :: !long
      done);
  let hosted = ref [] in
  Cluster.schedule_callback c ~delay:2499 (fun () ->
      hosted := List.filter (fun uid -> Cluster.request_dest c uid = Some victim) !long);
  Cluster.schedule_callback c ~delay:20_000 (fun () -> Cluster.close_arrivals c);
  Cluster.fail_at c ~time:2500 victim;
  ignore (Cluster.run c);
  check "two or more requests hosted on the victim" true (List.length !hosted >= 2);
  check "the first long request settled before the kill" true
    (refused (fun () -> Cluster.request_dest c 60));
  let walk = List.rev_map snd !notices in
  let ticks = List.sort_uniq compare (List.map fst !notices) in
  check_int "one walk" 1 (List.length ticks);
  Alcotest.(check (list int))
    "each hosted request once, in uid order" (List.sort compare !hosted) walk;
  check "none submitted during the walk re-dispatched" true
    (List.for_all (fun uid -> not (List.mem uid walk)) !in_walk);
  check "the walk submitted past the window" true
    (List.exists (fun uid -> uid >= 61 + 64) !in_walk);
  ignore (Oracle.assert_ok c);
  check_int "every request settled" (Cluster.submitted_requests c) (Cluster.settled_requests c)

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

(* A stream run twice over: [Service.run]'s own journal, which drops its
   settled requests' entries, and a full journal fed every entry by a
   sink attached before the first arrival. *)
let run_with_full ?failures ~requests cfg =
  let full = Journal.create () in
  let sink =
    Recflow_obs_core.Sink.of_fun (fun (e : Journal.entry) ->
        Journal.record full ~time:e.Journal.time ~stamp:e.Journal.stamp e.Journal.event)
  in
  let o =
    Service.run ?failures ~sink ~config:cfg ~workload:Workload.fib ~size:Workload.Tiny ~requests ()
  in
  (o, full)

let episodes_match_reference () =
  let json eps = List.map (fun e -> Json.to_string (Episode.to_json e)) eps in
  let same name journal =
    let expected = Quadratic_episodes.analyze journal and got = Episode.analyze journal in
    Alcotest.(check (list string)) name (json expected) (json got);
    check (name ^ ": field for field") true (expected = got)
  in
  (* the released journal's analysis against the reference analysis of
     the full one *)
  let same_as_full name (o, full) =
    let journal = Cluster.journal o.Service.cluster in
    check (name ^ ": entries were dropped") true (Journal.dropped journal > 0);
    check_int (name ^ ": length counts every entry") (Journal.length full)
      (Journal.length journal);
    let expected = Quadratic_episodes.analyze full and got = Episode.analyze journal in
    Alcotest.(check (list string)) name (json expected) (json got);
    check (name ^ ": field for field") true (expected = got)
  in
  same "hand-built" (hand_built_journal ());
  let gauntlet =
    run_with_full ~failures:[ (2000, 0); (3500, 2) ] ~requests:24
      (svc_cfg ~nodes:4 ~arrival_mean:150.0 ~seed:7 ())
  in
  same_as_full "gauntlet" gauntlet;
  let partition =
    let base = svc_cfg ~nodes:4 ~arrival_mean:120.0 ~seed:5 () in
    run_with_full ~requests:16
      {
        base with
        Config.reliable = true;
        chaos = Recflow_net.Chaos.none |> Plan.partition ~from:300 ~until:4500 ~groups:[ [ 2; 3 ] ];
      }
  in
  same_as_full "partition" partition;
  let ((faulty, _) as faulty_full) =
    run_with_full ~failures:[ (3000, 0); (6000, 2) ] ~requests:100 (svc_cfg ~seed:17 ())
  in
  check "faulty stream: two episodes, one with losses and splice cases" true
    (match Episode.analyze (Cluster.journal faulty.Service.cluster) with
    | [ e1; e2 ] ->
      List.exists (fun e -> e.Episode.lost_tasks > 0 && e.Episode.cases <> []) [ e1; e2 ]
    | _ -> false);
  same_as_full "100-request stream" faulty_full;
  (* Replicated children leave aborts and ignored duplicates in requests
     no failure touched: the analysis must count them from the dropped
     requests' tallies. *)
  let ((replicated, _) as replicated_full) =
    run_with_full ~failures:[ (3000, 0); (6000, 2) ] ~requests:40
      { (svc_cfg ~seed:11 ()) with Config.recovery = Config.Replicate 3 }
  in
  let tally =
    Journal.dropped_tally (Cluster.journal replicated.Service.cluster) ~window:1 (function
      | Journal.Aborted _ | Journal.Duplicate_ignored _ -> true
      | _ -> false)
  in
  check "replicate:3: dropped requests left recovery events" true (tally.Journal.entries > 0);
  same_as_full "replicate:3 stream" replicated_full

(* ---------------- a fuzzed slice of the service configuration space ---------------- *)

(* One drained stream: the service settings, recovery, transport, journal
   and 0-2 kills drawn at random on 6 processors, fib tiny as the program. *)
type fuzz_case = {
  replicas : int;
  max_inflight : int;
  shed_suspect_frac : float;
  arrival_mean : float;
  recovery : Config.recovery;
  chaos : int;  (* 0: quiet; 1: duplicate and reorder; 2: drop too *)
  reliable : bool;
  retain : bool;
  kills : (int * int) list;  (* (tick, processor) *)
  requests : int;
  seed : int;
}

let fuzz_config f =
  let base =
    svc_cfg ~nodes:6 ~arrival_mean:f.arrival_mean ~replicas:f.replicas
      ~max_inflight:f.max_inflight ~shed_suspect_frac:f.shed_suspect_frac ~seed:f.seed ()
  in
  let hostile =
    Recflow_net.Chaos.none |> Plan.duplicate_rate 0.02 |> Plan.reorder ~rate:0.05 ~spread:40
  in
  {
    base with
    Config.recovery = f.recovery;
    reliable = f.reliable;
    journal_retain = f.retain;
    chaos =
      (match f.chaos with
      | 0 -> Recflow_net.Chaos.none
      | 1 -> hostile
      | _ -> Plan.drop_rate 0.02 hostile);
  }

(* What [Config.validate] accepts, and no kill without recovery: a lost
   request would then be no fault of the program. *)
let fuzz_valid f =
  Config.validate (fuzz_config f) = Ok () && (f.recovery <> Config.No_recovery || f.kills = [])

let fuzz_to_string f =
  Printf.sprintf
    "replicas %d, max_inflight %d, shed_suspect_frac %g, arrival_mean %g, recovery %s, chaos %d, \
     reliable %b, journal_retain %b, seed %d, %d requests, kills [%s]"
    f.replicas f.max_inflight f.shed_suspect_frac f.arrival_mean
    (Config.recovery_to_string f.recovery) f.chaos f.reliable f.retain f.seed f.requests
    (String.concat "; " (List.map (fun (t, p) -> Printf.sprintf "%d@%d" t p) f.kills))

let gen_fuzz_case =
  let open QCheck.Gen in
  let raw =
    let* replicas = int_range 1 3 and* max_inflight = oneofl [ 1; 2; 4; 16; 64 ]
    and* shed_suspect_frac = oneofl [ 0.0; 0.2; 0.5; 1.0 ]
    and* arrival_mean = oneofl [ 30.0; 150.0; 400.0; 1200.0 ]
    and* recovery =
      oneofl Config.[ No_recovery; Rollback; Splice; Replicate 2; Replicate 3 ]
    and* chaos = int_bound 2 and* reliable = bool and* retain = bool
    and* kills = list_size (int_bound 2) (pair (int_range 100 6000) (int_bound 5))
    and* requests = int_range 1 20 and* seed = int_bound 10_000 in
    return
      { replicas; max_inflight; shed_suspect_frac; arrival_mean; recovery; chaos; reliable; retain;
        kills; requests; seed }
  in
  let rec valid st =
    let f = raw st in
    if fuzz_valid f then f else valid st
  in
  valid

(* Toward the fewest kills and requests, and each setting toward the
   plainest one, keeping only valid cases. *)
let shrink_fuzz_case f yield =
  let yield f' = if fuzz_valid f' then yield f' in
  QCheck.Shrink.list ~shrink:QCheck.Shrink.nil f.kills (fun kills -> yield { f with kills });
  QCheck.Shrink.int f.requests (fun requests -> if requests >= 1 then yield { f with requests });
  if f.replicas > 1 then yield { f with replicas = 1 };
  if f.max_inflight <> 64 then yield { f with max_inflight = 64 };
  if f.shed_suspect_frac <> 1.0 then yield { f with shed_suspect_frac = 1.0 };
  if f.arrival_mean <> 400.0 then yield { f with arrival_mean = 400.0 };
  if f.recovery <> Config.Splice then yield { f with recovery = Config.Splice };
  if f.chaos > 0 then yield { f with chaos = f.chaos - 1 };
  if f.reliable then yield { f with reliable = false };
  if not f.retain then yield { f with retain = true }

(* Every run answers right and drains clean: the oracle passes, no message
   names a reclaimed request, nothing is recorded under a released one,
   and every request has settled and left the ledger. *)
let drains_clean f =
  let o = run ~failures:f.kills ~requests:f.requests (fuzz_config f) in
  let c = o.Service.cluster in
  let open_uids = ref [] in
  Cluster.iter_request_uids c (fun uid -> open_uids := uid :: !open_uids);
  o.Service.all_correct && Oracle.ok o.Service.oracle
  && Cluster.reclaimed_hits c = 0
  && Journal.late_entries (Cluster.journal c) = 0
  && Cluster.settled_requests c = Cluster.submitted_requests c
  && !open_uids = []

let prop_service_fuzz =
  QCheck.Test.make ~count:100 ~name:"fuzz: service streams drain clean"
    (QCheck.make ~print:fuzz_to_string ~shrink:shrink_fuzz_case gen_fuzz_case)
    drains_clean

(* The first case the fuzz found, shrunk: under rollback over a lossy
   network, the abort of an orphan whose child had died with its ancestor
   was dropped while aborts were fire-and-forget, and the orphan waited on
   that child forever (2 tasks leaked at quiescence). *)
let lost_abort_case () =
  let f =
    { replicas = 3; max_inflight = 64; shed_suspect_frac = 1.0; arrival_mean = 400.0;
      recovery = Config.Rollback; chaos = 2; reliable = true; retain = true;
      kills = [ (3588, 4) ]; requests = 12; seed = 7977 }
  in
  check "a case the fuzz draws" true (fuzz_valid f);
  check "drains clean" true (drains_clean f)

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
    ( "service.reclaim",
      [
        Alcotest.test_case "gauntlet" `Quick reclamation_gauntlet;
        Alcotest.test_case "early reclaim is caught" `Quick early_reclaim_is_caught;
        Alcotest.test_case "late duplicate activation is caught" `Quick
          late_duplicate_activation_is_caught;
        Alcotest.test_case "early journal release is caught" `Quick early_release_is_caught;
        Alcotest.test_case "bounce after reclaim" `Quick bounce_after_reclaim;
      ] );
    ( "service.settled",
      [
        Alcotest.test_case "drained stream holds no settled request" `Quick
          drained_holds_no_request;
        Alcotest.test_case "drained request roots are small" `Quick
          drained_request_roots_are_small;
        Alcotest.test_case "settled packet and callback collected" `Quick
          settled_request_is_collected;
        Alcotest.test_case "re-dispatch counts survive the drop" `Quick
          redispatches_survive_the_drop;
        Alcotest.test_case "oracle takes the expected answer" `Quick oracle_takes_expected_settled;
        Alcotest.test_case "split answer caught at settle" `Quick split_answer_is_caught;
        Alcotest.test_case "late root result caught" `Quick late_root_result_is_caught;
        Alcotest.test_case "notice walk survives window moves" `Quick
          notice_walk_survives_window_moves;
      ] );
    ( "service.fuzz",
      [
        QCheck_alcotest.to_alcotest prop_service_fuzz;
        Alcotest.test_case "rollback abort lost to the network" `Quick lost_abort_case;
      ] );
  ]
