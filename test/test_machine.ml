(* Integration tests: the whole simulated machine, fault-free and faulty. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Node = Recflow_machine.Node
module Journal = Recflow_machine.Journal
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan
module Stamp = Recflow_recovery.Stamp
module Value = Recflow_lang.Value
module Counter = Recflow_stats.Counter
module Chaos = Recflow_net.Chaos
module Oracle = Recflow_machine.Oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let value = Alcotest.testable Value.pp Value.equal
let qtest = QCheck_alcotest.to_alcotest

let run ?(cfg = Config.default ~nodes:8) ?(failures = []) ?(drain = false) w size =
  let c = Cluster.create cfg (Workload.program w) in
  List.iter (fun (t, p) -> Cluster.fail_at c ~time:t p) failures;
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args size);
  let o = Cluster.run ~drain c in
  (c, o)

let answer_of (o : Cluster.outcome) =
  match o.Cluster.answer with Some v -> v | None -> Alcotest.fail "no answer"

(* ---------------- fault-free matrix ---------------- *)

let fault_free_matrix () =
  List.iter
    (fun w ->
      List.iter
        (fun size ->
          let _, o = run w size in
          Alcotest.check value
            (Printf.sprintf "%s/%s" w.Workload.name
               (match size with Workload.Tiny -> "tiny" | _ -> "small"))
            (Workload.expected w size) (answer_of o))
        [ Workload.Tiny; Workload.Small ])
    Workload.all

let topologies_matrix () =
  List.iter
    (fun topology ->
      let cfg = { (Config.default ~nodes:8) with Config.topology } in
      let _, o = run ~cfg Workload.fib Workload.Small in
      Alcotest.check value (Recflow_net.Topology.to_string topology)
        (Workload.expected Workload.fib Workload.Small)
        (answer_of o))
    [ Recflow_net.Topology.Full 8; Recflow_net.Topology.Ring 8;
      Recflow_net.Topology.Mesh (2, 4); Recflow_net.Topology.Hypercube 3 ]

let policies_matrix () =
  List.iter
    (fun policy ->
      let cfg = { (Config.default ~nodes:8) with Config.policy } in
      let _, o = run ~cfg Workload.tree_sum Workload.Small in
      Alcotest.check value
        (Recflow_balance.Policy.spec_to_string policy)
        (Workload.expected Workload.tree_sum Workload.Small)
        (answer_of o))
    [ Recflow_balance.Policy.Gradient { weight = 2 }; Recflow_balance.Policy.Random;
      Recflow_balance.Policy.Round_robin; Recflow_balance.Policy.Static_hash;
      Recflow_balance.Policy.Neighborhood { radius = 1 };
      Recflow_balance.Policy.Gradient_distributed { threshold = 1 } ]

let single_processor () =
  let cfg = Config.default ~nodes:1 in
  let _, o = run ~cfg Workload.fib Workload.Tiny in
  Alcotest.check value "one node suffices" (Workload.expected Workload.fib Workload.Tiny)
    (answer_of o)

let inline_grain_preserves_answer () =
  List.iter
    (fun inline_depth ->
      let cfg = { (Config.default ~nodes:4) with Config.inline_depth } in
      let _, o = run ~cfg Workload.fib Workload.Small in
      Alcotest.check value
        (Printf.sprintf "inline at depth %d" inline_depth)
        (Workload.expected Workload.fib Workload.Small)
        (answer_of o))
    [ 1; 2; 4; 8 ]

(* ---------------- recovery matrix ---------------- *)

let recovery_modes_with_failure () =
  List.iter
    (fun recovery ->
      let cfg = { (Config.default ~nodes:8) with Config.recovery } in
      let _, o = run ~cfg ~failures:[ (500, 2) ] Workload.fib Workload.Small in
      Alcotest.check value
        (Config.recovery_to_string recovery)
        (Workload.expected Workload.fib Workload.Small)
        (answer_of o))
    [ Config.Rollback; Config.Splice; Config.Replicate 2; Config.Replicate 3 ]

let no_recovery_loses_answer () =
  let cfg = { (Config.default ~nodes:4) with Config.recovery = Config.No_recovery } in
  (* kill the processor hosting the root: without recovery nothing can
     produce an answer *)
  let probe_cfg = cfg in
  let pc, _ = run ~cfg:probe_cfg Workload.fib Workload.Small in
  let root_host =
    Option.get (Plan.Pick.host_of (Cluster.journal pc) ~stamp:Stamp.root ~time:100)
  in
  let _, o = run ~cfg ~failures:[ (100, root_host) ] Workload.fib Workload.Small in
  check "no answer without recovery" true (o.Cluster.answer = None)

let root_failure_recovered () =
  (* the super-root's pre-evaluation checkpoint (§4.3.1) regenerates the
     root wherever it dies *)
  List.iter
    (fun recovery ->
      let cfg = { (Config.default ~nodes:4) with Config.recovery } in
      let pc, _ = run ~cfg Workload.fib Workload.Small in
      let root_host =
        Option.get (Plan.Pick.host_of (Cluster.journal pc) ~stamp:Stamp.root ~time:300)
      in
      let _, o = run ~cfg ~failures:[ (300, root_host) ] Workload.fib Workload.Small in
      Alcotest.check value
        ("root failure under " ^ Config.recovery_to_string recovery)
        (Workload.expected Workload.fib Workload.Small)
        (answer_of o))
    [ Config.Rollback; Config.Splice ]

let multiple_failures () =
  let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Splice } in
  let _, o = run ~cfg ~failures:[ (400, 1); (700, 5); (900, 6) ] Workload.fib Workload.Small in
  Alcotest.check value "three failures" (Workload.expected Workload.fib Workload.Small)
    (answer_of o)

let simultaneous_failures () =
  let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Rollback } in
  let _, o = run ~cfg ~failures:[ (500, 2); (500, 3) ] Workload.fib Workload.Small in
  Alcotest.check value "simultaneous pair" (Workload.expected Workload.fib Workload.Small)
    (answer_of o)

let failure_before_start () =
  let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Rollback } in
  let _, o = run ~cfg ~failures:[ (1, 4) ] Workload.fib Workload.Small in
  Alcotest.check value "failure at t=1" (Workload.expected Workload.fib Workload.Small)
    (answer_of o)

let gradient_distributed_with_failure () =
  (* the node-local gradient model (§3.3 / ref [10]) on a ring, with and
     without a failure *)
  let cfg =
    { (Config.default ~nodes:8) with
      Config.topology = Recflow_net.Topology.Ring 8;
      policy = Recflow_balance.Policy.Gradient_distributed { threshold = 1 };
      recovery = Config.Splice }
  in
  let c, o = run ~cfg Workload.tree_sum Workload.Small in
  Alcotest.check value "fault-free" (Workload.expected Workload.tree_sum Workload.Small)
    (answer_of o);
  check "gradient messages flowed" true
    (Counter.get (Cluster.counters c) "msg.gradient" > 0);
  let _, o = run ~cfg ~failures:[ (400, 3) ] Workload.tree_sum Workload.Small in
  Alcotest.check value "with failure" (Workload.expected Workload.tree_sum Workload.Small)
    (answer_of o)

let static_policy_with_failure () =
  let cfg =
    { (Config.default ~nodes:8) with Config.recovery = Config.Rollback;
      policy = Recflow_balance.Policy.Static_hash }
  in
  let c, o = run ~cfg ~failures:[ (400, 3) ] Workload.fib Workload.Small in
  Alcotest.check value "static recovers" (Workload.expected Workload.fib Workload.Small)
    (answer_of o);
  check "static reassignments happened" true
    (Counter.get (Cluster.counters c) "static.reassigned" > 0)

let splice_property =
  QCheck.Test.make ~name:"splice survives any single failure (random seed/time/victim)"
    ~count:25
    QCheck.(triple (int_range 0 1000) (int_range 50 2000) (int_range 0 7))
    (fun (seed, time, victim) ->
      let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Splice; seed } in
      let _, o = run ~cfg ~failures:[ (time, victim) ] Workload.tree_sum Workload.Tiny in
      match o.Cluster.answer with
      | Some v -> Value.equal v (Workload.expected Workload.tree_sum Workload.Tiny)
      | None -> false)

let rollback_property =
  QCheck.Test.make ~name:"rollback survives any single failure (random seed/time/victim)"
    ~count:25
    QCheck.(triple (int_range 0 1000) (int_range 50 2000) (int_range 0 7))
    (fun (seed, time, victim) ->
      let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Rollback; seed } in
      let _, o = run ~cfg ~failures:[ (time, victim) ] Workload.tree_sum Workload.Tiny in
      match o.Cluster.answer with
      | Some v -> Value.equal v (Workload.expected Workload.tree_sum Workload.Tiny)
      | None -> false)

let adoption_off_still_correct () =
  let cfg =
    { (Config.default ~nodes:8) with Config.recovery = Config.Splice; adoption_grace = 0 }
  in
  let _, o = run ~cfg ~failures:[ (500, 2) ] Workload.fib Workload.Small in
  Alcotest.check value "raw protocol (no inheritance)"
    (Workload.expected Workload.fib Workload.Small)
    (answer_of o)

let ancestor_depth_two () =
  let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Splice; ancestor_depth = 2 } in
  let _, o = run ~cfg ~failures:[ (400, 1); (400, 2) ] Workload.fib Workload.Small in
  Alcotest.check value "great-grandparent links" (Workload.expected Workload.fib Workload.Small)
    (answer_of o)

(* ---------------- journal invariants ---------------- *)

let journal_invariants () =
  let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Splice } in
  let c, o = run ~cfg ~failures:[ (500, 2) ] ~drain:true Workload.fib Workload.Small in
  ignore (answer_of o);
  let j = Cluster.journal c in
  (* every Completed activation was Activated first, per stamp+task *)
  List.iter
    (fun st ->
      let events = Journal.for_stamp j st in
      List.iter
        (fun (e : Journal.entry) ->
          match e.Journal.event with
          | Journal.Completed { task; _ } ->
            check "completed implies activated" true
              (List.exists
                 (fun (e' : Journal.entry) ->
                   e'.Journal.time <= e.Journal.time
                   &&
                   match e'.Journal.event with
                   | Journal.Activated { task = t'; _ } -> t' = task
                   | _ -> false)
                 events)
          | Journal.Activated { task; _ } ->
            check "activated implies spawned/respawned" true
              (List.exists
                 (fun (e' : Journal.entry) ->
                   e'.Journal.time <= e.Journal.time
                   &&
                   match e'.Journal.event with
                   | Journal.Spawned { task = t'; _ } | Journal.Respawned { task = t'; _ } ->
                     t' = task
                   | _ -> false)
                 events)
          | _ -> ())
        events)
    (Journal.stamps j)

let determinism () =
  let go () =
    let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Splice; seed = 77 } in
    let c, o = run ~cfg ~failures:[ (600, 3) ] Workload.fib Workload.Small in
    (o.Cluster.answer_time, o.Cluster.events, List.length (Journal.entries (Cluster.journal c)))
  in
  check "identical replay" true (go () = go ())

let seed_changes_schedule () =
  let go seed =
    let cfg =
      { (Config.default ~nodes:8) with Config.policy = Recflow_balance.Policy.Random; seed }
    in
    let _, o = run ~cfg Workload.fib Workload.Small in
    o.Cluster.answer_time
  in
  (* different placement, same answer; times normally differ *)
  check "seeds explored" true (go 1 <> go 2 || go 1 <> go 3)

(* ---------------- errors and edges ---------------- *)

let program_error_surfaces () =
  let p = Recflow_lang.Parser.parse_program_exn "def f(x) = 1 / x" in
  let c = Cluster.create (Config.default ~nodes:2) p in
  Cluster.start c ~fname:"f" ~args:[ Value.Int 0 ];
  let o = Cluster.run c in
  check "no answer" true (o.Cluster.answer = None);
  match o.Cluster.error with
  | Some msg -> check "division reported" true (String.length msg > 0)
  | None -> Alcotest.fail "error not surfaced"

let start_validation () =
  let p = Recflow_lang.Parser.parse_program_exn "def f(x) = x" in
  let c = Cluster.create (Config.default ~nodes:2) p in
  check "unknown entry" true
    (try
       Cluster.start c ~fname:"nope" ~args:[];
       false
     with Invalid_argument _ -> true);
  check "bad arity" true
    (try
       Cluster.start c ~fname:"f" ~args:[];
       false
     with Invalid_argument _ -> true);
  Cluster.start c ~fname:"f" ~args:[ Value.Int 1 ];
  check "double start" true
    (try
       Cluster.start c ~fname:"f" ~args:[ Value.Int 1 ];
       false
     with Invalid_argument _ -> true);
  check "run before start" true
    (let c2 = Cluster.create (Config.default ~nodes:2) p in
     try
       ignore (Cluster.run c2);
       false
     with Invalid_argument _ -> true)

let config_validation () =
  let bad f =
    let cfg = f (Config.default ~nodes:4) in
    match Config.validate cfg with Error _ -> true | Ok () -> false
  in
  check "replicate too big" true (bad (fun c -> { c with Config.recovery = Config.Replicate 9 }));
  check "replicate zero" true (bad (fun c -> { c with Config.recovery = Config.Replicate 0 }));
  check "bad inline_depth" true (bad (fun c -> { c with Config.inline_depth = 0 }));
  check "negative ancestor depth" true (bad (fun c -> { c with Config.ancestor_depth = -1 }));
  (* transport / chaos knobs: each bad value must name its own rule *)
  let bad_msg msg f =
    let cfg = f (Config.default ~nodes:4) in
    match Config.validate cfg with
    | Error m -> String.equal m msg
    | Ok () -> false
  in
  check "bad rto" true
    (bad_msg "retry rto must be >= 1" (fun c ->
         { c with Config.retry = { c.Config.retry with Config.rto = 0 } }));
  check "bad backoff" true
    (bad_msg "retry backoff base must be >= 1" (fun c ->
         { c with Config.retry = { c.Config.retry with Config.backoff = 0.5 } }));
  check "suspicion under detect_delay" true
    (bad_msg
       "suspicion_after must exceed detect_delay (timeout suspicion is the slow local \
        fallback to the failure-notice broadcast)"
       (fun c ->
         { c with
           Config.reliable = true;
           retry = { c.Config.retry with Config.suspicion_after = c.Config.detect_delay } }));
  check "bad drop rate" true
    (bad_msg "chaos drop_rate must be in [0,1)" (fun c ->
         { c with
           Config.reliable = true;
           chaos = { Chaos.none with Chaos.drop_rate = 1.0 } }));
  check "lossy chaos needs reliable transport" true
    (bad_msg "a lossy chaos spec (drop_rate > 0 or partitions) requires reliable transport"
       (fun c -> { c with Config.chaos = { Chaos.none with Chaos.drop_rate = 0.1 } }));
  (* service knobs: one negative per knob *)
  check "bad arrival mean" true
    (bad_msg "service arrival_mean must be > 0" (fun c ->
         { c with Config.service = { c.Config.service with Config.arrival_mean = 0.0 } }));
  check "bad service replicas" true
    (bad_msg "service replicas must be >= 1" (fun c ->
         { c with Config.service = { c.Config.service with Config.replicas = 0 } }));
  check "service replicas over cluster" true
    (bad_msg "service replicas 9 exceeds cluster size" (fun c ->
         { c with Config.service = { c.Config.service with Config.replicas = 9 } }));
  check "bad max inflight" true
    (bad_msg "service max_inflight must be >= 1" (fun c ->
         { c with Config.service = { c.Config.service with Config.max_inflight = 0 } }));
  check "bad shed fraction" true
    (bad_msg "service shed_suspect_frac must be in [0,1]" (fun c ->
         { c with Config.service = { c.Config.service with Config.shed_suspect_frac = 1.5 } }));
  (* adaptive checkpoint-admission knobs (PR 9) *)
  check "negative ckpt_cost" true
    (bad_msg "costs must be non-negative" (fun c -> { c with Config.ckpt_cost = -1 }));
  check "loss_prior above 1" true
    (bad_msg "loss_prior must be in [0,1]" (fun c -> { c with Config.loss_prior = 1.5 }));
  check "loss_prior negative" true
    (bad_msg "loss_prior must be in [0,1]" (fun c -> { c with Config.loss_prior = -0.1 }));
  check "loss_prior nan" true
    (bad_msg "loss_prior must be in [0,1]" (fun c -> { c with Config.loss_prior = Float.nan }));
  (* negative latencies reach the engine as negative delays; NaN fails
     every comparison, so range rules must be written to reject it *)
  let latency f c = { c with Config.latency = f c.Config.latency } in
  check "negative latency base" true
    (bad_msg "latency base must be >= 0"
       (latency (fun l -> { l with Recflow_net.Latency.base = -50 })));
  check "negative latency per_hop" true
    (bad_msg "latency per_hop must be >= 0"
       (latency (fun l -> { l with Recflow_net.Latency.per_hop = -1 })));
  (* a negative jitter was read as none, and [max_int] overflowed the draw
     bound on the first send *)
  check "negative latency jitter" true
    (bad_msg "latency jitter must be >= 0"
       (latency (fun l -> { l with Recflow_net.Latency.jitter = -1 })));
  check "max_int latency jitter" true
    (bad_msg "latency jitter must be below max_int (a draw is in [0, jitter])"
       (latency (fun l -> { l with Recflow_net.Latency.jitter = max_int })));
  check "nan backoff" true
    (bad_msg "retry backoff base must be >= 1" (fun c ->
         { c with Config.retry = { c.Config.retry with Config.backoff = Float.nan } }));
  check "nan shed fraction" true
    (bad_msg "service shed_suspect_frac must be in [0,1]" (fun c ->
         { c with
           Config.service = { c.Config.service with Config.shed_suspect_frac = Float.nan } }));
  check "adaptive max_depth zero" true
    (bad_msg "adaptive ckpt_mode max_depth must be >= 1 (the root's children must be covered)"
       (fun c -> { c with Config.ckpt_mode = Config.Adaptive { max_depth = 0 } }));
  check "adaptive + replicate" true
    (bad_msg
       "adaptive checkpoint admission cannot be combined with replication (lost replicas are \
        governed by the voter, not the checkpoint table)"
       (fun c ->
         { c with
           Config.ckpt_mode = Config.Adaptive { max_depth = 3 };
           recovery = Config.Replicate 2 }));
  check "valid adaptive config" true
    (Config.validate
       { (Config.default ~nodes:4) with
         Config.ckpt_mode = Config.Adaptive { max_depth = 3 };
         ckpt_cost = 2;
         loss_prior = 0.25;
         recovery = Config.Rollback }
    = Ok ());
  check "default valid" true (Config.validate (Config.default ~nodes:4) = Ok ())

(* rto·backoffⁿ overflows [int_of_float] long before a suspicion window
   ends; the delay must stay pinned at the rto·64 cap instead of wrapping
   to a one-tick retransmission storm. *)
let retry_delay_capped () =
  let rto = 150 in
  let delays backoff =
    List.map
      (Config.retry_delay { Config.rto; backoff; suspicion_after = 1500 })
      [ 1; 10; 56; 60; 1100 ]
  in
  List.iter
    (fun backoff ->
      let ds = delays backoff in
      List.iter (fun d -> check "within [1, rto*64]" true (d >= 1 && d <= rto * 64)) ds;
      check "never decreasing" true (ds = List.sort compare ds))
    [ 2.0; 1e300 ];
  Alcotest.(check (list int)) "default backoff" [ 300; rto * 64; rto * 64; rto * 64; rto * 64 ]
    (delays 2.0);
  check_int "first attempt unchanged" rto
    (Config.retry_delay { Config.rto; backoff = 2.0; suspicion_after = 1500 } 0)

let horizon_stops () =
  let cfg = { (Config.default ~nodes:2) with Config.horizon = 50 } in
  let _, o = run ~cfg Workload.fib Workload.Small in
  check "no answer within tiny horizon" true (o.Cluster.answer = None);
  check "stopped at/before horizon" true (o.Cluster.sim_time <= 50)

let dead_nodes_mark_tasks () =
  let cfg = { (Config.default ~nodes:4) with Config.recovery = Config.Rollback } in
  let c, _ = run ~cfg ~failures:[ (300, 1) ] Workload.fib Workload.Small in
  let n = Cluster.node c 1 in
  check "node dead" false (Node.is_alive n);
  check_int "no live tasks on a dead node" 0 (Node.live_tasks n)

let counters_consistency () =
  let c, _ = run Workload.fib Workload.Small in
  let g name = Counter.get (Cluster.counters c) name in
  (* the root packet is parented on the super-root, which takes no ack *)
  check "every packet acked (no failures)" true (g "msg.task_packet" = g "msg.ack" + 1);
  check "spawn count matches packets" true (g "spawn.remote" + 1 = g "msg.task_packet");
  check_int "no aborts fault-free" 0 (g "task.aborted")

let work_conservation () =
  (* distributed work should be close to the serial reduction count *)
  let c, o = run Workload.fib Workload.Small in
  ignore (answer_of o);
  let work = Cluster.total_work c in
  let serial = Workload.serial_work Workload.fib Workload.Small in
  check "work within 3x of serial reductions" true (work > serial / 3 && work < serial * 3);
  check_int "no waste fault-free" 0 (Cluster.total_waste c)

(* ---------------- timeline ---------------- *)

let timeline_render () =
  let cfg = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  let c, o = run ~cfg ~failures:[ (400, 2) ] Workload.tree_sum Workload.Small in
  ignore (answer_of o);
  let s = Recflow_machine.Timeline.render (Cluster.journal c) ~nodes:4 ~width:40 () in
  check "the failed node's row shows dead buckets" true
    (String.split_on_char '\n' s
    |> List.exists (fun l ->
           String.length l > 2 && l.[0] = 'P' && l.[1] = '2'
           &&
           let has_x = ref false in
           String.iter (fun ch -> if ch = 'X' then has_x := true) l;
           !has_x));
  check_int "one row per node + header + legend" (4 + 2)
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)))

let timeline_occupancy () =
  let cfg = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  let c, o = run ~cfg ~failures:[ (400, 2) ] Workload.tree_sum Workload.Small in
  let until = o.Cluster.sim_time in
  let grid = Recflow_machine.Timeline.occupancy (Cluster.journal c) ~nodes:4 ~buckets:50 ~until in
  check_int "rows" 4 (Array.length grid);
  check_int "cols" 50 (Array.length grid.(0));
  (* the failed node is marked dead from some bucket onward, and stays so *)
  let dead_from =
    Array.to_list grid.(2) |> List.mapi (fun i v -> (i, v))
    |> List.find_opt (fun (_, v) -> v < 0)
  in
  (match dead_from with
  | Some (i, _) ->
    check "dead forever after" true
      (Array.for_all (fun v -> v < 0)
         (Array.sub grid.(2) i (Array.length grid.(2) - i)))
  | None -> Alcotest.fail "failed node never marked dead");
  (* live nodes never show a dead marker *)
  check "survivors never dead" true
    (Array.for_all (fun v -> v >= 0) grid.(0)
    && Array.for_all (fun v -> v >= 0) grid.(1)
    && Array.for_all (fun v -> v >= 0) grid.(3))

(* ---------------- first_alive ---------------- *)

let first_alive_min_int () =
  (* Regression: [abs min_int] is still negative, so hashing with [abs]
     produced a negative index and [List.nth] raised.  [key land max_int]
     must work for every int, extremes included. *)
  let c = Cluster.create (Config.default ~nodes:8) (Workload.program Workload.fib) in
  List.iter
    (fun key ->
      match Cluster.first_alive c ~key with
      | Some p -> check (Printf.sprintf "key %d in range" key) true (p >= 0 && p < 8)
      | None -> Alcotest.fail (Printf.sprintf "key %d: no pick among 8 alive nodes" key))
    [ min_int; min_int + 1; -1; 0; 1; max_int ]

let first_alive_deterministic () =
  let c = Cluster.create (Config.default ~nodes:8) (Workload.program Workload.fib) in
  List.iter
    (fun key ->
      check "same key, same pick" true
        (Cluster.first_alive c ~key = Cluster.first_alive c ~key))
    [ min_int; 17; 123456789 ]

let timeline_empty () =
  let j = Journal.create () in
  check "placeholder" true (Recflow_machine.Timeline.render j ~nodes:2 () = "(empty journal)\n")

let occupancy_empty_journal () =
  let grid = Recflow_machine.Timeline.occupancy (Journal.create ()) ~nodes:3 ~buckets:10 ~until:100 in
  check_int "rows" 3 (Array.length grid);
  check_int "cols" 10 (Array.length grid.(0));
  check "all zero" true (Array.for_all (fun row -> Array.for_all (fun v -> v = 0) row) grid)

let occupancy_failure_in_bucket_zero () =
  let j = Journal.create () in
  Journal.record j ~time:0 ~stamp:Stamp.root (Journal.Failure { proc = 1 });
  Journal.record j ~time:50 ~stamp:(Stamp.of_digits [ 1 ]) (Journal.Activated { task = 7; proc = 0 });
  let grid = Recflow_machine.Timeline.occupancy j ~nodes:2 ~buckets:8 ~until:100 in
  check "failed node dead from bucket 0" true (Array.for_all (fun v -> v = -1) grid.(1));
  check "survivor unaffected" true (Array.for_all (fun v -> v >= 0) grid.(0));
  check_int "survivor occupied at activation bucket" 1 grid.(0).(4)

let occupancy_until_before_entries () =
  (* events beyond [until] clamp into the last bucket instead of indexing
     out of bounds *)
  let j = Journal.create () in
  Journal.record j ~time:100 ~stamp:(Stamp.of_digits [ 0 ]) (Journal.Activated { task = 1; proc = 0 });
  Journal.record j ~time:200 ~stamp:(Stamp.of_digits [ 1 ]) (Journal.Activated { task = 2; proc = 0 });
  let grid = Recflow_machine.Timeline.occupancy j ~nodes:1 ~buckets:4 ~until:10 in
  check_int "cols" 4 (Array.length grid.(0));
  check_int "both activations clamp to last bucket" 2 grid.(0).(3);
  check_int "earlier buckets empty" 0 grid.(0).(0)

(* The per-stamp index is built lazily and caught up on each query, so
   queries interleaved with records must answer exactly what a filter over
   [entries] does, in both retain modes: the same entries in the same
   order.  Entries are decoded from the journal's columns on each query,
   so they are compared field by field, not by physical identity. *)
let same_entry (a : Journal.entry) (b : Journal.entry) =
  a.time = b.time && Stamp.equal a.stamp b.stamp && a.event = b.event

type journal_op = Add of int * int list * int | Query of int list

let journal_index_matches_filter retain =
  let gen_op =
    QCheck.Gen.(
      list_size (int_bound 3) (int_bound 2) >>= fun ds ->
      frequency
        [
          ( 3,
            map2 (fun time kind -> Add (time, ds, kind)) (int_bound 1000) (int_bound 2) );
          (1, return (Query ds));
        ])
  in
  let event_of kind =
    match kind with
    | 0 -> Journal.Activated { task = 1; proc = 0 }
    | 1 -> Journal.Acked { task = 1; proc = 1 }
    | _ -> Journal.Completed { task = 1; proc = 0; work = 3 }
  in
  let activated = function Journal.Activated _ -> true | _ -> false in
  QCheck.Test.make ~count:200
    ~name:
      (Printf.sprintf "lazy stamp index = filter over entries (retain=%b)" retain)
    (QCheck.make QCheck.Gen.(list_size (int_bound 80) gen_op))
    (fun ops ->
      let j = Journal.create ~retain () in
      List.for_all
        (function
          | Add (time, ds, kind) ->
            Journal.record j ~time ~stamp:(Stamp.of_digits ds) (event_of kind);
            true
          | Query ds ->
            let stamp = Stamp.of_digits ds in
            let mine =
              List.filter (fun (e : Journal.entry) -> Stamp.equal e.stamp stamp) (Journal.entries j)
            in
            let times pred =
              List.filter_map
                (fun (e : Journal.entry) -> if pred e.event then Some e.time else None)
                mine
            in
            let first l = match l with [] -> None | x :: _ -> Some x in
            let last l = first (List.rev l) in
            List.equal same_entry (Journal.for_stamp j stamp) mine
            && List.map Stamp.digits (Journal.stamps j)
               = List.sort_uniq compare
                   (List.map (fun (e : Journal.entry) -> Stamp.digits e.stamp) (Journal.entries j))
            && Journal.first_time j stamp activated = first (times activated)
            && Journal.last_time j stamp activated = last (times activated))
        ops)

(* The journal keeps its retained entries in unboxed column chunks and
   decodes them on demand; this property holds every reader to a plain
   chronological list of what was recorded.  Sequences mix all fifteen
   event kinds with super-root procs, task ids anywhere in the int range,
   arbitrary reason strings and [note_call]s, and run long enough to cross
   several 512-entry chunks. *)
type column_op =
  | Record of int * int list * Journal.event
  | Note of int * string * int
  | Check_stamp of int list

let gen_column_op =
  let open QCheck.Gen in
  let task = oneof [ int_range (-1) 40; int ] in
  let proc = oneof [ return (-1); int_range 0 1023; int ] in
  let work = oneof [ int_bound 100; int ] in
  let reason =
    oneof [ oneofl [ "notice"; "orphan-result"; "local-regen" ]; string_size (int_bound 6) ]
  in
  let event =
    oneof
      [
        map3
          (fun task dest replica -> Journal.Spawned { task; dest; replica })
          task proc (int_bound 3);
        map2 (fun task proc -> Journal.Activated { task; proc }) task proc;
        map2 (fun task proc -> Journal.Acked { task; proc }) task proc;
        map3 (fun task proc work -> Journal.Completed { task; proc; work }) task proc work;
        map3
          (fun parent_task proc work -> Journal.Inlined { parent_task; proc; work })
          task proc work;
        map3 (fun task proc work -> Journal.Aborted { task; proc; work }) task proc work;
        map3 (fun task proc work -> Journal.Lost { task; proc; work }) task proc work;
        map3 (fun task dest reason -> Journal.Respawned { task; dest; reason }) task proc reason;
        map2 (fun orphan_task proc -> Journal.Inherited { orphan_task; proc }) task proc;
        map (fun task -> Journal.Result_accepted { task }) task;
        map (fun task -> Journal.Duplicate_ignored { task }) task;
        map (fun via -> Journal.Relayed { via }) proc;
        map2 (fun at reason -> Journal.Relay_dropped { at; reason }) proc reason;
        map (fun task -> Journal.Orphan_dropped { task }) task;
        map (fun proc -> Journal.Failure { proc }) proc;
      ]
  in
  let digits = list_size (int_bound 3) (oneof [ int_bound 2; return 300 ]) in
  frequency
    [
      ( 40,
        map3
          (fun time ds ev -> Record (time, ds, ev))
          (int_range (-1000) (1 lsl 40))
          digits event );
      ( 4,
        map3
          (fun task f arg -> Note (task, f, arg))
          (int_range (-1) 40) (oneofl [ "f"; "g" ]) (int_bound 2) );
      (1, map (fun ds -> Check_stamp ds) digits);
    ]

(* A call's fingerprint, read back through the public API. *)
let print_of (fname, arg) =
  let j = Journal.create () in
  Journal.note_call j ~task:0 fname [| Value.Int arg |];
  Journal.record j ~time:0 ~stamp:Stamp.root (Journal.Spawned { task = 0; dest = 0; replica = 0 });
  match Journal.named_calls j with [ (_, p) ] -> p | _ -> Alcotest.fail "print_of"

let journal_columns_match_model ~retain ~sink =
  QCheck.Test.make ~count:60
    ~name:(Printf.sprintf "columns = list model (retain=%b, sink=%b)" retain sink)
    (QCheck.make
       QCheck.Gen.(
         oneof [ int_bound 40; int_range 500 1700 ] >>= fun n -> list_repeat n gen_column_op))
    (fun ops ->
      let j = Journal.create ~retain () in
      let seen = ref [] in
      if sink then
        Journal.attach_sink j (Recflow_obs_core.Sink.of_fun (fun e -> seen := e :: !seen));
      (* model: every recorded entry newest first, and the noted calls *)
      let all = ref [] and calls = Hashtbl.create 16 in
      let model () = if retain then List.rev !all else [] in
      let noted (e : Journal.entry) =
        let task =
          match e.event with
          | Journal.Spawned { task; _ } | Journal.Respawned { task; _ } -> task
          | Journal.Inherited { orphan_task; _ } -> orphan_task
          | _ -> -1
        in
        if task >= 0 && Hashtbl.mem calls task then Some task else None
      in
      let same_list = List.equal same_entry in
      let check_stamp ds =
        let stamp = Stamp.of_digits ds in
        let mine = List.filter (fun (e : Journal.entry) -> Stamp.equal e.stamp stamp) (model ()) in
        let times pred =
          List.filter_map
            (fun (e : Journal.entry) -> if pred e.event then Some e.time else None)
            mine
        in
        let first l = match l with [] -> None | x :: _ -> Some x in
        let failed = function Journal.Failure _ | Journal.Lost _ -> true | _ -> false in
        same_list (Journal.for_stamp j stamp) mine
        && Journal.first_time j stamp failed = first (times failed)
        && Journal.last_time j stamp failed = first (List.rev (times failed))
      in
      let check_all () =
        let m = model () in
        let conflicts =
          (* newest first: the newest noted activation per stamp is the
             reference each older one is compared with *)
          let newest = ref [] and out = ref [] in
          List.iter
            (fun (e : Journal.entry) ->
              match noted e with
              | None -> ()
              | Some task -> (
                match List.find_opt (fun (s, _) -> Stamp.equal s e.stamp) !newest with
                | None -> newest := (e.stamp, task) :: !newest
                | Some (_, newer) ->
                  if Hashtbl.find calls task <> Hashtbl.find calls newer then
                    out := (e.stamp, task, newer) :: !out))
            (List.rev m);
          !out
        in
        let named =
          List.filter_map
            (fun (e : Journal.entry) ->
              Option.map (fun task -> (e.stamp, print_of (Hashtbl.find calls task))) (noted e))
            m
          |> List.sort_uniq (fun (a, p) (b, q) ->
                 match Stamp.compare a b with 0 -> Int.compare p q | c -> c)
        in
        let label (e : Journal.entry) = Journal.event_label e.event in
        let labels = List.sort_uniq compare (List.map label m) in
        same_list (Journal.entries j) m
        && Journal.length j = List.length !all
        && Journal.last_entry_time j = (match !all with e :: _ -> Some e.time | [] -> None)
        && List.map Stamp.digits (Journal.stamps j)
           = List.sort_uniq compare (List.map (fun (e : Journal.entry) -> Stamp.digits e.stamp) m)
        && Journal.failures j
           = List.filter_map
               (fun (e : Journal.entry) ->
                 match e.event with Journal.Failure { proc } -> Some (e.time, proc) | _ -> None)
               m
        && List.for_all
             (fun l ->
               Journal.count j (fun ev -> Journal.event_label ev = l)
               = List.length (List.filter (fun e -> label e = l) m))
             labels
        && List.equal
             (fun (s, p) (s', p') -> Stamp.equal s s' && p = p')
             (Journal.named_calls j) named
        && List.equal
             (fun (s, a, b) (s', a', b') -> Stamp.equal s s' && a = a' && b = b')
             (Journal.call_conflicts j) conflicts
        && List.for_all check_stamp
             (List.sort_uniq compare (List.map (fun (e : Journal.entry) -> Stamp.digits e.stamp) m))
        && ((not sink) || same_list (List.rev !seen) (List.rev !all))
      in
      List.for_all
        (function
          | Record (time, ds, event) ->
            let stamp = Stamp.of_digits ds in
            Journal.record j ~time ~stamp event;
            all := { Journal.time; stamp; event } :: !all;
            true
          | Note (task, fname, arg) ->
            Journal.note_call j ~task fname [| Value.Int arg |];
            if retain && task >= 0 then Hashtbl.replace calls task (fname, arg);
            true
          | Check_stamp ds -> check_stamp ds)
        ops
      && check_all ())

(* "At most one distinct root answer" cannot catch a consistently wrong
   answer; the expected value can.  A correct fib run under a failure
   passes with the right value and gets exactly one violation with a
   wrong one. *)
let oracle_takes_expected () =
  let cfg = { (Config.default ~nodes:8) with Config.recovery = Config.Splice } in
  let c, o = run ~cfg ~failures:[ (2000, 3) ] ~drain:true Workload.fib Workload.Small in
  let right = Workload.expected Workload.fib Workload.Small in
  Alcotest.check value "the run is correct" right (answer_of o);
  let viols expected = (Oracle.check ?expected c).Oracle.violations in
  Alcotest.(check (list string)) "no expected value: no violation" [] (viols None);
  Alcotest.(check (list string)) "right value: no violation" [] (viols (Some right));
  let wrong = match right with Value.Int n -> Value.Int (n + 1) | _ -> Alcotest.fail "fib is an int" in
  check_int "wrong value: one violation" 1 (List.length (viols (Some wrong)));
  check "assert_ok raises on the wrong value" true
    (match Oracle.assert_ok ~expected:wrong c with _ -> false | exception Failure _ -> true)

let suites =
  [
    ( "machine.fault_free",
      [
        Alcotest.test_case "all workloads x sizes" `Quick fault_free_matrix;
        Alcotest.test_case "all topologies" `Quick topologies_matrix;
        Alcotest.test_case "all policies" `Quick policies_matrix;
        Alcotest.test_case "single processor" `Quick single_processor;
        Alcotest.test_case "inline grain" `Quick inline_grain_preserves_answer;
        Alcotest.test_case "counters" `Quick counters_consistency;
        Alcotest.test_case "work conservation" `Quick work_conservation;
      ] );
    ( "machine.recovery",
      [
        Alcotest.test_case "all modes with failure" `Quick recovery_modes_with_failure;
        Alcotest.test_case "no recovery loses" `Quick no_recovery_loses_answer;
        Alcotest.test_case "root failure" `Quick root_failure_recovered;
        Alcotest.test_case "multiple failures" `Quick multiple_failures;
        Alcotest.test_case "simultaneous failures" `Quick simultaneous_failures;
        Alcotest.test_case "failure before start" `Quick failure_before_start;
        Alcotest.test_case "static with failure" `Quick static_policy_with_failure;
        Alcotest.test_case "distributed gradient" `Quick gradient_distributed_with_failure;
        Alcotest.test_case "adoption off" `Quick adoption_off_still_correct;
        Alcotest.test_case "ancestor depth 2" `Quick ancestor_depth_two;
        Alcotest.test_case "dead node state" `Quick dead_nodes_mark_tasks;
        qtest splice_property;
        qtest rollback_property;
      ] );
    ( "machine.invariants",
      [
        Alcotest.test_case "journal invariants" `Quick journal_invariants;
        Alcotest.test_case "determinism" `Quick determinism;
        Alcotest.test_case "seed sensitivity" `Quick seed_changes_schedule;
        Alcotest.test_case "program error" `Quick program_error_surfaces;
        Alcotest.test_case "start validation" `Quick start_validation;
        Alcotest.test_case "config validation" `Quick config_validation;
        Alcotest.test_case "retry delay capped" `Quick retry_delay_capped;
        Alcotest.test_case "horizon" `Quick horizon_stops;
        Alcotest.test_case "first_alive min_int" `Quick first_alive_min_int;
        Alcotest.test_case "first_alive deterministic" `Quick first_alive_deterministic;
        Alcotest.test_case "oracle takes the expected answer" `Quick oracle_takes_expected;
        qtest (journal_index_matches_filter true);
        qtest (journal_index_matches_filter false);
      ] );
    ( "machine.journal-columns",
      List.concat_map
        (fun retain ->
          List.map (fun sink -> qtest (journal_columns_match_model ~retain ~sink)) [ false; true ])
        [ true; false ] );
    ( "machine.timeline",
      [
        Alcotest.test_case "render" `Quick timeline_render;
        Alcotest.test_case "occupancy" `Quick timeline_occupancy;
        Alcotest.test_case "empty" `Quick timeline_empty;
        Alcotest.test_case "occupancy empty journal" `Quick occupancy_empty_journal;
        Alcotest.test_case "occupancy failure in bucket 0" `Quick occupancy_failure_in_bucket_zero;
        Alcotest.test_case "occupancy until before entries" `Quick occupancy_until_before_entries;
      ] );
  ]
