(* Bechamel benchmark harness.

   Two layers:
   1. micro-benchmarks of the hot data structures (level stamps, checkpoint
      tables, the event engine, RNG, the graph evaluator, the serial
      evaluator, the voter);
   2. one benchmark per reproduced figure/table (F1..Q8), each running a
      reduced instance of the corresponding experiment kernel — the
      wall-clock cost of regenerating that row of the paper.

   Plus hand-timed wall-clock sections (pool construction hoisted out of
   every timed window): the sequential-vs-parallel sweep with warm and
   cold rows, and the observability A/B.  Maintenance modes: --check-json
   (schema validation), --diff OLD NEW (per-row regression gate),
   --scaling-check (loose multicore speedup assert, skipped on single-core
   hosts).

   After the Bechamel run the harness regenerates every experiment table in
   quick mode, so the benchmark log doubles as a reproduction record. *)

open Bechamel

module Stamp = Recflow_recovery.Stamp
module Ckpt_table = Recflow_recovery.Ckpt_table
module Packet = Recflow_recovery.Packet
module Vote = Recflow_recovery.Vote
module Value = Recflow_lang.Value
module Graph = Recflow_lang.Graph
module Inst = Recflow_lang.Instance
module Engine = Recflow_sim.Engine
module Rng = Recflow_sim.Rng
module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Workload = Recflow_workload.Workload
module Json = Recflow_obs_core.Json
module Service = Recflow_service.Service
module Hdr = Recflow_stats.Hdr

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let deep_stamp =
  let rec go s n = if n = 0 then s else go (Stamp.child s (n mod 3)) (n - 1) in
  go Stamp.root 12

let bench_stamp_ancestor =
  Test.make ~name:"stamp.is_ancestor depth-12"
    (Staged.stage (fun () ->
         ignore (Stamp.is_ancestor deep_stamp (Stamp.child deep_stamp 1))))

let bench_stamp_hash =
  Test.make ~name:"stamp.hash depth-12" (Staged.stage (fun () -> ignore (Stamp.hash deep_stamp)))

let mk_packet stamp =
  Packet.make ~stamp ~fname:"f" ~args:[| Value.Int 1 |]
    ~parent:{ Packet.task = 1; proc = 0; slot = 0 }
    ~grandparent:None ~ancestors:[]

let bench_ckpt_record =
  Test.make ~name:"ckpt_table 32x record+discharge"
    (Staged.stage (fun () ->
         let t = Ckpt_table.create () in
         for i = 0 to 31 do
           let stamp = Stamp.child (Stamp.child Stamp.root (i mod 4)) i in
           ignore (Ckpt_table.record t ~dest:(i mod 8) (mk_packet stamp))
         done;
         for i = 0 to 31 do
           let stamp = Stamp.child (Stamp.child Stamp.root (i mod 4)) i in
           ignore (Ckpt_table.discharge t ~dest:(i mod 8) stamp)
         done))

let bench_engine =
  Test.make ~name:"engine 1k schedule+dispatch"
    (Staged.stage (fun () ->
         let e = Engine.create () in
         for i = 1 to 1000 do
           Engine.schedule e ~delay:(i mod 17) i
         done;
         Engine.run e (fun _ _ -> ())))

let bench_rng =
  Test.make ~name:"rng 1k bounded ints"
    (Staged.stage
       (let t = Rng.create 1 in
        fun () ->
          for _ = 1 to 1000 do
            ignore (Rng.int t 1024)
          done))

let fib_program =
  Recflow_lang.Parser.parse_program_exn
    "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)"

let fib_library = Graph.compile_program fib_program

let bench_serial_eval =
  Test.make ~name:"serial eval fib-15"
    (Staged.stage (fun () ->
         ignore (Recflow_lang.Eval_serial.eval fib_program "fib" [ Value.Int 15 ])))

let bench_graph_eval =
  Test.make ~name:"graph eval fib-12"
    (Staged.stage (fun () ->
         let rec run fname args =
           let inst = Inst.create (Graph.find_exn fib_library fname) args in
           let rec loop () =
             match Inst.step inst with
             | Inst.Work _ -> loop ()
             | Inst.Spawn { slot; fname; args } ->
               Inst.supply inst slot (run fname args);
               loop ()
             | Inst.Finished v -> v
             | Inst.Blocked | Inst.Failed _ -> assert false
           in
           loop ()
         in
         ignore (run "fib" [| Value.Int 12 |])))

let bench_vote =
  Test.make ~name:"vote 5-replica decision"
    (Staged.stage (fun () ->
         let v = Vote.create ~replicas:5 ~equal:Int.equal in
         ignore (Vote.add v 1);
         ignore (Vote.add v 1);
         ignore (Vote.add v 1)))

(* ------------------------------------------------------------------ *)
(* One kernel per reproduced figure/table                              *)
(* ------------------------------------------------------------------ *)

let run_cluster_full cfg w size failures =
  let c = Cluster.create cfg (Workload.program w) in
  Recflow_fault.Plan.apply c failures;
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args size);
  let o = Cluster.run c in
  (c, o)

let run_cluster cfg w size failures = snd (run_cluster_full cfg w size failures)

let bench_fig1 =
  Test.make ~name:"F1+F2 figure-1 structural scenario"
    (Staged.stage (fun () -> ignore (Recflow_experiments.Exp_fig1.run ~quick:true ())))

let bench_fig3 =
  Test.make ~name:"F3 splice run w/ twin inheritance"
    (Staged.stage (fun () ->
         let cfg =
           { (Config.default ~nodes:8) with Config.recovery = Config.Splice;
             policy = Recflow_balance.Policy.Random }
         in
         ignore (run_cluster cfg Workload.tree_sum Workload.Small [ (400, 3) ])))

let case_family =
  {
    Workload.name = "bench_case_family";
    description = "";
    source =
      "def root_case(cw, dw) = pp(cw, dw) + 1\n\
       def pp(cw, dw) = dd(dw) + cc(cw)\n\
       def cc(cw) = spin(cw, 0)\n\
       def dd(dw) = spin(dw, 0)\n\
       def spin(k, acc) = if k == 0 then acc else spin(k - 1, acc + 1)";
    entry = "root_case";
    args = (fun _ -> [ Value.Int 400; Value.Int 3000 ]);
  }

let bench_fig5 =
  Test.make ~name:"F5 one case-analysis schedule"
    (Staged.stage (fun () ->
         let cfg =
           { (Config.default ~nodes:4) with Config.recovery = Config.Splice;
             policy = Recflow_balance.Policy.Random; inline_depth = 3; adoption_grace = 0 }
         in
         ignore (run_cluster cfg case_family Workload.Small [ (120, 2) ])))

let residue_chain =
  {
    Workload.name = "bench_residue";
    description = "";
    source =
      "def gg(w) = pp(w) + 1\n\
       def pp(w) = let r = cc(w) in r + (r - r)\n\
       def cc(w) = spin(w, 0)\n\
       def spin(k, acc) = if k == 0 then acc else spin(k - 1, acc + 1)";
    entry = "gg";
    args = (fun _ -> [ Value.Int 800 ]);
  }

let bench_fig6 =
  Test.make ~name:"F6 one spawn-state failure"
    (Staged.stage (fun () ->
         let cfg =
           { (Config.default ~nodes:4) with Config.recovery = Config.Splice; inline_depth = 3;
             policy = Recflow_balance.Policy.Random }
         in
         ignore (run_cluster cfg residue_chain Workload.Small [ (200, 1) ])))

let synthetic = Workload.synthetic ~branching:2 ~depth:8 ~grain:60

let quant_cfg recovery =
  { (Config.default ~nodes:8) with Config.recovery; inline_depth = 8;
    policy = Recflow_balance.Policy.Random }

let bench_q1 =
  Test.make ~name:"Q1 fault-free synthetic (ckpt armed)"
    (Staged.stage (fun () ->
         ignore (run_cluster (quant_cfg Config.Rollback) synthetic Workload.Small [])))

let bench_q2_rollback =
  Test.make ~name:"Q2+Q3 rollback of one failure"
    (Staged.stage (fun () ->
         ignore (run_cluster (quant_cfg Config.Rollback) synthetic Workload.Small [ (3000, 2) ])))

let bench_q2_splice =
  Test.make ~name:"Q2+Q3 splice of one failure"
    (Staged.stage (fun () ->
         ignore (run_cluster (quant_cfg Config.Splice) synthetic Workload.Small [ (3000, 2) ])))

let bench_q4 =
  Test.make ~name:"Q4 synthetic on 16 processors"
    (Staged.stage (fun () ->
         let cfg =
           { (quant_cfg Config.Splice) with Config.topology = Recflow_net.Topology.Full 16 }
         in
         ignore (run_cluster cfg synthetic Workload.Small [])))

let bench_q5 =
  Test.make ~name:"Q5 double failure, depth-2 links"
    (Staged.stage (fun () ->
         let cfg = { (quant_cfg Config.Splice) with Config.ancestor_depth = 2 } in
         ignore (run_cluster cfg synthetic Workload.Small [ (2000, 1); (2000, 2) ])))

let bench_q6 =
  Test.make ~name:"Q6 replicate k=3 masking a failure"
    (Staged.stage (fun () ->
         let w = Workload.synthetic ~branching:4 ~depth:2 ~grain:150 in
         let cfg =
           { (Config.default ~nodes:6) with Config.recovery = Config.Replicate 3;
             replicate_depth = 3; inline_depth = 3;
             policy = Recflow_balance.Policy.Random }
         in
         ignore (run_cluster cfg w Workload.Medium [ (600, 4) ])))

let bench_q7 =
  Test.make ~name:"Q7 static placement w/ failure"
    (Staged.stage (fun () ->
         let cfg =
           { (quant_cfg Config.Rollback) with
             Config.policy = Recflow_balance.Policy.Static_hash }
         in
         ignore (run_cluster cfg synthetic Workload.Small [ (3000, 2) ])))

let bench_q8 =
  Test.make ~name:"Q8 keep-all table w/ failure"
    (Staged.stage (fun () ->
         let cfg =
           { (quant_cfg Config.Rollback) with
             Config.ckpt_mode = Config.Fixed Recflow_recovery.Ckpt_table.Keep_all }
         in
         ignore (run_cluster cfg synthetic Workload.Small [ (3000, 2) ])))

let service_cfg k =
  { (Config.default ~nodes:8) with
    Config.recovery = Config.Splice; seed = 17;
    service =
      { Config.arrival_mean = 250.0; replicas = k; max_inflight = 64;
        shed_suspect_frac = 0.9 } }

let run_service ~k ~requests =
  Service.run ~failures:[ (3000, 0); (6000, 2) ] ~config:(service_cfg k)
    ~workload:Workload.fib ~size:Workload.Tiny ~requests ()

let bench_x6 =
  Test.make ~name:"X6 40-request stream, k=3, two kills"
    (Staged.stage (fun () -> ignore (run_service ~k:3 ~requests:40)))

let bench_x7 =
  Test.make ~name:"X7 adaptive admission (depth 3) w/ failure"
    (Staged.stage (fun () ->
         let cfg =
           { (quant_cfg Config.Rollback) with
             Config.ckpt_mode = Config.Adaptive { max_depth = 3 }; ckpt_cost = 8 }
         in
         ignore (run_cluster cfg synthetic Workload.Small [ (3000, 2) ])))

let bench_cost_pass =
  (* the static cost/depth analyzer itself: the full check pipeline over
     every named workload, the price `--policy auto` pays before a run *)
  Test.make ~name:"RF3xx cost pass over all workloads"
    (Staged.stage (fun () ->
         List.iter
           (fun (w : Workload.t) ->
             ignore
               (Recflow_analysis.Check.check_source ~entries:[ w.Workload.entry ]
                  w.Workload.source))
           Workload.all))

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel sweep wall-clock                             *)
(* ------------------------------------------------------------------ *)

module Pool = Recflow_parallel.Pool

(* A Q2-style sweep over the synthetic workload: one failure injected at a
   range of times under both recovery schemes — 16 independent simulations,
   the shape the experiments driver fans out under --jobs. *)
let sweep_points =
  List.concat_map
    (fun recovery -> List.init 8 (fun i -> (recovery, 1000 + (500 * i))))
    [ Config.Rollback; Config.Splice ]

let sweep_once pool =
  Pool.map pool
    (fun (recovery, t) ->
      let o = run_cluster (quant_cfg recovery) synthetic Workload.Small [ (t, 2) ] in
      (o.Cluster.sim_time, o.Cluster.events, o.Cluster.answer))
    sweep_points

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Warm measurement: the pool is constructed, its workers spawned and a
   full warmup sweep run *before* the timed window, which then takes the
   best of three repetitions.  The previous harness timed [Pool.create]
   and [shutdown] inside the window, so the "parallel sweep" rows of
   BENCH_5/BENCH_6 charged domain spawn + teardown (milliseconds) to a
   sub-second sweep and reported slowdowns that were mostly measurement. *)
let time_sweep_warm ~jobs =
  let pool = Pool.create ~jobs () in
  let outcomes = sweep_once pool in
  let best = ref infinity in
  for _ = 1 to 3 do
    let _, dt = timed (fun () -> sweep_once pool) in
    if dt < !best then best := dt
  done;
  Pool.shutdown pool;
  (outcomes, !best)

(* Cold measurement: spawn + sweep + join, all inside the window — the
   quantity the old harness accidentally measured, kept as an honest row
   of its own so the spawn overhead stays visible. *)
let time_sweep_cold ~jobs =
  snd
    (timed (fun () ->
         let pool = Pool.create ~jobs () in
         ignore (sweep_once pool);
         Pool.shutdown pool))

let report_sweep_scaling () =
  Format.printf "@.--- sequential vs parallel synthetic sweep (%d simulations) ---@."
    (List.length sweep_points);
  let recommended = Domain.recommended_domain_count () in
  let seq_outcomes, seq_t = time_sweep_warm ~jobs:1 in
  Format.printf "  jobs=1  warm %6.3f s@." seq_t;
  let two_outcomes, two_t = time_sweep_warm ~jobs:2 in
  Format.printf "  jobs=2  warm %6.3f s   speedup %.2fx@." two_t (seq_t /. two_t);
  let cold2_t = time_sweep_cold ~jobs:2 in
  Format.printf "  jobs=2  cold %6.3f s   (pool spawn+join inside the window)@." cold2_t;
  let rec_jobs = max 2 recommended in
  let rec_outcomes, rec_t =
    if rec_jobs = 2 then (two_outcomes, two_t) else time_sweep_warm ~jobs:rec_jobs
  in
  Format.printf "  jobs=%-2d warm %6.3f s   speedup %.2fx   results %s@." rec_jobs rec_t
    (seq_t /. rec_t)
    (if seq_outcomes = two_outcomes && seq_outcomes = rec_outcomes then "identical" else "DIFFER");
  if seq_outcomes <> two_outcomes || seq_outcomes <> rec_outcomes then
    failwith "parallel sweep diverged from sequential";
  let row name jobs ~warm wall =
    Json.Obj
      [
        ("name", Json.Str name);
        ("jobs", Json.Int jobs);
        ("warm", Json.Bool warm);
        ("wall_s", Json.Float wall);
        ("speedup_vs_jobs1_warm", Json.Float (seq_t /. wall));
      ]
  in
  Json.Obj
    [
      ("simulations", Json.Int (List.length sweep_points));
      ("recommended_domain_count", Json.Int recommended);
      ( "rows",
        Json.List
          ([
             row "jobs1_warm" 1 ~warm:true seq_t;
             row "jobs2_warm" 2 ~warm:true two_t;
             row "jobs2_cold" 2 ~warm:false cold2_t;
           ]
          @
          (* rec_jobs = 2 would duplicate the jobs2_warm row (and its name,
             which the --diff grouping keys on), so only emit it wider. *)
          if rec_jobs > 2 then
            [ row (Printf.sprintf "jobs%d_warm" rec_jobs) rec_jobs ~warm:true rec_t ]
          else []) );
      ("results_identical", Json.Bool true);
    ]

(* The loose scaling gate (tools/bench_diff.sh runs it next to the diff):
   a warm 2-domain sweep must actually beat the warm sequential one.  On a
   single-core host there is no parallelism to measure — two domains
   timeshare one core and the gate would only measure scheduler overhead —
   so it skips rather than asserts. *)
let scaling_check () =
  if Domain.recommended_domain_count () < 2 then begin
    Format.printf "scaling check: single-core host (recommended_domain_count=1), skipping@.";
    exit 0
  end;
  let _, seq_t = time_sweep_warm ~jobs:1 in
  let _, par_t = time_sweep_warm ~jobs:2 in
  let speedup = seq_t /. par_t in
  Format.printf "scaling check: jobs=1 warm %.3fs  jobs=2 warm %.3fs  speedup %.2fx@." seq_t par_t
    speedup;
  if speedup > 1.0 then exit 0
  else begin
    Format.eprintf "scaling check FAILED: warm jobs=2 sweep is not faster than jobs=1@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Observability overhead A/B                                          *)
(* ------------------------------------------------------------------ *)

module Profile = Recflow_obs_core.Profile

(* Wall-clock the Q2-scale splice kernel with the profiling layer off vs
   on: same simulations, the only difference is whether the scoped timers
   in the engine/checkpoint/recovery paths are live.  The counters and
   latency histograms are unconditionally on in both runs — they are part
   of the product — so this isolates the *optional* obs cost. *)
let report_obs_overhead () =
  Format.printf "@.--- observability overhead (Q2-scale splice kernel) ---@.";
  (* The kernel is only a few milliseconds, so two back-to-back batches
     would measure scheduler noise as readily as profiling cost.
     Interleave off/on repetitions so every on rep has the off rep run
     immediately before it as its control, and take the *median of the
     paired deltas* (on_i - off_i): pairing cancels slow machine drift
     (both members see the same conditions) and the median discards the
     pairs where a preemption spike hit one member.  Per-side minima and
     medians are recorded alongside for the raw picture. *)
  let reps = 64 in
  let kernel () =
    ignore (run_cluster (quant_cfg Config.Splice) synthetic Workload.Small [ (3000, 2) ]);
    ignore (run_cluster (quant_cfg Config.Rollback) synthetic Workload.Small [ (3000, 2) ])
  in
  let timed () =
    let t0 = Unix.gettimeofday () in
    kernel ();
    Unix.gettimeofday () -. t0
  in
  let off = Array.make reps 0.0 and on_ = Array.make reps 0.0 in
  (* warmup both paths *)
  Profile.set_enabled false;
  kernel ();
  Profile.set_enabled true;
  Profile.reset ();
  kernel ();
  for i = 0 to reps - 1 do
    Profile.set_enabled false;
    off.(i) <- timed ();
    Profile.set_enabled true;
    on_.(i) <- timed ()
  done;
  Profile.set_enabled false;
  let median a =
    let s = Array.copy a in
    Array.sort compare s;
    if reps mod 2 = 1 then s.(reps / 2) else (s.((reps / 2) - 1) +. s.(reps / 2)) /. 2.0
  in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  let min_of a = Array.fold_left min a.(0) a in
  let off_med = median off and on_med = median on_ in
  let off_min = min_of off and on_min = min_of on_ in
  let delta_med = median (Array.init reps (fun i -> on_.(i) -. off.(i))) in
  let overhead_pct = delta_med /. off_med *. 100.0 in
  Format.printf
    "  obs-off median %6.2f ms   paired-delta median %+.3f ms   overhead %+.1f%%   (mins %6.2f / %6.2f ms)@."
    (off_med *. 1e3) (delta_med *. 1e3) overhead_pct (off_min *. 1e3) (on_min *. 1e3);
  Json.Obj
    [
      ("kernel", Json.Str "Q2 splice+rollback, synthetic small, 1 failure");
      ("repetitions", Json.Int (2 * reps));
      ("interleaved", Json.Bool true);
      ("paired_delta_median_s", Json.Float delta_med);
      ("obs_off_min_s", Json.Float off_min);
      ("obs_on_min_s", Json.Float on_min);
      ("obs_off_median_s", Json.Float off_med);
      ("obs_on_median_s", Json.Float on_med);
      ("obs_off_wall_s", Json.Float (sum off));
      ("obs_on_wall_s", Json.Float (sum on_));
      ("overhead_pct", Json.Float overhead_pct);
    ]

(* Latency percentile block from one representative failure run, so the
   bench artefact carries the same percentile vocabulary as the metrics
   documents. *)
let report_latency_percentiles () =
  let c, _ = run_cluster_full (quant_cfg Config.Splice) synthetic Workload.Small [ (3000, 2) ] in
  Json.Obj
    (List.map
       (fun (name, h) -> (name, Recflow_obs.Metrics.hdr_json h))
       (Cluster.latency_hists c))

(* Service-mode wall-clock + quality row: one 80-request stream per
   replication degree through the same two-kill plan, reporting goodput
   and tail latency alongside the wall time.  These are the user-facing
   numbers of PR 8's service layer, so the bench artefact records them
   next to the per-figure kernels. *)
let report_service () =
  Format.printf "@.--- service mode (80-request stream, two kills, k=1 vs k=3) ---@.";
  let row k =
    let requests = 80 in
    ignore (run_service ~k ~requests);
    let o, wall = timed (fun () -> run_service ~k ~requests) in
    if not o.Service.all_correct then failwith "service bench stream returned a wrong answer";
    let h = Cluster.latency o.Service.cluster "service.latency" in
    let q p = if Hdr.count h = 0 then 0 else Hdr.quantile h p in
    let c = o.Service.counts in
    Format.printf
      "  k=%d  wall %6.1f ms   completed %2d  masked %2d  recovered %2d  shed %2d   p50 %5d  p99 %5d   goodput %.2f/kt@."
      k (wall *. 1e3) c.Service.completed c.Service.masked c.Service.recovered
      (Service.shed c) (q 50.0) (q 99.0) o.Service.goodput;
    Json.Obj
      [
        ("name", Json.Str (Printf.sprintf "service_k%d" k));
        ("replicas", Json.Int k);
        ("requests", Json.Int requests);
        ("wall_s", Json.Float wall);
        ("completed", Json.Int c.Service.completed);
        ("masked", Json.Int c.Service.masked);
        ("recovered", Json.Int c.Service.recovered);
        ("shed", Json.Int (Service.shed c));
        ("p50", Json.Int (q 50.0));
        ("p99", Json.Int (q 99.0));
        ("p999", Json.Int (q 99.9));
        ("goodput", Json.Float o.Service.goodput);
        ("all_correct", Json.Bool o.Service.all_correct);
      ]
  in
  Json.Obj [ ("rows", Json.List [ row 1; row 3 ]) ]

(* ------------------------------------------------------------------ *)
(* X8 scale kernels and the memory probe                               *)
(* ------------------------------------------------------------------ *)

(* Wrap a run with a Gc probe: peak heap words (sampled at every major
   slice — an upper bound on peak live words that avoids per-sample heap
   walks) and total allocated words.  Memory regressions — a reverted
   arena, a journal that retains again — show up here even when wall
   time hides them. *)
let mem_probe f =
  Gc.compact ();
  let peak = ref (Gc.quick_stat ()).Gc.heap_words in
  let alarm =
    Gc.create_alarm (fun () ->
        let h = (Gc.quick_stat ()).Gc.heap_words in
        if h > !peak then peak := h)
  in
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  let allocated_words = int_of_float ((Gc.allocated_bytes () -. a0) /. 8.0) in
  Gc.delete_alarm alarm;
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !peak then peak := h;
  (r, !peak, allocated_words)

(* The X8 grid at full size, hand-timed: Bechamel would re-run the
   million-task row for its whole quota.  Fault-free, static placement,
   the scale machinery on (arena + batched delivery + non-retaining
   journal).  The row value entering the --diff gate is ns per engine
   event, which stays comparable if the grid ever grows. *)
let xscale_grid = [ (64, 14); (256, 17); (1024, 20) ]

let report_xscale () =
  Format.printf
    "@.--- X8 scale kernels (arena + batched delivery, hand-timed, full size) ---@.";
  let rows =
    List.map
      (fun (procs, depth) ->
        let grain = 20 in
        let w = Workload.synthetic ~branching:2 ~depth ~grain in
        let cfg =
          {
            (Config.default ~nodes:procs) with
            Config.policy = Recflow_balance.Policy.Static_hash;
            inline_depth = depth;
            batched_delivery = true;
            journal_retain = false;
          }
        in
        let ((c, o), wall), peak_heap_words, allocated_words =
          mem_probe (fun () -> timed (fun () -> run_cluster_full cfg w Workload.Medium []))
        in
        (* 2^depth leaves of [grain] each — checked in closed form; the
           serial evaluator has no fuel for the million-call tree. *)
        if o.Cluster.answer <> Some (Value.Int (grain * (1 lsl depth))) then
          failwith "xscale row returned a wrong answer";
        let tasks =
          1 + Recflow_stats.Counter.get (Cluster.counters c) "spawn.remote"
        in
        let ev_s = float_of_int o.Cluster.events /. wall in
        Format.printf
          "  p=%-5d d=%-2d tasks %8d  wall %6.2f s  events %9d  (%.0f ev/s)  peak heap %5.1f Mw@."
          procs depth tasks wall o.Cluster.events ev_s
          (float_of_int peak_heap_words /. 1e6);
        let name = Printf.sprintf "xscale/p%d_d%d" procs depth in
        let group_row = (name, Some (1e9 *. wall /. float_of_int o.Cluster.events)) in
        let detail =
          Json.Obj
            [
              ("name", Json.Str name);
              ("processors", Json.Int procs);
              ("depth", Json.Int depth);
              ("tasks", Json.Int tasks);
              ("events", Json.Int o.Cluster.events);
              ("makespan", Json.Int o.Cluster.sim_time);
              ("wall_s", Json.Float wall);
              ("events_per_s", Json.Float ev_s);
              ("peak_heap_words", Json.Int peak_heap_words);
              ("allocated_words", Json.Int allocated_words);
            ]
        in
        (group_row, detail))
      xscale_grid
  in
  (List.map fst rows, Json.Obj [ ("rows", Json.List (List.map snd rows)) ])

(* The standing memory row: the Q2 splice kernel under the probe, so the
   bench artefact tracks the footprint of the *default* (retaining,
   unbatched) configuration too, not just the scale path. *)
let report_mem () =
  let (_, _), peak_heap_words, allocated_words =
    mem_probe (fun () ->
        timed (fun () -> run_cluster (quant_cfg Config.Splice) synthetic Workload.Small [ (3000, 2) ]))
  in
  Format.printf "@.--- memory probe (Q2 splice kernel) ---@.";
  Format.printf "  peak heap %.1f Mw   allocated %.1f Mw@."
    (float_of_int peak_heap_words /. 1e6)
    (float_of_int allocated_words /. 1e6);
  Json.Obj
    [
      ("kernel", Json.Str "Q2 splice, synthetic small, 1 failure");
      ("peak_heap_words", Json.Int peak_heap_words);
      ("allocated_words", Json.Int allocated_words);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let bench_schema = "recflow.bench/1"

let run_group ~quota name tests =
  let grouped = Test.make_grouped ~name (List.map (fun t -> t) tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.map (fun (name, ols) ->
         let est =
           match Analyze.OLS.estimates ols with Some [ est ] -> Some est | _ -> None
         in
         (match est with
         | Some est -> Format.printf "  %-45s %14.1f ns/run@." name est
         | None -> Format.printf "  %-45s (no estimate)@." name);
         (name, est))

(* The gated micro rows include sub-100ns structures (stamp ops, the
   voter) that sit at the measurement noise floor of a virtualised host:
   a single OLS estimate of an *identical* binary can swing ±30–90%
   between recordings, which is exactly the phantom regression the diff
   gate exists to reject.  Interference (steal time, timer jitter, GC
   pacing) only ever adds time, so the per-row minimum across several
   independent estimates is the statistic closest to the code's true
   cost — record that. *)
let run_group_min ~quota ~trials name tests =
  let runs =
    List.init trials (fun i ->
        Format.printf "  [trial %d/%d]@." (i + 1) trials;
        run_group ~quota name tests)
  in
  match runs with
  | [] -> []
  | first :: rest ->
    Format.printf "  [min of %d trials]@." trials;
    List.map
      (fun (name, est) ->
        let best =
          List.fold_left
            (fun acc trial ->
              match List.assoc_opt name trial with
              | Some (Some e) -> (
                match acc with Some a -> Some (min a e) | None -> Some e)
              | _ -> acc)
            est rest
        in
        (match best with
        | Some e -> Format.printf "  %-45s %14.1f ns/run@." name e
        | None -> Format.printf "  %-45s (no estimate)@." name);
        (name, best))
      first

let json_of_rows rows =
  Json.List
    (List.map
       (fun (name, est) ->
         Json.Obj
           [
             ("name", Json.Str name);
             ("ns_per_run", match est with Some e -> Json.Float e | None -> Json.Null);
           ])
       rows)

(* Validate an emitted BENCH_<n>.json with the in-tree strict parser: the
   file must parse, carry the schema marker and at least one group with at
   least one named row.  [tools/bench_smoke.sh] drives this via the
   [@bench-smoke] alias. *)
let check_json path =
  let contents =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  match Json.parse contents with
  | Error e ->
    Format.eprintf "%s: JSON parse error: %s@." path e;
    exit 1
  | Ok doc ->
    let fail msg =
      Format.eprintf "%s: %s@." path msg;
      exit 1
    in
    (match Json.member "schema" doc with
    | Some (Json.Str s) when s = bench_schema -> ()
    | _ -> fail (Printf.sprintf "missing schema marker %S" bench_schema));
    (match Json.member "groups" doc with
    | Some (Json.List (_ :: _ as groups)) ->
      List.iter
        (fun g ->
          match Json.member "rows" g with
          | Some (Json.List (_ :: _ as rows)) ->
            List.iter
              (fun r ->
                match Json.member "name" r with
                | Some (Json.Str _) -> ()
                | _ -> fail "row without a name")
              rows
          | _ -> fail "group without rows")
        groups
    | _ -> fail "missing groups");
    Format.printf "%s: valid %s document@." path bench_schema

(* ------------------------------------------------------------------ *)
(* Cross-PR diff                                                       *)
(* ------------------------------------------------------------------ *)

let load_doc path =
  if not (Sys.file_exists path) then begin
    Format.eprintf "%s: no such file@." path;
    exit 1
  end;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Ok doc -> doc
  | Error e ->
    Format.eprintf "%s: JSON parse error: %s@." path e;
    exit 1

let group_rows doc gname =
  match Json.member "groups" doc with
  | Some (Json.List groups) ->
    List.find_map
      (fun g ->
        match (Json.member "name" g, Json.member "rows" g) with
        | Some (Json.Str n), Some (Json.List rows) when String.equal n gname ->
          Some
            (List.filter_map
               (fun r ->
                 match (Json.member "name" r, Json.member "ns_per_run" r) with
                 | Some (Json.Str name), Some (Json.Float ns) -> Some (name, ns)
                 | Some (Json.Str name), Some (Json.Int ns) -> Some (name, float_of_int ns)
                 | _ -> None)
               rows)
        | _ -> None)
      groups
  | _ -> None

(* Per-row wall-clock delta between two emitted bench documents.  Only the
   [micro] group gates (exit 1 past [threshold] percent): the experiment
   kernels run whole simulations whose event counts legitimately change
   when an experiment grows, but the micro rows measure fixed data
   structures — a 20% swing there is a real regression (or a real win).

   The gate is *host-speed normalized*: trajectory points are recorded in
   different sessions, and the same binary re-measured on the same
   container has been observed ±30% across days (frequency scaling,
   noisy neighbours).  Such a shift moves every micro row by the same
   factor, while a real regression moves one structure against its
   peers — so each row's new/old ratio is divided by the *median* ratio
   of the group before the threshold applies.  Raw percentages are still
   printed; the NORM column is what gates. *)
let diff_json ~threshold old_path new_path =
  let old_doc = load_doc old_path and new_doc = load_doc new_path in
  let regressions = ref [] in
  let diff_group ~gate gname =
    match (group_rows old_doc gname, group_rows new_doc gname) with
    | None, _ | _, None -> Format.printf "group %-12s absent on one side, skipped@." gname
    | Some old_rows, Some new_rows ->
      let median_ratio =
        let ratios =
          List.filter_map
            (fun (name, nv) ->
              match List.assoc_opt name old_rows with
              | Some ov when ov > 0.0 -> Some (nv /. ov)
              | _ -> None)
            new_rows
          |> List.sort compare |> Array.of_list
        in
        let n = Array.length ratios in
        if n < 3 then 1.0
        else if n mod 2 = 1 then ratios.(n / 2)
        else (ratios.((n / 2) - 1) +. ratios.(n / 2)) /. 2.0
      in
      Format.printf "--- %s (%s -> %s)%s ---@." gname old_path new_path
        (if gate then
           Printf.sprintf "  [gate: +%.0f%% over the median host shift x%.2f]" threshold
             median_ratio
         else "  [informational]");
      List.iter
        (fun (name, nv) ->
          match List.assoc_opt name old_rows with
          | None -> Format.printf "  %-45s %14.1f ns/run   (new row)@." name nv
          | Some ov ->
            let pct = (nv -. ov) /. ov *. 100.0 in
            let norm = ((nv /. ov /. median_ratio) -. 1.0) *. 100.0 in
            let mark = if gate && norm > threshold then "  REGRESSION" else "" in
            if gate && norm > threshold then regressions := (gname, name, norm) :: !regressions;
            Format.printf "  %-45s %14.1f -> %12.1f ns/run  %+7.1f%%  (norm %+6.1f%%)%s@." name
              ov nv pct norm mark)
        new_rows;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name new_rows) then
            Format.printf "  %-45s (row disappeared)@." name)
        old_rows
  in
  diff_group ~gate:true "micro";
  diff_group ~gate:false "experiments";
  (* ns-per-event of the full-size X8 rows: host-normalized like micro,
     but informational until two trajectory points carry the group. *)
  diff_group ~gate:false "xscale";
  match !regressions with
  | [] ->
    Format.printf "@.no micro row regressed past +%.0f%% (host-normalized)@." threshold;
    exit 0
  | rs ->
    Format.eprintf "@.%d micro row(s) regressed past +%.0f%% (host-normalized):@."
      (List.length rs) threshold;
    (* row names already carry the group prefix ("micro/...") *)
    List.iter (fun (_, n, pct) -> Format.eprintf "  %s %+.1f%%@." n pct) rs;
    exit 1

let () =
  let json_path = ref "BENCH_10.json" in
  let quota = ref 0.25 in
  let micro_only = ref false in
  let obs_only = ref false in
  let check = ref None in
  let diff_old = ref "" in
  let diff_new = ref None in
  let diff_threshold = ref 20.0 in
  let scaling = ref false in
  let speclist =
    [
      ("--json", Arg.Set_string json_path, "FILE  write the machine-readable results (default BENCH_10.json)");
      ("--quota", Arg.Set_float quota, "SEC  per-benchmark sampling quota in seconds (default 0.25)");
      ("--micro-only", Arg.Set micro_only, "  run only the data-structure micro group (smoke mode)");
      ("--obs-only", Arg.Set obs_only, "  run only the observability-overhead A/B row and exit");
      ("--check-json", Arg.String (fun f -> check := Some f), "FILE  validate an emitted results file and exit");
      ( "--diff",
        Arg.Tuple [ Arg.Set_string diff_old; Arg.String (fun f -> diff_new := Some f) ],
        "OLD NEW  per-row delta of two results files; exit 1 on a micro regression" );
      ( "--diff-threshold",
        Arg.Set_float diff_threshold,
        "PCT  micro regression gate for --diff in percent (default 20)" );
      ("--scaling-check", Arg.Set scaling, "  assert warm jobs=2 sweep speedup > 1.0 (skips on single-core hosts)");
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "recflow benchmark harness";
  match !check with
  | Some path -> check_json path
  | None when !diff_new <> None ->
    diff_json ~threshold:!diff_threshold !diff_old (Option.get !diff_new)
  | None when !scaling -> scaling_check ()
  | None when !obs_only ->
    ignore (report_obs_overhead ());
    exit 0
  | None ->
    Format.printf "=== recflow benchmarks (Bechamel, monotonic clock) ===@.@.";
    Format.printf "--- data-structure micro-benchmarks ---@.";
    let micro_rows =
      run_group_min ~quota:!quota ~trials:3 "micro"
        [ bench_stamp_ancestor; bench_stamp_hash; bench_ckpt_record; bench_engine; bench_rng;
          bench_serial_eval; bench_graph_eval; bench_vote ]
    in
    let groups = ref [ ("micro", micro_rows) ] in
    let sweep = ref Json.Null in
    let obs_overhead = ref Json.Null in
    let latency = ref Json.Null in
    let service = ref Json.Null in
    let xscale = ref Json.Null in
    let mem = ref Json.Null in
    if not !micro_only then begin
      Format.printf "@.--- experiment kernels (one per reproduced figure/table) ---@.";
      let kernel_rows =
        run_group ~quota:!quota "experiments"
          [ bench_fig1; bench_fig3; bench_fig5; bench_fig6; bench_q1; bench_q2_rollback;
            bench_q2_splice; bench_q4; bench_q5; bench_q6; bench_q7; bench_q8; bench_x6;
            bench_x7; bench_cost_pass ]
      in
      groups := !groups @ [ ("experiments", kernel_rows) ];
      obs_overhead := report_obs_overhead ();
      latency := report_latency_percentiles ();
      service := report_service ();
      sweep := report_sweep_scaling ();
      mem := report_mem ();
      let xscale_rows, xscale_detail = report_xscale () in
      groups := !groups @ [ ("xscale", xscale_rows) ];
      xscale := xscale_detail
    end;
    let doc =
      Json.Obj
        [
          ("schema", Json.Str bench_schema);
          ("pr", Json.Int 10);
          ("quota_s", Json.Float !quota);
          ( "groups",
            Json.List
              (List.map
                 (fun (name, rows) ->
                   Json.Obj [ ("name", Json.Str name); ("rows", json_of_rows rows) ])
                 !groups) );
          ("obs_overhead", !obs_overhead);
          ("latency_percentiles", !latency);
          ("service", !service);
          ("sweep", !sweep);
          ("mem", !mem);
          ("xscale", !xscale);
        ]
    in
    Json.write_file ~path:!json_path doc;
    Format.printf "@.wrote %s@." !json_path;
    if !micro_only then exit 0;
    (* Regenerate the actual tables so the benchmark log carries the rows
       the paper reports. *)
    Format.printf "@.=== reproduced tables (quick mode) ===@.";
    let failed = ref 0 in
    List.iter
      (fun (e : Recflow_experiments.Registry.entry) ->
        let r = e.Recflow_experiments.Registry.run ~quick:true () in
        Format.printf "%a" Recflow_experiments.Report.pp r;
        if not (Recflow_experiments.Report.all_checks_pass r) then incr failed)
      Recflow_experiments.Registry.all;
    Format.printf "@.experiments with failing checks: %d@." !failed;
    exit (if !failed = 0 then 0 else 1)
