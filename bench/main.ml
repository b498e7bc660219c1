(* The observability A/B: the cost of the optional profiling layer.

   Whole runs are measured elsewhere: perfbench/ times, checks and sizes
   the end-to-end workloads, and `experiments` regenerates every table
   with its checks.  This harness keeps the one measurement perfbench
   does not make yet, a paired off/on comparison of the profiler on the
   Q2 kernel.  It takes no arguments:

     dune exec bench/main.exe *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Workload = Recflow_workload.Workload
module Profile = Recflow_obs_core.Profile

let synthetic = Workload.synthetic ~branching:2 ~depth:8 ~grain:60

let quant_cfg recovery =
  { (Config.default ~nodes:8) with Config.recovery; inline_depth = 8;
    policy = Recflow_balance.Policy.Random }

(* The Q2 kernel: one failure on processor 2 at time [t]. *)
let run_q2 recovery t =
  let c = Cluster.create (quant_cfg recovery) (Workload.program synthetic) in
  Recflow_fault.Plan.apply c [ (t, 2) ];
  Cluster.start c ~fname:synthetic.Workload.entry
    ~args:(synthetic.Workload.args Workload.Small);
  Cluster.run c

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

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
     pairs where a preemption spike hit one member.  Per-side minima are
     printed alongside for the raw picture. *)
  let reps = 64 in
  let kernel () =
    ignore (run_q2 Config.Splice 3000);
    ignore (run_q2 Config.Rollback 3000)
  in
  let timed () = snd (timed kernel) in
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
  let min_of a = Array.fold_left min a.(0) a in
  let off_med = median off in
  let off_min = min_of off and on_min = min_of on_ in
  let delta_med = median (Array.init reps (fun i -> on_.(i) -. off.(i))) in
  let overhead_pct = delta_med /. off_med *. 100.0 in
  Format.printf
    "  obs-off median %6.2f ms   paired-delta median %+.3f ms   overhead %+.1f%%   (mins %6.2f / %6.2f ms)@."
    (off_med *. 1e3) (delta_med *. 1e3) overhead_pct (off_min *. 1e3) (on_min *. 1e3)

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (no arguments: runs the observability A/B)";
    exit 2
  end;
  report_obs_overhead ()
