(* Bechamel micro-benchmark harness.

   Whole runs are measured elsewhere: perfbench/ times, checks and sizes
   the end-to-end workloads, and `experiments` regenerates every table
   with its checks.  This harness keeps only what those cannot measure:

   1. micro-benchmarks of the hot data structures (level stamps,
      checkpoint tables, the event engine, RNG, the graph evaluator, the
      serial evaluator, the voter), written as one (name, thunk) list;
   2. the sequential-vs-parallel sweep with warm and cold rows (pool
      construction hoisted out of every timed window), and --scaling-check
      (loose multicore speedup assert, skipped on single-core hosts);
   3. the observability A/B (--obs-only).

   Maintenance modes: --check-json (schema validation) and --diff OLD NEW
   (per-row regression gate on the micro group). *)

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

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let deep_stamp =
  let rec go s n = if n = 0 then s else go (Stamp.child s (n mod 3)) (n - 1) in
  go Stamp.root 12

let mk_packet stamp =
  Packet.make ~stamp ~fname:"f" ~args:[| Value.Int 1 |]
    ~parent:{ Packet.task = 1; proc = 0; slot = 0 }
    ~grandparent:None ~ancestors:[]

let fib_program =
  Recflow_lang.Parser.parse_program_exn
    "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)"

let fib_library = Graph.compile_program fib_program

let rec graph_run fname args =
  let inst = Inst.create (Graph.find_exn fib_library fname) args in
  let rec loop () =
    match Inst.step inst with
    | Inst.Work _ -> loop ()
    | Inst.Spawn { slot; fname; args } ->
      Inst.supply inst slot (graph_run fname args);
      loop ()
    | Inst.Finished v -> v
    | Inst.Blocked | Inst.Failed _ -> assert false
  in
  loop ()

(* Row names are the keys --diff matches across results files. *)
let micro : (string * (unit -> unit)) list =
  [
    ( "stamp.is_ancestor depth-12",
      fun () -> ignore (Stamp.is_ancestor deep_stamp (Stamp.child deep_stamp 1)) );
    ("stamp.hash depth-12", fun () -> ignore (Stamp.hash deep_stamp));
    ( "ckpt_table 32x record+discharge",
      fun () ->
        let t = Ckpt_table.create () in
        for i = 0 to 31 do
          let stamp = Stamp.child (Stamp.child Stamp.root (i mod 4)) i in
          ignore (Ckpt_table.record t ~dest:(i mod 8) (mk_packet stamp))
        done;
        for i = 0 to 31 do
          let stamp = Stamp.child (Stamp.child Stamp.root (i mod 4)) i in
          ignore (Ckpt_table.discharge t ~dest:(i mod 8) stamp)
        done );
    ( "engine 1k schedule+dispatch",
      fun () ->
        let e = Engine.create () in
        for i = 1 to 1000 do
          Engine.schedule e ~delay:(i mod 17) i
        done;
        Engine.run e (fun _ _ -> ()) );
    ( "rng 1k bounded ints",
      let t = Rng.create 1 in
      fun () ->
        for _ = 1 to 1000 do
          ignore (Rng.int t 1024)
        done );
    ( "serial eval fib-15",
      fun () -> ignore (Recflow_lang.Eval_serial.eval fib_program "fib" [ Value.Int 15 ]) );
    ("graph eval fib-12", fun () -> ignore (graph_run "fib" [| Value.Int 12 |]));
    ( "vote 5-replica decision",
      fun () ->
        let v = Vote.create ~replicas:5 ~equal:Int.equal in
        ignore (Vote.add v 1);
        ignore (Vote.add v 1);
        ignore (Vote.add v 1) );
  ]

(* ------------------------------------------------------------------ *)
(* Sequential vs parallel sweep wall-clock                             *)
(* ------------------------------------------------------------------ *)

module Pool = Recflow_parallel.Pool

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
      let o = run_q2 recovery t in
      (o.Cluster.sim_time, o.Cluster.events, o.Cluster.answer))
    sweep_points

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Warm measurement: the pool is constructed, its workers spawned and a
   full warmup sweep run *before* the timed window, which then takes the
   best of three repetitions, so domain spawn and teardown (milliseconds)
   are not charged to a sub-second sweep. *)
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

(* Cold measurement: spawn + sweep + join, all inside the window, kept as
   a row of its own so the spawn overhead stays visible. *)
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
          (* rec_jobs = 2 would duplicate the jobs2_warm row, so only emit
             it wider. *)
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

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let bench_schema = "recflow.bench/1"

let run_group ~quota name rows =
  let grouped =
    Test.make_grouped ~name
      (List.map (fun (row, f) -> Test.make ~name:row (Staged.stage f)) rows)
  in
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
let run_group_min ~quota ~trials name rows =
  let runs =
    List.init trials (fun i ->
        Format.printf "  [trial %d/%d]@." (i + 1) trials;
        run_group ~quota name rows)
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

(* Validate an emitted BENCH_<n>.json with the in-tree strict parser: the
   file must parse, carry the schema marker and at least one group with at
   least one named row.  [tools/bench_smoke.sh] drives this via the
   [@bench-smoke] alias. *)
let check_json path =
  let doc = load_doc path in
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

(* Per-row wall-clock delta of the [micro] group between two emitted bench
   documents; exit 1 past [threshold] percent.  Other groups in older
   documents (whole-run kernels) are ignored.

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
  match (group_rows old_doc "micro", group_rows new_doc "micro") with
  | None, _ | _, None ->
    Format.eprintf "micro group absent in %s or %s@." old_path new_path;
    exit 1
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
    Format.printf "--- micro (%s -> %s)  [gate: +%.0f%% over the median host shift x%.2f] ---@."
      old_path new_path threshold median_ratio;
    let regressions =
      List.filter_map
        (fun (name, nv) ->
          match List.assoc_opt name old_rows with
          | None ->
            Format.printf "  %-45s %14.1f ns/run   (new row)@." name nv;
            None
          | Some ov ->
            let pct = (nv -. ov) /. ov *. 100.0 in
            let norm = ((nv /. ov /. median_ratio) -. 1.0) *. 100.0 in
            let regressed = norm > threshold in
            Format.printf "  %-45s %14.1f -> %12.1f ns/run  %+7.1f%%  (norm %+6.1f%%)%s@." name
              ov nv pct norm
              (if regressed then "  REGRESSION" else "");
            if regressed then Some (name, norm) else None)
        new_rows
    in
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name new_rows) then
          Format.printf "  %-45s (row disappeared)@." name)
      old_rows;
    match regressions with
    | [] ->
      Format.printf "@.no micro row regressed past +%.0f%% (host-normalized)@." threshold;
      exit 0
    | rs ->
      Format.eprintf "@.%d micro row(s) regressed past +%.0f%% (host-normalized):@."
        (List.length rs) threshold;
      (* row names already carry the group prefix ("micro/...") *)
      List.iter (fun (n, pct) -> Format.eprintf "  %s %+.1f%%@." n pct) rs;
      exit 1

let () =
  let json_path = ref None in
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
      ( "--json",
        Arg.String (fun f -> json_path := Some f),
        "FILE  write the machine-readable results (required unless a maintenance mode is given)" );
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
  let usage = "recflow benchmark harness" in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    usage;
  match (!check, !json_path) with
  | Some path, _ -> check_json path
  | None, _ when !diff_new <> None ->
    diff_json ~threshold:!diff_threshold !diff_old (Option.get !diff_new)
  | None, _ when !scaling -> scaling_check ()
  | None, _ when !obs_only ->
    ignore (report_obs_overhead ());
    exit 0
  | None, None ->
    (* No default path: a default would silently overwrite a committed
       BENCH_<n>.json. *)
    prerr_endline "bench: --json FILE is required to run the benchmarks";
    Arg.usage speclist usage;
    exit 2
  | None, Some path ->
    Format.printf "=== recflow benchmarks (Bechamel, monotonic clock) ===@.@.";
    Format.printf "--- data-structure micro-benchmarks ---@.";
    let micro_rows = run_group_min ~quota:!quota ~trials:3 "micro" micro in
    let obs_overhead, sweep =
      if !micro_only then (Json.Null, Json.Null)
      else
        let obs = report_obs_overhead () in
        (obs, report_sweep_scaling ())
    in
    Json.write_file ~path
      (Json.Obj
         [
           ("schema", Json.Str bench_schema);
           ("quota_s", Json.Float !quota);
           ( "groups",
             Json.List [ Json.Obj [ ("name", Json.Str "micro"); ("rows", json_of_rows micro_rows) ] ]
           );
           ("obs_overhead", obs_overhead);
           ("sweep", sweep);
         ]);
    Format.printf "@.wrote %s@." path
