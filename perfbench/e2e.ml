(* End-to-end benchmark driver.

   For each workload of workloads.json: one warm-up iteration, then timed
   iterations until --seconds have passed (each preceded by isolated
   set-up samples and one run of the calibration kernel; medians and
   quartiles reported), then one memory iteration for peak live words.
   With --trace 1 the window is split between untraced iterations and
   traced ones (spans around every public call, the phase profiler on,
   layer replays after each simulation), and the per-layer metrics are
   reported instead.  Every answer is checked, and every iteration of a
   workload must produce the same simulation digest.  The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

     e2e [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--json OUT]
     e2e --compare A.json B.json     per-metric deltas against BENCHMARK.json bounds
     e2e --golden                    journal digests of the pinned golden runs *)

module Json = Recflow_obs_core.Json
module Profile = Recflow_obs_core.Profile
module Hdr = Recflow_stats.Hdr

let workloads_file = "perfbench/workloads.json"
let benchmark_file = "BENCHMARK.json"
let spans_dir = ".bench_out"

(* ---------------- statistics ---------------- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles, as Python's statistics.quantiles(n=4) (the
   exclusive method) computes them. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

type stat = { value : float; unit_ : string; samples : float list }

let of_samples unit_ samples = { value = median samples; unit_; samples }
let exact unit_ v = { value = v; unit_; samples = [ v ] }

let stat_json s =
  let q1, q3 = quartiles s.samples in
  Json.Obj
    [
      ("value", Json.Float s.value);
      ("unit", Json.Str s.unit_);
      ("q1", Json.Float q1);
      ("q3", Json.Float q3);
      ("n", Json.Int (List.length s.samples));
      ("samples", Json.List (List.map (fun v -> Json.Float v) s.samples));
    ]

(* ---------------- running one workload ---------------- *)

type iteration = { r : Sims.result; alloc_words : float; minor : int; major : int }

let run_iteration prepared mode =
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let r = Sims.iterate prepared mode in
  let g1 = Gc.quick_stat () in
  let words g = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  {
    r;
    alloc_words = words g1 -. words g0;
    minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* A timed iteration is preceded by three isolated set-ups and one run of
   the calibration kernel, so set-up samples, host speed and iteration
   times are taken across the same stretch of the run. *)
type timed = { it : iteration; setups : float list; calib : float }

let timed_iteration prepared =
  let setups =
    List.init 3 (fun _ ->
        Gc.compact ();
        Sims.setup prepared)
  in
  let calib = Calibrate.run () in
  { it = run_iteration prepared Sims.Timed; setups; calib }

(* Iterations until the clock passes [until]: at least one, exactly one in
   quick mode. *)
let repeat ~quick ~until f =
  let rec go acc =
    let acc = f () :: acc in
    if quick || Spans.now () >= until then List.rev acc else go acc
  in
  go []

let fl = float_of_int
let ratio a b = if b = 0 then 0.0 else fl a /. fl b
let counter (a : Sims.acc) k = Option.value ~default:0 (Hashtbl.find_opt a.Sims.counters k)

let hist_p99 (a : Sims.acc) k =
  match Hashtbl.find_opt a.Sims.hists k with
  | Some h when Hdr.count h > 0 -> Hdr.quantile h 99.0
  | _ -> 0

(* Host-time metrics of the timed iterations as measured: seconds, and
   rates per second. *)
let host_metrics timed =
  let per f unit_ = of_samples unit_ (List.map (fun t -> f t.it.r) timed) in
  [
    ("setup_s", of_samples "s" (List.concat_map (fun t -> t.setups) timed));
    ("wall_s", per (fun r -> r.Sims.wall_s) "s");
    ("events_per_s", per (fun r -> fl r.Sims.acc.Sims.events /. r.Sims.wall_s) "events/s");
    ("tasks_per_s", per (fun r -> fl r.Sims.acc.Sims.tasks /. r.Sims.wall_s) "tasks/s");
  ]

(* [reference_s] over the kernel's median time: the factor that turns this
   run's host seconds into reference seconds. *)
let host_scale timed = Calibrate.reference_s /. median (List.map (fun t -> t.calib) timed)

(* End-to-end metrics: host times from the timed iterations in reference
   seconds, simulated outcomes from the warm-up (every iteration has the
   same digest), live words from the memory iteration. *)
let end_to_end ~timed ~(warm : Sims.result) ~(memory : Sims.result) =
  let k = host_scale timed in
  let scale s =
    let f v = if s.unit_ = "s" then v *. k else v /. k in
    { s with value = f s.value; samples = List.map f s.samples }
  in
  let a = warm.Sims.acc in
  List.map (fun (n, s) -> (n, scale s)) (host_metrics timed)
  @ [
    ("peak_live_words", exact "word" (fl memory.Sims.acc.Sims.peak_words));
    ("makespan_ticks", exact "tick" (fl a.Sims.makespan));
    ("p50_sojourn_ticks", exact "tick" (fl warm.Sims.p50_sojourn));
    ("p99_sojourn_ticks", exact "tick" (fl warm.Sims.p99_sojourn));
    ("goodput_per_kt", exact "items/ktick" (1000.0 *. ratio a.Sims.units a.Sims.makespan));
  ]

(* Per-layer metrics of one traced iteration, named layer.metric after the
   program's modules. *)
let layer_values (r : Sims.result) profile spans =
  let a = r.Sims.acc in
  let prof name = List.find_opt (fun e -> e.Profile.name = name) profile in
  let prof_self name = match prof name with Some e -> e.Profile.self_s | None -> 0.0 in
  let prof_count name = match prof name with Some e -> e.Profile.count | None -> 0 in
  let span_self name =
    match List.assoc_opt name spans with Some (_, _, self) -> self | None -> 0.0
  in
  let c = counter a in
  [
    ("engine.events", "count", fl a.Sims.events);
    ("engine.events_per_task", "events/task", ratio a.Sims.events a.Sims.tasks);
    ("engine.profile.engine_dispatch_self_s", "s", prof_self "engine.dispatch");
    ("cluster.msgs_sent", "count", fl (c "msg.sent"));
    ("cluster.msgs_per_task", "msgs/task", ratio (c "msg.sent") a.Sims.tasks);
    ("cluster.retransmits", "count", fl (c "net.retransmit"));
    ("cluster.acks", "count", fl (c "net.ack_sent"));
    ("cluster.dropped", "count", fl (c "net.msg_dropped"));
    ("cluster.dup_suppressed", "count", fl (c "net.dup_suppressed"));
    ("ckpt_table.records", "count", fl (c "ckpt.recorded"));
    ("ckpt_table.covered", "count", fl (c "ckpt.covered"));
    ("ckpt_table.discharges", "count", fl (prof_count "ckpt.discharge"));
    ("ckpt_table.profile.ckpt_record_self_s", "s", prof_self "ckpt.record");
    ( "ckpt_table.record_ns_per_op",
      "ns",
      1e9 *. prof_self "ckpt.record" /. fl (max 1 (prof_count "ckpt.record")) );
    ("ckpt_table.replay_s", "s", span_self "replay.ckpt_table");
    ("journal.entries", "count", fl a.Sims.journal_len);
    ("journal.replay_s", "s", span_self "replay.journal");
    ("journal.trace.records", "count", fl a.Sims.trace_records);
    ("counter.incrs", "count", fl (Hashtbl.fold (fun _ v s -> s + v) a.Sims.counters 0));
    ("counter.replay_s", "s", span_self "replay.counter");
    ("eval.inline_calls", "count", fl (c "spawn.inline"));
    ("eval.replay_s", "s", span_self "replay.eval");
    ("node.reissues", "count", fl (c "reissue.count"));
    ("node.aborted", "count", fl (c "task.aborted"));
    ("node.useful_work_frac", "ratio", 1.0 -. ratio a.Sims.waste a.Sims.work);
    ("oracle.check_s", "s", span_self "Oracle.check");
    ("check.program_s", "s", span_self "Check.check_source");
    ("sim.failure_detection_p99_ticks", "tick", fl (hist_p99 a "failure.detection"));
    ("sim.net_rtt_p99_ticks", "tick", fl (hist_p99 a "net.rtt"));
    ("sim.task_sojourn_p99_ticks", "tick", fl (hist_p99 a "task.sojourn"));
    ("service.masked", "count", fl a.Sims.masked);
    ("service.recovered", "count", fl a.Sims.recovered);
    ("service.redispatches", "count", fl a.Sims.redispatches);
  ]

(* Medians over the traced iterations, GC counts from the untraced ones,
   and the tracing overhead between the two. *)
let per_layer ~untraced ~traced =
  let names =
    match traced with (first, _) :: _ -> List.map (fun (n, u, _) -> (n, u)) first | [] -> []
  in
  let value n vs = match List.find (fun (m, _, _) -> m = n) vs with _, _, v -> v in
  let layered =
    List.map (fun (n, u) -> (n, of_samples u (List.map (fun (vs, _) -> value n vs) traced))) names
  in
  let untraced_wall = median (List.map (fun it -> it.r.Sims.wall_s) untraced) in
  let per f unit_ = of_samples unit_ (List.map f untraced) in
  layered
  @ [
      ( "gc.alloc_words_per_event",
        per (fun it -> it.alloc_words /. fl it.r.Sims.acc.Sims.events) "words/event" );
      ("gc.minor_collections", per (fun it -> fl it.minor) "count");
      ("gc.major_collections", per (fun it -> fl it.major) "count");
      ( "bench.trace_overhead_pct",
        of_samples "%"
          (List.map (fun (_, wall) -> 100.0 *. ((wall /. untraced_wall) -. 1.0)) traced) );
    ]

type outcome = {
  name : string;
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;
  digest : string;
  metrics : (string * stat) list;
  host : (string * stat) list;  (** host times as measured, and the calibration kernel *)
  span_table : (string * (int * int * float)) list;  (** last traced iteration *)
  profile : Profile.entry list;  (** last traced iteration *)
  all_spans : Spans.span list;
}

let run_workload (spec : Spec.t) ~seed ~seconds ~trace ~quick =
  let prepared = Sims.prepare spec ~seed in
  (* The warm-up counts against the measuring window, so a run lasts about
     --seconds plus one memory iteration. *)
  let start = Spans.now () in
  let warm = run_iteration prepared Sims.Timed in
  (* Batch runs sample live words through the run; a sweep and a stream
     take each simulation's end-of-run size. *)
  let memory_mode =
    Sims.Memory
      {
        journal_lens =
          (match spec.Spec.shape with
          | Spec.Tree _ -> Array.of_list (List.rev warm.r.Sims.acc.Sims.sim_journal_lens)
          | Spec.Sweep _ | Spec.Stream _ -> [||]);
      }
  in
  let iterations, metrics, host, traced =
    if not trace then begin
      let timed =
        repeat ~quick ~until:(start +. seconds) (fun () -> timed_iteration prepared)
      in
      let memory = run_iteration prepared memory_mode in
      ( warm :: memory :: List.map (fun t -> t.it) timed,
        end_to_end ~timed ~warm:warm.r ~memory:memory.r,
        host_metrics timed
        @ [ ("calibration_s", of_samples "s" (List.map (fun t -> t.calib) timed)) ],
        [] )
    end
    else begin
      let untraced =
        repeat ~quick ~until:(start +. (seconds /. 2.0)) (fun () ->
            run_iteration prepared Sims.Timed)
      in
      Profile.set_enabled true;
      Spans.enabled := true;
      let traced =
        repeat ~quick ~until:(start +. seconds) (fun () ->
            Profile.reset ();
            let it = run_iteration prepared Sims.Traced in
            let spans = Spans.take () in
            (it, spans, Profile.snapshot ()))
      in
      Profile.set_enabled false;
      Spans.enabled := false;
      let layers =
        List.map
          (fun (it, spans, profile) ->
            (layer_values it.r profile (Spans.self_times spans), it.r.Sims.wall_s))
          traced
      in
      ( (warm :: untraced) @ List.map (fun (it, _, _) -> it) traced,
        per_layer ~untraced ~traced:layers,
        [],
        traced )
    end
  in
  let span_table, profile =
    match List.rev traced with
    | (_, spans, profile) :: _ -> (Spans.self_times spans, profile)
    | [] -> ([], [])
  in
  let digests = List.sort_uniq compare (List.map (fun it -> it.r.Sims.digest) iterations) in
  let failures =
    List.sort_uniq compare (List.concat_map (fun it -> it.r.Sims.acc.Sims.failures) iterations)
  in
  let failed =
    List.fold_left (fun s it -> s + List.length it.r.Sims.acc.Sims.failures) 0 iterations
  in
  let nondeterministic =
    if List.length digests > 1 then
      [
        Printf.sprintf "%s: iterations disagree: %d distinct simulation digests" spec.Spec.name
          (List.length digests);
      ]
    else []
  in
  {
    name = spec.Spec.name;
    correct = failed = 0 && nondeterministic = [];
    attempted = List.fold_left (fun s it -> s + it.r.Sims.acc.Sims.attempted) 0 iterations;
    failed;
    failures = nondeterministic @ failures;
    digest = warm.r.Sims.digest;
    metrics;
    host;
    span_table;
    profile;
    all_spans = List.concat_map (fun (_, spans, _) -> spans) traced;
  }

(* ---------------- output ---------------- *)

let outcome_json ~seed o =
  Json.Obj
    [
      ("name", Json.Str o.name);
      ("seed", Json.Int seed);
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ("fail_frac", Json.Float (ratio o.failed o.attempted));
      ("failures", Json.List (List.map (fun f -> Json.Str f) o.failures));
      ("sim_digest", Json.Str o.digest);
      ("metrics", Json.Obj (List.map (fun (n, s) -> (n, stat_json s)) o.metrics));
      ("host", Json.Obj (List.map (fun (n, s) -> (n, stat_json s)) o.host));
      ( "spans",
        Json.Obj
          (List.map
             (fun (n, (calls, ops, self)) ->
               ( n,
                 Json.Obj
                   [
                     ("calls", Json.Int calls); ("ops", Json.Int ops); ("self_s", Json.Float self);
                   ] ))
             o.span_table) );
      ( "profile",
        Json.Obj
          (List.map
             (fun e ->
               ( e.Profile.name,
                 Json.Obj
                   [
                     ("count", Json.Int e.Profile.count);
                     ("total_s", Json.Float e.Profile.total_s);
                     ("self_s", Json.Float e.Profile.self_s);
                   ] ))
             o.profile) );
    ]

let print_outcome o =
  Printf.printf "== %s: %s, %d attempted, %d failed, sim_digest %s\n" o.name
    (if o.correct then "correct" else "INCORRECT")
    o.attempted o.failed o.digest;
  List.iter (fun f -> Printf.printf "   failure: %s\n" f) o.failures;
  let print prefix (n, s) =
    let q1, q3 = quartiles s.samples in
    if List.length s.samples > 1 then
      Printf.printf "   %-40s %14.6g %-12s (q1 %.6g, q3 %.6g, n=%d)\n" (prefix ^ n) s.value
        s.unit_ q1 q3 (List.length s.samples)
    else Printf.printf "   %-40s %14.6g %s\n" (prefix ^ n) s.value s.unit_
  in
  List.iter (print "") o.metrics;
  List.iter (print "host ") o.host;
  List.iter
    (fun (n, (calls, ops, self)) ->
      Printf.printf "   span %-35s %8d calls %10d ops %12.6f s self\n" n calls ops self)
    o.span_table;
  List.iter
    (fun e ->
      Printf.printf "   profile %-32s %8d calls %12.6f s self\n" e.Profile.name e.Profile.count
        e.Profile.self_s)
    o.profile

(* The last line of output.  With several workloads, metric names carry the
   workload as a prefix. *)
let result_line outcomes =
  let single = match outcomes with [ _ ] -> true | _ -> false in
  let metrics =
    List.concat_map
      (fun o ->
        List.map
          (fun (n, s) ->
            ( (if single then n else o.name ^ "." ^ n),
              Json.Obj [ ("value", Json.Float s.value); ("unit", Json.Str s.unit_) ] ))
          o.metrics)
      outcomes
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all (fun o -> o.correct) outcomes));
         ("attempted", Json.Int (List.fold_left (fun s o -> s + o.attempted) 0 outcomes));
         ("failed", Json.Int (List.fold_left (fun s o -> s + o.failed) 0 outcomes));
         ("metrics", Json.Obj metrics);
       ])

(* ---------------- --compare ---------------- *)

let read_json path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let num = function Some (Json.Float f) -> Some f | Some (Json.Int n) -> Some (fl n) | _ -> None

let compare_runs a_path b_path =
  let bench = read_json benchmark_file in
  let bounds =
    List.filter_map
      (fun m ->
        match (Option.bind (Json.member "name" m) Json.str, num (Json.member "bound" m)) with
        | Some n, Some b ->
          Some (n, (b, Option.bind (Json.member "better" m) Json.str = Some "higher"))
        | _ -> None)
      (Option.fold ~none:[] ~some:Json.to_list (Json.member "end_to_end" bench))
  in
  let workloads path =
    Option.fold ~none:[] ~some:Json.to_list (Json.member "workloads" (read_json path))
    |> List.filter_map (fun w ->
           Option.map (fun n -> (n, w)) (Option.bind (Json.member "name" w) Json.str))
  in
  let a_ws = workloads a_path and b_ws = workloads b_path in
  let violations = ref 0 in
  let flag fmt = Printf.ksprintf (fun s -> incr violations; print_endline s) fmt in
  List.iter
    (fun (name, a) ->
      match List.assoc_opt name b_ws with
      | None -> flag "%-12s missing from %s" name b_path
      | Some b ->
        let str k w = Option.bind (Json.member k w) Json.str in
        let int k w = Option.value ~default:0 (Option.bind (Json.member k w) Json.int) in
        if str "sim_digest" a <> str "sim_digest" b then
          flag "%-12s MODEL CHANGE: sim_digest %s -> %s" name
            (Option.value ~default:"?" (str "sim_digest" a))
            (Option.value ~default:"?" (str "sim_digest" b));
        if int "failed" b > int "failed" a then
          flag "%-12s failed answers %d -> %d" name (int "failed" a) (int "failed" b);
        List.iter
          (fun (metric, (bound, higher_better)) ->
            let value w =
              Option.bind (Json.member "metrics" w) (Json.member metric)
              |> Fun.flip Option.bind (Json.member "value")
              |> num
            in
            match (value a, value b) with
            | Some va, Some vb ->
              let change = if va = 0.0 then 0.0 else (vb -. va) /. Float.abs va in
              let worse = if higher_better then -.change else change in
              let bad = worse > bound in
              if bad then incr violations;
              Printf.printf "%-12s %-20s %14.6g -> %14.6g  %+7.2f%%  bound %5.1f%%  %s\n" name
                metric va vb (100.0 *. change) (100.0 *. bound)
                (if bad then "REGRESSION" else "ok")
            | _ -> flag "%-12s %-20s missing" name metric)
          bounds)
    a_ws;
  Printf.printf "%d violation(s)\n" !violations;
  exit (if !violations = 0 then 0 else 1)

(* ---------------- --golden ---------------- *)

let check_goldens specs =
  let bad = ref 0 in
  List.iter
    (fun (spec : Spec.t) ->
      match spec.Spec.golden with
      | None -> ()
      | Some g ->
        let d = Sims.golden_digest spec g in
        let ok = d = g.Spec.g_digest in
        if not ok then incr bad;
        Printf.printf "%s depth=%d seed=%d: journal digest %s %s\n%!" spec.Spec.name g.Spec.g_depth
          g.Spec.g_seed d
          (if ok then "= golden" else "!= golden " ^ g.Spec.g_digest))
    specs;
  exit (if !bad = 0 then 0 else 1)

(* ---------------- main ---------------- *)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 20.0 and trace = ref 0 in
  let quick = ref false and json_out = ref "" and compare = ref false and golden = ref false in
  let anon = ref [] in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W run one workload (default: all)");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: each workload's own)");
      ("--seconds", Arg.Set_float seconds, "S timed seconds per workload (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--quick", Arg.Set quick, " toy sizes, one iteration each");
      ("--json", Arg.Set_string json_out, "OUT write the full results document");
      ("--compare", Arg.Set compare, " A.json B.json: deltas against BENCHMARK.json bounds");
      ("--golden", Arg.Set golden, " check the pinned golden journal digests");
    ]
    (fun a -> anon := !anon @ [ a ])
    "e2e [options]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !compare then
    match !anon with
    | [ a; b ] -> compare_runs a b
    | _ ->
      prerr_endline "--compare takes two result files";
      exit 2
  else begin
    let specs = Spec.load ~quick:!quick workloads_file in
    if !golden then check_goldens specs;
    let specs =
      if !workload = "" then specs
      else
        match List.filter (fun (s : Spec.t) -> s.Spec.name = !workload) specs with
        | [] ->
          Printf.eprintf "unknown workload %S\n" !workload;
          exit 2
        | l -> l
    in
    let traced = !trace = 1 in
    let outcomes =
      List.map
        (fun (spec : Spec.t) ->
          let seed = Option.value ~default:spec.Spec.default_seed !seed in
          let o = run_workload spec ~seed ~seconds:!seconds ~trace:traced ~quick:!quick in
          print_outcome o;
          if traced then begin
            if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
            Json.write_file
              ~path:(Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.json" o.name seed))
              (Spans.to_json o.all_spans)
          end;
          (seed, o))
        specs
    in
    if !json_out <> "" then
      Json.write_file ~path:!json_out
        (Json.Obj
           [
             ("schema", Json.Str "perfbench.e2e/1");
             ("seconds", Json.Float !seconds);
             ("trace", Json.Bool traced);
             ("quick", Json.Bool !quick);
             ("workloads", Json.List (List.map (fun (seed, o) -> outcome_json ~seed o) outcomes));
           ]);
    print_endline (result_line (List.map snd outcomes))
  end
