(* One iteration of a workload: every simulation it consists of, run
   through the program's public entry points, every answer checked against
   the serial reference or the closed form, and the simulated outcome
   folded into a determinism digest. *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Journal = Recflow_machine.Journal
module Oracle = Recflow_machine.Oracle
module Workload = Recflow_workload.Workload
module Check = Recflow_analysis.Check
module Service = Recflow_service.Service
module Plan = Recflow_fault.Plan
module Counter = Recflow_stats.Counter
module Hdr = Recflow_stats.Hdr
module Value = Recflow_lang.Value
module Sink = Recflow_obs_core.Sink
module Trace = Recflow_sim.Trace

type mode =
  | Timed
  | Traced  (** spans on, layers replayed after each simulation *)
  | Memory of { journal_lens : int array }
      (** live words of each simulation's cluster at its end, and for the
          i-th simulation also at 16 evenly spaced journal entries of a run
          [journal_lens.(i)] entries long (sampling is skipped for indices
          past the array) *)

(* Everything one iteration accumulates.  Sums run over its simulations. *)
type acc = {
  mutable events : int;
  mutable tasks : int;
  mutable makespan : int;
  mutable units : int;  (** finished work items: tasks, or requests for a stream *)
  mutable journal_len : int;
  mutable sim_journal_lens : int list;  (** per batch simulation, newest first *)
  mutable trace_records : int;
  mutable work : int;
  mutable waste : int;
  mutable attempted : int;
  mutable failures : string list;
  mutable peak_words : int;
  mutable replay_s : float;
  mutable request_sojourns : int list;
  mutable masked : int;
  mutable recovered : int;
  mutable redispatches : int;
  counters : (string, int) Hashtbl.t;
  hists : (string, Hdr.t) Hashtbl.t;
  digest_buf : Buffer.t;
}

type result = {
  acc : acc;
  wall_s : float;  (** host time of the iteration, replays excluded *)
  digest : string;
  p50_sojourn : int;
  p99_sojourn : int;
}

let new_acc () =
  {
    events = 0;
    tasks = 0;
    makespan = 0;
    units = 0;
    journal_len = 0;
    sim_journal_lens = [];
    trace_records = 0;
    work = 0;
    waste = 0;
    attempted = 0;
    failures = [];
    peak_words = 0;
    replay_s = 0.0;
    request_sojourns = [];
    masked = 0;
    recovered = 0;
    redispatches = 0;
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 8;
    digest_buf = Buffer.create 4096;
  }

let now = Spans.now

let live_words c = Obj.reachable_words (Obj.repr c)

let note_peak acc w = if w > acc.peak_words then acc.peak_words <- w

(* The program check every set-up starts from: the full static analysis,
   not the memoised [Workload.program]. *)
let check w =
  Spans.time "Check.check_source" (fun () ->
      let report = Check.check_source ~entries:[ w.Workload.entry ] w.Workload.source in
      match report.Check.program with
      | Some p when Check.errors report = [] -> p
      | _ -> failwith ("perfbench: workload " ^ w.Workload.name ^ " does not check"))

let counter_string alist =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) alist)

(* Fold one finished cluster into the accumulator: digest line, counters,
   latency families, and in traced mode the layer replays. *)
let absorb acc ~mode ~cluster:c ~events ~makespan ~answers ~captured ~replay_eval =
  let alist = Counter.to_alist (Cluster.counters c) in
  let journal = Cluster.journal c in
  Buffer.add_string acc.digest_buf
    (Printf.sprintf "%d|%d|%d|%s|%s\n" events makespan (Journal.length journal)
       (counter_string alist) answers);
  acc.events <- acc.events + events;
  acc.makespan <- acc.makespan + makespan;
  acc.journal_len <- acc.journal_len + Journal.length journal;
  acc.trace_records <- acc.trace_records + Trace.count (Cluster.trace c);
  acc.work <- acc.work + Cluster.total_work c;
  acc.waste <- acc.waste + Cluster.total_waste c;
  List.iter
    (fun (k, v) ->
      let v0 = Option.value ~default:0 (Hashtbl.find_opt acc.counters k) in
      Hashtbl.replace acc.counters k (v0 + v))
    alist;
  List.iter
    (fun (k, h) ->
      Hashtbl.replace acc.hists k
        (match Hashtbl.find_opt acc.hists k with Some h0 -> Hdr.merge h0 h | None -> h))
    (Cluster.latency_hists c);
  match mode with
  | Timed -> ()
  | Memory _ -> note_peak acc (live_words c)
  | Traced ->
    let t0 = now () in
    let retain = (Cluster.config c).Config.journal_retain in
    let entries = if retain then Journal.entries journal else List.rev !captured in
    Replay.ckpt_table entries;
    Replay.journal ~retain entries;
    Replay.counters alist;
    replay_eval ();
    acc.replay_s <- acc.replay_s +. (now () -. t0)

(* A batch simulation's set-up: create, fault plan, then [hook] (sinks
   that must see every journal entry), then start. *)
let start_cluster ~cfg ~program ~w ~size ~failures ~hook =
  let c = Spans.time "Cluster.create" (fun () -> Cluster.create cfg program) in
  Spans.time "Plan.apply" (fun () -> Plan.apply c failures);
  hook c;
  Spans.time "Cluster.start" (fun () ->
      Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args size));
  c

(* One batch simulation: set-up, run, oracle, answer check.  Returns its
   makespan. *)
let batch acc ~mode ~label ~cfg ~program ~w ~size ~expected ~failures ~drain =
  let captured = ref [] in
  let hook c =
    match mode with
    | Traced when not cfg.Config.journal_retain ->
    Journal.attach_sink (Cluster.journal c) (Sink.of_fun (fun e -> captured := e :: !captured))
  | Memory { journal_lens } when acc.attempted < Array.length journal_lens ->
    let journal_len = journal_lens.(acc.attempted) in
    let seen = ref 0 and next = ref 1 in
    Journal.attach_sink (Cluster.journal c)
      (Sink.of_fun (fun _ ->
           incr seen;
           if !seen * 16 >= !next * journal_len then begin
             incr next;
             note_peak acc (live_words c)
           end))
  | _ -> ()
  in
  let c = start_cluster ~cfg ~program ~w ~size ~failures ~hook in
  let o = Spans.time "Cluster.run" (fun () -> Cluster.run ~drain c) in
  let report = Spans.time "Oracle.check" (fun () -> Oracle.check c) in
  let makespan = match o.Cluster.answer_time with Some t -> t | None -> o.Cluster.sim_time in
  let tasks = 1 + Counter.get (Cluster.counters c) "spawn.remote" in
  acc.tasks <- acc.tasks + tasks;
  acc.units <- acc.units + tasks;
  acc.attempted <- acc.attempted + 1;
  let problems =
    (match o.Cluster.answer with
    | Some v when Value.equal v expected -> []
    | Some v ->
      [
        Printf.sprintf "wrong answer %s (reference %s)" (Value.to_string v)
          (Value.to_string expected);
      ]
    | None -> [ "no answer" ])
    @ (match o.Cluster.error with Some e -> [ "program error: " ^ e ] | None -> [])
    @ List.map (fun v -> "oracle: " ^ v) report.Oracle.violations
  in
  if problems <> [] then
    acc.failures <- (label ^ ": " ^ String.concat "; " problems) :: acc.failures;
  let answers = match o.Cluster.answer with Some v -> Value.to_string v | None -> "-" in
  absorb acc ~mode ~cluster:c ~events:o.Cluster.events ~makespan ~answers ~captured
    ~replay_eval:(fun () -> Replay.eval program w.Workload.entry (w.Workload.args size));
  acc.sim_journal_lens <- Journal.length (Cluster.journal c) :: acc.sim_journal_lens;
  makespan

(* One batch run per seed in [seed, seed + seeds). *)
let tree_run acc ~mode ~seed (spec : Spec.t) ~seeds ~branching ~depth ~grain ~failures =
  let w = Workload.synthetic ~branching ~depth ~grain in
  let leaves = int_of_float (float_of_int branching ** float_of_int depth) in
  for s = seed to seed + seeds - 1 do
    Spans.new_sim ();
    let program = check w in
    let cfg = Spec.config spec.Spec.machine ~seed:s ~inline_depth:depth in
    ignore
      (batch acc ~mode
         ~label:
           (Printf.sprintf "%s %s seed=%d" spec.Spec.name
              (Config.recovery_to_string cfg.Config.recovery) s)
         ~cfg ~program ~w ~size:Workload.Medium ~expected:(Value.Int (grain * leaves)) ~failures
         ~drain:false)
  done

let pmod a b = ((a mod b) + b) mod b

let sweep_config (spec : Spec.t) ~seed recovery =
  { (Spec.config spec.Spec.machine ~seed ~inline_depth:max_int) with Config.recovery }

let sweep_victim (spec : Spec.t) s = 1 + pmod (pmod s 7) (max 1 (spec.Spec.machine.Spec.nodes - 1))

(* For each seed and each (program, recovery) combo: a fault-free probe,
   then one failure at makespan·(1 + s mod 4)/6 on processor 1 + s mod 7
   (mod the machine size), both drained. *)
let sweep_run acc ~mode ~seed (spec : Spec.t) ~seeds ~combos ~size ~expected =
  let programs = List.map (fun (w, _) -> check w) combos in
  for s = seed to seed + seeds - 1 do
    List.iteri
      (fun i ((w, recovery), program) ->
        let cfg = sweep_config spec ~seed:s recovery in
        let label fault =
          Printf.sprintf "%s %s %s seed=%d %s" spec.Spec.name w.Workload.name
            (Config.recovery_to_string recovery) s fault
        in
        let expected = expected.(i) in
        Spans.new_sim ();
        let makespan =
          batch acc ~mode ~label:(label "fault-free") ~cfg ~program ~w ~size ~expected
            ~failures:[] ~drain:true
        in
        let time = makespan * (1 + pmod s 4) / 6 in
        let victim = sweep_victim spec s in
        Spans.new_sim ();
        ignore
          (batch acc ~mode
             ~label:(label (Printf.sprintf "fail=%d@%d" time victim))
             ~cfg ~program ~w ~size ~expected ~failures:[ (time, victim) ] ~drain:true))
      (List.combine combos programs)
  done

let stream_run acc ~mode ~seed (spec : Spec.t) ~w ~size ~expected ~requests ~arrival_mean ~replicas
    ~max_inflight ~failures =
  Spans.new_sim ();
  let program = check w in
  let base = Spec.config spec.Spec.machine ~seed ~inline_depth:max_int in
  let config =
    {
      base with
      Config.service = { base.Config.service with Config.arrival_mean; replicas; max_inflight };
    }
  in
  let label = Printf.sprintf "%s seed=%d" spec.Spec.name seed in
  acc.attempted <- acc.attempted + requests;
  match
    Spans.time "Service.run" (fun () ->
        Service.run ~failures ~config ~workload:w ~size ~requests ())
  with
  | exception (Failure e | Invalid_argument e) ->
    acc.failures <- Printf.sprintf "%s: stream aborted: %s" label e :: acc.failures
  | o ->
    let c = o.Service.cluster in
    let report = Spans.time "Oracle.check" (fun () -> Oracle.check c) in
    List.iter
      (fun v -> acc.failures <- Printf.sprintf "%s: oracle: %s" label v :: acc.failures)
      report.Oracle.violations;
    let answers = Buffer.create 4096 in
    List.iter
      (fun (r : Service.record) ->
        let verdict = Service.verdict_label r.Service.verdict in
        Buffer.add_string answers
          (Printf.sprintf "%d:%s:%s;" r.Service.rid verdict
             (match r.Service.value with Some v -> Value.to_string v | None -> "-"));
        match (r.Service.value, r.Service.finish) with
        | Some v, Some finish when Value.equal v expected ->
          acc.request_sojourns <- (finish - r.Service.arrival) :: acc.request_sojourns
        | Some v, _ ->
          acc.failures <-
            Printf.sprintf "%s: request %d wrong answer %s (reference %s)" label r.Service.rid
              (Value.to_string v) (Value.to_string expected)
            :: acc.failures
        | None, _ ->
          acc.failures <-
            Printf.sprintf "%s: request %d %s, no answer" label r.Service.rid verdict
            :: acc.failures)
      o.Service.records;
    acc.tasks <-
      acc.tasks + Cluster.submitted_requests c + Counter.get (Cluster.counters c) "spawn.remote";
    acc.units <- acc.units + Service.finished o.Service.counts;
    acc.masked <- acc.masked + o.Service.counts.Service.masked;
    acc.recovered <- acc.recovered + o.Service.counts.Service.recovered;
    for uid = 0 to Cluster.submitted_requests c - 1 do
      acc.redispatches <- acc.redispatches + Cluster.request_redispatches c uid
    done;
    let fname = w.Workload.entry and args = w.Workload.args size in
    absorb acc ~mode ~cluster:c ~events:o.Service.events ~makespan:o.Service.sim_time
      ~answers:(Buffer.contents answers) ~captured:(ref [])
      ~replay_eval:(fun () ->
        for _ = 1 to requests do
          Replay.eval program fname args
        done)

(* Nearest-rank percentile of a non-empty sorted array. *)
let rank_quantile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* Serial references, computed once before any timed iteration. *)
type prepared = Spec.t * int * Value.t array

let prepare (spec : Spec.t) ~seed : prepared =
  let expected =
    match spec.Spec.shape with
    | Spec.Tree _ -> [||]
    | Spec.Sweep { combos; size; _ } ->
      Array.of_list (List.map (fun (w, _) -> Workload.expected w size) combos)
    | Spec.Stream { workload; size; _ } -> [| Workload.expected workload size |]
  in
  (spec, seed, expected)

let iterate ((spec, seed, expected) : prepared) mode =
  let acc = new_acc () in
  let t0 = now () in
  (match spec.Spec.shape with
  | Spec.Tree { seeds; branching; depth; grain; failures } ->
    tree_run acc ~mode ~seed spec ~seeds ~branching ~depth ~grain ~failures
  | Spec.Sweep { seeds; combos; size } ->
    sweep_run acc ~mode ~seed spec ~seeds ~combos ~size ~expected
  | Spec.Stream { workload; size; requests; arrival_mean; replicas; max_inflight; failures } ->
    stream_run acc ~mode ~seed spec ~w:workload ~size ~expected:expected.(0) ~requests ~arrival_mean
      ~replicas ~max_inflight ~failures);
  let wall_s = now () -. t0 -. acc.replay_s in
  let p50_sojourn, p99_sojourn =
    match spec.Spec.shape with
    | Spec.Stream _ ->
      let a = Array.of_list acc.request_sojourns in
      Array.sort compare a;
      if a = [||] then (0, 0) else (rank_quantile a 0.50, rank_quantile a 0.99)
    | Spec.Tree _ | Spec.Sweep _ -> (
      match Hashtbl.find_opt acc.hists "task.sojourn" with
      | Some h when Hdr.count h > 0 -> (Hdr.quantile h 50.0, Hdr.quantile h 99.0)
      | _ -> (0, 0))
  in
  acc.failures <- List.rev acc.failures;
  {
    acc;
    wall_s;
    digest = Digest.to_hex (Digest.string (Buffer.contents acc.digest_buf));
    p50_sojourn;
    p99_sojourn;
  }

(* One iteration's set-up alone, timed: every program check, and every
   cluster created, given its fault plan and started, none of them run.
   A sweep's faulty runs take their failure at tick 1, since the probe that
   would place it is not run. *)
let setup ((spec, seed, _) : prepared) =
  let t0 = now () in
  let build ~cfg ~program ~w ~size ~failures =
    ignore (start_cluster ~cfg ~program ~w ~size ~failures ~hook:ignore)
  in
  (match spec.Spec.shape with
  | Spec.Tree { seeds; branching; depth; grain; failures } ->
    let w = Workload.synthetic ~branching ~depth ~grain in
    for s = seed to seed + seeds - 1 do
      build
        ~cfg:(Spec.config spec.Spec.machine ~seed:s ~inline_depth:depth)
        ~program:(check w) ~w ~size:Workload.Medium ~failures
    done
  | Spec.Sweep { seeds; combos; size } ->
    let programs = List.map (fun (w, _) -> check w) combos in
    for s = seed to seed + seeds - 1 do
      List.iter2
        (fun (w, recovery) program ->
          let cfg = sweep_config spec ~seed:s recovery in
          build ~cfg ~program ~w ~size ~failures:[];
          build ~cfg ~program ~w ~size ~failures:[ (1, sweep_victim spec s) ])
        combos programs
    done
  | Spec.Stream { workload; _ } -> ignore (check workload));
  now () -. t0

(* The journal digest of test_scale's golden run (every retained entry,
   the answer, the clock and the event count), for a tree workload run at
   its golden depth and seed. *)
let golden_digest (spec : Spec.t) (g : Spec.golden) =
  match spec.Spec.shape with
  | Spec.Sweep _ | Spec.Stream _ -> invalid_arg "golden_digest: not a tree workload"
  | Spec.Tree { branching; grain; failures; _ } ->
    let w = Workload.synthetic ~branching ~depth:g.Spec.g_depth ~grain in
    let cfg = Spec.config spec.Spec.machine ~seed:g.Spec.g_seed ~inline_depth:g.Spec.g_depth in
    let c = Cluster.create cfg (Workload.program w) in
    Plan.apply c failures;
    Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Medium);
    let o = Cluster.run c in
    let buf = Buffer.create (1 lsl 20) in
    List.iter
      (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" Journal.pp_entry e))
      (Journal.entries (Cluster.journal c));
    Buffer.add_string buf
      (match o.Cluster.answer with Some v -> Value.to_string v | None -> "<no-answer>");
    Buffer.add_string buf
      (Printf.sprintf "|sim_time=%d|events=%d" o.Cluster.sim_time o.Cluster.events);
    Digest.to_hex (Digest.string (Buffer.contents buf))
