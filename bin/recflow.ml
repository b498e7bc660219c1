(* recflow — run an applicative program on the simulated multiprocessor.

   Examples:
     recflow --workload fib --size medium --nodes 8
     recflow --workload tree_sum --recovery rollback --fail 3000@2 --journal
     recflow --program my.rf --entry main --arg 10 --arg 20 --topology mesh:4x4 \
             --policy random --recovery splice --fail 500@1 --fail 900@5 --trace
     recflow --workload fib --size small --fail 500@1 \
             --emit-trace t.json --metrics-json m.json --trace-jsonl t.jsonl
     recflow --program my.rf --check            # static analysis only
     recflow --workload tak --check-json        # machine-readable report

   Every run is gated by the static checker: analysis errors (RF0xx/RF1xx)
   refuse to start the cluster (escape hatch: --no-check), warnings go to
   stderr. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Journal = Recflow_machine.Journal
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value
module Counter = Recflow_stats.Counter
module Trace = Recflow_sim.Trace
module Sink = Recflow_obs_core.Sink
module Json = Recflow_obs_core.Json
module Profile = Recflow_obs_core.Profile
module Perfetto = Recflow_obs.Perfetto
module Episode = Recflow_obs.Episode
module Metrics = Recflow_obs.Metrics
module Check = Recflow_analysis.Check
module Diagnostic = Recflow_analysis.Diagnostic
module Shape = Recflow_analysis.Shape
module Cost = Recflow_analysis.Cost
module Service = Recflow_service.Service
module Hdr = Recflow_stats.Hdr

let parse_failure s =
  match String.split_on_char '@' s with
  | [ time; proc ] -> (
    match (int_of_string_opt time, int_of_string_opt proc) with
    | Some t, Some p when t >= 0 && p >= 0 -> Ok (t, p)
    | _ -> Error (`Msg (Printf.sprintf "bad failure spec %S (want TIME@PROC)" s)))
  | _ -> Error (`Msg (Printf.sprintf "bad failure spec %S (want TIME@PROC)" s))

(* NaN fails both comparisons, so it is refused with the rest. *)
let parse_probability s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | _ -> Error (`Msg (Printf.sprintf "bad probability %S (want a number in [0,1])" s))

let size_of_string = function
  | "tiny" -> Ok Workload.Tiny
  | "small" -> Ok Workload.Small
  | "medium" -> Ok Workload.Medium
  | "large" -> Ok Workload.Large
  | s -> Error (Printf.sprintf "unknown size %S" s)

let recovery_of_string s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok Config.No_recovery
  | [ "rollback" ] -> Ok Config.Rollback
  | [ "splice" ] -> Ok Config.Splice
  | [ "replicate"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ok (Config.Replicate k)
    | _ -> Error (Printf.sprintf "bad replication factor in %S" s))
  | _ -> Error (Printf.sprintf "unknown recovery %S (none|rollback|splice|replicate:K)" s)

(* --serve: a stream of independent requests into one persistent cluster
   instead of a single batch program.  Restricted to built-in workloads —
   the service layer checks every delivered answer against the serial
   reference, which only workloads carry. *)
let serve_main cfg ~workload_name ~size ~size_name ~requests ~arrival_mean ~service_replicas
    ~max_inflight ~shed_frac ~failures ~service_json ~show_stats =
  let ( let* ) r f = match r with Ok v -> f v | Error msg -> (Format.eprintf "%s@." msg; 1) in
  let* w =
    match Option.bind workload_name Workload.by_name with
    | Some w -> Ok w
    | None -> Error "--serve requires --workload (the per-request oracle needs the serial reference)"
  in
  let cfg =
    {
      cfg with
      Config.service =
        { Config.arrival_mean; replicas = service_replicas; max_inflight;
          shed_suspect_frac = shed_frac };
    }
  in
  let* () =
    match Config.validate cfg with
    | Ok () -> Ok ()
    | Error msg -> Error ("invalid configuration: " ^ msg)
  in
  let o = Service.run ~failures ~config:cfg ~workload:w ~size ~requests () in
  let c = o.Service.counts in
  Format.printf "offered %d: completed %d, masked %d, recovered %d, shed %d (overload %d, suspects %d)@."
    c.Service.offered c.Service.completed c.Service.masked c.Service.recovered (Service.shed c)
    c.Service.shed_overload c.Service.shed_suspects;
  let h = Cluster.latency o.Service.cluster "service.latency" in
  if Hdr.count h > 0 then
    Format.printf "latency: p50 %d, p99 %d, p999 %d (over %d finished)@." (Hdr.quantile h 50.0)
      (Hdr.quantile h 99.0) (Hdr.quantile h 99.9) (Hdr.count h);
  Format.printf "goodput: %.2f requests/kilotick over %d simulated ticks (%d events)@."
    o.Service.goodput o.Service.sim_time o.Service.events;
  Format.printf "all answers match the serial reference: %b@." o.Service.all_correct;
  if show_stats then begin
    (* plain cluster fields, not counter cells: the counters feed digests *)
    let cl = o.Service.cluster in
    Format.printf "requests retired: %d of %d submitted (settled, task uids reclaimed)@."
      (Cluster.settled_requests cl) (Cluster.submitted_requests cl);
    Format.printf "index cells freed: %d (messages naming a reclaimed request: %d)@."
      (Cluster.reclaimed_tombstones cl) (Cluster.reclaimed_hits cl);
    let j = Cluster.journal cl in
    Format.printf "journal entries: %d recorded, %d retained, %d dropped with settled requests@."
      (Journal.length j) (Journal.retained j) (Journal.dropped j);
    Format.printf "requests kept whole because a failure touched them: %d@."
      (Journal.kept_whole j)
  end;
  (match Episode.analyze (Cluster.journal o.Service.cluster) with
  | [] -> ()
  | episodes ->
    Format.printf "@.recovery episodes:@.";
    List.iter (fun e -> Format.printf "  %a@." Episode.pp e) episodes);
  Option.iter
    (fun path ->
      Json.write_file ~path (Service.to_json ?workload:workload_name ~size:size_name o);
      Format.printf "service metrics written to %s@." path)
    service_json;
  if o.Service.all_correct then 0 else 1

(* --explain RF<code>: print the rule doc and exit without touching a
   program (the only recflow invocation that needs neither --workload nor
   --program). *)
let explain_main code =
  let code = String.uppercase_ascii (String.trim code) in
  match Diagnostic.of_code_string code with
  | Some c ->
    Format.printf "%s (%s)@.%s@." code
      (Diagnostic.severity_string (Diagnostic.severity_of_code c))
      (Diagnostic.explain c);
    0
  | None ->
    Format.eprintf "unknown rule code %S (known: %s)@." code
      (String.concat ", " (List.map Diagnostic.code_string Diagnostic.all_codes));
    1

let main nodes topology policy recovery ckpt_keep_all ancestor_depth inline_depth seed
    detect_delay workload_name size_name program_file entry args failures show_journal
    show_trace trace_limit show_stats show_timeline drain emit_trace metrics_json trace_jsonl
    trace_sample profile profile_json check_only check_json werror no_check serve requests
    arrival_mean service_replicas max_inflight shed_frac service_json explain_code loss_rate
    ckpt_cost =
  let ( let* ) r f = match r with Ok v -> f v | Error msg -> (Format.eprintf "%s@." msg; 1) in
  match explain_code with
  | Some code -> explain_main code
  | None ->
  let* topology =
    match topology with
    | Some t -> Recflow_net.Topology.of_string t
    | None -> Ok (Recflow_net.Topology.Full nodes)
  in
  let* recovery = recovery_of_string recovery in
  let* size = size_of_string size_name in
  let* source, entry, argv, expected =
    match (workload_name, program_file) with
    | Some name, None -> (
      match Workload.by_name name with
      | Some w ->
        Ok
          ( w.Workload.source,
            w.Workload.entry,
            w.Workload.args size,
            Some (fun () -> Workload.expected w size) )
      | None ->
        Error
          (Printf.sprintf "unknown workload %S (have: %s)" name
             (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))))
    | None, Some path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | source -> Ok (source, entry, List.map (fun n -> Value.Int n) args, None)
      | exception Sys_error msg -> Error msg)
    | Some _, Some _ -> Error "give either --workload or --program, not both"
    | None, None -> Error "give --workload NAME or --program FILE (see --help)"
  in
  (* Static analysis happens before anything touches the machine: --check
     stops here, a normal run refuses on errors unless --no-check. *)
  let report = Check.check_source ~entries:[ entry ] source in
  if check_only || check_json then begin
    if check_json then print_endline (Check.render_json report)
    else print_endline (Check.render_human report);
    if Check.ok ~werror report then 0 else 1
  end
  else
    let* () =
      match Check.errors report with
      | [] -> Ok ()
      | errs when not no_check ->
        List.iter (fun d -> Format.eprintf "%s@." (Diagnostic.to_string d)) errs;
        Error
          (Printf.sprintf "%s — refusing to run (use --no-check to override)"
             (Check.summary_line report))
      | _ -> Ok ()
    in
    List.iter
      (fun d -> Format.eprintf "%s@." (Diagnostic.to_string d))
      (Check.warnings report);
    let* () =
      match (werror, Check.warnings report) with
      | true, _ :: _ -> Error "warnings treated as errors (--werror)"
      | _ -> Ok ()
    in
    let* program =
      match report.Check.program with
      | Some p -> Ok p
      | None -> (
        (* only reachable with --no-check; structural validity is still
           required to run at all *)
        match Recflow_lang.Parser.parse_program source with
        | Ok p -> Ok p
        | Error msg -> Error msg)
    in
    let auto = policy = "auto" in
    let* policy =
      if auto || policy = "gradient:auto" then (
        match report.Check.shape with
        | Some shape ->
          let fanout =
            Shape.program_fanout_bound ~entries:report.Check.entries shape program
          in
          let weight = Recflow_balance.Policy.suggest_gradient_weight ~fanout in
          Format.eprintf "%s: static fan-out bound %d, using gradient:%d@."
            (if auto then "auto" else "gradient:auto")
            fanout weight;
          Ok (Recflow_balance.Policy.Gradient { weight })
        | None ->
          Error ((if auto then "auto" else "gradient:auto") ^ ": program did not analyse cleanly"))
      else Recflow_balance.Policy.spec_of_string policy
    in
    (* --policy auto also drives checkpoint admission: the static work and
       depth bounds of this entry call, times the operator's loss prior,
       decide how deep checkpoints still pay for their recording cost. *)
    let* ckpt_mode =
      if auto then begin
        if ckpt_keep_all then
          Error
            "--policy auto drives adaptive checkpoint admission and conflicts with \
             --keep-all-checkpoints"
        else
          match report.Check.cost with
          | None -> Error "auto: program did not analyse cleanly"
          | Some cost -> (
            let eb = Cost.entry_bounds cost ~entry ~args:argv in
            let work =
              match Cost.find cost entry with
              | Some fc -> fc.Cost.work_per_activation
              | None -> 1
            in
            (* spawns below --inline-depth are inlined and never reach the
               checkpoint table; the static call-depth bound also counts
               inlined frames, so cap it at the spawn horizon *)
            let depth_bound =
              match inline_depth with
              | Some i -> Option.map (fun d -> min d i) eb.Cost.depth
              | None -> eb.Cost.depth
            in
            match
              Recflow_balance.Policy.suggest_ckpt_admission ~work_per_activation:work
                ~fanout:eb.Cost.fanout ~depth_bound ~loss_rate ~ckpt_cost
            with
            | Some d ->
              Format.eprintf "auto: adaptive checkpoint admission to stamp depth %d@." d;
              Ok (Config.Adaptive { max_depth = d })
            | None ->
              Format.eprintf "auto: no admission cutoff, topmost checkpointing@.";
              Ok (Config.Fixed Recflow_recovery.Ckpt_table.Topmost))
      end
      else
        Ok
          (Config.Fixed
             (if ckpt_keep_all then Recflow_recovery.Ckpt_table.Keep_all
              else Recflow_recovery.Ckpt_table.Topmost))
    in
    let expected = Option.map (fun f -> f ()) expected in
  let cfg =
    {
      (Config.default ~nodes) with
      Config.topology;
      policy;
      recovery;
      ckpt_mode;
      ckpt_cost;
      ancestor_depth;
      inline_depth = (match inline_depth with Some d -> d | None -> max_int);
      seed;
      detect_delay;
    }
  in
  let* () =
    match Config.validate cfg with
    | Ok () -> Ok ()
    | Error msg -> Error ("invalid configuration: " ^ msg)
  in
  if serve then
    serve_main cfg ~workload_name ~size ~size_name ~requests ~arrival_mean ~service_replicas
      ~max_inflight ~shed_frac ~failures ~service_json ~show_stats
  else begin
  let nodes_n = Recflow_net.Topology.size cfg.Config.topology in
  let profiling = profile || profile_json <> None in
  if profiling then begin
    Profile.set_enabled true;
    Profile.reset ()
  end;
  let cluster = Cluster.create cfg program in
  (* stream the full protocol trace to disk while it happens — the ring
     only retains the newest records *)
  let jsonl_sink =
    Option.map
      (fun path ->
        let file_sink = Sink.file ~render:Trace.to_json_line path in
        let s =
          match trace_sample with
          | Some k when k > 1 -> Sink.sample ~every:k file_sink
          | _ -> file_sink
        in
        Trace.attach_sink (Cluster.trace cluster) s;
        s)
      trace_jsonl
  in
  (* the Chrome-trace export streams too: journal entries convert to trace
     events as they are recorded, so the exporter never holds the event
     list — only the currently-open slices *)
  let perfetto_stream =
    Option.map
      (fun path ->
        let oc = open_out path in
        output_string oc "[";
        let first = ref true in
        let base =
          Sink.of_fun
            ~flush:(fun () -> flush oc)
            (fun ev ->
              if !first then first := false else output_string oc ",\n";
              output_string oc (Json.to_string ev))
        in
        let stream = Perfetto.Stream.create ~nodes:nodes_n ~sink:base in
        Journal.attach_sink (Cluster.journal cluster) (Perfetto.Stream.entry_sink stream);
        (path, oc, base, stream))
      emit_trace
  in
  List.iter (fun (t, p) -> Cluster.fail_at cluster ~time:t p) failures;
  Cluster.start cluster ~fname:entry ~args:argv;
  let wall_t0 = Unix.gettimeofday () in
  let outcome = Cluster.run ~drain cluster in
  let wall_s = Unix.gettimeofday () -. wall_t0 in
  (match (jsonl_sink, trace_sample) with
  | Some s, Some k when k > 1 ->
    Format.printf "trace-jsonl: kept %d of %d records (1-in-%d sampling)@."
      (Sink.emitted s - Sink.dropped s)
      (Sink.emitted s) k
  | _ -> ());
  Option.iter Sink.close jsonl_sink;
  (match outcome.Cluster.answer with
  | Some v ->
    Format.printf "answer: %s (at t=%s)@." (Value.to_string v)
      (match outcome.Cluster.answer_time with Some t -> string_of_int t | None -> "?");
    (match expected with
    | Some e when not (Value.equal e v) ->
      Format.printf "WARNING: differs from serial reference %s@." (Value.to_string e)
    | _ -> ())
  | None ->
    Format.printf "no answer (sim ended at t=%d%s)@." outcome.Cluster.sim_time
      (match outcome.Cluster.error with Some e -> "; program error: " ^ e | None -> ""));
  (* the recovery oracle, held to the serial reference *)
  let oracle = Oracle.check ?expected cluster in
  if not (Oracle.ok oracle) then Format.printf "%a@." Oracle.pp oracle;
  Format.printf "events: %d, simulated time: %d@." outcome.Cluster.events outcome.Cluster.sim_time;
  if show_stats then begin
    Format.printf "@.counters:@.";
    Counter.pp Format.std_formatter (Cluster.counters cluster);
    Format.printf "total work: %d ticks, wasted: %d ticks@." (Cluster.total_work cluster)
      (Cluster.total_waste cluster);
    match Episode.analyze (Cluster.journal cluster) with
    | [] -> ()
    | episodes ->
      Format.printf "@.recovery episodes:@.";
      List.iter (fun e -> Format.printf "  %a@." Episode.pp e) episodes
  end;
  if show_timeline then begin
    Format.printf "@.timeline:@.";
    print_string
      (Recflow_machine.Timeline.render (Cluster.journal cluster)
         ~nodes:(Recflow_net.Topology.size cfg.Config.topology) ())
  end;
  if show_journal then begin
    Format.printf "@.journal:@.";
    List.iter
      (fun e -> Format.printf "%a@." Journal.pp_entry e)
      (Journal.entries (Cluster.journal cluster))
  end;
  if show_trace then begin
    Format.printf "@.trace:@.";
    Trace.dump ?limit:trace_limit Format.std_formatter (Cluster.trace cluster)
  end;
  Option.iter
    (fun (path, oc, base, stream) ->
      Perfetto.Stream.finish stream;
      (* the occupancy counter track is reconstructed from the retained
         journal and appended after the streamed events *)
      List.iter (Sink.emit base)
        (Perfetto.occupancy_events (Cluster.journal cluster) ~nodes:nodes_n ~buckets:96);
      output_string oc "]\n";
      close_out oc;
      Format.printf "perfetto trace written to %s (open in ui.perfetto.dev)@." path)
    perfetto_stream;
  Option.iter
    (fun path ->
      let doc =
        Metrics.run_json ?workload:workload_name
          ?size:(Option.map (fun _ -> size_name) workload_name)
          ?expected ~cluster ~outcome ()
      in
      Metrics.write ~path doc;
      Format.printf "metrics written to %s@." path)
    metrics_json;
  if profiling then begin
    if profile then Format.printf "@.%a" Profile.pp_report ();
    Option.iter
      (fun path ->
        let meta =
          [ ("tool", Json.Str "recflow"); ("seed", Json.Int cfg.Config.seed) ]
          @ match workload_name with Some w -> [ ("workload", Json.Str w) ] | None -> []
        in
        Json.write_file ~path (Profile.to_json ~wall_s ~meta ());
        Format.printf "profile written to %s@." path)
      profile_json
  end
  else ignore wall_s;
  (* fail closed, as --serve does: a wrong answer or an oracle violation
     exits 1 once every requested artefact is written *)
  match (outcome.Cluster.answer, expected) with
  | Some v, Some e when not (Value.equal e v) -> 1
  | Some _, _ -> if Oracle.ok oracle then 0 else 1
  | None, _ -> 1
  end

open Cmdliner

let failure_conv = Arg.conv (parse_failure, fun ppf (t, p) -> Format.fprintf ppf "%d@@%d" t p)

let probability_conv = Arg.conv (parse_probability, Format.pp_print_float)

let nodes = Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Processor count.")

let topology =
  Arg.(
    value
    & opt (some string) None
    & info [ "topology" ] ~docv:"SPEC" ~doc:"full:N, ring:N, mesh:RxC or cube:D (default full).")

let policy =
  Arg.(
    value & opt string "gradient"
    & info [ "policy" ] ~docv:"P"
        ~doc:
          "gradient[:W], gradient:auto (weight from the static fan-out bound), auto \
           (gradient:auto plus adaptive checkpoint admission from the static cost bounds), \
           random, round-robin, static, neighborhood[:R].")

let recovery =
  Arg.(
    value & opt string "splice"
    & info [ "recovery" ] ~docv:"R" ~doc:"none, rollback, splice or replicate:K.")

let ckpt_keep_all =
  Arg.(value & flag & info [ "keep-all-checkpoints" ] ~doc:"Disable topmost-only pruning (Q8).")

let explain_code =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"CODE"
        ~doc:"Print the one-paragraph rule doc for $(docv) (e.g. RF301) and exit.")

let loss_rate =
  Arg.(
    value & opt probability_conv 0.0
    & info [ "loss-prior" ] ~docv:"P"
        ~doc:
          "Prior probability in [0,1] that a spawned task is lost to a failure; with \
           $(b,--policy auto) it scales the expected recovery saving of each checkpoint.")

let ckpt_cost =
  Arg.(
    value & opt int 0
    & info [ "ckpt-cost" ] ~docv:"T"
        ~doc:
          "Ticks charged at spawn per checkpoint actually stored (default 0: recording is \
           free, as in the paper's base model).")

let ancestor_depth =
  Arg.(
    value & opt int 1
    & info [ "ancestor-depth" ] ~docv:"D"
        ~doc:"Ancestor links per packet: 1 = grandparent, 2 adds great-grandparent (§5.2).")

let inline_depth =
  Arg.(
    value
    & opt (some int) None
    & info [ "inline-depth" ] ~docv:"D" ~doc:"Evaluate calls at stamp depth >= D inline.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Deterministic RNG seed.")

let detect_delay =
  Arg.(value & opt int 200 & info [ "detect-delay" ] ~docv:"T" ~doc:"Failure detection latency.")

let workload =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Built-in workload (fib, tree_sum, ...).")

let size = Arg.(value & opt string "small" & info [ "size" ] ~docv:"S" ~doc:"tiny|small|medium|large.")

let program_file =
  Arg.(value & opt (some file) None & info [ "program" ] ~docv:"FILE" ~doc:"Source file to run.")

let entry = Arg.(value & opt string "main" & info [ "entry" ] ~docv:"F" ~doc:"Entry function.")

let args =
  Arg.(value & opt_all int [] & info [ "arg" ] ~docv:"N" ~doc:"Integer argument (repeatable).")

let failures =
  Arg.(
    value
    & opt_all failure_conv []
    & info [ "fail" ] ~docv:"TIME@PROC" ~doc:"Fail-stop a processor (repeatable).")

let show_journal = Arg.(value & flag & info [ "journal" ] ~doc:"Dump the lifecycle journal.")

let show_trace = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the protocol trace.")

let trace_limit =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-limit" ] ~docv:"N" ~doc:"With $(b,--trace): only the last $(docv) records.")

let show_stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print counters and work totals.")

let show_timeline =
  Arg.(value & flag & info [ "timeline" ] ~doc:"Draw the per-processor activity timeline.")

let drain = Arg.(value & flag & info [ "drain" ] ~doc:"Keep simulating after the answer arrives.")

let emit_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "emit-trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome-trace-format $(docv) (view in ui.perfetto.dev).")

let metrics_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write run metadata, counters and recovery-episode metrics as JSON to $(docv).")

let trace_jsonl =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-jsonl" ] ~docv:"FILE"
        ~doc:
          "Stream every protocol trace record to $(docv) as JSON lines while the run executes \
           (unbounded, unlike the in-memory ring).")

let trace_sample =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:
          "With $(b,--trace-jsonl): write only every $(docv)-th record (deterministic 1-in-N \
           rate sampling); skipped records are counted, never silently lost.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time the engine/checkpoint/recovery phases and print an ASCII self-time report \
           after the run.")

let profile_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-json" ] ~docv:"FILE"
        ~doc:"Write the phase profile as a recflow.profile/1 JSON document to $(docv).")

let check_only =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Run the static analyser and exit (0 clean, 1 findings); don't simulate.")

let check_json =
  Arg.(
    value & flag
    & info [ "check-json" ] ~doc:"Like $(b,--check) but print the report as one JSON object.")

let werror =
  Arg.(value & flag & info [ "werror" ] ~doc:"Treat analysis warnings as errors.")

let no_check =
  Arg.(
    value & flag
    & info [ "no-check" ]
        ~doc:"Skip the pre-run analysis gate (structural validity is still required).")

let serve =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Service mode: feed an open-loop stream of independent requests into one persistent \
           cluster instead of running a single batch program.  Requires $(b,--workload); \
           $(b,--fail) kills strike mid-stream.  Exits 0 iff every delivered answer matches \
           the serial reference.")

let requests =
  Arg.(
    value & opt int 100
    & info [ "requests" ] ~docv:"N" ~doc:"With $(b,--serve): number of requests to offer.")

let arrival_mean =
  Arg.(
    value & opt float 400.0
    & info [ "arrival-mean" ] ~docv:"T"
        ~doc:"With $(b,--serve): mean inter-arrival gap in ticks (Poisson arrivals).")

let service_replicas =
  Arg.(
    value & opt int 1
    & info [ "service-replicas" ] ~docv:"K"
        ~doc:
          "With $(b,--serve): dispatch each request as $(docv) replica roots on distinct \
           processors and take the first majority (§5.3 failure masking).")

let max_inflight =
  Arg.(
    value & opt int 64
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:"With $(b,--serve): shed arrivals while $(docv) requests are already in flight.")

let shed_frac =
  Arg.(
    value & opt float 1.0
    & info [ "shed-frac" ] ~docv:"F"
        ~doc:
          "With $(b,--serve): shed arrivals while the dead + suspected processor fraction \
           exceeds $(docv) (1.0 never sheds on suspicion).")

let service_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "service-json" ] ~docv:"FILE"
        ~doc:
          "With $(b,--serve): write traffic counts, latency percentiles and episode metrics \
           as a recflow.service/1 JSON document to $(docv).")

let cmd =
  let doc = "run applicative programs on a simulated fault-tolerant multiprocessor" in
  Cmd.v (Cmd.info "recflow" ~doc)
    Term.(
      const main $ nodes $ topology $ policy $ recovery $ ckpt_keep_all $ ancestor_depth
      $ inline_depth $ seed $ detect_delay $ workload $ size $ program_file $ entry $ args
      $ failures $ show_journal $ show_trace $ trace_limit $ show_stats $ show_timeline $ drain
      $ emit_trace $ metrics_json $ trace_jsonl $ trace_sample $ profile $ profile_json
      $ check_only $ check_json $ werror $ no_check $ serve $ requests $ arrival_mean
      $ service_replicas $ max_inflight $ shed_frac $ service_json $ explain_code $ loss_rate
      $ ckpt_cost)

let () = exit (Cmd.eval' cmd)
