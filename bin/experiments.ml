(* Regenerate every reproduced figure/table of the paper.

   Usage:
     experiments            # run everything at full size
     experiments --quick    # smaller sweeps (used by CI-style checks)
     experiments F5 Q2      # only the named experiments
     experiments --list
     experiments --markdown out.md *)

module Registry = Recflow_experiments.Registry
module Report = Recflow_experiments.Report
module Harness = Recflow_experiments.Harness
module Cluster = Recflow_machine.Cluster
module Metrics = Recflow_obs.Metrics
module Pool = Recflow_parallel.Pool
module Profile = Recflow_obs_core.Profile
module Json = Recflow_obs_core.Json

module Counter = Recflow_stats.Counter
module Hdr = Recflow_stats.Hdr

(* The sweep-wide aggregate: every counter summed over every run, plus one
   histogram per run-level distribution.  Hook bodies run concurrently on
   pool domains, so the aggregate sits under one mutex taken once per
   finished run — noise next to the simulation that produced it.  Counter
   and Hdr sums commute, so the totals do not depend on which domain
   finished which run first. *)
type aggregate = {
  runs : int Atomic.t;
  lock : Mutex.t;
  counters : Counter.set;
  hdrs : (string, Hdr.t) Hashtbl.t;
}

let record agg name v =
  let h =
    match Hashtbl.find_opt agg.hdrs name with
    | Some h -> h
    | None ->
      let h = Hdr.create () in
      Hashtbl.add agg.hdrs name h;
      h
  in
  Hdr.record h v

(* Dump one metrics document per simulated run into [dir]; file names
   carry a completion ordinal (an atomic fetch-and-add), so a whole
   experiment sweep becomes a browsable trajectory — at --jobs > 1 the
   same run can land under a different ordinal from one invocation to the
   next. *)
let install_metrics_hook dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let agg =
    {
      runs = Atomic.make 0;
      lock = Mutex.create ();
      counters = Counter.create_set ();
      hdrs = Hashtbl.create 8;
    }
  in
  Harness.set_obs_hook
    (Some
       (fun info (r : Harness.run) ->
         let ordinal = Atomic.fetch_and_add agg.runs 1 + 1 in
         let path =
           Filename.concat dir
             (Printf.sprintf "run-%05d-%s-%s.json" ordinal info.Harness.workload_name
                info.Harness.size_name)
         in
         Metrics.write ~path
           (Metrics.run_json ~workload:info.Harness.workload_name ~size:info.Harness.size_name
              ~cluster:r.Harness.cluster ~outcome:r.Harness.outcome ());
         Mutex.protect agg.lock (fun () ->
             List.iter
               (fun (name, v) -> Counter.add agg.counters name v)
               (Counter.to_alist (Cluster.counters r.Harness.cluster));
             record agg "run.sim_time" r.Harness.outcome.Cluster.sim_time;
             record agg "run.events" r.Harness.outcome.Cluster.events)));
  agg

(* The document a trajectory-level dashboard reads instead of re-folding
   thousands of run files.  Written after every sweep has returned, so the
   aggregate is settled and needs no lock. *)
let write_sweep_aggregate dir agg =
  let path = Filename.concat dir "sweep-aggregate.json" in
  let hdrs =
    Hashtbl.fold (fun k h acc -> (k, h) :: acc) agg.hdrs []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.write_file ~path
    (Json.Obj
       [
         ("schema", Json.Str "recflow.sweep/1");
         ("runs", Json.Int (Atomic.get agg.runs));
         ( "counters",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Counter.to_alist agg.counters)) );
         ("distributions", Json.Obj (List.map (fun (k, h) -> (k, Metrics.hdr_json h)) hdrs));
       ]);
  Format.printf "sweep aggregate written to %s@." path

let run_entries quick markdown entries =
  let reports =
    List.map
      (fun (e : Registry.entry) ->
        let t0 = Unix.gettimeofday () in
        let r = e.Registry.run ~quick () in
        let dt = Unix.gettimeofday () -. t0 in
        Format.printf "%a" Report.pp r;
        Format.printf "(%.1fs)@." dt;
        r)
      entries
  in
  (match markdown with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc "# Experiment results\n\n";
    List.iter (fun r -> output_string oc (Report.to_markdown r)) reports;
    close_out oc;
    Format.printf "@.markdown written to %s@." path);
  let failed = List.filter (fun r -> not (Report.all_checks_pass r)) reports in
  Format.printf "@.%d/%d experiments passed all checks@." (List.length reports - List.length failed)
    (List.length reports);
  if failed <> [] then begin
    List.iter (fun (r : Report.t) -> Format.printf "  FAILED: %s@." r.Report.id) failed;
    exit 1
  end

let main quick list_only markdown metrics_dir jobs profile ids =
  (match jobs with
  | Some j when j < 1 ->
    Format.eprintf "--jobs must be >= 1@.";
    exit 2
  | Some j -> Pool.set_default_jobs j
  | None -> ());
  (* Spawn + first-wakeup of the pool workers happens here, not inside the
     first experiment's timed section. *)
  Harness.warm_pool ();
  if profile then begin
    Profile.set_enabled true;
    Profile.reset ()
  end;
  let wall_t0 = Unix.gettimeofday () in
  let aggregate = Option.map install_metrics_hook metrics_dir in
  let finish code =
    (match (metrics_dir, aggregate) with
    | Some dir, Some agg ->
      Format.printf "%d run metrics documents written to %s/@." (Atomic.get agg.runs) dir;
      write_sweep_aggregate dir agg
    | _ -> ());
    if profile then begin
      Format.printf "@.%a" Profile.pp_report ();
      match metrics_dir with
      | Some dir ->
        let path = Filename.concat dir "profile.json" in
        Json.write_file ~path
          (Profile.to_json
             ~wall_s:(Unix.gettimeofday () -. wall_t0)
             ~meta:[ ("tool", Json.Str "experiments") ]
             ());
        Format.printf "profile written to %s@." path
      | None -> ()
    end;
    code
  in
  if list_only then begin
    List.iter
      (fun (e : Registry.entry) -> Format.printf "%-4s %s@." e.Registry.id e.Registry.title)
      Registry.all;
    0
  end
  else begin
    let entries =
      match ids with
      | [] -> Registry.all
      | ids ->
        List.map
          (fun id ->
            match Registry.find id with
            | Some e -> e
            | None ->
              Format.eprintf "unknown experiment %S (try --list)@." id;
              exit 2)
          ids
    in
    run_entries quick markdown entries;
    finish 0
  end

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Run reduced-size sweeps (faster, same checks).")

let list_only = Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let markdown =
  Arg.(
    value
    & opt (some string) None
    & info [ "markdown" ] ~docv:"FILE" ~doc:"Also write the reports as markdown to $(docv).")

let metrics_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-dir" ] ~docv:"DIR"
        ~doc:
          "Write one JSON metrics document (config metadata, counters, recovery-episode spans) \
           per simulated run into $(docv), created if missing.")

let jobs =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan each experiment sweep out over $(docv) domains (default: the machine's \
           recommended domain count).  Reports are bit-identical at any $(docv); $(docv)=1 \
           runs strictly sequentially.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Time the engine/checkpoint/recovery phases across every run and print an ASCII \
           self-time report at the end (with $(b,--metrics-dir): also write profile.json).")

let ids = Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids to run.")

let cmd =
  let doc = "regenerate the figures and tables of Lin & Keller (ICPP 1986)" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(const main $ quick $ list_only $ markdown $ metrics_dir $ jobs $ profile $ ids)

let () = exit (Cmd.eval' cmd)
