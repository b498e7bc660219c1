module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Splice_case = Recflow_recovery.Splice_case
module Summary = Recflow_stats.Summary
module Counter = Recflow_stats.Counter
module Json = Recflow_obs_core.Json

type t = {
  ordinal : int;
  failed_proc : int;
  fail_time : int;
  window_end : int option;
  detection_latency : int option;
  recovery_latency : int option;
  quiesce_time : int option;
  lost_tasks : int;
  lost_work : int;
  reissued : int;
  inherited : int;
  relayed : int;
  salvaged_results : int;
  orphans_dropped : int;
  aborted : int;
  duplicates_ignored : int;
  redone_tasks : int;
  redone_work : int;
  cases : (Splice_case.case * int) list;
}

let in_window ~fail_time ~window_end time =
  time >= fail_time && match window_end with Some w -> time < w | None -> true

module Stamp_tbl = Hashtbl.Make (Stamp)

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
  (* The children of each dead stamp, in [Journal.stamps] order, from one
     pass over the stamps. *)
  let children = Stamp_tbl.create 64 in
  List.iter (fun p -> Stamp_tbl.replace children p []) dead_stamps;
  List.iter
    (fun s ->
      match Stamp.parent s with
      | Some q -> (
        match Stamp_tbl.find_opt children q with
        | Some siblings -> Stamp_tbl.replace children q (s :: siblings)
        | None -> ())
      | None -> ())
    (List.rev (Journal.stamps journal));
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
        (Stamp_tbl.find children p))
    dead_stamps;
  List.filter_map
    (fun case -> Hashtbl.find_opt tally case |> Option.map (fun n -> (case, n)))
    Splice_case.all

(* Every pass below is one walk over the journal per episode, and every
   lookup inside a walk is a table probe, so the analysis is linear in the
   journal's length for a fixed number of failures. *)
let analyze journal =
  let entries = Journal.entries journal in
  let failures = Array.of_list (Journal.failures journal) in
  (* Exact busy ticks per task id, straight from the journal: every task's
     execution ends in exactly one of Completed / Aborted / Lost, each of
     which records the work consumed. *)
  let work_of : (int, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (e : Journal.entry) ->
      match e.Journal.event with
      | Journal.Completed { task; work; _ }
      | Journal.Aborted { task; work; _ }
      | Journal.Lost { task; work; _ } ->
        Hashtbl.replace work_of task work
      | _ -> ())
    entries;
  List.init (Array.length failures) (fun i ->
      let fail_time, failed_proc = failures.(i) in
      let window_end =
        if i + 1 < Array.length failures then Some (fst failures.(i + 1)) else None
      in
      let in_window time = in_window ~fail_time ~window_end time in
      (* stamp -> first pre-failure activated task id; tasks spawned before
         the failure *)
      let pre_activated = Stamp_tbl.create 256 in
      let spawned_before : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun (e : Journal.entry) ->
          if e.Journal.time < fail_time then
            match e.Journal.event with
            | Journal.Activated { task; _ } ->
              if not (Stamp_tbl.mem pre_activated e.Journal.stamp) then
                Stamp_tbl.add pre_activated e.Journal.stamp task
            | Journal.Spawned { task; _ } -> Hashtbl.replace spawned_before task ()
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
      let dead_set = Stamp_tbl.create 64 in
      List.iter (fun s -> Stamp_tbl.replace dead_set s ()) dead_stamps;
      let parent_died stamp =
        match Stamp.parent stamp with Some p -> Stamp_tbl.mem dead_set p | None -> false
      in
      (* Single pass over the window for counts, detection and quiesce. *)
      let reissued = ref 0 and inherited = ref 0 and relayed = ref 0 in
      let orphans_dropped = ref 0 and aborted = ref 0 and duplicates = ref 0 in
      let salvaged = ref 0 in
      let first_respawn = ref None and quiesce = ref None in
      let redone = Stamp_tbl.create 64 in
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
                if Hashtbl.mem spawned_before task && parent_died e.Journal.stamp then begin
                  incr salvaged;
                  true
                end
                else false
              | Journal.Activated { task; _ } -> (
                (* re-execution of a stamp the failure wiped out: charge the
                   original execution's recorded busy ticks as redone work *)
                match Stamp_tbl.find_opt pre_activated e.Journal.stamp with
                | Some orig when orig <> task ->
                  if not (Stamp_tbl.mem redone e.Journal.stamp) then
                    Stamp_tbl.add redone e.Journal.stamp
                      (Option.value ~default:0 (Hashtbl.find_opt work_of orig));
                  true
                | _ -> false)
              | _ -> false
            in
            if recovery_event then touch_quiesce e.Journal.time
          end)
        entries;
      let redone_tasks = Stamp_tbl.length redone in
      let redone_work = Stamp_tbl.fold (fun _ w acc -> acc + w) redone 0 in
      let cases = case_histogram journal ~fail_time ~dead_stamps in
      {
        ordinal = i + 1;
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

type aggregate = {
  episodes : int;
  detection : Summary.t;
  recovery : Summary.t;
  redone_work_summary : Summary.t;
  total_reissued : int;
  total_salvaged : int;
  total_redone_work : int;
  case_counts : Counter.set;
}

let aggregate eps =
  let detection = Summary.create () in
  let recovery = Summary.create () in
  let redone_work_summary = Summary.create () in
  let case_counts = Counter.create_set () in
  let total_reissued = ref 0 and total_salvaged = ref 0 and total_redone = ref 0 in
  List.iter
    (fun e ->
      Option.iter (Summary.observe_int detection) e.detection_latency;
      Option.iter (Summary.observe_int recovery) e.recovery_latency;
      Summary.observe_int redone_work_summary e.redone_work;
      total_reissued := !total_reissued + e.reissued;
      total_salvaged := !total_salvaged + e.salvaged_results;
      total_redone := !total_redone + e.redone_work;
      List.iter
        (fun (case, n) ->
          Counter.add case_counts (Printf.sprintf "case%d" (Splice_case.case_number case)) n)
        e.cases)
    eps;
  {
    episodes = List.length eps;
    detection;
    recovery;
    redone_work_summary;
    total_reissued = !total_reissued;
    total_salvaged = !total_salvaged;
    total_redone_work = !total_redone;
    case_counts;
  }

let summary_to_json s =
  if Summary.count s = 0 then Json.Obj [ ("n", Json.Int 0) ]
  else
    Json.Obj
      [
        ("n", Json.Int (Summary.count s));
        ("mean", Json.Float (Summary.mean s));
        ("min", Json.Float (Summary.min_value s));
        ("p50", Json.Float (Summary.median s));
        ("p95", Json.Float (Summary.percentile s 95.0));
        ("max", Json.Float (Summary.max_value s));
      ]

let opt_int = function Some n -> Json.Int n | None -> Json.Null

let cases_to_json cases =
  Json.Obj
    (List.map
       (fun (case, n) -> (Printf.sprintf "case%d" (Splice_case.case_number case), Json.Int n))
       cases)

let to_json e =
  Json.Obj
    [
      ("ordinal", Json.Int e.ordinal);
      ("failed_proc", Json.Int e.failed_proc);
      ("fail_time", Json.Int e.fail_time);
      ("window_end", opt_int e.window_end);
      ("detection_latency", opt_int e.detection_latency);
      ("recovery_latency", opt_int e.recovery_latency);
      ("quiesce_time", opt_int e.quiesce_time);
      ("lost_tasks", Json.Int e.lost_tasks);
      ("lost_work", Json.Int e.lost_work);
      ("reissued", Json.Int e.reissued);
      ("inherited", Json.Int e.inherited);
      ("relayed", Json.Int e.relayed);
      ("salvaged_results", Json.Int e.salvaged_results);
      ("orphans_dropped", Json.Int e.orphans_dropped);
      ("aborted", Json.Int e.aborted);
      ("duplicates_ignored", Json.Int e.duplicates_ignored);
      ("redone_tasks", Json.Int e.redone_tasks);
      ("redone_work", Json.Int e.redone_work);
      ("cases", cases_to_json e.cases);
    ]

let aggregate_to_json a =
  Json.Obj
    [
      ("episodes", Json.Int a.episodes);
      ("detection_latency", summary_to_json a.detection);
      ("recovery_latency", summary_to_json a.recovery);
      ("redone_work", summary_to_json a.redone_work_summary);
      ("total_reissued", Json.Int a.total_reissued);
      ("total_salvaged", Json.Int a.total_salvaged);
      ("total_redone_work", Json.Int a.total_redone_work);
      ( "cases",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Counter.to_alist a.case_counts)) );
    ]

let pp ppf e =
  let opt = function Some n -> string_of_int n | None -> "-" in
  Format.fprintf ppf
    "#%d P%d fails t=%d: lost=%d (%d ticks) detect=%s recover=%s reissued=%d salvaged=%d \
     redone=%d ticks%s"
    e.ordinal e.failed_proc e.fail_time e.lost_tasks e.lost_work (opt e.detection_latency)
    (opt e.recovery_latency) e.reissued e.salvaged_results e.redone_work
    (match e.cases with
    | [] -> ""
    | cases ->
      " cases["
      ^ String.concat " "
          (List.map
             (fun (c, n) -> Printf.sprintf "%d:%d" (Splice_case.case_number c) n)
             cases)
      ^ "]")
