module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Splice_case = Recflow_recovery.Splice_case
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

(* The §4.1 timeline of [child] against its [parent]'s recovery from the
   failure at [fail_time].  The originals are the parent's first
   activation and the child's first spawn before the failure; the twin
   P′ and the clone C′ are the first other activations and completions
   at or after it. *)
let timeline journal ~fail_time ~parent ~child =
  let p = Journal.for_stamp journal parent and c = Journal.for_stamp journal child in
  let first entries pred =
    List.find_map
      (fun (e : Journal.entry) -> if pred e then Some e.Journal.time else None)
      entries
  in
  let original entries kind =
    List.find_map
      (fun (e : Journal.entry) -> if e.Journal.time < fail_time then kind e.Journal.event else None)
      entries
  in
  let invoked = function Journal.Activated { task; _ } -> Some task | _ -> None in
  let completed = function Journal.Completed { task; _ } -> Some task | _ -> None in
  let spawned = function Journal.Spawned { task; _ } -> Some task | _ -> None in
  let p_orig = original p invoked and c_orig = original c spawned in
  let by_original entries kind =
    match c_orig with
    | None -> None
    | Some orig -> first entries (fun e -> kind e.Journal.event = Some orig)
  in
  let by_copy entries orig kind =
    first entries (fun e ->
        e.Journal.time >= fail_time
        && match kind e.Journal.event with Some task -> Some task <> orig | None -> false)
  in
  {
    Splice_case.c_invoked = by_original c invoked;
    c_completed = by_original c completed;
    p_failed = fail_time;
    p'_invoked = by_copy p p_orig invoked;
    p'_completed = by_copy p p_orig completed;
    c'_invoked = by_copy c c_orig invoked;
    c'_completed = by_copy c c_orig completed;
  }

(* §4.1 classification for every child of every task that died with the
   failed processor. *)
let case_histogram journal ~fail_time ~dead_stamps =
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
    (fun parent ->
      List.iter
        (fun child ->
          let case = Splice_case.classify (timeline journal ~fail_time ~parent ~child) in
          Hashtbl.replace tally case (1 + Option.value ~default:0 (Hashtbl.find_opt tally case)))
        (Stamp_tbl.find children parent))
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
      (* Settled requests the journal dropped lay wholly inside one window
         with no [Lost] entry, so only their recovery-event tallies count:
         none of them was activated, spawned or salvaged before this
         failure, and none died in it. *)
      let dropped pred = Journal.dropped_tally journal ~window:(i + 1) pred in
      let kind_count pred = (dropped pred).Journal.entries in
      reissued := !reissued + kind_count (function Journal.Respawned _ -> true | _ -> false);
      inherited := !inherited + kind_count (function Journal.Inherited _ -> true | _ -> false);
      relayed := !relayed + kind_count (function Journal.Relayed _ -> true | _ -> false);
      orphans_dropped :=
        !orphans_dropped + kind_count (function Journal.Orphan_dropped _ -> true | _ -> false);
      duplicates :=
        !duplicates + kind_count (function Journal.Duplicate_ignored _ -> true | _ -> false);
      aborted := !aborted + kind_count (function Journal.Aborted _ -> true | _ -> false);
      let respawns = dropped (function Journal.Respawned _ -> true | _ -> false) in
      if respawns.Journal.entries > 0 then
        first_respawn :=
          Some
            (match !first_respawn with
            | Some time -> min time respawns.Journal.first
            | None -> respawns.Journal.first);
      let recovery =
        dropped (function
          | Journal.Respawned _ | Journal.Inherited _ | Journal.Relayed _
          | Journal.Relay_dropped _ | Journal.Orphan_dropped _ | Journal.Duplicate_ignored _
          | Journal.Aborted _ ->
            true
          | _ -> false)
      in
      if recovery.Journal.entries > 0 then touch_quiesce recovery.Journal.last;
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
  detection : int list;
  recovery : int list;
  redone : int list;
  total_reissued : int;
  total_salvaged : int;
  total_redone_work : int;
  case_counts : Counter.set;
}

let aggregate eps =
  let case_counts = Counter.create_set () in
  List.iter
    (fun e ->
      List.iter
        (fun (case, n) ->
          Counter.add case_counts (Printf.sprintf "case%d" (Splice_case.case_number case)) n)
        e.cases)
    eps;
  let total f = List.fold_left (fun acc e -> acc + f e) 0 eps in
  {
    episodes = List.length eps;
    detection = List.filter_map (fun e -> e.detection_latency) eps;
    recovery = List.filter_map (fun e -> e.recovery_latency) eps;
    redone = List.map (fun e -> e.redone_work) eps;
    total_reissued = total (fun e -> e.reissued);
    total_salvaged = total (fun e -> e.salvaged_results);
    total_redone_work = total (fun e -> e.redone_work);
    case_counts;
  }

(* The mean is the in-order float sum over n; the quantiles are
   nearest-rank: the sample at rank ceil(p/100 * n) in sorted order. *)
let series_to_json = function
  | [] -> Json.Obj [ ("n", Json.Int 0) ]
  | xs ->
    let sorted = Array.of_list (List.sort compare xs) in
    let n = Array.length sorted in
    let at i = Json.Float (float_of_int sorted.(i)) in
    let nearest_rank p = at (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1) in
    Json.Obj
      [
        ("n", Json.Int n);
        ( "mean",
          Json.Float (List.fold_left (fun acc x -> acc +. float_of_int x) 0.0 xs /. float_of_int n)
        );
        ("min", at 0);
        ("p50", nearest_rank 50.0);
        ("p95", nearest_rank 95.0);
        ("max", at (n - 1));
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
      ("detection_latency", series_to_json a.detection);
      ("recovery_latency", series_to_json a.recovery);
      ("redone_work", series_to_json a.redone);
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
