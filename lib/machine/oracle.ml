module Ckpt_table = Recflow_recovery.Ckpt_table
module Stamp = Recflow_recovery.Stamp
module Value = Recflow_lang.Value

type report = {
  answers : int;
  distinct_answers : int;
  leaked_tasks : int;
  stranded_checkpoints : int;
  abandoned_tasks : int;
  unsettled_sends : int;
  quiescent : bool;
  violations : string list;
}

let distinct_values vs =
  List.fold_left (fun acc v -> if List.exists (Value.equal v) acc then acc else v :: acc) [] vs

let check ?expected cluster =
  let cfg = Cluster.config cluster in
  let quiescent = Cluster.quiescent cluster in
  let suspected = Cluster.suspected_nodes cluster in
  let live = List.filter Node.is_alive (Cluster.nodes cluster) in
  let trusted, abandoned_nodes =
    List.partition (fun n -> not (List.mem (Node.id n) suspected)) live
  in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 in
  let leaked = sum Node.live_tasks trusted in
  let abandoned = sum Node.live_tasks abandoned_nodes in
  let stranded = sum (fun n -> Ckpt_table.total_size (Node.checkpoints n)) trusted in
  let unsettled = Cluster.unsettled_sends cluster in
  (* The completion checks are only decidable on a drained, recoverable,
     healthy run with survivors; the divergence check always applies. *)
  let decidable =
    quiescent
    && Cluster.error cluster = None
    && cfg.Config.recovery <> Config.No_recovery
    && live <> []
  in
  let violations = ref [] in
  let viol fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  (* Per-request verdicts, the batch root being request -1: different
     requests legitimately produce different values, but each request's own
     answers must agree (and match [expected]), and every request must have
     an answer once the run drained.  A settled service request's answers
     were checked for agreement as it settled, and are kept per distinct
     value. *)
  let who uid = if uid < 0 then "the root" else Printf.sprintf "request %d" uid in
  let tallies = Cluster.settled_answers cluster in
  List.iter
    (fun (uid, d) ->
      viol "%s produced %d distinct answers (determinacy guarantees a unique value)" (who uid) d)
    (Cluster.split_requests cluster);
  (match expected with
  | Some e -> (
    match List.filter (fun (tl : Cluster.tally) -> not (Value.equal tl.value e)) tallies with
    | [] -> ()
    | wrong ->
      let sum f = List.fold_left (fun acc tl -> acc + f tl) 0 wrong in
      let first =
        List.fold_left
          (fun (a : Cluster.tally) (b : Cluster.tally) ->
            if b.first_uid < a.first_uid then b else a)
          (List.hd wrong) wrong
      in
      viol "%d answer(s) of %d settled request(s) differ from the expected %s (first: %s, %s)"
        (sum (fun tl -> tl.Cluster.n_answers))
        (sum (fun tl -> tl.Cluster.n_requests))
        (Value.to_string e) (who first.first_uid) (Value.to_string first.value))
  | None -> ());
  let answers = ref [] in
  Cluster.iter_request_uids cluster (fun uid ->
      let req_answers = Cluster.request_answers cluster uid in
      answers := List.rev_append req_answers !answers;
      let d = List.length (distinct_values req_answers) in
      if d > 1 then
        viol "%s produced %d distinct answers (determinacy guarantees a unique value)" (who uid) d;
      (match expected with
      | Some e -> (
        match List.filter (fun v -> not (Value.equal v e)) req_answers with
        | [] -> ()
        | v :: _ as wrong ->
          viol "%d answer(s) of %s differ from the expected %s (first: %s)" (List.length wrong)
            (who uid) (Value.to_string e) (Value.to_string v))
      | None -> ());
      if decidable && req_answers = [] then
        viol "%s got no answer although the run drained with live processors" (who uid));
  let n_answers =
    List.fold_left
      (fun acc (tl : Cluster.tally) -> acc + tl.n_answers)
      (List.length !answers) tallies
  in
  let settled_values = List.map (fun (tl : Cluster.tally) -> tl.value) tallies in
  let distinct = List.length (distinct_values (List.rev_append settled_values !answers)) in
  if decidable && n_answers > 0 && leaked > 0 then
    viol "%d task(s) leaked un-GC'd on trusted live processors at quiescence" leaked;
  if decidable && n_answers > 0 && stranded > 0 then
    viol "%d committed checkpoint(s) stranded on trusted live processors at quiescence" stranded;
  if quiescent && unsettled > 0 then
    viol "%d reliable send(s) neither acknowledged nor bounced at quiescence" unsettled;
  (* a message only names a reclaimed request, and a run queue only holds
     a freed uid, if the request was reclaimed before it settled *)
  let reclaimed = Cluster.reclaimed_hits cluster in
  if reclaimed > 0 then
    viol
      "%d message(s) or run-queue entries named a reclaimed task uid (a request was reclaimed \
       before it settled)"
      reclaimed;
  (* a released request's journal entries may be dropped, so nothing may
     record one after its release *)
  let late = Journal.late_entries (Cluster.journal cluster) in
  if late > 0 then
    viol "%d journal entr%s recorded under a request already released (it settled too early)"
      late (if late = 1 then "y" else "ies");
  (* §3.1 and §4.3: a level stamp names one call *)
  (match Journal.call_conflicts (Cluster.journal cluster) with
  | [] -> ()
  | conflicts ->
    let stamps = List.sort_uniq Stamp.compare (List.map (fun (s, _, _) -> s) conflicts) in
    let first = List.hd stamps in
    let _, older, newer = List.find (fun (s, _, _) -> Stamp.equal s first) conflicts in
    viol "%d stamp(s) name more than one call (first: stamp %s, task%d and task%d)"
      (List.length stamps) (Stamp.to_string first) older newer);
  {
    answers = n_answers;
    distinct_answers = distinct;
    leaked_tasks = leaked;
    stranded_checkpoints = stranded;
    abandoned_tasks = abandoned;
    unsettled_sends = unsettled;
    quiescent;
    violations = List.rev !violations;
  }

let ok r = r.violations = []

let assert_ok ?expected cluster =
  let r = check ?expected cluster in
  if not (ok r) then failwith ("recovery oracle: " ^ String.concat "; " r.violations);
  r

let pp ppf r =
  Format.fprintf ppf
    "@[<v>oracle: %s@ answers=%d distinct=%d leaked=%d stranded=%d abandoned=%d unsettled=%d \
     quiescent=%b@]"
    (if ok r then "ok" else String.concat "; " r.violations)
    r.answers r.distinct_answers r.leaked_tasks r.stranded_checkpoints r.abandoned_tasks
    r.unsettled_sends r.quiescent
