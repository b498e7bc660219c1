module Ckpt_table = Recflow_recovery.Ckpt_table
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
  let answers = Cluster.root_answers cluster in
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
  let n_answers = List.length answers in
  let distinct = List.length (distinct_values answers) in
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
  if Cluster.service_mode cluster then begin
    (* Per-request verdicts: different requests legitimately produce
       different values, but each request's own answers must agree, and
       every submitted request must have an answer once the run drained. *)
    for uid = 0 to Cluster.submitted_requests cluster - 1 do
      let req_answers = Cluster.request_answers cluster uid in
      let d = List.length (distinct_values req_answers) in
      if d > 1 then
        viol "request %d produced %d distinct answers (determinacy guarantees a unique value)"
          uid d;
      if decidable && req_answers = [] then
        viol "request %d got no answer although the run drained with live processors" uid
    done
  end
  else begin
    if distinct > 1 then
      viol "%d distinct root answers arrived (determinacy guarantees a unique value)" distinct;
    (match expected with
    | Some e -> (
      match List.filter (fun v -> not (Value.equal v e)) answers with
      | [] -> ()
      | v :: _ as wrong ->
        viol "%d root answer(s) differ from the expected %s (first: %s)" (List.length wrong)
          (Value.to_string e) (Value.to_string v))
    | None -> ());
    if decidable && n_answers = 0 then
      viol "no root answer arrived although the run drained with live processors"
  end;
  if decidable && n_answers > 0 && leaked > 0 then
    viol "%d task(s) leaked un-GC'd on trusted live processors at quiescence" leaked;
  if decidable && n_answers > 0 && stranded > 0 then
    viol "%d committed checkpoint(s) stranded on trusted live processors at quiescence" stranded;
  if quiescent && unsettled > 0 then
    viol "%d reliable send(s) neither acknowledged nor bounced at quiescence" unsettled;
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
