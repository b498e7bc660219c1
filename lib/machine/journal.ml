module Stamp = Recflow_recovery.Stamp
module Ids = Recflow_recovery.Ids
module Value = Recflow_lang.Value

type event =
  | Spawned of { task : Ids.task_id; dest : Ids.proc_id; replica : int }
  | Activated of { task : Ids.task_id; proc : Ids.proc_id }
  | Acked of { task : Ids.task_id; proc : Ids.proc_id }
  | Completed of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Inlined of { parent_task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Aborted of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Lost of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Respawned of { task : Ids.task_id; dest : Ids.proc_id; reason : string }
  | Inherited of { orphan_task : Ids.task_id; proc : Ids.proc_id }
  | Result_accepted of { task : Ids.task_id }
  | Duplicate_ignored of { task : Ids.task_id }
  | Relayed of { via : Ids.proc_id }
  | Relay_dropped of { at : Ids.proc_id; reason : string }
  | Orphan_dropped of { task : Ids.task_id }
  | Failure of { proc : Ids.proc_id }

type entry = { time : int; stamp : Stamp.t; event : event }

module Stamp_tbl = Hashtbl.Make (Stamp)

type t = {
  retain : bool;
      (* scale runs record millions of entries: with [retain = false] the
         list and per-stamp index stay empty (sinks still see everything)
         so journal memory is O(1) instead of O(run length) *)
  mutable rev_entries : entry list;
  mutable n_entries : int;
  mutable last_time : int;  (* meaningful once [n_entries > 0] *)
  by_stamp : entry list ref Stamp_tbl.t;  (* reverse chronological *)
  mutable indexed : int;
      (* retained entries already in [by_stamp]: the index is built on the
         first per-stamp query and caught up on each later one, so
         [record] — on every run's hot path — never touches it *)
  mutable extra : entry Recflow_obs_core.Sink.t option;
      (* streaming consumers (Perfetto.Stream, JSONL) see every entry as
         it is recorded, without waiting for — or needing — the full
         retained list *)
  mutable prints : int array;
      (* call fingerprint per task id, [-1] for none; stays empty unless
         [retain] *)
}

let create ?(retain = true) () =
  {
    retain;
    rev_entries = [];
    n_entries = 0;
    last_time = 0;
    by_stamp = Stamp_tbl.create 256;
    indexed = 0;
    extra = None;
    prints = [||];
  }

let attach_sink t sink =
  t.extra <-
    (match t.extra with
    | None -> Some sink
    | Some existing -> Some (Recflow_obs_core.Sink.tee existing sink))

(* A journal that neither retains nor streams only counts: no entry is
   built for it. *)
let record t ~time ~stamp event =
  t.n_entries <- t.n_entries + 1;
  t.last_time <- time;
  match t.extra with
  | Some s ->
    let e = { time; stamp; event } in
    Recflow_obs_core.Sink.emit s e;
    if t.retain then t.rev_entries <- e :: t.rev_entries
  | None -> if t.retain then t.rev_entries <- { time; stamp; event } :: t.rev_entries

(* 63-bit prints of calls and stamps: xor-then-multiply steps are
   bijections, so two inputs that differ in one position never collide. *)
let mix h x = (h lxor x) * 0x100000001b3

let fingerprint fname args =
  let rec value h = function
    | Value.Int n -> mix (mix h 1) n
    | Value.Bool b -> mix h (if b then 2 else 3)
    | Value.Nil -> mix h 4
    | Value.Cons (x, rest) -> value (value (mix h 5) x) rest
  in
  let h = ref (mix 0x3bd39e10cb0ef593 (Array.length args)) in
  for i = 0 to String.length fname - 1 do
    h := mix !h (Char.code (String.unsafe_get fname i))
  done;
  for i = 0 to Array.length args - 1 do
    h := value !h args.(i)
  done;
  !h land max_int

let stamp_print s =
  let h = ref (mix 0x3bd39e10cb0ef593 (Stamp.depth s)) in
  for i = 0 to Stamp.depth s - 1 do
    h := mix !h (Stamp.digit s i)
  done;
  !h land max_int

let note_call t ~task fname args =
  if t.retain && task >= 0 then begin
    let n = Array.length t.prints in
    if task >= n then begin
      let a = Array.make (max 64 (max (2 * n) (task + 1))) (-1) in
      Array.blit t.prints 0 a 0 n;
      t.prints <- a
    end;
    t.prints.(task) <- fingerprint fname args
  end

(* The activation an entry spawns, re-issues or inherits, if a call was
   noted for it; [-1] otherwise. *)
let noted_task t e =
  let task =
    match e.event with
    | Spawned { task; _ } | Respawned { task; _ } -> task
    | Inherited { orphan_task; _ } -> orphan_task
    | _ -> -1
  in
  if task >= 0 && task < Array.length t.prints && t.prints.(task) >= 0 then task else -1

let named_calls t =
  List.fold_left
    (fun acc e ->
      let task = noted_task t e in
      if task < 0 then acc else (e.stamp, t.prints.(task)) :: acc)
    [] t.rev_entries
  |> List.sort_uniq (fun (a, p) (b, q) ->
         match Stamp.compare a b with 0 -> Int.compare p q | c -> c)

(* One walk over the retained entries, newest first, into an open-address
   table: slot [i] holds the newest activation [tasks.(i)] noted under
   stamp [keys.(i)] ([-1] when free), and every older activation with
   another call is a conflict (stamp, older task, newer task).  The table
   hashes every digit: [Stamp.hash] reads only a stamp's first few, and
   the deep stamps of one subtree would share a handful of chains. *)
let call_conflicts t =
  let cap = ref 64 in
  while !cap < 2 * Array.length t.prints do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let keys = Array.make !cap Stamp.root and tasks = Array.make !cap (-1) in
  List.fold_left
    (fun conflicts e ->
      let task = noted_task t e in
      if task < 0 then conflicts
      else begin
        let h = stamp_print e.stamp in
        let i = ref ((h lxor (h lsr 32)) land mask) in
        while tasks.(!i) >= 0 && not (Stamp.equal keys.(!i) e.stamp) do
          i := (!i + 1) land mask
        done;
        if tasks.(!i) < 0 then begin
          keys.(!i) <- e.stamp;
          tasks.(!i) <- task;
          conflicts
        end
        else if t.prints.(tasks.(!i)) <> t.prints.(task) then (e.stamp, task, tasks.(!i)) :: conflicts
        else conflicts
      end)
    [] t.rev_entries

let entries t = List.rev t.rev_entries

let length t = t.n_entries

let last_entry_time t = if t.n_entries = 0 then None else Some t.last_time

let failures t =
  List.rev
    (List.filter_map
       (fun e -> match e.event with Failure { proc } -> Some (e.time, proc) | _ -> None)
       t.rev_entries)

(* Index the entries recorded since the last query: they are the newest
   [retained - indexed] of [rev_entries], added oldest first so each
   per-stamp list stays reverse chronological. *)
let catch_up t =
  let retained = if t.retain then t.n_entries else 0 in
  if t.indexed < retained then begin
    let rec newest n l acc =
      match l with e :: rest when n > 0 -> newest (n - 1) rest (e :: acc) | _ -> acc
    in
    List.iter
      (fun e ->
        match Stamp_tbl.find_opt t.by_stamp e.stamp with
        | Some r -> r := e :: !r
        | None -> Stamp_tbl.add t.by_stamp e.stamp (ref [ e ]))
      (newest (retained - t.indexed) t.rev_entries []);
    t.indexed <- retained
  end

let for_stamp t stamp =
  catch_up t;
  match Stamp_tbl.find_opt t.by_stamp stamp with Some r -> List.rev !r | None -> []

let stamps t =
  catch_up t;
  Stamp_tbl.fold (fun k _ acc -> k :: acc) t.by_stamp [] |> List.sort Stamp.compare

let count t pred =
  List.fold_left (fun acc e -> if pred e.event then acc + 1 else acc) 0 t.rev_entries

let first_time t stamp pred =
  List.find_opt (fun e -> pred e.event) (for_stamp t stamp) |> Option.map (fun e -> e.time)

let last_time t stamp pred =
  List.fold_left
    (fun acc e -> if pred e.event then Some e.time else acc)
    None (for_stamp t stamp)

let event_label = function
  | Spawned _ -> "spawned"
  | Activated _ -> "activated"
  | Acked _ -> "acked"
  | Completed _ -> "completed"
  | Inlined _ -> "inlined"
  | Aborted _ -> "aborted"
  | Lost _ -> "lost"
  | Respawned _ -> "respawned"
  | Inherited _ -> "inherited"
  | Result_accepted _ -> "result_accepted"
  | Duplicate_ignored _ -> "duplicate_ignored"
  | Relayed _ -> "relayed"
  | Relay_dropped _ -> "relay_dropped"
  | Orphan_dropped _ -> "orphan_dropped"
  | Failure _ -> "failure"

let pp_entry ppf e =
  let detail =
    match e.event with
    | Spawned { task; dest; replica } ->
      Printf.sprintf "task%d -> %s%s" task (Ids.proc_to_string dest)
        (if replica > 0 then Printf.sprintf " (replica %d)" replica else "")
    | Activated { task; proc } | Acked { task; proc } ->
      Printf.sprintf "task%d on %s" task (Ids.proc_to_string proc)
    | Completed { task; proc; work } | Aborted { task; proc; work } | Lost { task; proc; work }
      ->
      Printf.sprintf "task%d on %s (work %d)" task (Ids.proc_to_string proc) work
    | Inlined { parent_task; proc; work } ->
      Printf.sprintf "inside task%d on %s (work %d)" parent_task (Ids.proc_to_string proc) work
    | Respawned { task; dest; reason } ->
      Printf.sprintf "task%d -> %s (%s)" task (Ids.proc_to_string dest) reason
    | Inherited { orphan_task; proc } ->
      Printf.sprintf "orphan task%d on %s adopted" orphan_task (Ids.proc_to_string proc)
    | Result_accepted { task } | Duplicate_ignored { task } | Orphan_dropped { task } ->
      Printf.sprintf "task%d" task
    | Relayed { via } -> Printf.sprintf "via %s" (Ids.proc_to_string via)
    | Relay_dropped { at; reason } ->
      Printf.sprintf "at %s (%s)" (Ids.proc_to_string at) reason
    | Failure { proc } -> Ids.proc_to_string proc
  in
  Format.fprintf ppf "[%8d] %-10s %-16s %s" e.time (Stamp.to_string e.stamp)
    (event_label e.event) detail
