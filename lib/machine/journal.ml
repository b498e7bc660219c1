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

(* Retained entries live in unboxed columns, five words each: [stride]
   ints — the time with the event kind in its low [kind_bits] bits, then
   up to three int fields — and the stamp pointer the caller passed, which
   the packet shares.  Columns come in chunks of [chunk_size] entries, the
   largest whose int column the runtime still allocates in the minor heap
   ([Max_young_wosize] is 256 words): a journal that dies young, as each
   of a sweep's hundreds of small clusters does, never touches the major
   heap, and one that survives is promoted a chunk at a time, 5 words per
   entry instead of the 10–11 of a list cell, an entry record and an event
   block.  The first chunk starts at [first_chunk] entries and doubles up
   to [chunk_size], since every cluster records its root [Spawned] entry
   during set-up. *)
let stride = 4

let kind_bits = 4

let chunk_bits = 6

let chunk_size = 1 lsl chunk_bits

let first_chunk = 16

type t = {
  retain : bool;
      (* scale runs record millions of entries: with [retain = false] no
         column is ever allocated and the per-stamp index stays empty
         (sinks still see everything), so journal memory is O(1) instead
         of O(run length) *)
  mutable n_entries : int;
  mutable last_time : int;  (* meaningful once [n_entries > 0] *)
  mutable ints : int array array;  (* chunk [c] holds entries [c * chunk_size ..] *)
  mutable stamps : Stamp.t array array;
  mutable capacity : int;  (* entries the allocated chunks can hold *)
  reason_ids : (string, int) Hashtbl.t;
  mutable reasons : string array;
      (* [Respawned] and [Relay_dropped] reasons, interned: the columns hold
         an index into this table *)
  by_stamp : int list ref Stamp_tbl.t;  (* entry indices, reverse chronological *)
  mutable indexed : int;
      (* retained entries already in [by_stamp]: the index is built on the
         first per-stamp query and caught up on each later one, so
         [record] — on every run's hot path — never touches it *)
  mutable extra : entry Recflow_obs_core.Sink.t option;
      (* streaming consumers (Perfetto.Stream, JSONL) see every entry as
         it is recorded, without waiting for — or needing — the full
         retained columns *)
  mutable prints : int array;
      (* call fingerprint per task id, [-1] for none; stays empty unless
         [retain] *)
}

let create ?(retain = true) () =
  {
    retain;
    n_entries = 0;
    last_time = 0;
    ints = [||];
    stamps = [||];
    capacity = 0;
    reason_ids = Hashtbl.create 8;
    reasons = [||];
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

let retained t = if t.retain then t.n_entries else 0

let intern t reason =
  match Hashtbl.find_opt t.reason_ids reason with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.reason_ids in
    if i = Array.length t.reasons then begin
      let a = Array.make (max 8 (2 * i)) "" in
      Array.blit t.reasons 0 a 0 i;
      t.reasons <- a
    end;
    t.reasons.(i) <- reason;
    Hashtbl.add t.reason_ids reason i;
    i

(* Room for one more entry: the first chunk doubles in place until it is
   full size, then each further chunk is allocated full size. *)
let grow t =
  let n = t.capacity in
  if n < chunk_size then begin
    let cap = if n = 0 then first_chunk else 2 * n in
    let ints = Array.make (stride * cap) 0 and stamps = Array.make cap Stamp.root in
    if n > 0 then begin
      Array.blit t.ints.(0) 0 ints 0 (stride * n);
      Array.blit t.stamps.(0) 0 stamps 0 n
    end;
    t.ints <- [| ints |];
    t.stamps <- [| stamps |];
    t.capacity <- cap
  end
  else begin
    let c = n lsr chunk_bits in
    if c = Array.length t.ints then begin
      let ints = Array.make (2 * c) [||] and stamps = Array.make (2 * c) [||] in
      Array.blit t.ints 0 ints 0 c;
      Array.blit t.stamps 0 stamps 0 c;
      t.ints <- ints;
      t.stamps <- stamps
    end;
    t.ints.(c) <- Array.make (stride * chunk_size) 0;
    t.stamps.(c) <- Array.make chunk_size Stamp.root;
    t.capacity <- n + chunk_size
  end

(* [ints] is annotated: stores into an unknown array type go through
   [caml_modify]. *)
let put (ints : int array) o packed a b c =
  Array.unsafe_set ints o packed;
  Array.unsafe_set ints (o + 1) a;
  Array.unsafe_set ints (o + 2) b;
  Array.unsafe_set ints (o + 3) c

(* Store entry [i] (= [t.n_entries]) in the columns.  The kind numbers
   here and in [event_at] are the column format. *)
let store t ~time ~stamp event =
  let packed = time lsl kind_bits in
  if packed asr kind_bits <> time then invalid_arg "Journal.record: time out of range";
  let i = t.n_entries in
  if i = t.capacity then grow t;
  let c = i lsr chunk_bits and o = i land (chunk_size - 1) in
  Array.unsafe_set (Array.unsafe_get t.stamps c) o stamp;
  let ints = Array.unsafe_get t.ints c and o = stride * o in
  match event with
  | Spawned { task; dest; replica } -> put ints o packed task dest replica
  | Activated { task; proc } -> put ints o (packed lor 1) task proc 0
  | Acked { task; proc } -> put ints o (packed lor 2) task proc 0
  | Completed { task; proc; work } -> put ints o (packed lor 3) task proc work
  | Inlined { parent_task; proc; work } -> put ints o (packed lor 4) parent_task proc work
  | Aborted { task; proc; work } -> put ints o (packed lor 5) task proc work
  | Lost { task; proc; work } -> put ints o (packed lor 6) task proc work
  | Respawned { task; dest; reason } -> put ints o (packed lor 7) task dest (intern t reason)
  | Inherited { orphan_task; proc } -> put ints o (packed lor 8) orphan_task proc 0
  | Result_accepted { task } -> put ints o (packed lor 9) task 0 0
  | Duplicate_ignored { task } -> put ints o (packed lor 10) task 0 0
  | Relayed { via } -> put ints o (packed lor 11) via 0 0
  | Relay_dropped { at; reason } -> put ints o (packed lor 12) at (intern t reason) 0
  | Orphan_dropped { task } -> put ints o (packed lor 13) task 0 0
  | Failure { proc } -> put ints o (packed lor 14) proc 0 0

(* Column readers for retained entry [i]: word 0 is the packed time and
   kind, words 1–3 the event's fields. *)
let word t i k =
  Array.unsafe_get
    (Array.unsafe_get t.ints (i lsr chunk_bits))
    ((stride * (i land (chunk_size - 1))) + k)

let kind_at t i = word t i 0 land ((1 lsl kind_bits) - 1)

let time_at t i = word t i 0 asr kind_bits

let stamp_at t i =
  Array.unsafe_get (Array.unsafe_get t.stamps (i lsr chunk_bits)) (i land (chunk_size - 1))

let event_at t i =
  let a = word t i 1 and b = word t i 2 and c = word t i 3 in
  match kind_at t i with
  | 0 -> Spawned { task = a; dest = b; replica = c }
  | 1 -> Activated { task = a; proc = b }
  | 2 -> Acked { task = a; proc = b }
  | 3 -> Completed { task = a; proc = b; work = c }
  | 4 -> Inlined { parent_task = a; proc = b; work = c }
  | 5 -> Aborted { task = a; proc = b; work = c }
  | 6 -> Lost { task = a; proc = b; work = c }
  | 7 -> Respawned { task = a; dest = b; reason = t.reasons.(c) }
  | 8 -> Inherited { orphan_task = a; proc = b }
  | 9 -> Result_accepted { task = a }
  | 10 -> Duplicate_ignored { task = a }
  | 11 -> Relayed { via = a }
  | 12 -> Relay_dropped { at = a; reason = t.reasons.(b) }
  | 13 -> Orphan_dropped { task = a }
  | _ -> Failure { proc = a }

let entry_at t i = { time = time_at t i; stamp = stamp_at t i; event = event_at t i }

(* The entry is stored and counted before a sink sees it, so a sink that
   queries the journal finds it there.  A journal that neither retains
   nor streams only counts: no entry is built for it. *)
let record t ~time ~stamp event =
  if t.retain then store t ~time ~stamp event;
  t.n_entries <- t.n_entries + 1;
  t.last_time <- time;
  match t.extra with
  | Some s -> Recflow_obs_core.Sink.emit s { time; stamp; event }
  | None -> ()

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

(* The activation entry [i] spawns, re-issues or inherits ([Spawned],
   [Respawned], [Inherited]: its first field), if a call was noted for it;
   [-1] otherwise. *)
let noted_task t i =
  match kind_at t i with
  | 0 | 7 | 8 (* Spawned, Respawned, Inherited *) ->
    let task = word t i 1 in
    if task >= 0 && task < Array.length t.prints && t.prints.(task) >= 0 then task else -1
  | _ -> -1

let named_calls t =
  let acc = ref [] in
  for i = retained t - 1 downto 0 do
    let task = noted_task t i in
    if task >= 0 then acc := (stamp_at t i, t.prints.(task)) :: !acc
  done;
  List.sort_uniq
    (fun (a, p) (b, q) -> match Stamp.compare a b with 0 -> Int.compare p q | c -> c)
    !acc

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
  let conflicts = ref [] in
  for e = retained t - 1 downto 0 do
    let task = noted_task t e in
    if task >= 0 then begin
      let stamp = stamp_at t e in
      let h = stamp_print stamp in
      let i = ref ((h lxor (h lsr 32)) land mask) in
      while tasks.(!i) >= 0 && not (Stamp.equal keys.(!i) stamp) do
        i := (!i + 1) land mask
      done;
      if tasks.(!i) < 0 then begin
        keys.(!i) <- stamp;
        tasks.(!i) <- task
      end
      else if t.prints.(tasks.(!i)) <> t.prints.(task) then
        conflicts := (stamp, task, tasks.(!i)) :: !conflicts
    end
  done;
  !conflicts

let entries t =
  let acc = ref [] in
  for i = retained t - 1 downto 0 do
    acc := entry_at t i :: !acc
  done;
  !acc

let length t = t.n_entries

let last_entry_time t = if t.n_entries = 0 then None else Some t.last_time

let failures t =
  let acc = ref [] in
  for i = retained t - 1 downto 0 do
    if kind_at t i = 14 (* Failure *) then acc := (time_at t i, word t i 1) :: !acc
  done;
  !acc

(* Index the entries recorded since the last query, oldest first, so each
   per-stamp list stays reverse chronological. *)
let catch_up t =
  let n = retained t in
  for i = t.indexed to n - 1 do
    let stamp = stamp_at t i in
    match Stamp_tbl.find_opt t.by_stamp stamp with
    | Some r -> r := i :: !r
    | None -> Stamp_tbl.add t.by_stamp stamp (ref [ i ])
  done;
  t.indexed <- n

(* Entry indices for [stamp], newest first. *)
let indices t stamp =
  catch_up t;
  match Stamp_tbl.find_opt t.by_stamp stamp with Some r -> !r | None -> []

let for_stamp t stamp = List.fold_left (fun acc i -> entry_at t i :: acc) [] (indices t stamp)

let stamps t =
  catch_up t;
  Stamp_tbl.fold (fun k _ acc -> k :: acc) t.by_stamp [] |> List.sort Stamp.compare

let count t pred =
  let n = ref 0 in
  for i = 0 to retained t - 1 do
    if pred (event_at t i) then incr n
  done;
  !n

let first_time t stamp pred =
  List.fold_left
    (fun acc i -> if pred (event_at t i) then Some (time_at t i) else acc)
    None (indices t stamp)

let last_time t stamp pred =
  List.find_map
    (fun i -> if pred (event_at t i) then Some (time_at t i) else None)
    (indices t stamp)

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
