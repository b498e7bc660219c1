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

(* Retained entries live in unboxed columns, three words each: [stride]
   ints and the stamp pointer the caller passed, which the packet shares.
   The first int holds the time, the processor field and the event kind,
   the second the event's third field (work, replica or reason id) and its
   task field:

     word 0   time lsl 29  lor  (proc + 1) lsl 4  lor  kind
     word 1   third lsl 29  lor  (task + 1)

   Each field's range is one the machine already keeps it in: times are
   the engine's packable ones (below 2^34), task ids stay below 2^28 (an
   engine dispatches fewer than 2^28 events and every task costs at least
   one), processor ids below 2^24 ([Config.validate] holds a topology to
   that) and a third field below 2^34; a task or processor field may also
   be [-1] (no task, the super-root).  Time and third field fill the top
   34 bits of a 63-bit int, so they read back with [lsr].  Columns come in
   chunks of [chunk_size] entries, whose int column (128 words) the runtime
   allocates in the minor heap ([Max_young_wosize] is 256 words): a
   journal that dies young, as each of a sweep's hundreds of small
   clusters does, never touches the major heap, and one that survives is promoted a chunk at a time, 3 words per
   entry instead of the 10–11 of a list cell, an entry record and an event
   block.  The first chunk starts at [first_chunk] entries and doubles up
   to [chunk_size], since every cluster records its root [Spawned] entry
   during set-up. *)
let stride = 2

let kind_bits = 4

let proc_bits = 25

let task_bits = 29

let time_shift = kind_bits + proc_bits

let time_limit = 1 lsl 34

let proc_limit = 1 lsl 24

let task_limit = 1 lsl 28

let field_limit = 1 lsl 34

let chunk_bits = 6

let chunk_size = 1 lsl chunk_bits

let first_chunk = 16

(* Call fingerprints live in pages of [page_size] task ids, the last slot
   of each counting its live prints; a page whose prints were all dropped
   is freed, so a stream keeps pages only for the tasks of its unsettled
   and kept requests. *)
let page_bits = 6

let page_size = 1 lsl page_bits

(* Dropping settled requests: a compaction runs once the columns have
   doubled since the last one (and at least [min_compact] entries are
   kept), so its linear pass is amortised over recording. *)
let min_compact = 1024

let n_kinds = 15

type t = {
  retain : bool;
      (* scale runs record millions of entries: with [retain = false] no
         column is ever allocated and the per-stamp index stays empty
         (sinks still see everything), so journal memory is O(1) instead
         of O(run length) *)
  mutable n_entries : int;  (* every entry recorded, dropped or not *)
  mutable size : int;  (* entries held in the columns *)
  mutable last_time : int;  (* meaningful once [n_entries > 0] *)
  mutable ints : int array array;  (* chunk [c] holds entries [c * chunk_size ..] *)
  mutable stamps : Stamp.t array array;
  mutable capacity : int;  (* entries the allocated chunks can hold *)
  reason_ids : (string, int) Hashtbl.t;
  mutable reasons : string array;
      (* [Respawned] and [Relay_dropped] reasons, interned: the columns hold
         an index into this table *)
  mutable by_stamp : int list ref Stamp_tbl.t option;
      (* entry indices, reverse chronological; [None] until the first
         per-stamp query, and again after a compaction moved the entries *)
  mutable indexed : int;
      (* retained entries already in [by_stamp]: the index is caught up on
         each query, so [record] — on every run's hot path — never touches
         it *)
  mutable extra : entry Recflow_obs_core.Sink.t option;
      (* streaming consumers (Perfetto.Stream, JSONL) see every entry as
         it is recorded, without waiting for — or needing — the full
         retained columns *)
  mutable pages : int array array;
      (* call fingerprint per task id, [-1] for none, by page; [[||]] for a
         page with no live print.  Stays empty unless [retain]. *)
  mutable noted : int;  (* live prints over all pages *)
  mutable released : Bytes.t;  (* one bit per request uid handed to [release] *)
  mutable pending : (int * int * int) list;
      (* (uid, open tick, settle tick) of released requests not yet
         dropped or kept, newest first *)
  mutable fail_times : int array;  (* of the [Failure] entries, in the first [n_fails] slots *)
  mutable n_fails : int;
  mutable compact_at : int;
  mutable tallies : int array;
      (* what dropped requests left for {!Episode}: window [w], kind [k] at
         [3 * (w * n_kinds + k)]: entries, first time, last time *)
  mutable kept_conflicts : (Stamp.t * Ids.task_id * Ids.task_id) list list;
      (* the call conflicts of dropped requests, one list per compaction,
         newest compaction first *)
  mutable n_dropped : int;
  mutable n_kept_whole : int;
  mutable n_late : int;
}

let create ?(retain = true) () =
  {
    retain;
    n_entries = 0;
    size = 0;
    last_time = 0;
    ints = [||];
    stamps = [||];
    capacity = 0;
    reason_ids = Hashtbl.create 8;
    reasons = [||];
    by_stamp = None;
    indexed = 0;
    extra = None;
    pages = [||];
    noted = 0;
    released = Bytes.empty;
    pending = [];
    fail_times = [||];
    n_fails = 0;
    compact_at = min_compact;
    tallies = [||];
    kept_conflicts = [];
    n_dropped = 0;
    n_kept_whole = 0;
    n_late = 0;
  }

let attach_sink t sink =
  t.extra <-
    (match t.extra with
    | None -> Some sink
    | Some existing -> Some (Recflow_obs_core.Sink.tee existing sink))

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

let out_of_range ~time ~proc ~task ~field =
  let bad name v = invalid_arg (Printf.sprintf "Journal.record: %s %d out of range" name v) in
  if time < 0 || time >= time_limit then bad "time" time;
  if proc < -1 || proc >= proc_limit then bad "processor" proc;
  if task < -1 || task >= task_limit then bad "task" task;
  bad "field" field

(* Store entry [i] (= [t.size]) in the columns, once every field is known
   to fit: a rejected entry leaves the journal as it was. *)
let put t ~time ~stamp kind ~proc ~task ~field =
  if
    time < 0 || time >= time_limit || proc < -1 || proc >= proc_limit || task < -1
    || task >= task_limit || field < 0 || field >= field_limit
  then out_of_range ~time ~proc ~task ~field;
  let i = t.size in
  if i = t.capacity then grow t;
  t.size <- i + 1;
  let c = i lsr chunk_bits and o = i land (chunk_size - 1) in
  Array.unsafe_set (Array.unsafe_get t.stamps c) o stamp;
  let ints = Array.unsafe_get t.ints c and o = stride * o in
  Array.unsafe_set ints o ((time lsl time_shift) lor ((proc + 1) lsl kind_bits) lor kind);
  Array.unsafe_set ints (o + 1) ((field lsl task_bits) lor (task + 1))

(* The kind numbers here and in [event_at] are the column format. *)
let store t ~time ~stamp event =
  match event with
  | Spawned { task; dest; replica } -> put t ~time ~stamp 0 ~proc:dest ~task ~field:replica
  | Activated { task; proc } -> put t ~time ~stamp 1 ~proc ~task ~field:0
  | Acked { task; proc } -> put t ~time ~stamp 2 ~proc ~task ~field:0
  | Completed { task; proc; work } -> put t ~time ~stamp 3 ~proc ~task ~field:work
  | Inlined { parent_task; proc; work } -> put t ~time ~stamp 4 ~proc ~task:parent_task ~field:work
  | Aborted { task; proc; work } -> put t ~time ~stamp 5 ~proc ~task ~field:work
  | Lost { task; proc; work } -> put t ~time ~stamp 6 ~proc ~task ~field:work
  | Respawned { task; dest; reason } ->
    put t ~time ~stamp 7 ~proc:dest ~task ~field:(intern t reason)
  | Inherited { orphan_task; proc } -> put t ~time ~stamp 8 ~proc ~task:orphan_task ~field:0
  | Result_accepted { task } -> put t ~time ~stamp 9 ~proc:0 ~task ~field:0
  | Duplicate_ignored { task } -> put t ~time ~stamp 10 ~proc:0 ~task ~field:0
  | Relayed { via } -> put t ~time ~stamp 11 ~proc:via ~task:0 ~field:0
  | Relay_dropped { at; reason } -> put t ~time ~stamp 12 ~proc:at ~task:0 ~field:(intern t reason)
  | Orphan_dropped { task } -> put t ~time ~stamp 13 ~proc:0 ~task ~field:0
  | Failure { proc } ->
    put t ~time ~stamp 14 ~proc ~task:0 ~field:0;
    if t.n_fails = Array.length t.fail_times then begin
      let a = Array.make (max 8 (2 * t.n_fails)) 0 in
      Array.blit t.fail_times 0 a 0 t.n_fails;
      t.fail_times <- a
    end;
    t.fail_times.(t.n_fails) <- time;
    t.n_fails <- t.n_fails + 1

(* Column readers for retained entry [i]. *)
let word t i k =
  Array.unsafe_get
    (Array.unsafe_get t.ints (i lsr chunk_bits))
    ((stride * (i land (chunk_size - 1))) + k)

let kind_at t i = word t i 0 land ((1 lsl kind_bits) - 1)

let time_at t i = word t i 0 lsr time_shift

let proc_at t i = ((word t i 0 lsr kind_bits) land ((1 lsl proc_bits) - 1)) - 1

let task_at t i = (word t i 1 land ((1 lsl task_bits) - 1)) - 1

let stamp_at t i =
  Array.unsafe_get (Array.unsafe_get t.stamps (i lsr chunk_bits)) (i land (chunk_size - 1))

let event_at t i =
  let proc = proc_at t i and task = task_at t i and x = word t i 1 lsr task_bits in
  match kind_at t i with
  | 0 -> Spawned { task; dest = proc; replica = x }
  | 1 -> Activated { task; proc }
  | 2 -> Acked { task; proc }
  | 3 -> Completed { task; proc; work = x }
  | 4 -> Inlined { parent_task = task; proc; work = x }
  | 5 -> Aborted { task; proc; work = x }
  | 6 -> Lost { task; proc; work = x }
  | 7 -> Respawned { task; dest = proc; reason = t.reasons.(x) }
  | 8 -> Inherited { orphan_task = task; proc }
  | 9 -> Result_accepted { task }
  | 10 -> Duplicate_ignored { task }
  | 11 -> Relayed { via = proc }
  | 12 -> Relay_dropped { at = proc; reason = t.reasons.(x) }
  | 13 -> Orphan_dropped { task }
  | _ -> Failure { proc }

let entry_at t i = { time = time_at t i; stamp = stamp_at t i; event = event_at t i }

let is_released t uid =
  let byte = uid lsr 3 in
  uid >= 0
  && byte < Bytes.length t.released
  && Char.code (Bytes.unsafe_get t.released byte) land (1 lsl (uid land 7)) <> 0

(* The request a stamp belongs to: the first digit, [-1] for the root. *)
let owner stamp = if Stamp.depth stamp = 0 then -1 else Stamp.digit stamp 0

(* The entry is stored and counted before a sink sees it, so a sink that
   queries the journal finds it there.  A journal that neither retains
   nor streams only counts: no entry is built for it.  An entry under a
   request already released is counted as late: a correct settle leaves
   nothing that could record one. *)
let record t ~time ~stamp event =
  if t.retain then begin
    store t ~time ~stamp event;
    if Bytes.length t.released > 0 && is_released t (owner stamp) then t.n_late <- t.n_late + 1
  end;
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

let print_of t task =
  let p = task lsr page_bits in
  if task < 0 || p >= Array.length t.pages then -1
  else
    let page = Array.unsafe_get t.pages p in
    if Array.length page = 0 then -1 else Array.unsafe_get page (task land (page_size - 1))

let note_call t ~task fname args =
  if t.retain && task >= 0 then begin
    let p = task lsr page_bits in
    let n = Array.length t.pages in
    if p >= n then begin
      let a = Array.make (max 16 (max (2 * n) (p + 1))) [||] in
      Array.blit t.pages 0 a 0 n;
      t.pages <- a
    end;
    if Array.length t.pages.(p) = 0 then t.pages.(p) <- Array.make (page_size + 1) (-1);
    let page = t.pages.(p) and o = task land (page_size - 1) in
    if page.(o) < 0 then begin
      page.(page_size) <- page.(page_size) + 1;
      t.noted <- t.noted + 1
    end;
    page.(o) <- fingerprint fname args
  end

let forget_call t task =
  if print_of t task >= 0 then begin
    let p = task lsr page_bits in
    let page = t.pages.(p) and o = task land (page_size - 1) in
    page.(o) <- -1;
    page.(page_size) <- page.(page_size) - 1;
    t.noted <- t.noted - 1;
    if page.(page_size) = 0 then t.pages.(p) <- [||]
  end

(* The activation entry [i] spawns, re-issues or inherits ([Spawned],
   [Respawned], [Inherited]: its first field), if a call was noted for it;
   [-1] otherwise. *)
let noted_task t i =
  match kind_at t i with
  | 0 | 7 | 8 (* Spawned, Respawned, Inherited *) ->
    let task = task_at t i in
    if print_of t task >= 0 then task else -1
  | _ -> -1

let named_calls t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    let task = noted_task t i in
    if task >= 0 then acc := (stamp_at t i, print_of t task) :: !acc
  done;
  List.sort_uniq
    (fun (a, p) (b, q) -> match Stamp.compare a b with 0 -> Int.compare p q | c -> c)
    !acc

(* Call conflicts among the noted activations [iter] presents, newest
   first, as [f stamp task print], through an open-address table sized for
   [activations] of them: slot [s] holds the newest activation
   [tasks.(s)] (call [prints.(s)]) noted under stamp [keys.(s)] ([-1] when
   free), and every older activation with another call is a conflict
   (stamp, older task, newer task).  The table hashes every digit:
   [Stamp.hash] reads only a stamp's first few, and the deep stamps of one
   subtree would share a handful of chains. *)
let conflicts_of ~activations iter =
  let cap = ref 64 in
  while !cap < 2 * activations do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  let keys = Array.make !cap Stamp.root and tasks = Array.make !cap (-1) in
  let prints = Array.make !cap 0 in
  let conflicts = ref [] in
  iter (fun stamp task print ->
      let h = stamp_print stamp in
      let i = ref ((h lxor (h lsr 32)) land mask) in
      while tasks.(!i) >= 0 && not (Stamp.equal keys.(!i) stamp) do
        i := (!i + 1) land mask
      done;
      if tasks.(!i) < 0 then begin
        keys.(!i) <- stamp;
        tasks.(!i) <- task;
        prints.(!i) <- print
      end
      else if prints.(!i) <> print then conflicts := (stamp, task, tasks.(!i)) :: !conflicts);
  !conflicts

let call_conflicts t =
  conflicts_of ~activations:t.noted (fun f ->
      for e = t.size - 1 downto 0 do
        let task = noted_task t e in
        if task >= 0 then f (stamp_at t e) task (print_of t task)
      done)
  @ List.concat (List.rev t.kept_conflicts)

let entries t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    acc := entry_at t i :: !acc
  done;
  !acc

let length t = t.n_entries

let last_entry_time t = if t.n_entries = 0 then None else Some t.last_time

let failures t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    if kind_at t i = 14 (* Failure *) then acc := (time_at t i, proc_at t i) :: !acc
  done;
  !acc

(* The per-stamp index, built on the first query since the journal was
   created or compacted: index the entries recorded since the last query,
   oldest first, so each per-stamp list stays reverse chronological. *)
let catch_up t =
  let index =
    match t.by_stamp with
    | Some index -> index
    | None ->
      let index = Stamp_tbl.create 256 in
      t.by_stamp <- Some index;
      index
  in
  let n = t.size in
  for i = t.indexed to n - 1 do
    let stamp = stamp_at t i in
    match Stamp_tbl.find_opt index stamp with
    | Some r -> r := i :: !r
    | None -> Stamp_tbl.add index stamp (ref [ i ])
  done;
  t.indexed <- n;
  index

(* Entry indices for [stamp], newest first. *)
let indices t stamp = match Stamp_tbl.find_opt (catch_up t) stamp with Some r -> !r | None -> []

let for_stamp t stamp = List.fold_left (fun acc i -> entry_at t i :: acc) [] (indices t stamp)

let stamps t = Stamp_tbl.fold (fun k _ acc -> k :: acc) (catch_up t) [] |> List.sort Stamp.compare

let count t pred =
  let n = ref 0 in
  for i = 0 to t.size - 1 do
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

(* ------------------------------------------------------------------ *)
(* Dropping settled requests                                           *)
(* ------------------------------------------------------------------ *)

let tally_entry t ~window kind time =
  let need = 3 * (window + 1) * n_kinds in
  if Array.length t.tallies < need then begin
    let a = Array.make (max need (2 * Array.length t.tallies)) 0 in
    Array.blit t.tallies 0 a 0 (Array.length t.tallies);
    t.tallies <- a
  end;
  let o = 3 * ((window * n_kinds) + kind) in
  let a = t.tallies in
  if a.(o) = 0 || time < a.(o + 1) then a.(o + 1) <- time;
  if a.(o) = 0 || time > a.(o + 2) then a.(o + 2) <- time;
  a.(o) <- a.(o) + 1

(* After the columns shrank from [old_size] to [t.size] entries: free
   every chunk no entry uses, keeping at least one, and clear the stamp
   slots past [t.size] in the chunks kept. *)
let trim t ~old_size =
  if t.capacity > chunk_size then begin
    let keep = max 1 ((t.size + chunk_size - 1) lsr chunk_bits) in
    if keep < t.capacity lsr chunk_bits then begin
      t.ints <- Array.sub t.ints 0 keep;
      t.stamps <- Array.sub t.stamps 0 keep;
      t.capacity <- keep * chunk_size
    end
  end;
  for i = t.size to min old_size t.capacity - 1 do
    Array.unsafe_set (Array.unsafe_get t.stamps (i lsr chunk_bits)) (i land (chunk_size - 1))
      Stamp.root
  done;
  t.by_stamp <- None;
  t.indexed <- 0

(* The first column index whose time is at least [time]. *)
let lower_bound t time =
  let lo = ref 0 and hi = ref t.size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if time_at t mid < time then lo := mid + 1 else hi := mid
  done;
  !lo

(* Decide the [ready] requests (uid, open tick, settle tick).  A request
   with no failure between its open and settle ticks is undisturbed; one
   with such a failure is decided by the exact span of its entries' times,
   found in one extra walk, and kept whole if a failure lies within it.
   Then one walk from the oldest ready request's open tick slides every
   other entry down over the dropped ones, folding each dropped entry
   into its window's tally and collecting its noted activation, and the
   collected activations give the dropped requests' call conflicts.
   Request [uid] has slot [slots.(uid - lo)] ([-1]: not being dropped), so
   the walks allocate nothing per entry. *)
let compact t ready =
  let ready = Array.of_list ready in
  let n = Array.length ready in
  let lo = Array.fold_left (fun m (uid, _, _) -> min m uid) max_int ready in
  let hi = Array.fold_left (fun m (uid, _, _) -> max m uid) min_int ready in
  let opened = Array.fold_left (fun m (_, since, _) -> min m since) max_int ready in
  let slots = Array.make (hi - lo + 1) (-1) in
  let window = Array.make n 0 in
  let fails = Array.sub t.fail_times 0 t.n_fails in
  let failures_before time = Array.fold_left (fun c f -> if f < time then c + 1 else c) 0 fails in
  let touched first last = Array.exists (fun f -> first <= f && f <= last) fails in
  let slot_at i =
    let uid = owner (stamp_at t i) in
    if uid < lo || uid > hi then -1 else Array.unsafe_get slots (uid - lo)
  in
  let start = lower_bound t opened in
  let unsure = ref false in
  Array.iteri
    (fun k (uid, since, tick) ->
      slots.(uid - lo) <- k;
      if touched since tick then unsure := true else window.(k) <- failures_before since)
    ready;
  if !unsure then begin
    let first = Array.make n max_int and last = Array.make n min_int in
    for i = start to t.size - 1 do
      let k = slot_at i in
      if k >= 0 then begin
        let time = time_at t i in
        if time < first.(k) then first.(k) <- time;
        if time > last.(k) then last.(k) <- time
      end
    done;
    Array.iteri
      (fun k (uid, since, tick) ->
        if touched since tick then
          if touched first.(k) last.(k) then begin
            slots.(uid - lo) <- -1;
            t.n_kept_whole <- t.n_kept_whole + 1
          end
          else window.(k) <- failures_before first.(k))
      ready
  end;
  let acts = ref 0 in
  let act_stamps = ref (Array.make 64 Stamp.root) and act_tasks = ref (Array.make 64 0) in
  let act_prints = ref (Array.make 64 0) in
  let collect stamp task print =
    if !acts = Array.length !act_tasks then begin
      let grow a x = let b = Array.make (2 * !acts) x in Array.blit a 0 b 0 !acts; b in
      act_stamps := grow !act_stamps Stamp.root;
      act_tasks := grow !act_tasks 0;
      act_prints := grow !act_prints 0
    end;
    !act_stamps.(!acts) <- stamp;
    !act_tasks.(!acts) <- task;
    !act_prints.(!acts) <- print;
    incr acts
  in
  let old_size = t.size and w = ref start in
  for i = start to old_size - 1 do
    let k = slot_at i in
    if k >= 0 then begin
      let kind = kind_at t i in
      tally_entry t ~window:window.(k) kind (time_at t i);
      if kind = 0 || kind = 7 || kind = 8 (* Spawned, Respawned, Inherited *) then begin
        let task = task_at t i in
        let print = print_of t task in
        if print >= 0 then collect (stamp_at t i) task print
      end;
      t.n_dropped <- t.n_dropped + 1
    end
    else begin
      if !w < i then begin
        let src = Array.unsafe_get t.ints (i lsr chunk_bits)
        and so = stride * (i land (chunk_size - 1)) in
        let dst = Array.unsafe_get t.ints (!w lsr chunk_bits)
        and d = stride * (!w land (chunk_size - 1)) in
        Array.unsafe_set dst d (Array.unsafe_get src so);
        Array.unsafe_set dst (d + 1) (Array.unsafe_get src (so + 1));
        Array.unsafe_set
          (Array.unsafe_get t.stamps (!w lsr chunk_bits))
          (!w land (chunk_size - 1))
          (stamp_at t i)
      end;
      incr w
    end
  done;
  let stamps = !act_stamps and tasks = !act_tasks and prints = !act_prints in
  (match
     conflicts_of ~activations:!acts (fun f ->
         for j = !acts - 1 downto 0 do
           f stamps.(j) tasks.(j) prints.(j)
         done)
   with
  | [] -> ()
  | conflicts -> t.kept_conflicts <- conflicts :: t.kept_conflicts);
  for j = 0 to !acts - 1 do
    forget_call t tasks.(j)
  done;
  if !w < old_size then begin
    t.size <- !w;
    trim t ~old_size
  end

let drop_settled t ~before =
  match List.partition (fun (_, _, tick) -> tick < before) t.pending with
  | [], _ -> ()
  | ready, waiting ->
    t.pending <- waiting;
    compact t (List.rev ready);
    t.compact_at <- max min_compact (2 * t.size)

let release t ~uid ~since ~time =
  if t.retain && uid >= 0 && not (is_released t uid) then begin
    let byte = uid lsr 3 in
    if byte >= Bytes.length t.released then begin
      let b = Bytes.make (max 64 (max (2 * Bytes.length t.released) (byte + 1))) '\000' in
      Bytes.blit t.released 0 b 0 (Bytes.length t.released);
      t.released <- b
    end;
    Bytes.unsafe_set t.released byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.released byte) lor (1 lsl (uid land 7))));
    t.pending <- (uid, since, time) :: t.pending;
    if t.size >= t.compact_at then drop_settled t ~before:time
  end

type tally = { entries : int; first : int; last : int }

(* One event of each kind, fields zero: what a [dropped_tally] predicate
   sees. *)
let kind_samples =
  [|
    Spawned { task = 0; dest = 0; replica = 0 };
    Activated { task = 0; proc = 0 };
    Acked { task = 0; proc = 0 };
    Completed { task = 0; proc = 0; work = 0 };
    Inlined { parent_task = 0; proc = 0; work = 0 };
    Aborted { task = 0; proc = 0; work = 0 };
    Lost { task = 0; proc = 0; work = 0 };
    Respawned { task = 0; dest = 0; reason = "" };
    Inherited { orphan_task = 0; proc = 0 };
    Result_accepted { task = 0 };
    Duplicate_ignored { task = 0 };
    Relayed { via = 0 };
    Relay_dropped { at = 0; reason = "" };
    Orphan_dropped { task = 0 };
    Failure { proc = 0 };
  |]

let dropped_tally t ~window pred =
  let acc = ref { entries = 0; first = max_int; last = min_int } in
  if window >= 0 && 3 * (window + 1) * n_kinds <= Array.length t.tallies then
    Array.iteri
      (fun k sample ->
        let o = 3 * ((window * n_kinds) + k) in
        let a = t.tallies in
        if a.(o) > 0 && pred sample then
          acc :=
            {
              entries = !acc.entries + a.(o);
              first = min !acc.first a.(o + 1);
              last = max !acc.last a.(o + 2);
            })
      kind_samples;
  !acc

let retained t = t.size

let dropped t = t.n_dropped

let kept_whole t = t.n_kept_whole

let late_entries t = t.n_late

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
