module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ids = Recflow_recovery.Ids
module Value = Recflow_lang.Value

(* [Forced]: reclaimed by [force] before it settled. *)
type phase = Open | Forced | Closed

type request = {
  uid : int;
  opened : int;
  packet : Packet.t;
  avoid : Ids.proc_id list;
  on_answer : Value.t -> unit;
  on_disturbed : string -> unit;
  mutable dest : Ids.proc_id;
  mutable task : Ids.task_id;
  mutable pending : (Stamp.t * Packet.link * Message.salvage) list;
  mutable answers : Value.t list;
  mutable answer_time : int option;
  mutable redispatches : int;
  mutable holds : int;
  mutable retired_uids : int list;
  mutable phase : phase;  (* [Closed]: settled and reclaimed *)
}

type t = {
  procs : int;
  reclaim : proc:int -> int -> int;
  reclaim_all : unit -> int;
  on_settle : request -> unit;
  mutable batch : bool;  (* the one open request is the batch root *)
  mutable reqs : request array;
      (* the open requests by [uid - base]; [unknown] in a free slot and in
         the slot of a settled service request *)
  mutable base : int;  (* the watermark: every uid below it has settled *)
  mutable issued : int;  (* service uids below it have opened *)
  mutable n_settled : int;
  mutable n_reclaimed : int;
  unknown : request;
      (* what a stamp of no open request maps to: it never hears an answer,
         so its holds are inert *)
}

let fresh ~uid ~opened ~packet ~avoid ~on_answer ~on_disturbed =
  { uid; opened; packet; avoid; on_answer; on_disturbed; dest = -2; task = Ids.no_task;
    pending = []; answers = []; answer_time = None; redispatches = 0; holds = 0;
    retired_uids = []; phase = Open }

(* The depth-1 stamp is a service request's whole identity: its checkpoint
   entries, orphan relays and journal rows all live in a subtree no other
   request can reach, so nothing leaks across requests. *)
let root_packet ~uid ~fname ~args =
  Packet.make ~fname ~args
    ~stamp:(if uid < 0 then Stamp.root else Stamp.child Stamp.root uid)
    ~parent:{ Packet.task = Ids.no_task; proc = Ids.super_root; slot = max uid 0 }
    ~grandparent:None ~ancestors:[]

let create ~procs ~reclaim ~reclaim_all ~on_settle =
  let unknown =
    fresh ~uid:min_int ~opened:0 ~packet:(root_packet ~uid:(-1) ~fname:"" ~args:[||]) ~avoid:[]
      ~on_answer:ignore ~on_disturbed:ignore
  in
  { procs; reclaim; reclaim_all; on_settle; batch = false; reqs = [||]; base = -1; issued = 0;
    n_settled = 0; n_reclaimed = 0; unknown }

(* Slide the window up to the oldest request still open, and grow it when
   the open span would fill more than half of it, so a slide moves at
   least half a window of uids and costs O(1) per request. *)
let make_room t uid =
  let n = Array.length t.reqs in
  let lo = ref 0 in
  while !lo < n && t.reqs.(!lo) == t.unknown do
    incr lo
  done;
  let span = uid - (t.base + !lo) + 1 in
  let reqs = if 2 * span <= n then t.reqs else Array.make (max 64 (2 * span)) t.unknown in
  Array.blit t.reqs !lo reqs 0 (n - !lo);
  if reqs == t.reqs then Array.fill reqs (n - !lo) !lo t.unknown;
  t.reqs <- reqs;
  t.base <- t.base + !lo

let open_request t ~uid ~time ~fname ~args ~avoid ~on_answer ~on_disturbed =
  if uid < 0 then t.batch <- true else t.issued <- uid + 1;
  if uid - t.base >= Array.length t.reqs then make_room t uid;
  let packet = root_packet ~uid ~fname ~args in
  let r = fresh ~uid ~opened:time ~packet ~avoid ~on_answer ~on_disturbed in
  t.reqs.(uid - t.base) <- r;
  r

(* [min_int] names no request: [min_int - base] wraps to an index outside
   the window too. *)
let by_uid t uid =
  let i = uid - t.base in
  if i >= 0 && i < Array.length t.reqs then t.reqs.(i) else t.unknown

(* The request a stamp names: the batch root owns every stamp; a service
   request is named by the first digit of every stamp below its depth-1
   root.  [min_int] for a stamp of no request. *)
let owner_uid t stamp =
  if t.batch then -1 else if Stamp.depth stamp = 0 then min_int else Stamp.digit stamp 0

let find t uid =
  let r = by_uid t uid in
  if r == t.unknown then None else Some r

let owner t stamp = find t (owner_uid t stamp)

(* By uid, reading the window afresh at each step, as [f] may move it; the
   batch root sits at [base = -1]. *)
let iter t f =
  let last = if t.batch then -1 else t.issued - 1 in
  for uid = t.base to last do
    let r = by_uid t uid in
    if r != t.unknown then f r
  done

let reclaim_retired t r =
  if t.batch then t.n_reclaimed <- t.n_reclaimed + t.reclaim_all ()
  else begin
    let uids = r.retired_uids in
    r.retired_uids <- [];
    List.iter
      (fun x -> t.n_reclaimed <- t.n_reclaimed + t.reclaim ~proc:(x mod t.procs) (x / t.procs))
      uids
  end

(* A settled service request leaves the ledger: its slot goes back to
   [unknown], and a lookup of its uid below [issued] reads as settled.
   The batch root keeps its record. *)
let settle t r =
  if r.phase <> Closed then begin
    r.phase <- Closed;
    t.n_settled <- t.n_settled + 1;
    reclaim_retired t r;
    if r.uid >= 0 then begin
      t.reqs.(r.uid - t.base) <- t.unknown;
      t.on_settle r
    end
  end

let adjust_request t r d =
  r.holds <- r.holds + d;
  if r.holds = 0 && r.answer_time <> None then settle t r

let adjust t stamp d = adjust_request t (by_uid t (owner_uid t stamp)) d

let hold t stamp = adjust t stamp 1

let release t stamp = adjust t stamp (-1)

(* The uid of the request a message names; gradient gossip and failure
   notices name none ([min_int]). *)
let msg_uid t = function
  | Message.Task_packet { packet; _ } -> owner_uid t packet.Packet.stamp
  | Message.Result { stamp; _ }
  | Message.Orphan_alive { stamp; _ }
  | Message.Reparent { stamp; _ }
  | Message.Abort { stamp; _ }
  | Message.Ack { child_stamp = stamp; _ } ->
    owner_uid t stamp
  | Message.Gradient _ | Message.Failure_notice _ -> min_int

let adjust_msg t msg d =
  let r = by_uid t (msg_uid t msg) in
  if r != t.unknown then adjust_request t r d

let hold_msg t msg = adjust_msg t msg 1

let release_msg t msg = adjust_msg t msg (-1)

let retired t stamp ~proc uid =
  if not t.batch then begin
    let r = by_uid t (owner_uid t stamp) in
    if r != t.unknown then r.retired_uids <- ((uid * t.procs) + proc) :: r.retired_uids
  end

let answered t r ~time =
  r.answer_time <- Some time;
  if r.holds = 0 then settle t r

let force t r =
  reclaim_retired t r;
  if r.phase = Open then r.phase <- Forced

let msg_names_reclaimed t msg =
  let uid = msg_uid t msg in
  let r = by_uid t uid in
  if r != t.unknown then r.phase <> Open else uid >= 0 && uid < t.issued

let issued t = t.issued

let settled t = t.n_settled

let reclaimed t = t.n_reclaimed

let open_table t = Obj.repr t.reqs
