module Stamp = Recflow_recovery.Stamp

(* [Forced]: reclaimed by [force] before it settled. *)
type phase = Open | Forced | Closed

type request = {
  uid : int;
  opened : int;  (* tick the request opened *)
  mutable holds : int;
  mutable answer_in : bool;
  mutable retired_uids : int list;  (* [uid * procs + proc], newest first *)
  mutable phase : phase;  (* [Closed]: settled and reclaimed *)
}

type t = {
  procs : int;
  reclaim : proc:int -> int -> int;
  reclaim_all : unit -> int;
  on_settle : uid:int -> opened:int -> unit;
  mutable batch : bool;  (* the one open request is the batch root *)
  mutable reqs : request array;  (* by [uid + 1] *)
  mutable n_settled : int;
  mutable n_reclaimed : int;
  unknown : request;
      (* what a stamp of no open request maps to: it never hears an answer,
         so its holds are inert *)
}

let fresh uid ~opened =
  { uid; opened; holds = 0; answer_in = false; retired_uids = []; phase = Open }

let create ~procs ~reclaim ~reclaim_all ~on_settle =
  let unknown = fresh min_int ~opened:0 in
  { procs; reclaim; reclaim_all; on_settle; batch = false; reqs = [||]; n_settled = 0;
    n_reclaimed = 0; unknown }

let open_request t ~uid ~time =
  if uid < 0 then t.batch <- true;
  let i = uid + 1 in
  let n = Array.length t.reqs in
  if i >= n then begin
    let grown = Array.make (max 64 (2 * (i + 1))) t.unknown in
    Array.blit t.reqs 0 grown 0 n;
    t.reqs <- grown
  end;
  t.reqs.(i) <- fresh uid ~opened:time

let by_uid t uid =
  let i = uid + 1 in
  if i >= 0 && i < Array.length t.reqs then t.reqs.(i) else t.unknown

(* The batch root owns every stamp; a service request is named by the first
   digit of every stamp below its depth-1 root. *)
let owner t stamp =
  if t.batch then by_uid t (-1)
  else if Stamp.depth stamp = 0 then t.unknown
  else by_uid t (Stamp.digit stamp 0)

let reclaim_retired t r =
  if t.batch then t.n_reclaimed <- t.n_reclaimed + t.reclaim_all ()
  else begin
    let uids = r.retired_uids in
    r.retired_uids <- [];
    List.iter
      (fun x -> t.n_reclaimed <- t.n_reclaimed + t.reclaim ~proc:(x mod t.procs) (x / t.procs))
      uids
  end

let settle t r =
  if r.phase <> Closed && r != t.unknown then begin
    r.phase <- Closed;
    t.n_settled <- t.n_settled + 1;
    reclaim_retired t r;
    if r.uid >= 0 then t.on_settle ~uid:r.uid ~opened:r.opened
  end

let adjust_request t r d =
  r.holds <- r.holds + d;
  if r.holds = 0 && r.answer_in then settle t r

let adjust t stamp d = adjust_request t (owner t stamp) d

let hold t stamp = adjust t stamp 1

let release t stamp = adjust t stamp (-1)

(* The request a message names; gradient gossip and failure notices name
   none. *)
let msg_owner t = function
  | Message.Task_packet { packet; _ } -> owner t packet.Recflow_recovery.Packet.stamp
  | Message.Result { stamp; _ }
  | Message.Orphan_alive { stamp; _ }
  | Message.Reparent { stamp; _ }
  | Message.Abort { stamp; _ }
  | Message.Ack { child_stamp = stamp; _ } ->
    owner t stamp
  | Message.Gradient _ | Message.Failure_notice _ -> t.unknown

let adjust_msg t msg d =
  let r = msg_owner t msg in
  if r != t.unknown then adjust_request t r d

let hold_msg t msg = adjust_msg t msg 1

let release_msg t msg = adjust_msg t msg (-1)

let retired t stamp ~proc uid =
  if not t.batch then begin
    let r = owner t stamp in
    if r != t.unknown then r.retired_uids <- ((uid * t.procs) + proc) :: r.retired_uids
  end

let answered t ~uid =
  let r = by_uid t uid in
  r.answer_in <- true;
  if r.holds = 0 then settle t r

let force t ~uid =
  let r = by_uid t uid in
  reclaim_retired t r;
  if r.phase = Open && r != t.unknown then r.phase <- Forced

let msg_names_reclaimed t msg = (msg_owner t msg).phase <> Open

let settled t = t.n_settled

let reclaimed t = t.n_reclaimed
