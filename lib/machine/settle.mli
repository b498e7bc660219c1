(** The request ledger: each root request's one record, with the §4.3.1
    super-root's checkpoint of its root, and when it can no longer be named.

    Under the super-root each request owns one stamp subtree: the batch
    root (request [-1]) owns every stamp, and service request [uid] owns
    the depth-1 subtree [Stamp.child Stamp.root uid] ({!owner}, the one
    stamp→request rule, for root results and holds alike).  A request is
    {e settled} once its answer has reached the super-root and nothing is
    left that could name one of its tasks.  The ledger counts those things
    per request as {e holds}:

    - every live task, and a task aborted while queued or running until
      the scheduler has dropped its stale run-queue or current-task
      reference;
    - every message on its way: a scheduled delivery or batch slot, a
      bounce, a reliable send awaiting its transport ack (the retry timer
      is a no-op once the send is gone), salvage parked in a node's held
      table or in the super-root's pending list;
    - every checkpoint a table holds under the request's prefix.

    When the last hold of an answered request is released, its task uids
    are reclaimed: the cluster's [reclaim] callback frees each retired
    uid's cell in its host node's index.  A service request's retired
    uids are listed as they retire; the batch root owns every uid of its
    run, so its settle sweeps every node's index instead
    ([reclaim_all]).

    Every hold is taken before the hold it replaces is released (a task
    sends its result before it retires, a delivery is processed before its
    hold goes), so the count cannot touch zero while work remains.

    The ledger keeps open requests only, in a window by uid.  A settled
    service request's record goes, to [on_settle]; its uid still reads as
    settled, because every uid below the watermark (the oldest request
    still open) and every other issued uid without a record has settled.
    So the ledger's size follows the span of uids open at once, not the
    length of the stream.  The batch root keeps its record. *)

module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ids = Recflow_recovery.Ids
module Value = Recflow_lang.Value

(** [Forced]: reclaimed by {!force} before it settled; [Closed]: settled
    and reclaimed. *)
type phase = Open | Forced | Closed

(** One root request.  The super-root's fields are the cluster's to set;
    [holds], [retired_uids] and [phase] are the ledger's. *)
type request = {
  uid : int;  (** [-1] for the batch root *)
  opened : int;  (** tick the request opened *)
  packet : Packet.t;  (** the super-root's functional checkpoint of the root task *)
  avoid : Ids.proc_id list;  (** processors never chosen as this root's host *)
  on_answer : Value.t -> unit;  (** first answer only *)
  on_disturbed : string -> unit;  (** each root re-dispatch *)
  mutable dest : Ids.proc_id;  (** host of the root task; [-2] before dispatch *)
  mutable task : Ids.task_id;
  mutable pending : (Stamp.t * Packet.link * Message.salvage) list;
      (** salvage (orphan results and adoption reports) awaiting the twin,
          newest first, with the orphan's stamp and dead parent so depth is
          preserved on forwarding *)
  mutable answers : Value.t list;  (** results for this request, newest first *)
  mutable answer_time : int option;  (** when the first answer landed: it may settle *)
  mutable redispatches : int;
  mutable holds : int;
  mutable retired_uids : int list;  (** [uid * procs + proc], newest first *)
  mutable phase : phase;
}

type t

val create :
  procs:int ->
  reclaim:(proc:int -> int -> int) ->
  reclaim_all:(unit -> int) ->
  on_settle:(request -> unit) ->
  t
(** [procs] processors; [reclaim ~proc uid] frees one retired uid on its
    host, [reclaim_all ()] every retired uid of a batch run; each returns
    how many tombstones it reclaimed.  [on_settle r] runs once per settled
    service request, after its uids are reclaimed and its record has left
    the ledger (the batch root never calls it). *)

val open_request :
  t ->
  uid:int ->
  time:int ->
  fname:string ->
  args:Value.t array ->
  avoid:Ids.proc_id list ->
  on_answer:(Value.t -> unit) ->
  on_disturbed:(string -> unit) ->
  request
(** Open request [uid] ([-1]: the batch root) at tick [time] for the call
    [fname args], returning to super-root slot [uid] (0 for the batch
    root), and return its record, not yet dispatched.  Service uids open
    in order: [0], [1], ... *)

val find : t -> int -> request option
(** Request [uid]'s record, open, {!force}d or the batch root; [None] for
    a settled service request and a uid never issued. *)

val owner : t -> Stamp.t -> request option
(** {!find} on the request the stamp names: the batch root, else the
    service request its first digit names ([Stamp.root]: none). *)

val iter : t -> (request -> unit) -> unit
(** Every record {!find} returns, in uid order.  [f] may settle requests
    and open new ones, sliding or growing the window: one settled before
    the walk reaches it, or opened after it began, is not visited, and
    none is visited twice. *)

val hold : t -> Stamp.t -> unit
(** One more hold on the request owning the stamp.  Stamps of no open
    request are ignored. *)

val release : t -> Stamp.t -> unit
(** One hold fewer; settles the request if it was its last and the answer
    is in. *)

val adjust : t -> Stamp.t -> int -> unit
(** [adjust t stamp d]: [d] holds more (or fewer, when negative) — the
    checkpoint delta of one table operation. *)

val hold_msg : t -> Message.t -> unit
(** {!hold} on the stamp the message names; gradient gossip and failure
    notices name no task and hold nothing. *)

val release_msg : t -> Message.t -> unit

val retired : t -> Stamp.t -> proc:int -> int -> unit
(** Task [uid] retired to a tombstone on [proc]: listed for reclamation
    (service requests only). *)

val answered : t -> request -> time:int -> unit
(** The request's first answer reached the super-root at tick [time]: set
    its [answer_time], and settle it if it holds nothing. *)

val force : t -> request -> unit
(** Reclaim the request's retired uids now, whatever it still holds.
    For tests only: it shows that a wrong settle is caught, as messages
    naming the reclaimed request ({!msg_names_reclaimed}). *)

val msg_names_reclaimed : t -> Message.t -> bool
(** The request owning the stamp the message names has had its uids
    reclaimed (settled, or {!force}d).  A freed uid looks up as absent,
    so this, not the index, is what tells a message about a reclaimed
    request from one about a task not activated yet.  Stamps of no open
    request, gradient gossip and failure notices name none. *)

val issued : t -> int
(** Service requests opened so far: their uids are [0 .. issued - 1]. *)

val settled : t -> int
(** Requests settled so far. *)

val reclaimed : t -> int
(** Task uids reclaimed so far (index cells freed). *)

val open_table : t -> Obj.t
(** The window of open requests' records, for the live-words tool's
    attribution; not for hot paths. *)
