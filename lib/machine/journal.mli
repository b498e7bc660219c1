(** Structured lifecycle journal of a simulation run.

    The cluster appends an entry for every significant task-lifecycle and
    recovery event, keyed by level stamp.  Experiments read the journal to
    classify splice cases (§4.1), compute salvage rates and redone work,
    and verify residue-freedom — tests assert directly against it. *)

module Stamp = Recflow_recovery.Stamp
module Ids = Recflow_recovery.Ids

type event =
  | Spawned of { task : Ids.task_id; dest : Ids.proc_id; replica : int }
      (** packet dispatched toward [dest] *)
  | Activated of { task : Ids.task_id; proc : Ids.proc_id }
  | Acked of { task : Ids.task_id; proc : Ids.proc_id }
      (** parent received the positive acknowledgement (state b/d → c/e) *)
  | Completed of { task : Ids.task_id; proc : Ids.proc_id; work : int }
      (** [work] is the busy ticks the task consumed on [proc] *)
  | Inlined of { parent_task : Ids.task_id; proc : Ids.proc_id; work : int }
      (** evaluated inside the parent below the grain boundary *)
  | Aborted of { task : Ids.task_id; proc : Ids.proc_id; work : int }
  | Lost of { task : Ids.task_id; proc : Ids.proc_id; work : int }
      (** the task died with its processor — [work] busy ticks destroyed
          (recorded at kill time, before the [Failure] entry) *)
  | Respawned of { task : Ids.task_id; dest : Ids.proc_id; reason : string }
      (** re-issued from a functional checkpoint; [reason] is what first
          told the parent: "notice", "bounce-detect", "orphan-result",
          "orphan-alive", "local-regen", "bounced-packet" or
          "vote-inconclusive" *)
  | Inherited of { orphan_task : Ids.task_id; proc : Ids.proc_id }
      (** a step-parent twin adopted this still-running orphan instead of
          spawning a clone (§4.1 offspring inheritance) *)
  | Result_accepted of { task : Ids.task_id }
      (** value consumed by the (step-)parent's call slot *)
  | Duplicate_ignored of { task : Ids.task_id }
  | Relayed of { via : Ids.proc_id }  (** orphan result forwarded by a grandparent *)
  | Relay_dropped of { at : Ids.proc_id; reason : string }
  | Orphan_dropped of { task : Ids.task_id }  (** rollback: result had nowhere to go *)
  | Failure of { proc : Ids.proc_id }  (** recorded under the root stamp *)

type entry = { time : int; stamp : Stamp.t; event : event }

type t

val create : ?retain:bool -> unit -> t
(** [retain] (default [true]) keeps entries in memory for {!entries},
    {!for_stamp} and friends, in column chunks of three words per entry:
    every entry, except those of settled service requests {!release}
    drops.  With [retain:false] — the scale-run mode, selected through
    [Config.journal_retain] — attached sinks still see every entry and
    {!length}/{!last_entry_time} stay exact, but no column is allocated
    and the per-stamp index remains empty, so journal memory is O(1) in
    the run length.

    The readers {!entries}, {!for_stamp}, {!stamps}, {!count},
    {!first_time}, {!last_time}, {!failures} and {!named_calls} see the
    retained entries only.  A reader that needs every raw entry of a
    stream attaches a sink before the first one is recorded. *)

val attach_sink : t -> entry Recflow_obs_core.Sink.t -> unit
(** Every subsequent entry is also pushed into the sink as it is recorded
    — the hook streaming consumers (Perfetto conversion, sampled JSONL)
    build on so they never need the retained entries.  Repeated calls
    tee; the caller keeps ownership and closes file-backed sinks. *)

val proc_limit : int
(** Processor ids a retaining journal stores lie below [proc_limit]
    (2{^24}); [Config.validate] rejects a larger topology. *)

val record : t -> time:int -> stamp:Stamp.t -> event -> unit
(** A retaining journal keeps [stamp] itself (not a copy) and the event's
    fields, packed in two ints; the entry is stored and counted before an
    attached sink sees it.  The packed ranges are limits the machine
    already keeps: a time in [[0, 2{^34})] (the engine's), a task id in
    [[-1, 2{^28})], a processor id in [[-1, proc_limit)] and a work,
    replica or interned reason field in [[0, 2{^34})].
    @raise Invalid_argument if [retain] and a field lies outside its
    range; the journal is then left as it was. *)

val note_call : t -> task:Ids.task_id -> string -> Recflow_lang.Value.t array -> unit
(** Note the call [fname(args)] that a spawned or re-issued activation
    carries.  A retaining journal keeps a 63-bit fingerprint of it per task
    id; with [retain:false] this does nothing.  It records no entry. *)

val named_calls : t -> (Stamp.t * int) list
(** Each distinct (stamp, call fingerprint) pair over the retained
    [Spawned], [Respawned] and [Inherited] entries whose activation has a
    noted call, sorted.  Equal calls (function name and arguments) have equal
    fingerprints; distinct calls share one only by a 63-bit hash
    collision. *)

val call_conflicts : t -> (Stamp.t * Ids.task_id * Ids.task_id) list
(** [(stamp, older, newer)] for every activation [older] whose noted call
    differs from that of [newer], the newest activation noted under the
    same stamp.  Empty when every stamp names one call.  The conflicts of
    the retained entries come first, in journal order, then those each
    dropped request had when it was dropped. *)

val entries : t -> entry list
(** Chronological.  Each call decodes fresh [entry] values from the
    columns: entries from two calls are equal, not physically equal. *)

val length : t -> int
(** Entries recorded, whether retained, dropped or never kept. *)

val last_entry_time : t -> int option
(** Time of the newest entry. *)

val failures : t -> (int * Ids.proc_id) list
(** [(time, proc)] of every [Failure] entry, chronological — the episode
    boundaries the observability layer folds over. *)

val for_stamp : t -> Stamp.t -> entry list
(** Chronological entries for one stamp, decoded fresh on each call like
    {!entries}.  The per-stamp index is built on the first query and
    caught up on later ones; a compaction drops it. *)

val stamps : t -> Stamp.t list
(** All stamps seen, sorted. *)

val count : t -> (event -> bool) -> int

val first_time : t -> Stamp.t -> (event -> bool) -> int option

val last_time : t -> Stamp.t -> (event -> bool) -> int option

(** {2 Dropping settled requests}

    A service request [uid] owns the stamp subtree under
    [Stamp.child Stamp.root uid].  Once it has settled (its answer is in
    and nothing can name one of its tasks), the cluster {!release}s it,
    and a retaining journal drops the request's entries from its columns
    if no [Failure] time lies within the span of their times: such a
    request is {e undisturbed}.  Its entries then sit inside one failure
    window and include no [Lost] entry (one is recorded at a kill time),
    so the recovery-episode analysis reads nothing of them but, per event
    kind, how many fell in that window and their first and last times.
    The journal keeps exactly that ({!dropped_tally}), along with the
    request's call conflicts (read back by {!call_conflicts}), and frees
    its call fingerprints.  A request a failure touched is kept whole, as
    is the batch root and every root-stamp entry.

    A request is only decided once the clock has passed its settle tick,
    so a failure in that same tick still sees its entries.  Decisions are
    batched: the columns are compacted in place once they have doubled
    since the last compaction, and once more when a run ends
    ({!drop_settled}). *)

val release : t -> uid:int -> since:int -> time:int -> unit
(** Service request [uid], opened at tick [since], settled at tick
    [time].  Dropping assumes what a cluster's journal guarantees:
    entries are recorded in time order, and none of the request's is
    older than [since], so a request with no failure between [since] and
    [time] is undisturbed without a look at its entries.  Releasing a
    request twice, a negative uid or on a journal without [retain] does
    nothing. *)

val drop_settled : t -> before:int -> unit
(** Decide now every released request that settled before tick
    [before]: drop it, or keep it whole if a failure touched it.  The
    cluster calls this when a run ends. *)

type tally = { entries : int; first : int; last : int }
(** [first] and [last] are meaningful only when [entries > 0]. *)

val dropped_tally : t -> window:int -> (event -> bool) -> tally
(** The dropped entries of the kinds [pred] accepts that lay in failure
    window [window]: after the [window]-th [Failure] and before the next
    (window [0] precedes every failure).  [pred] must depend on the event's
    kind only: it is applied to one sample event of each kind, whose
    fields are zero. *)

val retained : t -> int
(** Entries held in the columns. *)

val dropped : t -> int
(** Entries dropped with their settled requests. *)

val kept_whole : t -> int
(** Released requests kept whole because a failure lay within the span of
    their entries. *)

val late_entries : t -> int
(** Entries recorded under a request already released.  A correct settle
    leaves nothing that could record one, so any is an early release;
    [Oracle.check] reports it. *)

val event_label : event -> string

val pp_entry : Format.formatter -> entry -> unit
