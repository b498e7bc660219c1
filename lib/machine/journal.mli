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
(** [retain] (default [true]) keeps every entry in memory for {!entries},
    {!for_stamp} and friends, in column chunks of five words per entry.
    With [retain:false] — the scale-run mode, selected through
    [Config.journal_retain] — attached sinks still see every entry and
    {!length}/{!last_entry_time} stay exact, but no column is allocated
    and the per-stamp index remains empty, so journal memory is O(1) in
    the run length. *)

val attach_sink : t -> entry Recflow_obs_core.Sink.t -> unit
(** Every subsequent entry is also pushed into the sink as it is recorded
    — the hook streaming consumers (Perfetto conversion, sampled JSONL)
    build on so they never need the retained entries.  Repeated calls
    tee; the caller keeps ownership and closes file-backed sinks. *)

val record : t -> time:int -> stamp:Stamp.t -> event -> unit
(** A retaining journal keeps [stamp] itself (not a copy) and the event's
    fields; the entry is stored and counted before an attached sink sees
    it.
    @raise Invalid_argument if [retain] and [time] lies outside ±2{^58}. *)

val note_call : t -> task:Ids.task_id -> string -> Recflow_lang.Value.t array -> unit
(** Note the call [fname(args)] that a spawned or re-issued activation
    carries.  A retaining journal keeps a 63-bit fingerprint of it per task
    id; with [retain:false] this does nothing.  It records no entry. *)

val named_calls : t -> (Stamp.t * int) list
(** Each distinct (stamp, call fingerprint) pair over the [Spawned],
    [Respawned] and [Inherited] entries whose activation has a noted call,
    sorted.  Equal calls (function name and arguments) have equal
    fingerprints; distinct calls share one only by a 63-bit hash
    collision. *)

val call_conflicts : t -> (Stamp.t * Ids.task_id * Ids.task_id) list
(** [(stamp, older, newer)] for every activation [older] whose noted call
    differs from that of [newer], the newest activation noted under the
    same stamp.  Empty when every stamp names one call. *)

val entries : t -> entry list
(** Chronological.  Each call decodes fresh [entry] values from the
    columns: entries from two calls are equal, not physically equal. *)

val length : t -> int

val last_entry_time : t -> int option
(** Time of the newest entry. *)

val failures : t -> (int * Ids.proc_id) list
(** [(time, proc)] of every [Failure] entry, chronological — the episode
    boundaries the observability layer folds over. *)

val for_stamp : t -> Stamp.t -> entry list
(** Chronological entries for one stamp, decoded fresh on each call like
    {!entries}.  The per-stamp index is built on the first query and
    caught up on later ones. *)

val stamps : t -> Stamp.t list
(** All stamps seen, sorted. *)

val count : t -> (event -> bool) -> int

val first_time : t -> Stamp.t -> (event -> bool) -> int option

val last_time : t -> Stamp.t -> (event -> bool) -> int option

val event_label : event -> string

val pp_entry : Format.formatter -> entry -> unit
