(** Task packets (§2) — the unit of spawning, checkpointing and recovery.

    A packet contains "all necessary information ... to activate the child
    task": the function, its argument values, the level stamp, and the
    return linkage (parent task/processor/slot).  For splice recovery it
    additionally carries the grandparent linkage (§4.1) and, optionally,
    deeper ancestor links (the great-grandparent extension of §5.2).

    Packets are immutable; a functional checkpoint *is* a retained packet.
    Regenerating a task means re-submitting an identical packet — by
    determinacy the new activation yields the same answer. *)

type link = { task : Ids.task_id; proc : Ids.proc_id; slot : int }
(** Where a result must be delivered: the call slot [slot] of activation
    [task] living on processor [proc]. *)

type t = {
  stamp : Stamp.t;
  fname : string;
  args : Recflow_lang.Value.t array;
  parent : link;
  grandparent : link option;
      (** [None] only for the root packet held by the super-root. *)
  ancestors : link list;
      (** Further ancestor links, nearest first (great-grandparent, ...);
          populated when the §5.2 multi-fault extension is enabled. *)
}

val root : fname:string -> args:Recflow_lang.Value.t array -> super_slot:int -> t
(** The packet for a program's root task, parented on the super-root. *)

val make :
  stamp:Stamp.t ->
  fname:string ->
  args:Recflow_lang.Value.t array ->
  parent:link ->
  grandparent:link option ->
  ancestors:link list ->
  t

val reparent : t -> parent:link -> grandparent:link option -> t
(** Copy with fresh return linkage — used when a step-parent (twin) adopts
    the offspring of a dead task, and when re-issuing a checkpoint whose
    parent activation id changed. *)

val equal_identity : t -> t -> bool
(** Same stamp and function — the notion of "the same task" used to match
    a regenerated twin with its dead original.  Argument values are not
    compared (by determinacy they agree when identities do). *)
