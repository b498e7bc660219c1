(** Inter-processor messages (the packet kinds of §4.2's protocol LOOP).

    [Task_packet] spawns a task (DEMAND_IT's output).  [Ack] is the
    positive acknowledgement that moves a spawn from transient state b/d to
    established state c/e (§4.3.2).  [Result] forwards an answer — [relay]
    distinguishes a normal child→parent return from an orphan's
    grandchild→grandparent return and from the grandparent's forward to a
    step-parent.  [Abort] cascades orphan garbage collection under rollback
    (§3.2).  [Failure_notice] is the error-detection broadcast.  Every
    message that names a task also carries a level stamp under the same
    request root, so the cluster can count it against that request while
    it travels (see {!Settle}).

    The paper's [fetch data] message does not appear: arguments travel by
    value inside packets in this model (partitioned memory with no remote
    references), a substitution recorded in DESIGN.md. *)

module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ids = Recflow_recovery.Ids

type relay =
  | To_parent  (** ordinary child → parent return *)
  | To_grandparent of { dead_parent : Packet.link }
      (** orphan return routed around its dead parent (§4.1); carries the
          original parent link so the step-parent can be matched by stamp
          and the call slot preserved *)
  | To_step_parent of { dead_parent : Packet.link }
      (** grandparent → twin forward of a salvaged result *)

type result_payload = {
  stamp : Stamp.t;  (** stamp of the task that produced the value *)
  value : Recflow_lang.Value.t;
  target : Packet.link;  (** where this message is heading *)
  relay : relay;
}

type t =
  | Task_packet of { packet : Packet.t; task_id : Ids.task_id; replica : int; replicas : int }
      (** [replica]/[replicas]: 0-based index and group size (1 when not
          replicated) *)
  | Orphan_alive of {
      stamp : Stamp.t;  (** the orphan's level stamp *)
      orphan : Packet.link;  (** where the orphan runs (slot = its slot in the dead parent) *)
      dead_parent : Packet.link;
      target : Packet.link;  (** the ancestor (or twin) this report is heading to *)
    }
      (** a still-running orphan announces itself so the step-parent twin
          can *inherit* it instead of spawning a duplicate clone (§4.1:
          "this twin task inherits all offspring of the faulty task") *)
  | Reparent of {
      orphan_task : Ids.task_id;
      stamp : Stamp.t;  (** the orphan's level stamp *)
      new_parent : Packet.link;  (** the adopting twin's activation and the call slot *)
      new_grandparent : Packet.link option;  (** the twin's own parent link *)
    }
      (** the step-parent tells an inherited orphan its new return address
          (§3.4: "if the orphan tasks know the new address to which to
          forward their answers"); an orphan that already completed
          re-sends its result there *)
  | Ack of {
      child_stamp : Stamp.t;
      child_task : Ids.task_id;
      child_proc : Ids.proc_id;
      parent_task : Ids.task_id;
      slot : int;
    }
  | Result of result_payload
  | Gradient of { from : Ids.proc_id; value : int }
      (** distributed gradient-model exchange: the sender's current
          gradient value, delivered to a topology neighbour *)
  | Abort of { task : Ids.task_id; stamp : Stamp.t  (** the aborted task's level stamp *) }
  | Failure_notice of { failed : Ids.proc_id }

(** What a salvage walk carries down the chain of twins toward an orphan's
    step-parent (§4.1): a finished orphan's result, or a still-running
    orphan's adoption report.  Both travel the same route — from an
    ancestor, through each twin on the orphan's stamp chain, to the twin of
    its dead parent — and wait in the same stash at a twin that has not
    re-created the next link yet. *)
type salvage =
  | Salvaged of Recflow_lang.Value.t  (** the orphan's answer *)
  | Still_running of Packet.link
      (** where the orphan runs (slot = its slot in the dead parent) *)

val salvage_reason : salvage -> string
(** ["orphan-result"] or ["orphan-alive"]: the failure-detection and
    re-issue reason a salvage arrival records. *)

val salvage_forward :
  via:Stamp.t ->
  stamp:Stamp.t ->
  dead_parent:Packet.link ->
  task:Ids.task_id ->
  proc:Ids.proc_id ->
  salvage ->
  t
(** The message that carries the salvage of orphan [stamp] one link down
    the chain, to the twin activation [task] on [proc] whose stamp is
    [via].  A result becomes [To_step_parent] aimed at [dead_parent.slot]
    when [via] is the orphan's parent stamp — call slots are graph node
    ids, identical across activations of one function — and
    [To_grandparent] with slot -1 otherwise, so a deeper twin repeats the
    walk.  A report becomes an [Orphan_alive] aimed at slot -1. *)

val iter_salvage :
  (Stamp.t * Packet.link * salvage -> unit) -> (Stamp.t * Packet.link * salvage) list -> unit
(** Release a stash of (orphan stamp, dead parent, payload) entries:
    results before reports, each kind in stash order. *)

val label : t -> string
(** Counter key, one per variant: "task_packet", "orphan_alive",
    "reparent", "ack", "result", "gradient", "abort", "failure_notice". *)

val counter : t -> Recflow_stats.Counter.handle
(** The delivery counter of the message's kind, named ["msg." ^ label msg]
    and bumped once per delivered message. *)
