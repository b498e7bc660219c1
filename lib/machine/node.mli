(** Processor node: the protocol LOOP of §4.2.

    Each node owns a run queue of tasks (dataflow-graph instances), a
    functional-checkpoint table (§3.2), and local failure knowledge.  The
    cluster drives it with three entry points: {!deliver} for an incoming
    message, {!step} for a CPU scheduling quantum, and {!handle_bounce}
    when a message the node sent turned out to be undeliverable (the
    timeout path of §1).

    The node implements, depending on [Config.recovery]:
    - functional checkpointing on every spawn (DEMAND_IT);
    - rollback recovery (§3): on a failure notice, re-issue the topmost
      checkpoints filed under the dead processor and abort orphans
      (cascading Abort messages approximate the paper's garbage
      collection);
    - splice recovery (§4): re-issue as above but keep orphans alive;
      returns that cannot reach a dead parent divert to the grandparent,
      which creates a step-parent twin from its checkpoint and relays the
      salvaged result to it;
    - replicated execution (§5.3): every spawn fans out k replicas and the
      parent majority-votes on their returns.

    All side effects flow through the {!ctx} capability record supplied by
    the cluster, keeping this module free of global state and directly
    testable. *)

module Ids = Recflow_recovery.Ids
module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ckpt_table = Recflow_recovery.Ckpt_table
module Value = Recflow_lang.Value

type ctx = {
  config : Config.t;
  now : unit -> int;
  send : src:Ids.proc_id -> dst:Ids.proc_id -> Message.t -> unit;
  send_after : delay:int -> src:Ids.proc_id -> dst:Ids.proc_id -> Message.t -> unit;
      (** like [send] with an extra departure delay (adoption grace) *)
  wake : Ids.proc_id -> delay:int -> unit;  (** schedule a {!step} quantum *)
  fresh_task_id : unit -> Ids.task_id;
  place : origin:Ids.proc_id -> key:int -> Ids.proc_id;
  first_alive : key:int -> Ids.proc_id option;
      (** deterministic fallback when a static placement hits a dead node *)
  neighbors : Ids.proc_id -> Ids.proc_id list;
      (** topology neighbours (for the distributed gradient exchange) *)
  template : string -> Recflow_lang.Graph.t;
  inline_eval : string -> Value.t array -> (Value.t * int, string) result;
  journal : Journal.t;
  counters : Recflow_stats.Counter.set;
  record_latency : string -> int -> unit;
      (** record a duration into the owning cluster's named
          {!Recflow_stats.Hdr} histogram (e.g. [task.sojourn]) *)
  program_error : string -> unit;
  settle : Settle.t;
      (** the cluster's settle ledger: the node takes and releases its
          requests' holds for live tasks, parked salvage and checkpoints,
          and lists each uid it retires *)
}

type t

val create : Ids.proc_id -> Config.t -> t

val id : t -> Ids.proc_id

val is_alive : t -> bool

val kill : t -> ctx -> unit
(** Fail-stop: the node drops everything and never speaks again.  Returns
    nothing; in-flight messages *from* the node survive (they already left). *)

val deliver : t -> ctx -> Message.t -> unit
(** Handle a message that physically arrived.  No-op on a dead node. *)

val handle_bounce : t -> ctx -> dead:Ids.proc_id -> Message.t -> unit
(** The node's earlier send to [dead] was undeliverable; react per message
    kind (re-place a task packet, divert a result to the grandparent,
    drop an ack/abort). *)

val step : t -> ctx -> unit
(** One CPU quantum: run the current task's next micro-action, or pick the
    next runnable task. *)

val gradient_tick : t -> ctx -> unit
(** One round of the distributed gradient exchange (only meaningful under
    [Policy.Gradient_distributed]): recompute this node's gradient value
    from its neighbours' last-heard values and broadcast it to them. *)

val runnable_tasks : t -> int
(** Load-balancer pressure: queued runnable tasks (current task included). *)

val live_tasks : t -> int
(** Tasks resident and neither done nor aborted. *)

val blocked_tasks : t -> int

val checkpoints : t -> Ckpt_table.t

val knows_dead : t -> Ids.proc_id -> bool

val work_done : t -> int
(** Total busy ticks accumulated (utilisation metric). *)

val wasted_work : t -> int
(** Busy ticks attributable to tasks that were later aborted or whose
    results were dropped. *)

val resident_tasks : t -> int
(** Full task records currently held, i.e. the index entries not yet
    retired to tombstones (= {!live_tasks} at quiescence). *)

val reclaim : t -> Ids.task_id -> int
(** The uid's request has settled: free its tombstone's index cell, adding
    its wasted work to the baseline {!recount} starts from.  The index
    counts the keys ever inserted, so its walks keep their order.  A live
    or already reclaimed uid is left as it is.  Returns how many
    tombstones went (0 or 1). *)

val reclaim_all : t -> int
(** {!reclaim} every tombstone on this node (the batch root's settle: it
    owns every uid of its run); returns how many went. *)

val reclaimed_hits : t -> int
(** Messages this node got or had bounce that named a reclaimed request,
    and run-queue uids it found freed.  Each one means a request was
    reclaimed before it settled; the oracle reports any. *)

val allocated_side_tables : t -> int
(** How many of the node's three lazily allocated side tables (known-dead
    peers, salvage messages held for twins not yet activated, gradient
    values heard) exist — introspection for tests: a node that never
    needed one holds none. *)

val child_slot_walks : int list -> int list * int list * (int -> int option)
(** Bind one child per slot of [slots], in list order (slots distinct), on
    a fresh task's slot table, and read the table back: the slots in the
    order the iteration walk visits them, in the order the fold visits
    them, and the finder, answering a slot's child by its binding
    position.  The walks must visit children in the order a stdlib
    [Hashtbl.create 8] filled by [Hashtbl.replace] would; the property
    test holds them to one.  Introspection for tests. *)

type part =
  | Stamps | Packets | Templates | Instances | Children | Tasks | Tombstones | Index | Checkpoints

val iter_parts : t -> (part -> Obj.t -> unit) -> unit
(** Every root of this node's state, labelled with the part it belongs
    to: a live task's stamp, packet, graph template, instance, children
    (the array, its records and their copies and packets) and record; a
    tombstone's stamp and record; the uid index; the checkpoint table and
    each held packet and stamp.  A block can sit under several roots (a
    child's packet is its activation's packet); an attribution that counts
    [Obj.reachable_words] over cumulative root sets counts it in the first
    part it meets.  Walks the node without changing it.  Introspection for
    tests and the live-words tool; not for hot paths. *)

val recount : t -> int * int * int
(** [(live, blocked, wasted)] recomputed by brute force over every
    resident and retired task, the wasted work of reclaimed tombstones
    taken from a baseline kept at reclamation — the oracle the property
    tests check the O(1) incremental counters ({!live_tasks},
    {!blocked_tasks}, {!wasted_work}) against.  Not for hot paths. *)
