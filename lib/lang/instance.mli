(** Per-task activation of a {!Graph} template: demand-driven evaluation.

    An instance starts with the result node demanded; demand propagates to
    exactly the nodes the answer needs (in particular only the taken branch
    of a conditional, mirroring Rediflow's demand-driven model).  Execution
    is pulled by the machine layer one micro-step at a time so the
    simulator can charge time per node firing and interleave tasks:

    - {!step} returns [Work] when a primitive or conditional fired (with
      its simulated cost), [Spawn] when a call node's arguments are ready —
      the machine performs DEMAND_IT and later calls {!supply} with the
      child's answer — [Blocked] when the only pending work awaits child
      results, [Finished] once the result node has a value, and [Failed] on
      a program error.

    - {!supply} is idempotent for already-filled slots: a duplicate answer
      for the same call node is ignored, which is exactly the behaviour
      splice recovery needs in cases 6 and 7 of §4.1 ("since they are
      identical, the second copy is simply ignored"). *)

type t

type action =
  | Work of { cost : int }  (** a node fired; charge this much simulated work *)
  | Spawn of { slot : Graph.node_id; fname : string; args : Value.t array }
  | Blocked  (** waiting on outstanding call results *)
  | Finished of Value.t
  | Failed of string

val create : Graph.t -> Value.t array -> t
(** @raise Invalid_argument on arity mismatch. *)

val step : t -> action

val supply : t -> Graph.node_id -> Value.t -> unit
(** Deliver a child result into a call slot.  Ignored if the slot is
    already filled.
    @raise Invalid_argument if the slot is neither an outstanding nor a
    filled call (a leaf is not a call). *)

val outstanding_calls : t -> int
(** Call slots spawned but not yet supplied. *)

val outstanding_slots : t -> Graph.node_id list
(** The outstanding slots, in node-id order. *)

val graph : t -> Graph.t
(** The template the instance runs. *)
