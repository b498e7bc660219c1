(** Whole-machine simulation: processors, network, super-root, fault
    injection and the event loop.

    A cluster wires {!Node}s to a deterministic {!Recflow_sim.Engine},
    routes messages with latency through {!Recflow_net.Router}, plays the
    super-root of §4.3.1 (the virtual parent of the root task, holding its
    pre-evaluation checkpoint), and injects fail-stop processor failures.

    Root requests live in one table, the request ledger ({!Settle}): a
    request's record holds the super-root's checkpoint of its root and
    what it still holds, and the ledger's stamp→request rule files both
    root results and holds.  A batch run ({!start}) is its one-request
    case: request [-1], rooted at the empty stamp, whose first answer ends
    the run.  Service mode fills the same table with many requests
    ({!submit}); every lookup, re-dispatch and oracle verdict treats the
    two alike.

    Typical use:
    {[
      let c = Cluster.create config program in
      Cluster.fail_at c ~time:5_000 2;
      Cluster.start c ~fname:"fib" ~args:[ Value.Int 20 ];
      let o = Cluster.run c in
      assert (o.answer = Some (Value.Int 6765))
    ]} *)

module Ids = Recflow_recovery.Ids
module Value = Recflow_lang.Value

type t

type outcome = {
  answer : Value.t option;
  answer_time : int option;  (** simulation time the root result landed *)
  sim_time : int;  (** clock when the run stopped *)
  events : int;  (** engine events dispatched *)
  error : string option;  (** program (not processor) error, if any *)
}

val create : Config.t -> Recflow_lang.Program.t -> t
(** @raise Invalid_argument if the configuration fails validation. *)

val start : t -> fname:string -> args:Value.t list -> unit
(** Super-root checkpoints the root packet and dispatches it at time 0, as
    request [-1] (the request accessors below take that uid).
    @raise Invalid_argument if called twice or [fname] is unknown. *)

(** {2 Service mode}

    A cluster normally runs one batch program ({!start}): the request
    table holds the one request [-1].  Service mode instead keeps
    the machine open for a stream of independent root requests in the same
    table: each {!submit} creates a fresh root task under its own depth-1
    level stamp ([Stamp.child Stamp.root uid]), so concurrent requests
    occupy disjoint stamp subtrees — checkpoint tables, orphan relays and
    journal rows can never alias across requests — while the §4.3.1
    super-root plays virtual parent to all of them, re-dispatching any
    request whose host dies or is suspected, exactly as it does the batch
    root. *)

val begin_service : t -> unit
(** Open the cluster for {!submit} instead of {!start}.
    @raise Invalid_argument if the cluster was already started. *)

val submit :
  t ->
  ?avoid:Ids.proc_id list ->
  ?on_answer:(Value.t -> unit) ->
  ?on_disturbed:(string -> unit) ->
  fname:string ->
  args:Value.t list ->
  unit ->
  int
(** Dispatch one root request now (callable before {!run} or from a
    {!schedule_callback} hook inside it); returns the request uid.
    [avoid] lists processors never chosen as this root's host — replica
    siblings of the same logical request pass each other's destinations so
    the vote stays independent.  [on_answer] fires once, on the first
    result reaching the super-root; [on_disturbed] fires on every root
    re-dispatch (failure notice, suspicion, bounce or orphan salvage).
    @raise Invalid_argument outside service mode or for a bad call. *)

val schedule_callback : t -> delay:int -> (unit -> unit) -> unit
(** Run [f] inside the event loop [delay] ticks from now — the hook an
    open-loop arrival generator uses so inter-arrival draws happen in
    simulated time.  @raise Invalid_argument before {!begin_service}. *)

val close_arrivals : t -> unit
(** Tell the cluster no further {!submit} is coming, so gradient gossip
    (and anything else keyed on "work may still arrive") can wind down. *)

val submitted_requests : t -> int
(** Service requests submitted so far; uids are
    [0 .. submitted_requests - 1].  The batch root is not counted. *)

val iter_request_uids : t -> (int -> unit) -> unit
(** Every request uid still in the table, in uid order: [-1] for a batch
    run (it stays after it settles), the submitted uids that have not
    settled in service mode. *)

val in_flight : t -> int
(** Requests still without a first answer (a batch run: 1 until the
    answer, then 0). *)

val request_answers : t -> int -> Value.t list
(** Results for one request in arrival order (more than one when a
    falsely-suspected host coexists with its twin; determinacy demands
    they all carry the same value).  Open requests and the batch root
    only: a settled service request has left the table, and its answers
    are in {!settled_answers}; read them as they land through [submit]'s
    [on_answer].
    @raise Invalid_argument for an unknown or settled uid (this and the
    next three accessors). *)

val request_answer_time : t -> int -> int option
(** Tick the first answer landed, if it has.  Open requests and the batch
    root only. *)

val request_dest : t -> int -> Ids.proc_id option
(** Processor currently hosting the request's root task.  Open requests
    and the batch root only. *)

val request_packet : t -> int -> Recflow_recovery.Packet.t
(** The super-root's checkpoint of the request's root task (§4.3.1).
    Open requests and the batch root only. *)

val request_stamp : t -> int -> Recflow_recovery.Stamp.t
(** Any issued uid, settled or not.
    @raise Invalid_argument for a uid never issued. *)

val request_redispatches : t -> int -> int
(** How many times the super-root re-dispatched this request's root.  Any
    issued uid: a settled request's count is kept while it is not zero.
    @raise Invalid_argument for a uid never issued. *)

(** One distinct answer value among the settled service requests. *)
type tally = private {
  value : Value.t;
  mutable n_answers : int;  (** answers that carried it *)
  mutable n_requests : int;  (** settled requests that gave it *)
  mutable first_uid : int;  (** the lowest of their uids *)
}

val settled_answers : t -> tally list
(** What is left of the settled service requests' answers: one tally per
    distinct value, in the order the values first settled, so its size
    follows the distinct values, not the stream. *)

val split_requests : t -> (int * int) list
(** Each settled service request whose answers carried more than one
    distinct value, with that number, in the order they settled.  Empty on
    a correct run (determinacy). *)

(** {2 Reclamation}

    A request {e settles} once its answer has reached the super-root and
    nothing can name one of its tasks any more: no task of it is live, no
    message naming one is in flight or parked, and no checkpoint under its
    stamp is held (see {!Settle}).  Its task uids are then reclaimed on the
    processors that hosted them: each uid's index cell is freed, and the
    indexes count the keys ever inserted, so their walks keep their order
    and every run stays byte-identical.  The batch root settles the same
    way, at the end of a drained run.  A settled service request is also
    released to the journal, which drops its entries unless a failure
    touched them ({!Journal.release}), and its record leaves the request
    table: the root packet, the avoid list and both callbacks go, its
    answers are folded into {!settled_answers} and {!split_requests}, and
    its re-dispatch count is kept only when it is not zero.  The batch
    root keeps its record. *)

val settled_requests : t -> int
(** Requests settled, and so retired, so far. *)

val reclaimed_tombstones : t -> int
(** Task tombstones reclaimed so far, over every processor: each one's
    index cell is freed. *)

val reclaimed_hits : t -> int
(** Messages that named a reclaimed request, and run-queue uids found
    freed, over every processor ({!Node.reclaimed_hits}), and messages
    reaching the super-root for a request it has dropped: each one is a
    request reclaimed before it settled.  {!Oracle.check} reports any. *)

val reclaim_unsettled : t -> int -> unit
(** For tests only: reclaim request [uid]'s retired tasks now, settled or
    not, to show that a wrong settle shows up in {!reclaimed_hits}.
    @raise Invalid_argument for an unknown uid. *)

val replay : t -> dst:Ids.proc_id -> Message.t -> unit
(** For tests only: hand [msg] to live processor [dst], or to the
    super-root ([Ids.super_root]), now, bypassing the network and the
    settle ledger, as a late duplicate would arrive — to show that a
    message naming a reclaimed request is counted in {!reclaimed_hits}
    and ignored, or that a second, different answer for an open request
    is a determinacy violation once it settles. *)

val release_unsettled : t -> int -> unit
(** For tests only: release request [uid]'s journal entries now, settled
    or not ({!Journal.release}), to show that a wrong settle shows up in
    {!Journal.late_entries}.
    @raise Invalid_argument for an unknown uid. *)

val request_roots : t -> Obj.t list
(** The roots of the super-root's request state: the ledger's window of
    open requests, and what is kept of the settled ones.  Introspection
    for the live-words tool; not for hot paths. *)

val fail_at : t -> time:int -> Ids.proc_id -> unit
(** Schedule a fail-stop failure.  May be called repeatedly (multiple
    faults) and before or after {!start}, but before {!run}. *)

val run : ?drain:bool -> t -> outcome
(** Drive the event loop until the root answer arrives (default), the
    event queue drains, or the horizon passes.  [drain:true] keeps going
    after the answer so that straggler work and messages are accounted. *)

val config : t -> Config.t

val journal : t -> Journal.t

val counters : t -> Recflow_stats.Counter.set

val latency : t -> string -> Recflow_stats.Hdr.t
(** The cluster's named duration histogram, created empty on first use.
    Families recorded by the machine layer: [net.rtt] (reliable send to
    first transport ack), [net.retransmit_delay] (send birth to each
    retransmission), [failure.detection] (injected failure to each live
    peer processing the notice), [task.sojourn] (activation to
    completion). *)

val latency_hists : t -> (string * Recflow_stats.Hdr.t) list
(** Every histogram touched so far, sorted by name. *)

val trace : t -> Recflow_sim.Trace.t

val router : t -> Recflow_net.Router.t

val inline_cache : t -> Recflow_lang.Inline_cache.t
(** Every inline leaf call goes through this; its hit and miss tallies
    feed no counter and no digest. *)

val node : t -> Ids.proc_id -> Node.t
(** @raise Invalid_argument for an out-of-range id. *)

val nodes : t -> Node.t list

val now : t -> int

val total_work : t -> int
(** Busy ticks summed over all processors. *)

val total_waste : t -> int
(** Busy ticks spent on tasks that were aborted or whose results were
    dropped (survivor nodes only). *)

val first_alive : t -> key:int -> Ids.proc_id option
(** Deterministic pick among the processors currently alive, hashed by
    [key] (any int, including [min_int]); [None] when all are dead.
    Nodes use it to re-home tasks whose preferred destination died. *)

val quiescent : t -> bool
(** No events left in the queue: the run drained completely (as opposed to
    stopping early on the answer or at the horizon). *)

val error : t -> string option
(** Program (not processor) error, if any. *)

val unsettled_sends : t -> int
(** Reliable sends still awaiting a transport ack or a bounce.  Zero at
    quiescence. *)

val suspected_nodes : t -> Ids.proc_id list
(** Destinations some sender gave up on (timeout-based suspicion), sorted.
    A member may still be alive — it is *treated* as faulty per §1, its
    residual work abandoned in favour of a twin. *)
