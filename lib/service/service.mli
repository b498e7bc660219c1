(** Long-running service over one persistent cluster: an open-loop traffic
    generator feeds a stream of independent root requests into service-mode
    {!Recflow_machine.Cluster}, with per-request k-way replication and
    §5.3 majority voting as a failure-masking fast path, admission
    control / load shedding for graceful degradation, and per-request SLO
    accounting (latency percentiles, goodput, shed/masked/recovered
    counts).

    The traffic model is Poisson: inter-arrival gaps are exponential draws
    (mean [Config.service.arrival_mean]) from a dedicated RNG stream, taken
    inside the event loop so the whole stream is a deterministic function
    of the seed.  Each logical request is dispatched as [k] independent
    replica roots placed on distinct processors; the first majority among
    their answers completes the request ([Completed], or [Masked] when a
    replica's host had died or been suspected mid-flight).  When a majority
    becomes impossible the voter's {!Recflow_recovery.Vote.give_up}
    accepts a strict plurality, and failing even that, the request waits
    for the paper's checkpoint recovery to deliver — both counted
    [Recovered], the slow path replication exists to hide.

    Admission control sheds an arrival (never executed, honestly counted)
    when too many requests are already in flight ([Shed_overload]) or when
    too much of the cluster is dead or suspected ([Shed_suspects]).

    Every finished request is oracle-checked: the run ends by draining the
    cluster to quiescence, asserting the per-request recovery oracle, and
    comparing every delivered value against the workload's serial
    reference. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Oracle = Recflow_machine.Oracle
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value

val schema : string
(** ["recflow.service/1"] *)

type verdict =
  | Completed  (** vote decided, no replica ever disturbed *)
  | Masked
      (** at least one replica's root was re-dispatched (its host died or
          was suspected) but the surviving replicas decided first — the
          failure was masked out of the latency path *)
  | Recovered
      (** the answer arrived through the slow path: an accepted plurality
          after the vote went inconclusive, or a checkpoint-recovered
          replica answering after every fast option was exhausted *)
  | Shed_overload  (** rejected at admission: in-flight depth at the cap *)
  | Shed_suspects
      (** rejected at admission: dead + suspected processor fraction above
          the degradation threshold *)

val verdict_label : verdict -> string

type replica = {
  host : int;  (** processor hosting the replica's root when its answer landed *)
  answered : int;  (** tick its first answer reached the super-root *)
}

type record = {
  rid : int;  (** logical request id, in arrival order *)
  arrival : int;  (** tick the request arrived *)
  verdict : verdict;
  finish : int option;  (** completion tick; [None] for shed requests *)
  value : Value.t option;  (** delivered answer; [None] for shed requests *)
  disturbed_replicas : int;  (** replicas whose root was re-dispatched *)
  replicas : replica option array;
      (** one per replica root, in submit order: its first answer, [None]
          if none landed (empty for a shed request).  Filled in as answers
          land, after the request may already have been decided; complete
          once {!run} returns.  The cluster drops a replica root once it
          settles, so this, not {!Cluster.request_dest}, is where a run's
          hosts and answer ticks are read afterwards. *)
}

type counts = {
  offered : int;  (** arrivals generated (shed included) *)
  completed : int;
  masked : int;
  recovered : int;
  shed_overload : int;
  shed_suspects : int;
}

val finished : counts -> int
(** [completed + masked + recovered]. *)

val shed : counts -> int
(** [shed_overload + shed_suspects]. *)

type outcome = {
  counts : counts;
  records : record list;  (** one per offered request, in rid order *)
  sim_time : int;
  events : int;
  goodput : float;  (** finished requests per 1000 simulated ticks *)
  all_correct : bool;
      (** every executed request delivered exactly the serial reference
          answer *)
  oracle : Oracle.report;
  cluster : Cluster.t;
      (** the drained cluster, for journals / counters / latency families —
          request latencies live in the ["service.latency"] and
          ["service.latency.disturbed"] histogram families *)
}

val run :
  ?failures:Recflow_fault.Plan.t ->
  ?sink:Recflow_machine.Journal.entry Recflow_obs_core.Sink.t ->
  config:Config.t ->
  workload:Workload.t ->
  size:Workload.size ->
  requests:int ->
  unit ->
  outcome
(** Run a [requests]-long stream to completion (drain, oracle, reference
    check).  Traffic knobs come from [config.service]; failures and chaos
    from [failures] / [config.chaos] strike mid-stream like any batch run.
    The configured [inline_depth] is depth-shifted by one internally so a
    grain limit means the same thing as in batch mode (service roots sit
    at stamp depth 1).  [sink] is attached to the cluster's journal
    before the first arrival, so it sees every entry, including those of
    the settled requests a retaining journal drops.
    @raise Invalid_argument on an invalid config or [requests < 1].
    @raise Failure when the recovery oracle finds a violation. *)

val to_json : ?workload:string -> ?size:string -> outcome -> Recflow_obs_core.Json.t
(** The [recflow.service/1] document: config metadata, traffic counts,
    goodput, request latency percentile blocks (p50/p90/p99/p999) for all
    and for disturbed requests, every other cluster latency family, and
    the recovery-episode summary. *)
