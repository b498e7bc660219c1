(** Shared run machinery for the experiments.

    Wraps [Cluster] with workload plumbing, correctness checking against
    the serial evaluator, and the probe-then-inject pattern used by all
    fault experiments. *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Workload = Recflow_workload.Workload

type run = {
  cluster : Cluster.t;
  outcome : Cluster.outcome;
  correct : bool;  (** answer present and equal to the serial reference *)
  makespan : int;  (** answer time, or sim end when no answer *)
  oracle : Recflow_machine.Oracle.report;
      (** recovery-correctness report; {!run} already asserted it holds *)
}

val run :
  ?drain:bool -> Config.t -> Workload.t -> Workload.size -> failures:Recflow_fault.Plan.t -> run
(** Build, fault-inject and drive a cluster, then check the recovery
    oracle ({!Recflow_machine.Oracle.assert_ok} — raises on violation). *)

val probe : Config.t -> Workload.t -> Workload.size -> run
(** Fault-free run (the oracle for fault placement and baselines). *)

val busiest_victim :
  ?exclude:Recflow_recovery.Ids.proc_id list ->
  run ->
  time:int ->
  (Recflow_recovery.Ids.proc_id, Recflow_recovery.Ids.proc_id option) result
(** Where to aim a failure at [time], read from a fault-free probe
    run's journal (determinism makes it exact up to the failure): [Ok p]
    for the processor hosting the most live activations at [time], never
    the root's host nor one in [exclude]; [Error root_host] when no other
    processor hosts a live task, so each experiment picks its own
    default victim.  One walk over the journal. *)

val run_many : ('a -> 'b) -> 'a list -> 'b list
(** [run_many f xs] is [List.map f xs] fanned out over the shared domain
    pool ({!Recflow_parallel.Pool.default}, sized by the driver's
    [--jobs]).  Results come back in the order of [xs] and every run is
    determined by its own [Config.seed], so a sweep's output is
    bit-identical at any pool width.  Use for the independent points of
    an experiment sweep; the elements must not share mutable state. *)

val run_many_seeded :
  seed:int -> (rng:Recflow_sim.Rng.t -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!run_many} for sweeps that draw extra randomness: element [i]
    receives a private stream split off a master generator seeded with
    [seed] before the fan-out, so the draws depend only on [(seed, i)]
    and the sweep stays bit-identical at any [--jobs]. *)

val warm_pool : unit -> unit
(** Force the shared pool into existence and run one trivial wider-than-
    the-pool batch through it, so domain spawn and first-wakeup costs land
    before any timed section instead of inside the first sweep.  The
    experiments driver calls this once after [--jobs] is applied; the
    benches hoist pool construction the same way. *)

type obs_info = { workload_name : string; size_name : string }

val set_obs_hook : (obs_info -> run -> unit) option -> unit
(** Install (or clear) an observability callback invoked after every
    harness run, probes included — the experiments binary uses it to dump
    a metrics document per simulated run ([--metrics-dir]) without any
    experiment knowing.  The hook must not mutate the cluster.

    The hook slot is an atomic read on the per-run hot path — no lock is
    taken, so hook bodies execute concurrently on pool domains
    ({!run_many}) and must be domain-safe: guard shared state with a
    mutex (one acquisition per run is noise next to a simulation) or use
    [Atomic] for ordinals.
    Completion order across domains — and hence e.g. ordinal file
    numbering — is not deterministic under [--jobs] > 1, but the set of
    invocations is. *)

val synthetic_setup : quick:bool -> Workload.t * Workload.size * int
(** The standard controlled workload of the quantitative experiments: a
    binary tree (branching 2, depth 8, leaf grain 60) at Medium size
    (Small when [quick]), together with the matching [inline_depth] —
    leaf spins evaluate inline so tasks have real grain instead of
    unravelling into per-iteration chains. *)

val counter : run -> string -> int

val pct_of : part:int -> whole:int -> float

val c_int : int -> string

val c_float : ?decimals:int -> float -> string

val c_bool : bool -> string
