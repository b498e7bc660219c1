(** Fault plans: which processors fail, and when.

    A plan is relative to a *probe run* of the same configuration without
    faults: experiments first run fault-free to learn the makespan and the
    task→processor mapping, then build a plan ("kill the busiest processor
    at 40% of the run", "kill the processors hosting a parent and its
    grandparent") and re-run with it injected.  Determinism makes the probe
    an exact oracle for the faulty run up to the first failure. *)

module Ids = Recflow_recovery.Ids

type t = (int * Ids.proc_id) list
(** (time, victim) pairs, not necessarily sorted. *)

val apply : Recflow_machine.Cluster.t -> t -> unit
(** Schedule every failure on the cluster (before [run]). *)

val single : time:int -> Ids.proc_id -> t

val at_fractions : makespan:int -> (float * Ids.proc_id) list -> t
(** Convert run-fraction specs to absolute times (fractions clamped to
    [\[0.01, 0.99\]]). *)

val random_burst :
  rng:Recflow_sim.Rng.t -> procs:int -> count:int -> lo:int -> hi:int -> t
(** [count] failures at uniformly random times in [\[lo, hi\]], striking
    distinct uniformly random victims (fewer if [count > procs]).
    @raise Invalid_argument if [procs <= 0], [count < 0] or [hi < lo]. *)

val poisson :
  rng:Recflow_sim.Rng.t -> procs:int -> mean_interval:float -> until:int -> t
(** Failures arriving as a Poisson process with the given mean
    inter-arrival time, each striking a fresh victim, until [until] is
    passed or every processor has failed.
    @raise Invalid_argument if [procs <= 0], [mean_interval <= 0.] or
    [until < 0]. *)

(** {2 Network fault plans}

    Combinators building a {!Recflow_net.Chaos.spec} for [Config.chaos]:
    {[
      let chaos =
        Chaos.none
        |> Plan.drop_rate 0.2
        |> Plan.duplicate_rate 0.1
        |> Plan.partition ~from:800 ~until:1600 ~groups:[ [ 1; 2 ] ]
    ]} *)

val drop_rate : float -> Recflow_net.Chaos.spec -> Recflow_net.Chaos.spec

val duplicate_rate : float -> Recflow_net.Chaos.spec -> Recflow_net.Chaos.spec

val reorder : rate:float -> spread:int -> Recflow_net.Chaos.spec -> Recflow_net.Chaos.spec

val delay_spikes :
  rate:float -> max_delay:int -> Recflow_net.Chaos.spec -> Recflow_net.Chaos.spec

val partition :
  from:int -> until:int -> groups:int list list -> Recflow_net.Chaos.spec -> Recflow_net.Chaos.spec
(** Append a partition window; see {!Recflow_net.Chaos.partition} for the
    island semantics. *)

(** Victim selection from a probe run's journal. *)
module Pick : sig
  val live_activations :
    Recflow_machine.Journal.t ->
    time:int ->
    (Recflow_recovery.Stamp.t * Ids.proc_id) list
  (** Each stamp whose latest activation at or before [time] has neither
      completed nor aborted by then, with that activation's processor;
      sorted by stamp.  One walk over the journal. *)

  val busiest :
    (Recflow_recovery.Stamp.t * Ids.proc_id) list -> exclude:Ids.proc_id list -> Ids.proc_id option
  (** Processor hosting most of the given live activations (excluding
      [exclude] and the super-root). *)

  val parent_grandparent_pair :
    Recflow_machine.Journal.t -> time:int -> (Ids.proc_id * Ids.proc_id) option
  (** A pair (parent_host, grandparent_host) of distinct processors such
      that some task alive at [time] has its parent on the first and its
      grandparent on the second — the §5.2 stranded-orphan scenario. *)

  val disjoint_pair :
    Recflow_machine.Journal.t -> time:int -> (Ids.proc_id * Ids.proc_id) option
  (** Two distinct processors hosting tasks from disjoint branches (no
      ancestor relation between any pair of their live stamps would be
      ideal; we settle for hosting sibling subtrees of the root). *)
end
