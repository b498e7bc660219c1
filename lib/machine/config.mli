(** Cluster configuration: machine model, cost model and recovery mode. *)

type recovery =
  | No_recovery  (** a failure silently loses work (control baseline) *)
  | Rollback  (** §3: re-issue topmost checkpoints, abort orphans *)
  | Splice  (** §4: re-issue + grandparent relay, twins inherit offspring *)
  | Replicate of int  (** §5.3: k-way task replication with majority voting *)

val recovery_to_string : recovery -> string

type ckpt_mode =
  | Fixed of Recflow_recovery.Ckpt_table.mode
      (** every spawn is offered to the table under the given discipline
          ([Topmost] = paper §3.2, [Keep_all] = the Q8 ablation) *)
  | Adaptive of { max_depth : int }
      (** Sodre-style admission: spawns at stamp depth > [max_depth] are
          not checkpointed at all (their loss is repaired by the surviving
          parent's local regeneration); shallower spawns use the topmost
          discipline.  Seeded from the static cost analysis via
          [--policy auto] / {!Recflow_balance.Policy.suggest_ckpt_admission}. *)

val ckpt_mode_string : ckpt_mode -> string
(** ["topmost"], ["keep-all"], ["adaptive:3"]. *)

val table_mode : ckpt_mode -> Recflow_recovery.Ckpt_table.mode
(** The table discipline actually instantiated per node: [Adaptive]
    admission gates *entry* to a [Topmost] table. *)

type retry = {
  rto : int;  (** ticks before the first retransmission of an unacked send *)
  backoff : float;  (** exponential backoff base: attempt n waits rto·backoffⁿ *)
  suspicion_after : int;
      (** ticks of silence after which the sender gives up, *suspects* the
          destination (treats it as faulty per §1, even if it is merely
          slow or partitioned) and routes the message down the bounce
          recovery path.  Must exceed [detect_delay] so real failures are
          normally announced before suspicion fires. *)
}

type service = {
  arrival_mean : float;
      (** mean inter-arrival time (ticks) of the open-loop request stream;
          draws are exponential via [Rng.exponential], so the generator is
          Poisson at rate 1/arrival_mean *)
  replicas : int;
      (** k-way replication per request (§5.3): each request is dispatched
          as [k] independent root instances and the first majority among
          their answers completes it, masking mid-stream failures without
          waiting for checkpoint recovery.  1 = no replication. *)
  max_inflight : int;
      (** admission control: arrivals while this many requests are already
          in flight are shed (counted, never executed) *)
  shed_suspect_frac : float;
      (** degradation threshold: arrivals are shed while the fraction of
          dead or suspected processors exceeds this (in [0,1]; 1.0 never
          sheds on suspicion) *)
}

type t = {
  topology : Recflow_net.Topology.t;
  latency : Recflow_net.Latency.t;
  policy : Recflow_balance.Policy.spec;
  recovery : recovery;
  ckpt_mode : ckpt_mode;
  ckpt_cost : int;
      (** extra ticks charged at spawn per checkpoint actually stored
          (0 = the pre-PR-9 cost model, where recording is free) *)
  loss_prior : float;
      (** prior probability (in [0,1]) that any given spawned task is lost
          to a failure — the operator's loss-rate estimate consumed by
          [Policy.suggest_ckpt_admission] when seeding [Adaptive] *)
  ancestor_depth : int;
      (** how many ancestor links a packet carries beyond its parent:
          1 = grandparent (standard splice), n ≥ 2 adds great-grandparents
          (the §5.2 multi-fault extension).  0 disables relaying. *)
  replicate_depth : int;
      (** under [Replicate k]: spawns whose child would sit at stamp depth
          ≤ this are replicated — the "critical section" prefix of the call
          tree (§5.3); deeper spawns fall back to rollback handling *)
  inline_depth : int;
      (** calls whose stamp depth would reach this value are evaluated
          inline (grain control); [max_int] spawns everything. *)
  detect_delay : int;
      (** ticks from a processor failure until peers receive the
          error-detection notice (plus per-hop distance) *)
  adoption_grace : int;
      (** splice only: enables offspring *inheritance* (§4.1 "this twin
          task inherits all offspring of the faulty task") — living
          orphans report to their grandparents and re-issued twins are
          held back this many ticks so the reports can overtake them and
          mark the matching call slots inherited instead of cloned.
          0 reverts to the literal §4.2 protocol: twins re-demand all
          offspring and only completed orphan results are salvaged. *)
  bounce_delay : int;
      (** ticks for a sender to conclude a message was undeliverable *)
  horizon : int;  (** hard simulation-time stop *)
  seed : int;
  chaos : Recflow_net.Chaos.spec;
      (** network perturbation (loss, duplication, reordering, delay
          spikes, partition windows); [Chaos.none] leaves every run
          bit-identical to the reliable network *)
  reliable : bool;
      (** arm the transport layer: [Task_packet]/[Result]/[Orphan_alive]/
          [Reparent] sends carry sequence numbers, are acknowledged
          hop-to-hop, retransmitted with exponential backoff and
          deduplicated at the receiver; required whenever [chaos] can
          destroy messages *)
  retry : retry;  (** retransmission timing (only used when [reliable]) *)
  service : service;
      (** open-loop traffic model (only used by [Recflow_service]; batch
          runs ignore it) *)
  batched_delivery : bool;
      (** coalesce same-destination same-arrival-tick message deliveries
          into one simulator event carrying the whole batch.  Per-edge
          FIFO order and every per-message latency/chaos/transport draw
          are preserved, but coalesced messages are processed at the
          batch's queue position instead of their individual ones, so
          event interleaving — and hence the journal — can differ from an
          unbatched run.  Off by default; the scale experiments turn it
          on and carry their own golden digests. *)
  journal_retain : bool;
      (** keep every journal entry in memory (the default).  Scale runs
          with millions of tasks turn this off: entries still stream to
          any attached sink and the counts survive, but the retained
          list / per-stamp index stay empty so memory is bounded by the
          live frontier, not the run length. *)
}

val default : nodes:int -> t
(** Full crossbar over [nodes] processors, gradient placement, splice
    recovery, grandparent links only, spawn-everything grain, modest cost
    model.  Experiments override fields as needed. *)

val validate : t -> (unit, string) result

type meta_value = [ `Int of int | `Str of string | `Bool of bool ]

val metadata : t -> (string * meta_value) list
(** The run-defining knobs (nodes, topology, policy, recovery mode,
    checkpoint mode, cost model, rng seed, ...) as typed key/value pairs,
    in a stable order.  Every exported metrics document embeds this so a
    benchmark trajectory can be reproduced from the artefact alone. *)
