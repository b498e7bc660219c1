(** Recovery-correctness oracle: the invariants §2-§4 promise, checked on a
    finished run.

    Determinacy makes re-execution safe (§2), so whatever the network and
    the failure plan did, a run must end with exactly one root *value*
    (possibly delivered several times by coexisting twins), no task left
    resident-but-unfinished on a trusted live processor, no committed
    checkpoint stranded in a trusted live table, and no reliable send still
    in limbo.  Processors that some sender gave up on (timeout suspicion)
    are excluded from the leak checks: per §1 they are *treated* as faulty,
    so their residual work is deliberately abandoned to a twin.

    The completion-dependent checks only apply when they can be decided:
    the run drained to quiescence, recovery was enabled, no program error
    occurred and at least one processor survived.  The divergence check
    (all root answers equal) is unconditional.

    In batch mode the caller may also pass the [expected] answer (the
    serial reference or a closed form): any root answer that differs from
    it is a violation, so a consistently wrong answer cannot pass as "one
    distinct value".

    In service mode ({!Cluster.begin_service}) the answer checks are
    per-request: each submitted request must end with exactly one distinct
    value of its own, and — when decidable — at least one answer.  The
    leak, strand and transport checks apply cluster-wide as in batch.

    {!assert_ok} is wired into [Harness.run] — every experiment and every
    harness-driven test runs under the oracle, never with it off. *)

type report = {
  answers : int;  (** root results that reached the super-root *)
  distinct_answers : int;  (** distinct values among them (must be <= 1) *)
  leaked_tasks : int;  (** unfinished tasks on trusted live processors *)
  stranded_checkpoints : int;  (** undischarged entries in trusted live tables *)
  abandoned_tasks : int;
      (** unfinished tasks on falsely-suspected live processors —
          informational, not a violation: that work was written off *)
  unsettled_sends : int;  (** reliable sends neither acked nor bounced *)
  quiescent : bool;
  violations : string list;  (** empty = the run upheld every invariant *)
}

val check : ?expected:Recflow_lang.Value.t -> Cluster.t -> report
(** [expected] applies in batch mode only (service requests each have their
    own answer). *)

val ok : report -> bool

val assert_ok : ?expected:Recflow_lang.Value.t -> Cluster.t -> report
(** @raise Failure listing the violations, if any. *)

val pp : Format.formatter -> report -> unit
