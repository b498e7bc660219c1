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

    A level stamp names one position in the call tree (§3.1), and §4.3
    needs a twin to regenerate exactly the subtree it replaces, so every
    activation spawned, re-issued or inherited under one stamp must carry
    the same call (function and arguments).  That check reads the retained
    journal, with the conflicts each dropped request left behind, and is
    skipped for a run that does not retain it.

    The completion-dependent checks only apply when they can be decided:
    the run drained to quiescence, recovery was enabled, no program error
    occurred and at least one processor survived.  The divergence check
    (all root answers equal) is unconditional.

    The answer checks are per request: each must end with exactly one
    distinct value of its own, and — when decidable — at least one answer.
    The caller may also pass the [expected] answer (the serial reference
    or a closed form): any answer that differs from it is a violation, so
    a consistently wrong answer cannot pass as "one distinct value".  The
    requests still in the super-root's table ({!Cluster.iter_request_uids};
    a batch run is the one request [-1]) are checked one by one.  A
    settled service request has left the table: its agreement was checked
    as it settled ({!Cluster.split_requests}), and [expected] is checked
    against every distinct settled value ({!Cluster.settled_answers}), in
    one violation that names the first request with a wrong value and
    counts the rest.  A settled request has its answer, so the "no answer"
    check concerns the open ones only.  The leak, strand and transport
    checks apply cluster-wide.

    A settled request's task uids are reclaimed ({!Cluster.settled_requests});
    a message naming a reclaimed request, or a run-queue uid found freed
    ({!Cluster.reclaimed_hits}), means the request was reclaimed before it
    settled, and any such is a violation.  A settled request is
    also released to the journal, and an entry recorded under a released
    request ({!Journal.late_entries}) is a violation for the same reason.

    {!assert_ok} is wired into [Harness.run] with the workload's serial
    reference as [expected] — every experiment and every harness-driven
    test runs under the oracle, never with it off, and a wrong answer
    fails the run instead of only clearing its [correct] flag. *)

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
(** [expected] is the value every request must produce: a batch run's
    reference answer (service requests each have their own, so service
    callers pass none). *)

val ok : report -> bool

val assert_ok : ?expected:Recflow_lang.Value.t -> Cluster.t -> report
(** @raise Failure listing the violations, if any. *)

val pp : Format.formatter -> report -> unit
