(** Fixed-size domain pool for embarrassingly parallel fan-out.

    A pool owns [jobs - 1] worker domains and one shared list of pending
    batches under a single lock.  A [map] appends its batch to the list,
    and every participant — each worker and the submitter itself —
    claims the batch's next unclaimed element with one atomic
    fetch-and-add; the submitter then waits until every element of its
    batch has been evaluated.  The pool's traffic is sweeps of whole
    simulation runs (milliseconds each), so one lock costs nothing
    measurable.  Because a submitter can run all of its own elements, a
    pool never deadlocks on nested submissions, and [jobs = 1]
    degenerates to plain sequential execution on the caller in submission
    order — the property the experiments driver relies on for its
    [--jobs 1] determinism oracle.

    Results are returned in submission order regardless of which domain
    executed what, and the first (lowest-index) exception raised by a task
    is re-raised in the submitter with its original backtrace. *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] starts a pool of [jobs] execution slots ([jobs - 1]
    spawned domains plus the submitter).  [jobs] defaults to
    [Domain.recommended_domain_count ()] and is clamped to at least 1.

    Each spawned worker sizes its minor heap to [2^20] words (8 MiB on
    64-bit): the stock 256k-word minor heap forces an allocation-heavy
    simulation into constant minor collections, each a stop-the-world
    across domains.  The submitting domain's GC parameters are never
    touched, so [jobs = 1] behaviour is byte-identical to a plain
    [List.map].

    Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int
(** Number of execution slots (worker domains + the submitting caller). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] applies [f] to every element of [xs], possibly on
    different domains, and returns the results in the order of [xs].
    If any application raises, the exception of the lowest-index failing
    element is re-raised after the whole batch has settled (no task is
    abandoned mid-flight).
    Raises [Invalid_argument] if the pool has been shut down — a silent
    fallback would run the batch submitter-only and masquerade as a
    parallel sweep. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Subsequent [map] calls
    raise [Invalid_argument].  A [map] already in flight when
    [shutdown] is called is drained first: the workers stay alive until it
    settles and its submitter gets its full result — shutdown never
    strands a batch mid-air.  A nested [map] issued by an element of such
    a batch is still admitted during the drain. *)

(** {1 Shared default pool}

    The experiments harness fans out through one process-wide pool so a
    single [--jobs] flag governs every sweep. *)

val set_default_jobs : int -> unit
(** Replace the default pool with one of the given width (shutting down
    the previous one if it was started).  Raises [Invalid_argument] if
    [jobs < 1], or if a [map] on the current default pool is observed
    still in flight — swapping under a live sweep would tear the pool out
    from under its submitter.  The in-flight refusal is best-effort
    detection of that misuse, not the safety mechanism: a map racing this
    call either completes in full (the retiring pool's {!shutdown} drains
    admitted maps before joining its workers) or raises
    [Invalid_argument] itself. *)

val default : unit -> t
(** The shared pool, created on first use with the default width. *)

val default_jobs : unit -> int
(** Width the default pool has (or would be created with). *)
