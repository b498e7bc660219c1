(** Per-processor functional-checkpoint table (§3.2).

    Each processor keeps, for every peer processor N, the checkpoints of
    tasks it has spawned *to* N.  In [Topmost] mode the table implements
    the paper's rule: a new packet whose stamp descends from an existing
    checkpoint in the same entry is *covered* and not recorded (its
    ancestor's re-issue would regenerate it anyway); symmetrically, a new
    ancestor evicts the descendants it covers.  [Keep_all] mode records
    everything — the Q8 ablation baseline.

    On failure of N, {!on_failure} surrenders the entry: exactly the tasks
    this processor must re-issue to fulfil its share of the collective
    recovery.  When a child's result returns, {!discharge} drops its
    checkpoint (strict evaluation means a completed child's whole subtree
    is complete, so coverage is not lost).

    Each entry is indexed as a digit trie over stamps (a node per stamp
    prefix), so {!record}'s covered/dominates checks and {!discharge} cost
    O(stamp depth) rather than a scan of the entry — entry size does not
    matter, which keeps [Keep_all] (the Q8 space/time ablation) usable at
    scale.  {!discharge} prunes the trie back to the paths of outstanding
    checkpoints, and entries live in a sparse map keyed by peer that drops
    an entry once {!discharge} empties it or {!on_failure} surrenders it, so
    table memory is proportional to the outstanding checkpoints — not to
    the number of peers ever spawned to.  {!on_failure} and {!entry} still
    return stamp-sorted lists. *)

type mode = Topmost | Keep_all

type t

val create : ?mode:mode -> unit -> t
(** Default mode is [Topmost]. *)

val mode : t -> mode

val record : t -> dest:Ids.proc_id -> Packet.t -> [ `Recorded | `Covered ]
(** File a checkpoint for a task spawned to [dest].  In [Topmost] mode
    returns [`Covered] (and stores nothing) when an existing checkpoint in
    the entry is an ancestor or the identical stamp. *)

val discharge : t -> dest:Ids.proc_id -> Stamp.t -> bool
(** Remove the checkpoint with exactly this stamp from entry [dest];
    [true] if something was removed. *)

val on_failure : t -> failed:Ids.proc_id -> Packet.t list
(** Checkpoints held for tasks on the failed processor, ordered by stamp
    (ancestors first); the entry is cleared — re-issued tasks will be
    re-checkpointed against their new destinations. *)

val entry : t -> dest:Ids.proc_id -> Packet.t list
(** Current checkpoints for [dest], ordered by stamp (read-only peek). *)

val total_size : t -> int
(** Number of checkpoints across all entries (storage metric for Q8). *)

val destinations : t -> Ids.proc_id list
(** Sorted peers with a non-empty entry. *)

val node_count : t -> int
(** Trie nodes across all held entries, each entry's root included —
    introspection for tests and the X8 drain check.  Zero whenever
    {!total_size} is: only peers and paths with held checkpoints are
    kept. *)
