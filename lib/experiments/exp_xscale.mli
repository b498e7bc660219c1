(** X8 — Scale sweep: the machine at 1024 processors and a million tasks.

    §1 sells applicative systems on "aggregation of processors"; this
    sweep checks the simulator itself can follow the claim two orders of
    magnitude past the quantitative experiments.  A uniform binary tree
    with the leaf level inlined is driven fault-free over a
    (processors x tasks) grid up to 1024 x ~1M under static placement,
    with the scale machinery on: slim task tombstones, batched delivery
    ([Config.batched_delivery]) and a non-retaining journal
    ([Config.journal_retain = false]).  Reports makespan, engine events
    per task, peak live words per task (reachable words of the cluster,
    deterministic) and — in the full run only, to keep the quick report
    deterministic across [--jobs] — CPU seconds and events/s. *)

val run : ?quick:bool -> unit -> Report.t
