(** Recovery-episode span analysis.

    Folds a run's {!Recflow_machine.Journal} into one span per injected
    failure: failure instant → first checkpoint reissue (detection) →
    orphan salvage / inheritance / aborts → quiesce of the recovery wave.
    Each span carries the derived metrics the paper's quantitative claims
    are about — detection latency, recovery latency, work lost and redone,
    salvaged orphan results — plus a histogram of the §4.1 / Figure 5
    orderings actually observed for the children of the tasks that died.

    Episodes partition time: a failure's window ends at the next failure
    (or the end of the journal), so overlapping recovery waves are
    attributed to the failure that started them.

    A service journal drops the entries of settled requests no failure
    touched; each such request lay inside one window, so the analysis
    adds its per-kind tallies ({!Recflow_machine.Journal.dropped_tally})
    to what it reads from the retained entries, with the same result as
    on every entry. *)

module Journal = Recflow_machine.Journal
module Splice_case = Recflow_recovery.Splice_case
module Stamp = Recflow_recovery.Stamp
module Counter = Recflow_stats.Counter

type t = {
  ordinal : int;  (** 1-based failure index within the run *)
  failed_proc : int;
  fail_time : int;
  window_end : int option;  (** next failure's time; [None] for the last episode *)
  detection_latency : int option;
      (** first checkpoint reissue ([Respawned]) minus [fail_time] *)
  recovery_latency : int option;  (** quiesce minus [fail_time] *)
  quiesce_time : int option;
      (** last recovery-attributable event: reissue, inheritance, relay,
          orphan bookkeeping, abort, or re-execution of a lost stamp *)
  lost_tasks : int;  (** tasks resident on the failed processor at death ([Lost] entries) *)
  lost_work : int;  (** busy ticks those tasks had consumed — work the failure destroyed *)
  reissued : int;  (** [Respawned] entries in the window *)
  inherited : int;
  relayed : int;
  salvaged_results : int;
      (** pre-failure orphan results spliced into a twin ([Result_accepted]
          whose producing task was spawned before the failure by a parent
          that died) *)
  orphans_dropped : int;
  aborted : int;
  duplicates_ignored : int;
  redone_tasks : int;
      (** stamps re-activated after the failure that had already been
          activated before it *)
  redone_work : int;
      (** ticks of pre-failure execution on redone stamps — the work the
          failure destroyed and the system repeated *)
  cases : (Splice_case.case * int) list;
      (** §4.1 ordering histogram over children of the dead tasks (only
          cases with a non-zero count appear) *)
}

val timeline :
  Journal.t -> fail_time:int -> parent:Stamp.t -> child:Stamp.t -> Splice_case.timeline
(** The §4.1 timeline of [child] against [parent]'s recovery from the
    failure at [fail_time], the one classifier input both {!analyze} and
    the Figure 5 experiment read.  The original P is the parent's first
    activation before the failure, the original C the child's first spawn
    before it; the twin P′ and the clone C′ are the first other
    activations and completions at or after the failure. *)

val analyze : Journal.t -> t list
(** One episode per [Failure] entry, in failure order.  Runs without
    failures yield [[]]. *)

type aggregate = {
  episodes : int;
  detection : int list;  (** detection latencies, in episode order, of those that have one *)
  recovery : int list;  (** likewise recovery latencies *)
  redone : int list;  (** every episode's redone work *)
  total_reissued : int;
  total_salvaged : int;
  total_redone_work : int;
  case_counts : Counter.set;  (** keys ["case1"] .. ["case8"] *)
}

val aggregate : t list -> aggregate

val to_json : t -> Recflow_obs_core.Json.t

val aggregate_to_json : aggregate -> Recflow_obs_core.Json.t
(** Each series renders as
    [{"n":..,"mean":..,"min":..,"p50":..,"p95":..,"max":..}], just
    [{"n":0}] when empty; p50 and p95 are nearest-rank. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering for the CLI. *)
