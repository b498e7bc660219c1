(** Phase profiler: scoped wall-clock timers and minor-word counts with
    self attribution.

    Call sites wrap interesting phases ([engine.dispatch], [ckpt.record],
    [recovery.splice], ...) in {!time}; when profiling is enabled the
    elapsed wall time and the minor words allocated are charged to the
    named phase, and what nested {!time} scopes spent is subtracted to give
    exclusive "self" time and words.  An enabled span allocates nothing of
    its own, so its words are exactly the wrapped code's.
    State is sharded per domain (DLS), so instrumented hot paths never
    contend on a lock; when disabled — the default — {!time} is a single
    flag test plus the cost of the wrapped call.

    The aggregate is exported as a [recflow.profile/1] JSON document
    ({!to_json}) or an ASCII self-time table ({!pp_report}); the CLI
    surfaces both behind [--profile]. *)

val set_enabled : bool -> unit
(** Switch profiling on/off.  Flip it before the measured run, not during:
    the flag is a plain (unsynchronised) toggle read by every domain. *)

val is_enabled : unit -> bool

val reset : unit -> unit
(** Zero all tallies on every domain (keeps profiling enabled/disabled as
    it was).  Call between measured runs, while no run is in flight. *)

val time : string -> (unit -> 'a) -> 'a
(** [time phase f] runs [f ()], charging its wall time to [phase] on the
    calling domain.  Exceptions propagate; the span still closes.  When
    profiling is disabled this is just [f ()]. *)

type probe
(** A pre-resolved phase handle for call sites hot enough that the
    per-span string hash and tally lookup of {!time} would show up
    (checkpoint record/discharge run per packet).  The handle caches the
    tally per domain; spans through it are indistinguishable from
    {!time} spans in snapshots and reports. *)

val probe : string -> probe
(** Create once (at module init), use from any domain. *)

val time_probe : probe -> (unit -> 'a) -> 'a
(** Like {!time}, through a {!probe}: two clock reads and a frame push
    per span, no name lookup.  When disabled this is just [f ()]. *)

type entry = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  total_words : float;
  self_words : float;
}
(** [total_s] is inclusive wall time; [self_s] excludes time spent in
    nested profiled scopes.  [total_words] and [self_words] are the minor
    words allocated, inclusive and exclusive in the same way. *)

val snapshot : unit -> entry list
(** Tallies merged across all domains, sorted by phase name.  Take it
    after the measured run has finished — merging does not synchronise
    with in-flight spans. *)

val schema : string
(** ["recflow.profile/1"]. *)

val to_json : ?wall_s:float -> ?meta:(string * Json.t) list -> unit -> Json.t
(** The [recflow.profile/1] document: schema tag, optional wall-clock and
    meta block, and one object per phase with [count] / [total_s] /
    [self_s] / [total_words] / [self_words]. *)

val pp_report : Format.formatter -> unit -> unit
(** ASCII table, phases sorted by self time descending, with each phase's
    self words in thousands and per call. *)
