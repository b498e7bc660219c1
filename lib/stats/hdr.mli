(** Log-bucketed (HDR-style) histogram over non-negative integer durations.

    Small values (below [2^precision]) are counted exactly; above that each
    power-of-two octave is split into [2^precision] linear sub-buckets, so
    the relative quantization error is bounded by [2^-precision]
    everywhere.  A histogram holds count slots only up to the highest
    octave it has recorded; recording is lock-free and allocates only when
    a value lands past every octave seen so far, which makes these safe on
    the simulator's per-event hot path; the machine layer
    keeps one per latency family (RTT, retransmit delay, detection latency,
    episode duration, task sojourn) and the metrics document extracts
    p50/p90/p99/p999 from them. *)

type t

val create : ?precision:int -> unit -> t
(** [precision] is the sub-bucket bit width (default 5, i.e. ~3% relative
    error).
    @raise Invalid_argument unless [1 <= precision <= 14]. *)

val precision : t -> int

val record : t -> int -> unit
(** Negative values are not durations: they land in the {!invalid} tally
    and do not perturb counts or quantiles. *)

val count : t -> int
(** Valid recorded values. *)

val invalid : t -> int
(** Rejected (negative) values. *)

val total : t -> int
(** Sum of valid recorded values. *)

val min_value : t -> int
(** Exact smallest recorded value. @raise Invalid_argument when empty. *)

val max_value : t -> int
(** Exact largest recorded value. @raise Invalid_argument when empty. *)

val mean : t -> float
(** 0.0 when empty. *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [[0, 100]]: nearest-rank quantile resolved to
    the upper edge of its bucket and clamped to the recorded min/max, so
    the result is within [2^-precision] relative error of the true order
    statistic (and exact at the extremes).
    @raise Invalid_argument when empty or [q] is out of range. *)

val merge : t -> t -> t
(** Pointwise sum; inputs unchanged.
    @raise Invalid_argument on precision mismatch. *)

val to_alist : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)] triples, ascending; the value
    range of a bucket is the half-open interval [[lo, hi)]. *)

val pp : ?width:int -> Format.formatter -> t -> unit
(** ASCII bar chart of the non-empty buckets plus a one-line summary. *)
