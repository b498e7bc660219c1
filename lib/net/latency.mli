(** Message latency model.

    Latency is [base + per_hop * hops], plus deterministic pseudo-random
    jitter in [\[0, jitter\]] drawn from the caller's generator.  All
    quantities are simulation ticks.  A machine configuration needs
    [jitter] in [\[0, max_int)]: the draw's bound is [jitter + 1]. *)

type t = { base : int; per_hop : int; jitter : int }

val default : t
(** base 20, per_hop 10, jitter 0 — a switch traversal dominated model. *)

val no_jitter : base:int -> per_hop:int -> t

val delay : t -> Recflow_sim.Rng.t -> hops:int -> int
(** [base + per_hop * hops] plus one [Rng.int rng (jitter + 1)] draw; no
    draw at all when [m.jitter = 0].
    @raise Invalid_argument if [hops < 0]. *)
