(** Hop-distance routing that accounts for dead nodes.

    Messages between live nodes are store-and-forward routed through live
    intermediate nodes only.  Distances come from per-source BFS rows
    computed on demand and dropped when a node dies or revives, and a
    [Full] topology needs no BFS at all (every live pair is one hop) —
    so a 1k-processor crossbar never pays the old all-pairs rebuild.  A
    destination
    that is unreachable — dead, or cut off because every route crosses dead
    nodes — is reported as such; per §1 of the paper the sender must then
    treat it as faulty. *)

type t

val create : Topology.t -> t

val topology : t -> Topology.t

val kill : t -> int -> unit
(** Mark a node dead.  Idempotent. *)

val revive : t -> int -> unit
(** Undo {!kill} (used by tests; the paper's model is fail-stop). *)

val alive : t -> int -> bool

val alive_nodes : t -> int list
(** Sorted ids of live nodes.  Allocates O(P); hot paths that only need
    existence or cardinality should use {!alive_count}, and one member
    {!nth_alive}. *)

val alive_count : t -> int
(** Number of live nodes, maintained incrementally — O(1). *)

val nth_alive : t -> int -> int
(** [nth_alive t k] is [List.nth (alive_nodes t) k] without building the
    list: a walk over the liveness array, no allocation.
    @raise Invalid_argument unless [0 <= k < alive_count t]. *)

val hops : t -> int -> int -> int
(** [hops t a b] is the hop count of the shortest live route, [-1] when
    [a] or [b] is dead or [b] is unreachable from [a]; [0] when [a = b] and
    alive.  Allocation-free. *)

val reachable : t -> int -> int -> bool
(** [hops t a b >= 0]. *)
