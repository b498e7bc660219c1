(** A task-uid index that walks in the order a stdlib [Hashtbl] would
    have, while freeing the cells of removed keys.

    The layout is stdlib [Hashtbl]'s, cell for cell: the bucket of a key
    is [Hashtbl.hash key] masked to the bucket count, 64 buckets at
    creation, a new key goes to the head of its bucket, and the table
    doubles, keeping each bucket's order, when its count passes twice the
    bucket count — in place, or by copying the cells while a walk is under
    way (the walk then finishes over the old cells).

    The one difference is the count: it is the number of keys ever
    inserted, and {!remove} does not lower it.  So removing a key moves no
    resize point, and every walk visits the cells a [Hashtbl] that had
    kept the key (rebound to some dead value) would visit, in the same
    order, without the removed ones.  A removed cell is rebound to the
    index's [dead] value before it is unlinked, and keeps its link to the
    next cell: a walk that already holds it sees [dead] and carries on
    down the bucket.

    Keys must never be inserted twice (task uids are never reused).  Not
    thread-safe. *)

type 'a t

val create : dead:'a -> 'a t
(** An empty index; [dead] is what a removed cell is rebound to. *)

val replace : 'a t -> int -> 'a -> unit
(** Rebind the key in place, or insert it at the head of its bucket if the
    index does not hold it. *)

val find : 'a t -> int -> default:'a -> 'a
(** The key's binding, or [default] if the index does not hold it. *)

val mem : 'a t -> int -> bool

val remove : 'a t -> int -> unit
(** Rebind the key's cell to [dead] and unlink it.  A key the index does
    not hold is ignored. *)

val remove_if : 'a t -> (int -> 'a -> bool) -> int
(** {!remove} every key whose binding satisfies the predicate, which is
    called once per kept key in walk order and must not change the index;
    returns how many went. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Walk every kept key (and any removed during the walk whose cell the
    walk already holds, bound to [dead]).  The callback may insert,
    rebind and remove keys; once it inserts past a resize point, the walk
    finishes over the cells as they were copied, as [Hashtbl.iter]
    does. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** {!iter}'s walk, threading an accumulator. *)
