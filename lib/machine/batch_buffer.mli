(** The message buffer behind batched delivery.

    Under [Config.batched_delivery] every message bound for one processor
    at one tick shares a single simulator event: the first message opens a
    batch under the caller's (tick, destination) key and the rest append to
    it.  Messages sit in one slab of parallel arrays, each batch a chain of
    slots in send order, freed slots on a free list — so buffering a
    message allocates nothing once the slab has grown to the run's
    high-water mark, and each batch costs one table binding. *)

type t

val create : unit -> t

val add : t -> key:int -> src:int -> seq:int -> Message.t -> bool
(** Append a message to batch [key]; [true] when this opened the batch
    (the caller then schedules its delivery event). *)

val take : t -> key:int -> int
(** Detach batch [key] and return its first slot, [-1] if there is none.
    Later {!add}s under the same key open a fresh batch. *)

val src : t -> int -> int

val seq : t -> int -> int

val msg : t -> int -> Message.t

val release : t -> int -> int
(** Free a detached slot, read first, and return the batch's next slot
    ([-1] after the last). *)
