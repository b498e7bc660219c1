(** Pluggable consumers for high-volume event streams.

    A ['a t] is anywhere a producer can push values of type ['a]: a bounded
    in-memory ring (the classic trace buffer), a line-oriented file stream
    (JSONL — million-event runs go to disk instead of silently evicting),
    a tee duplicating into two sinks, a plain callback, or nothing at all.
    {!Recflow_sim.Trace} keeps its ring on this abstraction and lets
    callers attach extra sinks; the CLI wires a JSONL file sink behind
    [--trace-jsonl]. *)

type 'a t

val emit : 'a t -> 'a -> unit

val flush : 'a t -> unit

val close : 'a t -> unit
(** Flush and release any resource (idempotent).  Emitting into a closed
    sink discards the value but counts it in {!dropped}. *)

val emitted : 'a t -> int
(** Values accepted by this sink so far. *)

val dropped : 'a t -> int
(** Values this sink decided not to keep or forward: emits into a closed
    sink, values a {!sample} wrapper skipped, ring evictions.  Nothing is ever lost without moving this count. *)

val null : unit -> 'a t
(** Discards everything (still counts {!emitted}). *)

val of_fun : ?flush:(unit -> unit) -> ?close:(unit -> unit) -> ('a -> unit) -> 'a t

val tee : 'a t -> 'a t -> 'a t
(** [tee a b] pushes every value to [a] then [b]; flush/close reach both. *)

val sample : every:int -> 'a t -> 'a t
(** [sample ~every inner] forwards the 1st, [every+1]-th, [2*every+1]-th …
    value to [inner] and counts the rest in its own {!dropped} tally —
    deterministic rate sampling for high-volume streams (an [every] of 1
    forwards everything).  Flush/close reach [inner].
    @raise Invalid_argument if [every <= 0]. *)

val channel : render:('a -> string) -> out_channel -> 'a t
(** One [render]ed line per value (a newline is appended).  The channel is
    not closed by {!close} — the caller owns it. *)

val file : render:('a -> string) -> string -> 'a t
(** Like {!channel} but opens (truncates) [path] and owns it: {!close}
    closes the file descriptor.
    @raise Sys_error if the file cannot be created. *)

(** Bounded ring buffer retaining the most recent [capacity] values,
    with a monotone count of everything ever pushed.  Its storage grows
    geometrically with what it holds, up to [capacity], so a large window
    costs nothing until it fills. *)
module Ring : sig
  type 'a ring

  val create : capacity:int -> 'a ring
  (** @raise Invalid_argument if [capacity <= 0]. *)

  val push : 'a ring -> 'a -> unit

  val to_list : 'a ring -> 'a list
  (** Retained values, oldest first. *)

  val total : 'a ring -> int
  (** Everything ever pushed, including evicted values. *)

  val length : 'a ring -> int
  (** Currently retained (at most [capacity]). *)

  val capacity : 'a ring -> int

  val clear : 'a ring -> unit
  (** Drops the retained values; {!total} is monotone and keeps counting. *)

  val sink : 'a ring -> 'a t
  (** View the ring as a sink ({!push} on emit); each eviction of an old
      value counts in the sink's {!dropped}. *)
end
