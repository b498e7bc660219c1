(** Discrete-event simulation engine.

    The engine owns a virtual clock and the pending events.  Events fire in
    (time, scheduling order): events scheduled for the same instant fire in
    FIFO order, which makes runs fully deterministic.

    Dispatch is O(1) for events within 256 ticks of the clock: they sit in
    a timing wheel of 256 FIFO buckets, one per tick from [now] to
    [now + 255], so a bucket only ever holds events of one instant.
    Events further out wait in an overflow heap ordered by (time, sequence)
    and move into their bucket, in that order, as soon as the advancing
    clock's window first covers their tick — before any handler can
    schedule into that bucket directly.  The order is therefore exactly the
    one a single priority queue over (time, sequence) would give.

    Time is a plain [int] count of abstract ticks; the machine layer decides
    what a tick means (we use one tick = one microsecond of simulated time
    throughout, but nothing in this module depends on that). *)

type time = int

type 'a t
(** An engine whose events carry payloads of type ['a]. *)

val create : unit -> 'a t

val now : 'a t -> time
(** Current virtual time (the timestamp of the event being dispatched, or of
    the last dispatched event when idle). *)

val pending : 'a t -> int
(** Number of events still queued. *)

val schedule : 'a t -> delay:int -> 'a -> unit
(** [schedule t ~delay ev] enqueues [ev] at [now t + delay].
    @raise Invalid_argument if [delay < 0]. *)

val schedule_at : 'a t -> time:time -> 'a -> unit
(** Absolute-time variant; the time must not lie in the past. *)

val next : 'a t -> (time * 'a) option
(** Pop the earliest event, advancing the clock to its timestamp. *)

val run : 'a t -> ?until:time -> (time -> 'a -> unit) -> unit
(** [run t handler] repeatedly pops events and feeds them to [handler]
    (which typically schedules further events) until the queue is empty or
    the clock would pass [until].  Events with timestamp exactly [until]
    still fire. *)

val stop : 'a t -> unit
(** Request that [run] return after the current event; subsequent [run]
    calls resume normally. *)

val events_dispatched : 'a t -> int
(** Total number of events dispatched since creation (a cheap progress /
    cost metric). *)
