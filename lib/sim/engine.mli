(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of pending events.
    Events scheduled for the same instant fire in FIFO order of scheduling
    (a monotone sequence number breaks ties), which makes runs fully
    deterministic.

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
