(** Named integer counters.

    A [set] is a registry of counters keyed by name; the machine layer keeps
    one per processor plus one global set (messages sent, tasks spawned,
    checkpoints taken, results salvaged, ...).  Counters are created lazily
    on first use so call sites never need registration boilerplate.

    Hot call sites bump through a {!handle} instead of a name: created
    once (at module initialisation), it costs an array read per bump in
    place of a string hash and table lookup.  A handle is not tied to a
    set; each set resolves it on its first bump, so a counter that is
    never bumped still never appears in {!names} or {!to_alist}, and a
    handle and {!incr} by the same name share one counter. *)

type set

val create_set : unit -> set

val incr : set -> string -> unit

val add : set -> string -> int -> unit

type handle

val handle : string -> handle
(** A pre-resolved name.  Create once and reuse, from any domain. *)

val handle_name : handle -> string

val bump : set -> handle -> unit
(** [bump set h] is [incr set (handle_name h)], without the name lookup
    once [set] has seen [h]. *)

val bump_by : set -> handle -> int -> unit
(** [bump_by set h n] is [add set (handle_name h) n]. *)

val get : set -> string -> int
(** 0 for a counter that was never touched. *)

val names : set -> string list
(** Sorted list of counters that have been touched. *)

val to_alist : set -> (string * int) list
(** Sorted name/value pairs. *)

val merge : set -> set -> set
(** Pointwise sum; inputs are unchanged. *)

val reset : set -> unit

val pp : Format.formatter -> set -> unit
