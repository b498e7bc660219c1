(** Memoised inline evaluation for one cluster.

    The machine layer evaluates every call below the spawn threshold on
    the serial evaluator.  By determinacy (§2 of the paper) a function
    applied to the same arguments always yields the same value after the
    same number of reductions, so a repeated call can return the first
    run's [Ok (value, reductions)] block unchanged: the caller charges the
    same simulated time and records the same journal entry either way.

    The table is direct-mapped with {!slots} entries and is allocated,
    together with the compiled program, on the first {!call}.  Only calls
    whose arguments are all [Int], [Bool] or [Nil] and whose result is
    also one of those are stored, so the table never keeps a list alive.
    Errors (program errors, fuel exhaustion, unknown functions) are never
    stored and are re-run every time. *)

type t

val slots : int
(** 64. *)

val create : ?fuel:int -> Program.t -> t
(** Compiles nothing and allocates no table until the first {!call}.
    [fuel] is passed to every evaluator run ({!Eval_serial.run}'s
    default otherwise). *)

val call : t -> string -> Value.t array -> (Value.t * int, string) result
(** [call t fname args] is [Ok (Eval_serial.run compiled fname args)],
    or [Error] with the evaluator's [Runtime_error] text, or
    ["call to unknown function " ^ fname].  A hit allocates nothing.
    Every evaluator run is timed under the [inline.eval] phase of
    [Recflow_obs_core.Profile].  [args] is never written. *)

val index : string -> Value.t array -> int
(** The slot a scalar key maps to, or [-1] for a key the table never
    holds (a [Cons] argument). *)

val hits : t -> int
(** Calls answered from the table. *)

val misses : t -> int
(** Calls that ran the evaluator, including those that bypass the table;
    [hits t + misses t] is the number of {!call}s. *)
