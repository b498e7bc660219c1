(** Reference (sequential) evaluator.

    Serves three purposes:
    - ground truth: every distributed run must produce the same answer
      (determinacy, §2.1 of the paper);
    - inline execution: the machine layer evaluates fine-grained calls below
      the spawn threshold with this evaluator, charging simulated time
      proportional to the reported reduction count.  It goes through
      {!Inline_cache}, which runs each scalar-argument call once per
      cluster and replays its [(value, reductions)] on a repeat;
    - workload sizing: reduction counts calibrate experiment parameters.

    Reductions are counted per primitive application, conditional branch
    taken, let binding, variable lookup and function call.

    Evaluation is in two steps.  {!compile} turns every definition into
    OCaml closures over a per-activation frame array: each parameter and
    [let] gets a fixed slot and each call is resolved to its callee at
    compile time, so {!run} looks nothing up by name.  The compiled
    evaluator is held to the semantics of a plain tree-walker over
    association-list environments: the same values, the same reduction
    count, the same fuel cut-off step, left-to-right evaluation and the
    same [Runtime_error] text.  Reduction counts feed every simulated
    [work] figure, so a single step of drift would change simulated
    time. *)

exception Runtime_error of string
(** Program errors: type errors, division by zero, head/tail of nil,
    wrong argument counts, fuel exhaustion. *)

type compiled
(** A compiled program.  It is never mutated after {!compile} returns and
    every {!run} allocates its own counters and frames.  There is no
    global cache: each user compiles its own copy (a cluster's
    {!Inline_cache} compiles lazily on its first inline call), so compiled
    values are not shared across domains even when experiment sweeps
    share one [Program.t]. *)

val compile : Program.t -> compiled

type fn
(** One compiled definition, resolved by name once. *)

val find : compiled -> string -> fn option

val apply : ?fuel:int -> fn -> Value.t array -> Value.t * int
(** [apply fn args] is {!run} on a callee already resolved by {!find}.
    @raise Runtime_error on program errors, fuel exhaustion or a wrong
    argument count. *)

val run : ?fuel:int -> compiled -> string -> Value.t array -> Value.t * int
(** [run compiled fname args] applies the named function and returns
    [(value, reductions)].  [fuel] (default [50_000_000]) bounds the
    reduction count to catch accidental non-termination in tests: a run
    of exactly [fuel] reductions succeeds, one more raises.  [args] is
    copied, never written.
    @raise Runtime_error on program errors or fuel exhaustion.
    @raise Not_found if [fname] is undefined. *)

val eval :
  ?fuel:int -> Program.t -> string -> Value.t list -> Value.t * int
(** [eval program fname args] is {!run} on [compile program]. *)

val eval_expr : ?fuel:int -> Program.t -> (string * Value.t) list -> Ast.expr -> Value.t * int
(** Evaluate an expression under an initial environment; where a name is
    bound twice the first binding wins.  The expression is not validated:
    an unbound variable, unknown function or wrong argument count raises
    [Runtime_error] when evaluation reaches it. *)

val call_count : Program.t -> string -> Value.t list -> int
(** Number of user-function applications performed (the size of the call
    tree a fully-spawned distributed run would create).  Used by
    experiments to report salvage fractions.
    @raise Runtime_error if [fname] is undefined. *)
