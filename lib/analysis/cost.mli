(** Static cost analysis: recursion-depth bounds, task-count growth and
    work-per-activation estimates (ROADMAP item 5, paper §3.3).

    The pass is a monotone interval/size abstract interpretation over the
    PR-4 callgraph SCCs.  Integer arguments are abstracted to their value,
    list arguments to their length, and every expression is bounded by
    affine forms over the enclosing function's parameters.  For each
    recursive SCC the analyzer searches a small family of candidate
    ranking measures — a single int parameter, a single list size, a
    pairwise difference of int parameters, the sum of int parameters, the
    sum of list sizes — and classifies each cycle edge as decreasing,
    provably non-decreasing, or unknown:

    - a measure that decreases on {e every} internal edge, together with a
      floor recovered from the dominating guards (e.g. [n >= 2] for fib,
      [d != 0] with exact unit steps for tree_sum), yields a sound depth
      bound;
    - an SCC where every comparable candidate is {e provably}
      non-decreasing on some edge — or where every path through every
      member unconditionally re-enters the cycle — is divergent and
      reported as RF301/302/303;
    - anything in between stays quiet (unknown), so imprecision never
      produces a warning.

    Downstream, {!entry_bounds} instantiates the symbolic bounds at a
    concrete entry call: observed journal stamp depths and per-subtree
    activation counts must stay within them (the cost gauntlet), and the
    bounds seed [Balance.Policy.suggest_ckpt_admission] for
    [--policy auto]. *)

open Recflow_lang

(** Task-count growth of the whole call subtree of one activation, as a
    function of its (abstract) argument sizes. *)
type growth =
  | Constant  (** no recursion anywhere below *)
  | Polynomial of int  (** chain recursion; degree composes across SCCs *)
  | Exponential  (** >= 2 cycle re-entries per activation *)
  | Unknown_growth  (** recursion present but not classified — no warning *)
  | Unbounded  (** provably divergent cycle (RF3xx fired) *)

val growth_string : growth -> string
(** ["constant"], ["linear"], ["polynomial:2"], ["exponential"],
    ["unknown"], ["unbounded"]. *)

(** How far a decreasing measure can fall while the cycle keeps
    recursing.  [at_least] is the smallest measure value at which an
    internal call can still fire; [requires_start_ge] (from [!=] base
    guards) conditions the bound on the measure starting at or above the
    given value — checked concretely by {!entry_bounds}. *)
type floor = { at_least : int; requires_start_ge : int option }

(** Per-SCC termination verdict. *)
type verdict =
  | Not_recursive
  | Bounded of { measure : string; floor : floor option }
      (** some candidate measure decreases on every internal edge;
          [floor = None] means no guard bounds it below (depth still
          statically unbounded, but quiet) *)
  | Quiet  (** recursive, no bound, no proof of divergence *)
  | Divergent of { reason : string }  (** fires RF301/302/303 *)

type fn_cost = {
  fn : string;
  verdict : verdict;  (** shared by every member of the function's SCC *)
  rec_fanout : int;
      (** max SCC-internal calls one activation can issue (0 when not
          recursive) *)
  growth : growth;
  work_per_activation : int;  (** [Ast.size] of the body: reduction proxy *)
}

type t

val of_program : ?entries:string list -> ?schemes:(string * Infer.fn_scheme) list
  -> Program.t -> t
(** Analyze a validated program.  [entries] scope the RF3xx lints (dead
    SCCs never warn — they already get RF201); defaults to
    [Callgraph.roots].  [schemes] (from {!Infer.infer_program}) classify
    parameters as int-valued or list-valued; inferred internally when
    omitted. *)

val find : t -> string -> fn_cost option

val lint : t -> Diagnostic.t list
(** RF301/302/303 for entry-reachable divergent SCCs, one diagnostic per
    SCC (attached to its first member), sorted.  Precedence within an
    SCC: RF302 (cycle re-enters >= 2×) over RF303 (cycle spawns non-SCC
    work) over RF301. *)

val fn_cost_to_string : fn_cost -> string
(** ["fib: depth <= n (floor 2), rec fan-out 2, growth exponential,
     work/activation 21"]. *)

(** Concrete bounds for one entry call, instantiated from the symbolic
    analysis by propagating the entry argument sizes through the
    condensation DAG (with widening inside SCCs). *)
type entry_bounds = {
  depth : int option;
      (** sound bound on the stamp depth (edges below the entry
          activation); [None] when any reachable SCC is unbounded *)
  fanout : int;  (** program fan-out bound over the reachable functions *)
}

val entry_bounds : t -> entry:string -> args:Value.t list -> entry_bounds

val subtree_bound : entry_bounds -> depth:int -> int option
(** Sound bound on the number of activations (tasks) in the subtree
    rooted at a task of stamp depth [depth]: with [R = depth_bound -
    depth] remaining levels and fan-out [b], at most [1 + b + ... + b^R]
    tasks, saturating at [max_int].  [None] when the depth is
    unbounded. *)

val activation_bound : entry_bounds -> int option
(** [subtree_bound ~depth:0] — total task-count bound for the entry. *)
