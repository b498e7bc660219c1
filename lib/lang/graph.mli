(** Dataflow-graph templates: one compiled per function definition.

    A function body compiles to a DAG whose leaves are constants and
    parameters and whose internal nodes are primitive applications,
    conditionals and user-function calls.  [let] bindings become shared
    nodes, so a bound value is computed once.  [&&]/[||] desugar into
    conditionals, preserving short-circuit (demand-driven) evaluation.

    A task in the simulated machine is an {!Instance} of a template: the
    template is immutable and shared; per-task state lives in the instance.
    Call nodes are the spawn sites of the paper's call tree — when a call
    node's arguments are ready the instance emits a spawn request, which the
    machine turns into DEMAND_IT (§4.2): packet formation, level stamping
    and functional checkpointing.

    Level stamps (§3.1) name positions in that tree, so a child's last
    digit is a property of its call site, fixed once per template
    ({!digit}): every activation of a function, and every twin that
    regenerates one (§4.3), stamps the child of a given call node alike,
    whatever order the results arrive in. *)

type node_id = int

type node =
  | Const of Value.t
  | Param of int
  | Prim of Ast.prim * node_id array
  | If of { cond : node_id; then_ : node_id; else_ : node_id }
  | Call of { fname : string; args : node_id array }

type t = private {
  fname : string;
  arity : int;
  nodes : node array;  (** topologically ordered: deps precede users *)
  result : node_id;
  woff : int array;
      (** per node, the index of its first waiter slot in an {!Instance}'s
          word array, where the waiter slots follow one word per node.
          Node [i] gets one slot per static use of it, repeats counted, so
          [x + x] uses [x] twice. *)
  wtotal : int;  (** waiter slots over all nodes *)
  mutable digits : int array;
      (** per node, the call-site number of a [Call] node and [-1] for any
          other node, once the first {!digit} query has computed them;
          empty before. *)
}

val max_packed : int
(** [2^20 - 1]: the most nodes, operands per node, and static uses of one
    node a template may have, so that node ids, pending counts and waiter
    counts fit the fields of an {!Instance}'s packed node word. *)

val make : fname:string -> arity:int -> node array -> result:node_id -> t
(** Assemble a template from a node array and size its waiter slots.
    @raise Invalid_argument if the nodes are not topologically ordered, a
    parameter index or [result] is out of range, or a count exceeds
    {!max_packed}. *)

val compile_def : Ast.def -> t
(** @raise Invalid_argument as {!make} does. *)

type library
(** Compiled templates for a whole program. *)

val compile_program : Program.t -> library

val find : library -> string -> t option

val find_exn : library -> string -> t
(** @raise Invalid_argument for an unknown function. *)

val program : library -> Program.t
(** The source program the library was compiled from (used for inline
    evaluation of fine-grained calls). *)

val node_count : t -> int

val digit : t -> node_id -> int
(** [digit t id] is the last stamp digit of every child spawned from call
    node [id].  Calls one activation can both spawn get different digits,
    calls on exclusive [if] arms share them, and a node both arms reach is
    counted once, so each digit is below the function's static fan-out
    bound.  Within that, digits follow the order an activation spawns its
    calls in whenever that order does not depend on which result arrives
    first.  A call no demand reaches never spawns and has digit 0. *)

val call_sites : t -> int
(** Number of [Call] nodes (potential spawn points per activation). *)

val pp : Format.formatter -> t -> unit
(** Debug rendering, one node per line. *)
