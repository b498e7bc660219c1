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
      (** per node, where an {!Instance} keeps its state.  A leaf ([Const]
          or [Param]) is complete from the start and never waits, so it
          has none: its entry is [-1].  Any other node [i] has a dense
          index [k], numbered in id order, into the instance's node words
          and values: [woff.(i) land max_packed].  Bits 21 and up say who
          can wait on [i].  A node used two or more times sets bit 20
          ({!slots_flag}), and bits 21 and up give the position in the
          word array of its first waiter slot, one slot per static use,
          repeats counted ([x + x] uses [x] twice); the slots follow the
          node words.  A node used once has at most one waiter, the node
          that uses it, and bits 21 and up give that node's id (0 for a
          node no other node uses). *)
  sizes : int;
      (** [inner lor (slots lsl 20)]: the non-leaf nodes, and the waiter
          slots over all nodes ({!inner_nodes}, {!waiter_slots}). *)
  mutable digits : int array;
      (** per node, the call-site number of a [Call] node and [-1] for any
          other node, once the first {!digit} query has computed them;
          empty before. *)
}

val slots_flag : int
(** Bit 20 of a [woff] entry: the node has waiter slots. *)

val place_shift : int
(** [21]: where a [woff] entry's slot position or user id starts. *)

val max_packed : int
(** [2^20 - 1]: the most nodes, operands per node, and static uses of one
    node a template may have, so that node ids, pending counts and waiter
    counts fit the fields of an {!Instance}'s packed node word. *)

val make : fname:string -> arity:int -> node array -> result:node_id -> t
(** Assemble a template from a node array and lay out its instances'
    state ([woff]).
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

val inner_nodes : t -> int
(** The nodes that are not leaves: an instance's node words and values. *)

val waiter_slots : t -> int
(** Waiter slots over all nodes: one per use of each node used twice or
    more. *)

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
