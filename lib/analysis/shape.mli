(** Spawn-shape analysis: static per-function fan-out bounds.

    The machine spawns one child activation per user call a running
    activation issues (minus calls the scheduler chooses to inline), and
    stamps each child with the number of its call site (§3.1 of the paper
    assumes this digit count is small).  The fan-out bound computed here is
    a sound static ceiling on those numbers: no activation of [f] ever
    spawns more than [fanout] children, under either the serial evaluator
    or the demand-driven instance graph, and [Graph] numbers [f]'s call
    sites below it.

    Cross-checks downstream: [Stamp.max_digit] of every journal-observed
    child stamp must be strictly below the spawning function's bound, and
    the bound seeds the [gradient:auto] balance-policy weight. *)

open Recflow_lang

type recursion_class = Non_recursive | Self_recursive | Mutually_recursive

val recursion_class_string : recursion_class -> string

type fn_shape = {
  fn : string;
  fanout : int;  (** static bound on user calls per activation *)
  recursion : recursion_class;
  calls : string list;  (** sorted distinct callees *)
}

type t = { shapes : fn_shape list (* sorted by function name *) }

val fanout_of_expr : Ast.expr -> int

val of_program : Program.t -> t

val find : t -> string -> fn_shape option

val fanout_bound : t -> string -> int option

val program_fanout_bound : ?entries:string list -> t -> Program.t -> int
(** Max fan-out over functions reachable from [entries] (all functions
    when omitted).  [0] for a program that never calls. *)
