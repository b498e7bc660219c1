(** A program: a set of named function definitions.

    Construction validates the static well-formedness rules the evaluators
    rely on: no duplicate definitions or parameters, no unbound variables,
    every call resolves to a defined function with the right arity,
    primitive arities are respected, and no function has more than
    {!max_call_sites} call sites. *)

type t

type error =
  | Duplicate_definition of string
  | Duplicate_parameter of string * string  (** function, parameter *)
  | Unbound_variable of string * string  (** function, variable *)
  | Unknown_function of string * string  (** caller, callee *)
  | Arity_mismatch of { caller : string; callee : string; expected : int; got : int }
  | Prim_arity of { caller : string; prim : string; expected : int; got : int }
  | Too_many_call_sites of { fname : string; sites : int }
      (** a child's level-stamp digit is its call site's number, one byte *)

val max_call_sites : int
(** 256: call sites are numbered from 0, and a stamp digit below depth 1
    is at most 255. *)

val error_to_string : error -> string

val of_defs : Ast.def list -> (t, error) result

val of_defs_exn : Ast.def list -> t
(** @raise Invalid_argument with the rendered error. *)

val find : t -> string -> Ast.def option

val find_exn : t -> string -> Ast.def
(** @raise Not_found *)

val arity : t -> string -> int option

val defs : t -> Ast.def list
(** Definitions sorted by name. *)

val names : t -> string list

val union : t -> t -> (t, error) result
(** Combine two programs; fails with [Duplicate_definition] on overlap. *)
