(** Diagnostics with stable rule codes.

    Codes are grouped by band: RF0xx structural validity (parse and
    program-form errors), RF1xx type errors, RF2xx lints (warnings).
    Severity is a function of the code, never of the site. *)

type severity = Error | Warning

type code =
  | Parse_error  (** RF001 *)
  | Duplicate_definition  (** RF002 *)
  | Duplicate_parameter  (** RF003 *)
  | Unbound_variable  (** RF004 *)
  | Unknown_function  (** RF005 *)
  | Arity_mismatch  (** RF006: wrong argument count at a user call *)
  | Prim_arity  (** RF007: wrong argument count at a primitive *)
  | Too_many_call_sites  (** RF008: more call sites than a stamp digit numbers *)
  | Type_mismatch  (** RF101: unification failure *)
  | Infinite_type  (** RF102: occurs-check failure *)
  | Dead_function  (** RF201: unreachable from the entry points *)
  | Unused_parameter  (** RF202 *)
  | Non_productive_recursion
      (** RF203: a self-call passing every argument unchanged — in a pure
          strict language such a call can only diverge *)
  | Shadowed_binding  (** RF204: [let] rebinds a visible name *)
  | Unused_let  (** RF205: [let]-bound value never referenced *)
  | Unbounded_recursion
      (** RF301: an entry-reachable recursive cycle admits no decreasing
          measure — recursion depth is statically unbounded *)
  | Exponential_spawn
      (** RF302: a non-decreasing cycle re-enters itself >= 2 times per
          activation — task count blows up exponentially *)
  | Spawn_in_nondec_cycle
      (** RF303: a non-decreasing cycle spawns non-cycle work every trip
          around — unbounded extra subtree work *)

val all_codes : code list
(** Every code, in code order — tests iterate this to prove fixture
    coverage. *)

val code_string : code -> string

val of_code_string : string -> code option
(** Inverse of {!code_string} ("RF203" -> [Some Non_productive_recursion]);
    [None] for unknown codes. *)

val severity_of_code : code -> severity

val explain : code -> string
(** One-paragraph rule doc, printed by [recflow --explain RF<code>]. *)

type t = { code : code; fn : string option; loc : Loc.t option; message : string }

val make : ?fn:string -> ?loc:Loc.t -> code -> string -> t

val severity : t -> severity

val severity_string : severity -> string

val to_string : t -> string
(** ["error[RF101] fib:1:20: <message>"]. *)

val pp : Format.formatter -> t -> unit

val compare : t -> t -> int
(** Total order: errors first, then function, location, code, message. *)

val json_string : string -> string
(** JSON-escape and quote a string (shared by the report renderer). *)

val to_json : t -> string
(** One JSON object; fields [code], [severity], [message] always present,
    [function], [line], [column] when known. *)
