(** The whole-program checker: parse/validate, infer, lint, summarise.

    This is the one entry point the CLI, the workload registry and the
    tests go through.  A check never raises on bad input — every failure
    is a [Diagnostic.t] — and its outputs are deterministically ordered
    so reports are byte-stable across runs. *)

open Recflow_lang

type report = {
  diagnostics : Diagnostic.t list;  (** sorted by [Diagnostic.compare] *)
  program : Program.t option;  (** [None] when structurally invalid *)
  shape : Shape.t option;
  cost : Cost.t option;  (** static cost/depth analysis (PR 9) *)
  schemes : (string * Infer.fn_scheme) list;
  entries : string list;  (** resolved entry points *)
}

val schema : string
(** ["recflow.check/2"] — the [--check-json] document schema.  Version 2
    adds the top-level [schema] field and the per-function [cost]
    block. *)

val check_source : ?entries:string list -> string -> report
(** Check concrete syntax.  Parse errors become [RF001]. *)

val check_defs : ?spans:Parser.def_spans list -> ?entries:string list -> Ast.def list -> report
(** Check an already-parsed definition list (programmatic ASTs included —
    this is the only way to reach [RF007], since the parser rejects bad
    primitive arity itself). *)

val resolve_entries : requested:string list -> Program.t -> string list
(** Requested entries that exist in the program; falls back to the call
    graph's roots (and from there to every function) so cyclic programs
    are never all "dead". *)

val errors : report -> Diagnostic.t list

val warnings : report -> Diagnostic.t list

val ok : ?werror:bool -> report -> bool
(** No errors; with [~werror:true], no warnings either. *)

val summary_line : report -> string

val render_human : report -> string
(** Diagnostics, then a per-function [name : type [fan-out <= n, class]]
    table on success, then the summary line. *)

val render_json : report -> string
(** One JSON object:
    [{"schema":"recflow.check/2","errors":N,"warnings":N,"entries":[...],
      "diagnostics":[...],
      "functions":[{"name":..,"type":..,"fanout_bound":..,"recursion":..,
                    "cost":{"verdict":..,"measure":..,"floor":..,
                            "rec_fanout":..,"growth":..,"work":..}}]}] *)
