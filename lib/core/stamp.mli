(** Level stamps (§3.1).

    The root task carries the empty stamp; a task's child carries its
    parent's stamp with the number of the child's call site appended (the
    machine takes it from [Recflow_lang.Graph.digit]).  Stamps therefore
    encode the program's call-tree structure: [a] is a (proper) ancestor of
    [b] iff [a] is a proper prefix of [b].  Uniqueness is guaranteed by the
    program structure — no clocks, no coordination — and stamping is fully
    asynchronous, exactly as the paper requires: any activation of a
    function, a twin included, gives the child of one call site one
    stamp.

    Digit 0 may be any non-negative int: it is the request uid in service
    mode.  Every deeper digit is a call-site number, and the paper notes
    such digits need only a few bits: [Program.of_defs] rejects a function
    with more than 256 call sites, so each one is at most 255, and stamps
    refuse a larger one.  A digit string has one representation, never
    mutated, so polymorphic [=] agrees with {!equal} and [Hashtbl.hash] is
    sound on stamps; {!compare} is the only ordering. *)

type t

val root : t

val child : t -> int -> t
(** [child s k] appends digit [k].
    @raise Invalid_argument if [k < 0], or if [k > 255] and [s] is not the
    root. *)

val parent : t -> t option
(** [None] for the root stamp. *)

val depth : t -> int
(** Root has depth 0.  O(1). *)

val digit : t -> int -> int
(** [digit s i] is the i-th digit from the root, [0 <= i < depth s] — the
    per-digit accessor the checkpoint-table trie walks with, so indexing a
    stamp never materialises a digit list.
    @raise Invalid_argument out of range. *)

val first_diff_from : t -> t -> int -> int
(** [first_diff_from a b i] is the index of the first digit where [a]
    and [b] differ, or the smaller depth when one is a prefix of the
    other: the length of their longest common prefix.  The caller knows
    the two agree on their first [i] digits ([i] at most the smaller
    depth), and those are not compared again: the checkpoint table's
    compressed trie walks a path comparing each node's skipped digits
    once.  Word-wise on packed stamps, allocation-free. *)

val digits : t -> int list

val of_digits : int list -> t
(** @raise Invalid_argument on a negative digit, or a digit above 255 past
    the first. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Lexicographic; ancestors sort before descendants. *)

val is_ancestor : t -> t -> bool
(** [is_ancestor a b]: [a] is a *proper* ancestor of [b]. *)

val is_descendant : t -> t -> bool
(** [is_descendant a b]: [a] is a proper descendant of [b]. *)

val related : t -> t -> bool
(** Same genealogical line: equal, ancestor or descendant. *)

val common_ancestor : t -> t -> t
(** Longest common prefix. *)

val max_digit : t -> int option
(** Largest digit anywhere in the stamp; [None] for the root.  Used by the
    static analyser's gauntlet: every observed digit must lie strictly
    below the spawning function's static fan-out bound (the digit is the
    spawning call site's number, which the template keeps below it). *)

val to_string : t -> string
(** Root prints as "ε", others as dotted digits, e.g. "0.2.1". *)

val of_string : string -> (t, string) result
(** [Error] on a malformed or negative digit, or a digit above 255 past the
    first. *)

val pp : Format.formatter -> t -> unit

val hash : t -> int
(** Structural hash of the first ten digits, computed on each call.  The
    value is identical to [Hashtbl.hash (digits s)] — placement keys are
    derived from it, so it is part of the determinism contract. *)
