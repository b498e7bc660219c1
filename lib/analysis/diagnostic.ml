type severity = Error | Warning

type code =
  | Parse_error
  | Duplicate_definition
  | Duplicate_parameter
  | Unbound_variable
  | Unknown_function
  | Arity_mismatch
  | Prim_arity
  | Too_many_call_sites
  | Type_mismatch
  | Infinite_type
  | Dead_function
  | Unused_parameter
  | Non_productive_recursion
  | Shadowed_binding
  | Unused_let
  | Unbounded_recursion
  | Exponential_spawn
  | Spawn_in_nondec_cycle

let all_codes =
  [
    Parse_error;
    Duplicate_definition;
    Duplicate_parameter;
    Unbound_variable;
    Unknown_function;
    Arity_mismatch;
    Prim_arity;
    Too_many_call_sites;
    Type_mismatch;
    Infinite_type;
    Dead_function;
    Unused_parameter;
    Non_productive_recursion;
    Shadowed_binding;
    Unused_let;
    Unbounded_recursion;
    Exponential_spawn;
    Spawn_in_nondec_cycle;
  ]

(* Stable rule codes: RF0xx structural validity, RF1xx types, RF2xx lints,
   RF3xx cost/termination findings.
   Codes are part of the JSON output contract — never renumber. *)
let code_string = function
  | Parse_error -> "RF001"
  | Duplicate_definition -> "RF002"
  | Duplicate_parameter -> "RF003"
  | Unbound_variable -> "RF004"
  | Unknown_function -> "RF005"
  | Arity_mismatch -> "RF006"
  | Prim_arity -> "RF007"
  | Too_many_call_sites -> "RF008"
  | Type_mismatch -> "RF101"
  | Infinite_type -> "RF102"
  | Dead_function -> "RF201"
  | Unused_parameter -> "RF202"
  | Non_productive_recursion -> "RF203"
  | Shadowed_binding -> "RF204"
  | Unused_let -> "RF205"
  | Unbounded_recursion -> "RF301"
  | Exponential_spawn -> "RF302"
  | Spawn_in_nondec_cycle -> "RF303"

let of_code_string s = List.find_opt (fun c -> String.equal (code_string c) s) all_codes

let severity_of_code = function
  | Parse_error | Duplicate_definition | Duplicate_parameter | Unbound_variable
  | Unknown_function | Arity_mismatch | Prim_arity | Too_many_call_sites | Type_mismatch
  | Infinite_type ->
    Error
  | Dead_function | Unused_parameter | Non_productive_recursion | Shadowed_binding | Unused_let
  | Unbounded_recursion | Exponential_spawn | Spawn_in_nondec_cycle ->
    Warning

type t = { code : code; fn : string option; loc : Loc.t option; message : string }

let make ?fn ?loc code message = { code; fn; loc; message }

let severity d = severity_of_code d.code

let severity_string = function Error -> "error" | Warning -> "warning"

let to_string d =
  let where =
    match (d.fn, d.loc) with
    | Some fn, Some loc -> Printf.sprintf " %s:%s" fn (Loc.to_string loc)
    | Some fn, None -> " " ^ fn
    | None, Some loc -> " " ^ Loc.to_string loc
    | None, None -> ""
  in
  Printf.sprintf "%s[%s]%s: %s" (severity_string (severity d)) (code_string d.code) where
    d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

(* Errors before warnings, then by function, location, code, message — a
   total deterministic order so reports are byte-stable. *)
let compare a b =
  let sev = function Error -> 0 | Warning -> 1 in
  let cmp_opt cmp a b =
    match (a, b) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> cmp x y
  in
  let c = Int.compare (sev (severity a)) (sev (severity b)) in
  if c <> 0 then c
  else
    let c = cmp_opt String.compare a.fn b.fn in
    if c <> 0 then c
    else
      let c = cmp_opt Loc.compare a.loc b.loc in
      if c <> 0 then c
      else
        let c = String.compare (code_string a.code) (code_string b.code) in
        if c <> 0 then c else String.compare a.message b.message

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* One-paragraph rule docs, printed by [recflow --explain RF<code>].  Kept
   here, next to the codes, so adding a code without its doc is a compile
   error (the match is exhaustive). *)
let explain = function
  | Parse_error ->
    "RF001 parse error: the source text is not a well-formed program. The \
     parser stops at the first offending token and reports its position; \
     nothing downstream (types, lints, cost) runs until the program parses."
  | Duplicate_definition ->
    "RF002 duplicate definition: two function definitions share one name. \
     Calls are resolved by name, so a duplicate would make the program \
     ambiguous; rename or delete one of the definitions."
  | Duplicate_parameter ->
    "RF003 duplicate parameter: a function declares the same parameter name \
     twice. The later binding would silently shadow the earlier one at every \
     use site, so the form is rejected outright."
  | Unbound_variable ->
    "RF004 unbound variable: an expression references a name that is neither \
     a parameter of the enclosing function nor a visible let binding. The \
     language has no globals, so every name must be bound locally."
  | Unknown_function ->
    "RF005 unknown function: a call site names a function the program never \
     defines. There is no external linking — the program text is the whole \
     world — so the call could never be dispatched."
  | Arity_mismatch ->
    "RF006 arity mismatch: a call passes a different number of arguments \
     than the callee declares. The language is first-order with no currying \
     or optional arguments, so call and definition arity must agree exactly."
  | Prim_arity ->
    "RF007 primitive arity: a built-in operator is applied to the wrong \
     number of arguments. Each primitive has a fixed arity (e.g. + takes \
     two, head takes one); the checker rejects any other shape."
  | Too_many_call_sites ->
    "RF008 too many call sites: a function body holds more than 256 calls. \
     A child's level stamp ends with the number of the call site that \
     spawned it, and that digit is stored in one byte, so a function may \
     number at most 256 call sites; split the body into helpers."
  | Type_mismatch ->
    "RF101 type mismatch: whole-program unification found an expression \
     used at two incompatible types (e.g. an int where a list is required). \
     The evaluators would raise the same conflict at run time; the checker \
     reports it statically with the two irreconcilable types."
  | Infinite_type ->
    "RF102 infinite type: solving the type constraints requires a type that \
     contains itself (occurs-check failure), e.g. forcing 'a = list 'a. No \
     finite type can satisfy the program, so it is rejected."
  | Dead_function ->
    "RF201 dead function: the function is unreachable from the entry points \
     along the call graph. It can never run, so it is either leftover code \
     or evidence that a call site names the wrong function."
  | Unused_parameter ->
    "RF202 unused parameter: a declared parameter is never referenced in \
     the function body. Callers still pay to evaluate the argument (the \
     language is strict), so an unused parameter is wasted work and often a \
     sign the wrong variable is used inside the body."
  | Non_productive_recursion ->
    "RF203 non-productive recursion: a self-call passes every argument \
     unchanged. In a pure, strict language the call re-enters the same \
     state and can only diverge — there is no effect or laziness that could \
     break the cycle."
  | Shadowed_binding ->
    "RF204 shadowed binding: a let rebinds a name that is already visible \
     (a parameter or an enclosing let). The inner binding wins, which is \
     legal but error-prone; rename the inner binding to keep every use \
     unambiguous."
  | Unused_let ->
    "RF205 unused let: a let-bound value is never referenced afterwards. \
     The bound expression is still evaluated (strict semantics), so the \
     binding costs work and reads as if it mattered; delete it or use it."
  | Unbounded_recursion ->
    "RF301 statically unbounded recursion: a recursive cycle reachable from \
     the entry point admits no decreasing measure — every candidate ranking \
     function (an integer parameter, a list size, a pairwise difference or \
     a sum of those) is provably non-decreasing around the cycle, or every \
     path through the cycle unconditionally re-enters it. The cost analyzer \
     can place no bound on recursion depth, and the recovery-cost model \
     (paper \u{00a7}3.3) has no finite work estimate for the subtree. The rule \
     stays quiet when a measure merely cannot be classified; it fires only \
     on provable non-decrease."
  | Exponential_spawn ->
    "RF302 exponential task blow-up: a recursive cycle reachable from the \
     entry point re-enters itself two or more times per activation while no \
     candidate measure decreases, so the spawned task count grows without \
     bound and exponentially in the recursion — the worst corner of the \
     loss-rate \u{00d7} work-size plane for checkpoint admission. Bounded \
     divide-and-conquer (fib-style, with a decreasing argument) does not \
     trigger this; only provably non-decreasing cycles do."
  | Spawn_in_nondec_cycle ->
    "RF303 spawn inside a non-decreasing cycle: a recursive cycle with no \
     decreasing measure spawns work outside its own strongly-connected \
     component on every trip around the cycle. Each iteration enqueues \
     fresh subtree work whose total is statically unbounded, so checkpoint \
     admission cannot price the subtree and recovery may re-issue an \
     arbitrary amount of it. Bound the cycle with a decreasing argument or \
     hoist the spawn out of it."

let to_json d =
  let fields =
    [
      Some ("code", json_string (code_string d.code));
      Some ("severity", json_string (severity_string (severity d)));
      Option.map (fun fn -> ("function", json_string fn)) d.fn;
      Option.map (fun (l : Loc.t) -> ("line", string_of_int l.line)) d.loc;
      Option.map (fun (l : Loc.t) -> ("column", string_of_int l.column)) d.loc;
      Some ("message", json_string d.message);
    ]
    |> List.filter_map Fun.id
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"
