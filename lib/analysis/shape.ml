open Recflow_lang

type recursion_class = Non_recursive | Self_recursive | Mutually_recursive

let recursion_class_string = function
  | Non_recursive -> "non-recursive"
  | Self_recursive -> "self-recursive"
  | Mutually_recursive -> "mutually recursive"

type fn_shape = {
  fn : string;
  fanout : int;
  recursion : recursion_class;
  calls : string list;  (** sorted distinct callees *)
}

type t = { shapes : fn_shape list (* sorted by function name *) }

(* Worst-case number of user calls one activation can issue.  Both
   evaluators respect these bounds: the serial evaluator takes one branch
   of an [If] and short-circuits [And]/[Or], and the demand-driven
   instance graph builds the condition plus at most one arm.  A [Call]'s
   arguments are evaluated by the caller, so they count against the
   caller's own activation — hence [1 + sum over args].

   The worklist keeps the walk stack-safe in list/let/prim spines; only
   [If]-nesting consumes OCaml stack (to take the max over the arms), and
   programs nest conditionals shallowly. *)
let rec fanout_of_expr expr =
  let rec go acc = function
    | [] -> acc
    | e :: rest -> (
      match e with
      | Ast.Int _ | Ast.Bool _ | Ast.Nil | Ast.Var _ -> go acc rest
      | Ast.Prim (_, args) -> go acc (args @ rest)
      | Ast.Call (_, args) -> go (acc + 1) (args @ rest)
      | Ast.And (a, b) | Ast.Or (a, b) -> go acc (a :: b :: rest)
      | Ast.Let (_, bound, body) -> go acc (bound :: body :: rest)
      | Ast.If (c, t, e) ->
        go (acc + max (fanout_of_expr t) (fanout_of_expr e)) (c :: rest))
  in
  go 0 [ expr ]

let of_program program =
  let graph = Callgraph.of_program program in
  let recursive = Callgraph.recursive_functions graph in
  let components = Callgraph.sccs graph in
  let shapes =
    List.map
      (fun (d : Ast.def) ->
        let callees = Callgraph.callees graph d.name in
        let recursion =
          if not (List.mem d.name recursive) then Non_recursive
          else if
            (* on a cycle; self-recursive iff its SCC is just itself *)
            List.exists (fun component -> component = [ d.name ]) components
          then Self_recursive
          else Mutually_recursive
        in
        { fn = d.name; fanout = fanout_of_expr d.body; recursion; calls = callees })
      (Program.defs program)
  in
  { shapes }

let find t fn = List.find_opt (fun s -> s.fn = fn) t.shapes

let fanout_bound t fn = match find t fn with Some s -> Some s.fanout | None -> None

let program_fanout_bound ?entries t program =
  let graph = Callgraph.of_program program in
  let fns =
    match entries with
    | Some entries -> Callgraph.reachable graph ~entries
    | None -> graph.functions
  in
  List.fold_left (fun acc s -> if List.mem s.fn fns then max acc s.fanout else acc) 0 t.shapes
