type node_id = int

type node =
  | Const of Value.t
  | Param of int
  | Prim of Ast.prim * node_id array
  | If of { cond : node_id; then_ : node_id; else_ : node_id }
  | Call of { fname : string; args : node_id array }

type t = {
  fname : string;
  arity : int;
  nodes : node array;
  result : node_id;
  woff : int array;
  wtotal : int;
}

let max_packed = (1 lsl 20) - 1

type builder = { mutable rev_nodes : node list; mutable count : int }

let emit b node =
  let id = b.count in
  b.rev_nodes <- node :: b.rev_nodes;
  b.count <- b.count + 1;
  id

(* [env] maps a variable either to its parameter index or to the node that
   computes its let-bound value (giving sharing). *)
type binding = Bparam of int | Bnode of node_id

(* Compilation runs once per cluster, so a sweep of small runs pays for it
   in set-up: variable lookup compares strings directly, one- and
   two-operand nodes skip the intermediate list, and the node list is
   copied into its array back to front rather than reversed first. *)
let rec lookup x = function
  | [] -> None
  | (y, binding) :: rest -> if String.equal x y then Some binding else lookup x rest

let rec operands b env args =
  match args with
  | [] -> [||]
  | [ x ] -> [| compile_expr b env x |]
  | [ x; y ] ->
    let i = compile_expr b env x in
    [| i; compile_expr b env y |]
  | _ -> Array.of_list (List.map (compile_expr b env) args)

and compile_expr b env expr =
  match expr with
  | Ast.Int n -> emit b (Const (Value.Int n))
  | Ast.Bool v -> emit b (Const (Value.Bool v))
  | Ast.Nil -> emit b (Const Value.Nil)
  | Ast.Var x -> (
    match lookup x env with
    | Some (Bnode id) -> id
    | Some (Bparam i) -> emit b (Param i)
    | None -> invalid_arg ("Graph.compile: unbound variable " ^ x))
  | Ast.Prim (p, args) ->
    let ids = operands b env args in
    emit b (Prim (p, ids))
  | Ast.If (c, th, el) ->
    let cond = compile_expr b env c in
    let then_ = compile_expr b env th in
    let else_ = compile_expr b env el in
    emit b (If { cond; then_; else_ })
  | Ast.And (x, y) ->
    (* Short-circuit: if x then y else false. *)
    let cond = compile_expr b env x in
    let then_ = compile_expr b env y in
    let else_ = emit b (Const (Value.Bool false)) in
    emit b (If { cond; then_; else_ })
  | Ast.Or (x, y) ->
    let cond = compile_expr b env x in
    let then_ = emit b (Const (Value.Bool true)) in
    let else_ = compile_expr b env y in
    emit b (If { cond; then_; else_ })
  | Ast.Let (x, bound, body) ->
    let bid = compile_expr b env bound in
    compile_expr b ((x, Bnode bid) :: env) body
  | Ast.Call (fname, args) ->
    let ids = operands b env args in
    emit b (Call { fname; args = ids })

let invalid fname msg = invalid_arg (Printf.sprintf "Graph.make: %s: %s" fname msg)

(* Count one static use of [d] by [user] into [uses]. *)
let count_use fname uses user d =
  if d < 0 || d >= user then
    invalid fname (Printf.sprintf "n%d uses n%d, which does not precede it" user d);
  uses.(d) <- uses.(d) + 1

let make ~fname ~arity nodes ~result =
  let n = Array.length nodes in
  if n > max_packed then
    invalid fname (Printf.sprintf "%d nodes exceed the packed limit of %d" n max_packed);
  if result < 0 || result >= n then invalid fname (Printf.sprintf "result n%d out of range" result);
  (* [woff] first counts each node's static uses, repeats counted: the
     most waiters it can hold.  Waiter slots follow the node words in an
     instance's word array, so the offsets then start at [n]. *)
  let woff = Array.make n 0 in
  for i = 0 to n - 1 do
    match nodes.(i) with
    | Const _ -> ()
    | Param p ->
      if p < 0 || p >= arity then
        invalid fname (Printf.sprintf "n%d reads parameter %d of %d" i p arity)
    | Prim (_, deps) | Call { args = deps; _ } ->
      if Array.length deps > max_packed then
        invalid fname
          (Printf.sprintf "n%d has %d operands, over the packed limit of %d" i
             (Array.length deps) max_packed);
      for k = 0 to Array.length deps - 1 do
        count_use fname woff i deps.(k)
      done
    | If { cond; then_; else_ } ->
      count_use fname woff i cond;
      count_use fname woff i then_;
      count_use fname woff i else_
  done;
  let next = ref n in
  for i = 0 to n - 1 do
    let uses = woff.(i) in
    if uses > max_packed then
      invalid fname
        (Printf.sprintf "n%d has %d users, over the packed limit of %d" i uses max_packed);
    woff.(i) <- !next;
    next := !next + uses
  done;
  { fname; arity; nodes; result; woff; wtotal = !next - n }

let compile_def (def : Ast.def) =
  let b = { rev_nodes = []; count = 0 } in
  let env = List.mapi (fun i p -> (p, Bparam i)) def.params in
  let result = compile_expr b env def.body in
  let nodes =
    match b.rev_nodes with
    | [] -> [||]
    | last :: _ ->
      let a = Array.make b.count last in
      List.iteri (fun i node -> a.(b.count - 1 - i) <- node) b.rev_nodes;
      a
  in
  make ~fname:def.name ~arity:(List.length def.params) nodes ~result

type library = { templates : (string, t) Hashtbl.t; source : Program.t }

let compile_program program =
  let templates = Hashtbl.create 16 in
  List.iter
    (fun (def : Ast.def) -> Hashtbl.replace templates def.name (compile_def def))
    (Program.defs program);
  { templates; source = program }

let find lib name = Hashtbl.find_opt lib.templates name

let find_exn lib name =
  match find lib name with
  | Some t -> t
  | None -> invalid_arg ("Graph.find_exn: unknown function " ^ name)

let program lib = lib.source

let node_count t = Array.length t.nodes

let call_sites t =
  Array.fold_left (fun acc n -> match n with Call _ -> acc + 1 | _ -> acc) 0 t.nodes

let pp_node ppf = function
  | Const v -> Format.fprintf ppf "const %a" Value.pp v
  | Param i -> Format.fprintf ppf "param %d" i
  | Prim (p, deps) ->
    Format.fprintf ppf "prim %s (%s)" (Ast.prim_name p)
      (String.concat ", " (Array.to_list (Array.map string_of_int deps)))
  | If { cond; then_; else_ } -> Format.fprintf ppf "if n%d then n%d else n%d" cond then_ else_
  | Call { fname; args } ->
    Format.fprintf ppf "call %s (%s)" fname
      (String.concat ", " (Array.to_list (Array.map string_of_int args)))

let pp ppf t =
  Format.fprintf ppf "graph %s/%d (result n%d)@." t.fname t.arity t.result;
  Array.iteri (fun i n -> Format.fprintf ppf "  n%-4d %a@." i pp_node n) t.nodes
