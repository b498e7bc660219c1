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
  sizes : int;
  mutable digits : int array;
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

(* [make]'s first pass packs into [woff.(d)] what its second pass lays
   the node out from: the static uses of [d], repeats counted, in bits
   0-39 (at most [max_packed] squared, below 2^40), the last node to use
   it in bits 40-59, and in bit 60 whether it is a leaf. *)
let use_bits = 40
let use_mask = (1 lsl use_bits) - 1
let leaf_bit = 1 lsl 60

(* The laid-out [woff] entry of a non-leaf node (see graph.mli). *)
let slots_flag = 1 lsl 20
let place_shift = 21

(* Count one static use of [d] by [user]. *)
let count_use fname woff user d =
  if d < 0 || d >= user then
    invalid fname (Printf.sprintf "n%d uses n%d, which does not precede it" user d);
  woff.(d) <- (woff.(d) land (leaf_bit lor use_mask)) + 1 + (user lsl use_bits)

(* Call-site numbers: the digit a child's level stamp ends with.

   Scopes.  The body is scope 0 and each [If] opens one scope per arm,
   numbered after its own scope.  A node lives in the deepest scope that
   every demand path to it enters: the meet, in the scope tree, of the
   scopes its users demand it from (an arm operand is demanded from its
   arm's scope, every other operand from its user's).  Users follow their
   operands, so one backward pass settles each node before its operands.
   A node that no demand reaches, such as the bound of an unused [let],
   has no scope; its call never spawns and keeps number 0.

   Numbers.  A scope needs one number per own call plus, for each [If] it
   holds, as many as the larger arm needs: the sum [Shape] bounds fan-out
   with.  The calls take numbers in the order a dry run of the instance
   spawns them (below).  A call takes the next free number of its scope;
   the first call under an [If] reserves the larger arm's numbers in the
   enclosing scope and starts both arms at the first of them.  So calls
   that one activation can both reach get different numbers, calls on
   exclusive arms share them, and where the spawn order does not depend on
   which result arrives first, the k-th spawn of an activation gets k. *)

(* The dry run follows [Instance]: demand from the result, a FIFO ready
   queue, waiters notified newest first.  It demands both arms of an [If]
   once its condition is ready, and whenever the queue runs dry it answers
   the outstanding calls in spawn order.  Every node enters the queue at
   most once, so the calls in [queue], in order, are the spawn order.
   Waiters sit where an instance keeps them ([woff]; [slots] is indexed
   by word position, as an instance's word array is).  States: 0 idle,
   1 waiting on [wait.(id)] operands, 2 an [If] waiting on its
   condition, 3 queued or called, 4 done. *)
let spawn_order nodes ~result ~woff ~words =
  let n = Array.length nodes in
  let state = Array.make n 0 and wait = Array.make n 0 in
  let waiters = Array.make n 0 and slots = Array.make words 0 in
  let queue = Array.make n 0 and tail = ref 0 in
  let enqueue id =
    state.(id) <- 3;
    queue.(!tail) <- id;
    incr tail
  in
  let add_waiter d w =
    let at = woff.(d) in
    if at land slots_flag <> 0 then slots.((at lsr place_shift) + waiters.(d)) <- w;
    waiters.(d) <- waiters.(d) + 1
  in
  let rec complete id =
    state.(id) <- 4;
    let at = woff.(id) in
    if waiters.(id) > 0 then
      if at land slots_flag = 0 then ready (at lsr place_shift)
      else
        for k = waiters.(id) - 1 downto 0 do
          ready slots.((at lsr place_shift) + k)
        done
  and ready w =
    if state.(w) = 2 then arms w
    else begin
      wait.(w) <- wait.(w) - 1;
      if wait.(w) = 0 then enqueue w
    end
  and await w d =
    demand d;
    if state.(d) <> 4 then begin
      wait.(w) <- wait.(w) + 1;
      add_waiter d w
    end
  and settle w = if wait.(w) = 0 then enqueue w else state.(w) <- 1
  and arms w =
    match nodes.(w) with
    | If { then_; else_; _ } ->
      await w then_;
      await w else_;
      settle w
    | Const _ | Param _ | Prim _ | Call _ -> ()
  and demand id =
    if state.(id) = 0 then
      match nodes.(id) with
      | Const _ | Param _ -> complete id
      | Prim (_, deps) | Call { args = deps; _ } ->
        Array.iter (await id) deps;
        settle id
      | If { cond; _ } ->
        demand cond;
        if state.(cond) = 4 then arms id
        else begin
          state.(id) <- 2;
          add_waiter cond id
        end
  in
  demand result;
  let head = ref 0 and answered = ref 0 in
  while !head < !tail || !answered < !head do
    if !head < !tail then begin
      let id = queue.(!head) in
      incr head;
      match nodes.(id) with Call _ -> () | Const _ | Param _ | Prim _ | If _ -> complete id
    end
    else
      while !answered < !head do
        (match nodes.(queue.(!answered)) with Call _ -> complete queue.(!answered) | _ -> ());
        incr answered
      done
  done;
  (queue, !tail)

let number_calls nodes ~result ~woff ~words =
  let n = Array.length nodes in
  let digit = Array.map (function Call _ -> 0 | Const _ | Param _ | Prim _ | If _ -> -1) nodes in
  let ifs = Array.fold_left (fun k node -> match node with If _ -> k + 1 | _ -> k) 0 nodes in
  (* Arm scopes [t] and [t + 1], [t] odd, belong to one [If] in scope
     [parent.(t)]; scope [s] needs [size.(s)] numbers, and [next.(s)] is
     its next free one, [-1] until its first call comes. *)
  let scopes = 1 + (2 * ifs) in
  let parent = Array.make scopes 0 and size = Array.make scopes 0 in
  let next = Array.make scopes (-1) and scope = Array.make n (-1) and fresh = ref 1 in
  let rec meet a b = if a = b then a else if a > b then meet parent.(a) b else meet a parent.(b) in
  let use s d = scope.(d) <- (if scope.(d) < 0 then s else meet scope.(d) s) in
  let wider t = max size.(t) size.(t + 1) in
  scope.(result) <- 0;
  for i = n - 1 downto 0 do
    let s = scope.(i) in
    if s >= 0 then
      match nodes.(i) with
      | Const _ | Param _ -> ()
      | Prim (_, deps) -> Array.iter (use s) deps
      | Call { args; _ } ->
        size.(s) <- size.(s) + 1;
        Array.iter (use s) args
      | If { cond; then_; else_ } ->
        let t = !fresh in
        fresh := t + 2;
        parent.(t) <- s;
        parent.(t + 1) <- s;
        use s cond;
        use t then_;
        use (t + 1) else_
  done;
  let t = ref (!fresh - 2) in
  while !t >= 1 do
    size.(parent.(!t)) <- size.(parent.(!t)) + wider !t;
    t := !t - 2
  done;
  let rec enter s =
    if next.(s) < 0 then begin
      let t = s - 1 + (s land 1) and p = parent.(s) in
      enter p;
      next.(t) <- next.(p);
      next.(t + 1) <- next.(p);
      next.(p) <- next.(p) + wider t
    end
  in
  next.(0) <- 0;
  let queue, queued = spawn_order nodes ~result ~woff ~words in
  for r = 0 to queued - 1 do
    let c = queue.(r) in
    match nodes.(c) with
    | Call _ ->
      let s = scope.(c) in
      enter s;
      digit.(c) <- next.(s);
      next.(s) <- next.(s) + 1
    | Const _ | Param _ | Prim _ | If _ -> ()
  done;
  digit

let make ~fname ~arity nodes ~result =
  let n = Array.length nodes in
  if n > max_packed then
    invalid fname (Printf.sprintf "%d nodes exceed the packed limit of %d" n max_packed);
  if result < 0 || result >= n then invalid fname (Printf.sprintf "result n%d out of range" result);
  (* The first pass marks the leaves, counts the other nodes and packs
     each node's uses and last user (above [count_use]). *)
  let woff = Array.make n 0 and inner = ref 0 in
  for i = 0 to n - 1 do
    match nodes.(i) with
    | Const _ -> woff.(i) <- leaf_bit
    | Param p ->
      if p < 0 || p >= arity then
        invalid fname (Printf.sprintf "n%d reads parameter %d of %d" i p arity);
      woff.(i) <- leaf_bit
    | Prim (_, deps) | Call { args = deps; _ } ->
      if Array.length deps > max_packed then
        invalid fname
          (Printf.sprintf "n%d has %d operands, over the packed limit of %d" i
             (Array.length deps) max_packed);
      incr inner;
      for k = 0 to Array.length deps - 1 do
        count_use fname woff i deps.(k)
      done
    | If { cond; then_; else_ } ->
      incr inner;
      count_use fname woff i cond;
      count_use fname woff i then_;
      count_use fname woff i else_
  done;
  (* The second pass numbers the non-leaf nodes in id order and gives
     each node of two or more uses its waiter slots, after the [inner]
     node words. *)
  let inner = !inner in
  let k = ref 0 and next = ref inner in
  for i = 0 to n - 1 do
    let a = woff.(i) in
    let uses = a land use_mask in
    if uses > max_packed then
      invalid fname
        (Printf.sprintf "n%d has %d users, over the packed limit of %d" i uses max_packed);
    if a land leaf_bit <> 0 then woff.(i) <- -1
    else begin
      if uses >= 2 then begin
        woff.(i) <- !k lor slots_flag lor (!next lsl place_shift);
        next := !next + uses
      end
      else woff.(i) <- !k lor ((a lsr use_bits) lsl place_shift);
      incr k
    end
  done;
  { fname; arity; nodes; result; woff; sizes = inner lor ((!next - inner) lsl 20); digits = [||] }

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

let inner_nodes t = t.sizes land max_packed

let waiter_slots t = t.sizes lsr 20

(* Numbering a template costs several times the rest of its compilation,
   and a cluster compiles its whole program when it is created, so each
   template is numbered on its first [digit] query: once, and only if it
   spawns. *)
let digit t id =
  if Array.length t.digits = 0 then
    t.digits <-
      number_calls t.nodes ~result:t.result ~woff:t.woff ~words:(inner_nodes t + waiter_slots t);
  t.digits.(id)

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
