exception Runtime_error of string

type state = { mutable steps : int; fuel : int; mutable calls : int }

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then raise (Runtime_error "fuel exhausted (non-terminating program?)")

(* A compiled expression reads and writes the frame of the activation it
   runs in: parameters first, then one slot per enclosing [let]. *)
type code = state -> Value.t array -> Value.t

type fn = {
  name : string;
  arity : int;
  mutable frame : int;  (** parameters plus the deepest [let] nesting *)
  mutable body : code;
}

type compiled = (string, fn) Hashtbl.t

let vtrue = Value.Bool true

let vfalse = Value.Bool false

let vbool b = if b then vtrue else vfalse

(* Error path of every primitive: [Builtins.apply] owns the messages. *)
let slow p args =
  match Builtins.apply p args with Ok v -> v | Error msg -> raise (Runtime_error msg)

(* Operands are bound with [let] so they are evaluated left to right. *)
let int2 p ca cb f : code =
 fun st fr ->
  tick st;
  let a = ca st fr in
  let b = cb st fr in
  match (a, b) with Value.Int x, Value.Int y -> f x y | _ -> slow p [| a; b |]

(* Specialised by primitive and arity; the common operators are written
   out rather than going through [int2]'s closure. *)
let prim p cargs : code =
  match (p, cargs) with
  | Ast.Add, [ ca; cb ] -> (
    fun st fr ->
      tick st;
      let a = ca st fr in
      let b = cb st fr in
      match (a, b) with Value.Int x, Value.Int y -> Value.Int (x + y) | _ -> slow p [| a; b |])
  | Ast.Sub, [ ca; cb ] -> (
    fun st fr ->
      tick st;
      let a = ca st fr in
      let b = cb st fr in
      match (a, b) with Value.Int x, Value.Int y -> Value.Int (x - y) | _ -> slow p [| a; b |])
  | Ast.Lt, [ ca; cb ] -> (
    fun st fr ->
      tick st;
      let a = ca st fr in
      let b = cb st fr in
      match (a, b) with Value.Int x, Value.Int y -> vbool (x < y) | _ -> slow p [| a; b |])
  | Ast.Le, [ ca; cb ] -> (
    fun st fr ->
      tick st;
      let a = ca st fr in
      let b = cb st fr in
      match (a, b) with Value.Int x, Value.Int y -> vbool (x <= y) | _ -> slow p [| a; b |])
  | Ast.Mul, [ ca; cb ] -> int2 p ca cb (fun x y -> Value.Int (x * y))
  | Ast.Div, [ ca; cb ] ->
    int2 p ca cb (fun x y ->
        if y = 0 then slow p [| Value.Int x; Value.Int y |] else Value.Int (x / y))
  | Ast.Mod, [ ca; cb ] ->
    int2 p ca cb (fun x y ->
        if y = 0 then slow p [| Value.Int x; Value.Int y |] else Value.Int (x mod y))
  | Ast.Min, [ ca; cb ] -> int2 p ca cb (fun x y -> Value.Int (if x <= y then x else y))
  | Ast.Max, [ ca; cb ] -> int2 p ca cb (fun x y -> Value.Int (if x >= y then x else y))
  | Ast.Gt, [ ca; cb ] -> int2 p ca cb (fun x y -> vbool (x > y))
  | Ast.Ge, [ ca; cb ] -> int2 p ca cb (fun x y -> vbool (x >= y))
  | Ast.Eq, [ ca; cb ] ->
    fun st fr ->
      tick st;
      let a = ca st fr in
      let b = cb st fr in
      vbool (Value.equal a b)
  | Ast.Ne, [ ca; cb ] ->
    fun st fr ->
      tick st;
      let a = ca st fr in
      let b = cb st fr in
      vbool (not (Value.equal a b))
  | Ast.Cons, [ ca; cb ] ->
    fun st fr ->
      tick st;
      let a = ca st fr in
      let b = cb st fr in
      Value.Cons (a, b)
  | Ast.Not, [ ca ] -> (
    fun st fr ->
      tick st;
      match ca st fr with Value.Bool b -> vbool (not b) | a -> slow p [| a |])
  | Ast.Neg, [ ca ] -> (
    fun st fr ->
      tick st;
      match ca st fr with Value.Int n -> Value.Int (-n) | a -> slow p [| a |])
  | Ast.Head, [ ca ] -> (
    fun st fr ->
      tick st;
      match ca st fr with Value.Cons (h, _) -> h | a -> slow p [| a |])
  | Ast.Tail, [ ca ] -> (
    fun st fr ->
      tick st;
      match ca st fr with Value.Cons (_, t) -> t | a -> slow p [| a |])
  | Ast.Is_nil, [ ca ] -> (
    fun st fr ->
      tick st;
      match ca st fr with Value.Nil -> vtrue | Value.Cons _ -> vfalse | a -> slow p [| a |])
  | _ ->
    (* wrong primitive arity: reachable only from an unchecked [eval_expr];
       [Builtins.apply] reports it *)
    let cargs = Array.of_list cargs in
    fun st fr ->
      tick st;
      slow p (Array.map (fun c -> c st fr) cargs)

(* A fresh callee frame: the arguments, then [let] slots. *)
let frame1 n a =
  if n = 1 then [| a |]
  else
    let f = Array.make n Value.Nil in
    Array.unsafe_set f 0 a;
    f

let frame2 n a b =
  if n = 2 then [| a; b |]
  else
    let f = Array.make n Value.Nil in
    Array.unsafe_set f 0 a;
    Array.unsafe_set f 1 b;
    f

let frame3 n a b c =
  if n = 3 then [| a; b; c |]
  else
    let f = Array.make n Value.Nil in
    Array.unsafe_set f 0 a;
    Array.unsafe_set f 1 b;
    Array.unsafe_set f 2 c;
    f

let call fn cargs : code =
  match cargs with
  | [||] ->
    fun st _ ->
      tick st;
      st.calls <- st.calls + 1;
      fn.body st (Array.make fn.frame Value.Nil)
  | [| c0 |] ->
    fun st fr ->
      tick st;
      st.calls <- st.calls + 1;
      let a = c0 st fr in
      fn.body st (frame1 fn.frame a)
  | [| c0; c1 |] ->
    fun st fr ->
      tick st;
      st.calls <- st.calls + 1;
      let a = c0 st fr in
      let b = c1 st fr in
      fn.body st (frame2 fn.frame a b)
  | [| c0; c1; c2 |] ->
    fun st fr ->
      tick st;
      st.calls <- st.calls + 1;
      let a = c0 st fr in
      let b = c1 st fr in
      let c = c2 st fr in
      fn.body st (frame3 fn.frame a b c)
  | _ ->
    fun st fr ->
      tick st;
      st.calls <- st.calls + 1;
      let callee = Array.make fn.frame Value.Nil in
      for i = 0 to Array.length cargs - 1 do
        Array.unsafe_set callee i ((Array.unsafe_get cargs i) st fr)
      done;
      fn.body st callee

let arity_error fname expected got =
  Runtime_error (Printf.sprintf "%s: expected %d arguments, got %d" fname expected got)

(* Deepest [let] nesting: the frame slots an activation needs beyond its
   parameters.  Sibling [let]s reuse slots, because a [let]'s slot is dead
   once its body has produced a value. *)
let rec let_depth = function
  | Ast.Int _ | Ast.Bool _ | Ast.Nil | Ast.Var _ -> 0
  | Ast.Prim (_, args) | Ast.Call (_, args) ->
    List.fold_left (fun d e -> max d (let_depth e)) 0 args
  | Ast.If (c, a, b) -> max (let_depth c) (max (let_depth a) (let_depth b))
  | Ast.And (a, b) | Ast.Or (a, b) -> max (let_depth a) (let_depth b)
  | Ast.Let (_, b, k) -> max (let_depth b) (1 + let_depth k)

(* [scope] maps each visible name to its slot, innermost binding first, so
   the compile-time [List.assoc] resolves shadowing exactly as the run-time
   association list of a tree-walker would.  [depth] is the next free slot.
   Every node ticks where the tree-walker ticks: before its operands. *)
let rec comp fns scope depth expr : code =
  match expr with
  | Ast.Int n ->
    let v = Value.Int n in
    fun _ _ -> v
  | Ast.Bool b ->
    let v = vbool b in
    fun _ _ -> v
  | Ast.Nil -> fun _ _ -> Value.Nil
  | Ast.Var x -> (
    match List.assoc_opt x scope with
    | Some i ->
      fun st fr ->
        tick st;
        Array.unsafe_get fr i
    | None ->
      let msg = "unbound variable " ^ x in
      fun st _ ->
        tick st;
        raise (Runtime_error msg))
  | Ast.Prim (p, args) -> prim p (List.map (comp fns scope depth) args)
  | Ast.If (c, a, b) -> (
    let cc = comp fns scope depth c
    and ca = comp fns scope depth a
    and cb = comp fns scope depth b in
    fun st fr ->
      tick st;
      match cc st fr with
      | Value.Bool true -> ca st fr
      | Value.Bool false -> cb st fr
      | v -> raise (Runtime_error (Type_error.if_condition (Value.type_name v))))
  | Ast.And (a, b) -> (
    let ca = comp fns scope depth a and cb = comp fns scope depth b in
    fun st fr ->
      tick st;
      match ca st fr with
      | Value.Bool false -> vfalse
      | Value.Bool true -> (
        match cb st fr with
        | Value.Bool _ as v -> v
        | v ->
          raise (Runtime_error (Type_error.bool_operand ~op:"&&" ~side:"right" (Value.type_name v))))
      | v ->
        raise (Runtime_error (Type_error.bool_operand ~op:"&&" ~side:"left" (Value.type_name v))))
  | Ast.Or (a, b) -> (
    let ca = comp fns scope depth a and cb = comp fns scope depth b in
    fun st fr ->
      tick st;
      match ca st fr with
      | Value.Bool true -> vtrue
      | Value.Bool false -> (
        match cb st fr with
        | Value.Bool _ as v -> v
        | v ->
          raise (Runtime_error (Type_error.bool_operand ~op:"||" ~side:"right" (Value.type_name v))))
      | v ->
        raise (Runtime_error (Type_error.bool_operand ~op:"||" ~side:"left" (Value.type_name v))))
  | Ast.Let (x, bound, body) ->
    let cb = comp fns scope depth bound in
    let ck = comp fns ((x, depth) :: scope) (depth + 1) body in
    fun st fr ->
      tick st;
      let v = cb st fr in
      Array.unsafe_set fr depth v;
      ck st fr
  | Ast.Call (g, args) -> (
    let cargs = Array.of_list (List.map (comp fns scope depth) args) in
    let nargs = Array.length cargs in
    let failing err =
      (* a call no checked program contains: still tick, count and
         evaluate the arguments before failing, like the tree-walker *)
      fun st fr ->
        tick st;
        st.calls <- st.calls + 1;
        Array.iter (fun c -> ignore (c st fr)) cargs;
        raise err
    in
    match Hashtbl.find_opt fns g with
    | Some fn when fn.arity = nargs -> call fn cargs
    | Some fn -> failing (arity_error g fn.arity nargs)
    | None -> failing (Runtime_error ("call to unknown function " ^ g)))

let compile program =
  let defs = Program.defs program in
  let fns = Hashtbl.create (2 * List.length defs) in
  let unset _ _ = assert false in
  List.iter
    (fun (d : Ast.def) ->
      let arity = List.length d.params in
      Hashtbl.replace fns d.name { name = d.name; arity; frame = arity; body = unset })
    defs;
  List.iter
    (fun (d : Ast.def) ->
      let fn = Hashtbl.find fns d.name in
      let scope = List.mapi (fun i x -> (x, i)) d.params in
      fn.frame <- fn.arity + let_depth d.body;
      fn.body <- comp fns scope fn.arity d.body)
    defs;
  fns

(* Enter [fn] from outside compiled code: no tick, as for the entry call
   of the tree-walker. *)
let enter st fn args =
  let n = Array.length args in
  if n <> fn.arity then raise (arity_error fn.name fn.arity n);
  let frame = Array.make fn.frame Value.Nil in
  Array.blit args 0 frame 0 n;
  fn.body st frame

let default_fuel = 50_000_000

let find compiled fname = Hashtbl.find_opt compiled fname

let apply ?(fuel = default_fuel) fn args =
  let st = { steps = 0; fuel; calls = 0 } in
  let v = enter st fn args in
  (v, st.steps)

let run ?fuel compiled fname args =
  match find compiled fname with None -> raise Not_found | Some fn -> apply ?fuel fn args

let eval ?fuel program fname args = run ?fuel (compile program) fname (Array.of_list args)

let eval_expr ?(fuel = default_fuel) program env expr =
  let fns = compile program in
  let scope = List.mapi (fun i (x, _) -> (x, i)) env in
  let depth = List.length env in
  let frame = Array.make (depth + let_depth expr) Value.Nil in
  List.iteri (fun i (_, v) -> frame.(i) <- v) env;
  let code = comp fns scope depth expr in
  let st = { steps = 0; fuel; calls = 0 } in
  let v = code st frame in
  (v, st.steps)

let call_count program fname args =
  match Hashtbl.find_opt (compile program) fname with
  | None -> raise (Runtime_error ("call to unknown function " ^ fname))
  | Some fn ->
    let st = { steps = 0; fuel = default_fuel; calls = 1 } in
    ignore (enter st fn (Array.of_list args));
    st.calls
