(* Differential suite for the compiled serial evaluator.

   The oracle is the original tree-walking interpreter: association-list
   environments searched by name and a [Program.find] per call.  Random
   well-formed programs (typed, with an occasional ill-typed node) and
   random unchecked expressions are run through both, which must agree on
   the value or the error text, on the reduction count and on the call
   count. *)

open Recflow_lang

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- tree-walking oracle ---------------- *)

module Oracle = struct
  exception Runtime_error of string

  type state = { program : Program.t; mutable steps : int; fuel : int; mutable calls : int }

  let tick st =
    st.steps <- st.steps + 1;
    if st.steps > st.fuel then raise (Runtime_error "fuel exhausted (non-terminating program?)")

  let lookup env x =
    match List.assoc_opt x env with
    | Some v -> v
    | None -> raise (Runtime_error ("unbound variable " ^ x))

  let rec eval_in st env expr =
    match expr with
    | Ast.Int n -> Value.Int n
    | Ast.Bool b -> Value.Bool b
    | Ast.Nil -> Value.Nil
    | Ast.Var x ->
      tick st;
      lookup env x
    | Ast.Prim (p, args) ->
      tick st;
      let vals = Array.of_list (List.map (eval_in st env) args) in
      (match Builtins.apply p vals with
      | Ok v -> v
      | Error msg -> raise (Runtime_error msg))
    | Ast.If (c, th, el) -> (
      tick st;
      match eval_in st env c with
      | Value.Bool true -> eval_in st env th
      | Value.Bool false -> eval_in st env el
      | v -> raise (Runtime_error (Type_error.if_condition (Value.type_name v))))
    | Ast.And (a, b) -> (
      tick st;
      match eval_in st env a with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> (
        match eval_in st env b with
        | Value.Bool _ as v -> v
        | v ->
          raise (Runtime_error (Type_error.bool_operand ~op:"&&" ~side:"right" (Value.type_name v))))
      | v ->
        raise (Runtime_error (Type_error.bool_operand ~op:"&&" ~side:"left" (Value.type_name v))))
    | Ast.Or (a, b) -> (
      tick st;
      match eval_in st env a with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> (
        match eval_in st env b with
        | Value.Bool _ as v -> v
        | v ->
          raise (Runtime_error (Type_error.bool_operand ~op:"||" ~side:"right" (Value.type_name v))))
      | v ->
        raise (Runtime_error (Type_error.bool_operand ~op:"||" ~side:"left" (Value.type_name v))))
    | Ast.Let (x, bound, body) ->
      tick st;
      let v = eval_in st env bound in
      eval_in st ((x, v) :: env) body
    | Ast.Call (fname, args) ->
      tick st;
      st.calls <- st.calls + 1;
      let vals = List.map (eval_in st env) args in
      apply st fname vals

  and apply st fname vals =
    match Program.find st.program fname with
    | None -> raise (Runtime_error ("call to unknown function " ^ fname))
    | Some def ->
      if List.length def.params <> List.length vals then
        raise
          (Runtime_error
             (Printf.sprintf "%s: expected %d arguments, got %d" fname (List.length def.params)
                (List.length vals)));
      let env = List.combine def.params vals in
      eval_in st env def.body

  let default_fuel = 50_000_000

  let eval ?(fuel = default_fuel) program fname args =
    if Program.find program fname = None then raise Not_found;
    let st = { program; steps = 0; fuel; calls = 0 } in
    let v = apply st fname args in
    (v, st.steps)

  let eval_expr ?(fuel = default_fuel) program env expr =
    let st = { program; steps = 0; fuel; calls = 0 } in
    let v = eval_in st env expr in
    (v, st.steps)

  let call_count program fname args =
    let st = { program; steps = 0; fuel = default_fuel; calls = 1 } in
    ignore (apply st fname args);
    st.calls
end

(* Both evaluators' results, with their distinct exceptions mapped onto one
   comparable outcome. *)
let outcome f =
  match f () with
  | r -> Ok r
  | exception Oracle.Runtime_error msg -> Error msg
  | exception Eval_serial.Runtime_error msg -> Error msg

let same_outcome eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error m, Error m' -> String.equal m m'
  | Ok _, Error _ | Error _, Ok _ -> false

let same_eval = same_outcome (fun (v, s) (v', s') -> Value.equal v v' && s = s')

let show_outcome show = function Ok r -> show r | Error msg -> "error: " ^ msg

let show_eval = show_outcome (fun (v, s) -> Printf.sprintf "%s in %d steps" (Value.to_string v) s)

(* ---------------- program generator ---------------- *)

type ty = T_int | T_bool | T_list

(* A user function as the generator sees it.  Every function but the
   nullary [z] takes a depth counter [n] first; its body tests [n <= 0] and
   every call passes [n - 1], so recursion, mutual recursion included,
   always terminates.  Lets never bind [n]. *)
type fn = { fname : string; extras : (string * ty) list; ret : ty }

type genv = {
  fns : fn list;  (** callable from here *)
  scope : (string * ty) list;  (** innermost binding first *)
  ill : bool;  (** may emit a node of the wrong type *)
}

let visible env ty =
  let rec go seen = function
    | [] -> []
    | (x, t) :: rest ->
      if List.mem x seen then go seen rest
      else if t = ty then x :: go (x :: seen) rest
      else go (x :: seen) rest
  in
  go [] env.scope

let all_tys = [ T_int; T_bool; T_list ]

let gen_leaf env ty =
  let open QCheck.Gen in
  let lit =
    match ty with
    | T_int -> map (fun n -> Ast.Int n) (int_range (-2) 9)
    | T_bool -> map (fun b -> Ast.Bool b) bool
    | T_list ->
      frequency
        [
          (1, return Ast.Nil);
          ( 2,
            map
              (fun ns ->
                List.fold_right (fun n l -> Ast.Prim (Ast.Cons, [ Ast.Int n; l ])) ns Ast.Nil)
              (list_size (int_range 1 3) small_nat) );
        ]
  in
  match visible env ty with
  | [] -> lit
  | xs -> frequency [ (1, lit); (2, map (fun x -> Ast.Var x) (oneofl xs)) ]

(* Eta-expanded on the random state: building every alternative's
   generator eagerly would build them for the whole tree. *)
let rec gen_expr env ty size : Ast.expr QCheck.Gen.t =
 fun rs ->
  let open QCheck.Gen in
  if size <= 0 then gen_leaf env ty rs
  else
    let sub = gen_expr env in
    let half = size / 2 in
    let prim p tys =
      map (fun args -> Ast.Prim (p, args)) (flatten_l (List.map (fun t -> sub t half) tys))
    in
    let typed =
      match ty with
      | T_int ->
        [
          (3, oneofl Ast.[ Add; Sub; Mul; Min; Max ] >>= fun p -> prim p [ T_int; T_int ]);
          (* small divisors, so division by zero comes up *)
          ( 1,
            oneofl Ast.[ Div; Mod ] >>= fun p ->
            map2 (fun a d -> Ast.Prim (p, [ a; Ast.Int d ])) (sub T_int half)
              (frequency [ (1, return 0); (4, int_range 1 3) ]) );
          (1, prim Ast.Neg [ T_int ]);
          (1, prim Ast.Head [ T_list ]);
        ]
      | T_bool ->
        [
          (2, oneofl Ast.[ Lt; Le; Gt; Ge ] >>= fun p -> prim p [ T_int; T_int ]);
          (1, oneofl Ast.[ Eq; Ne ] >>= fun p -> oneofl all_tys >>= fun t -> prim p [ t; t ]);
          (1, prim Ast.Not [ T_bool ]);
          (1, prim Ast.Is_nil [ T_list ]);
          (1, map2 (fun a b -> Ast.And (a, b)) (sub T_bool half) (sub T_bool half));
          (1, map2 (fun a b -> Ast.Or (a, b)) (sub T_bool half) (sub T_bool half));
        ]
      | T_list -> [ (3, prim Ast.Cons [ T_int; T_list ]); (2, prim Ast.Tail [ T_list ]) ]
    in
    let let_ =
      (* shadows parameters and earlier lets, possibly at another type *)
      oneofl [ "x"; "y"; "a"; "b" ] >>= fun x ->
      oneofl all_tys >>= fun t ->
      sub t half >>= fun bound ->
      gen_expr { env with scope = (x, t) :: env.scope } ty half >>= fun body ->
      return (Ast.Let (x, bound, body))
    in
    let if_ =
      map3 (fun c a b -> Ast.If (c, a, b)) (sub T_bool (size / 3)) (sub ty (size / 3))
        (sub ty (size / 3))
    in
    let calls =
      List.filter (fun f -> f.ret = ty) env.fns |> List.map (fun f -> (4, gen_call env f half))
    in
    let ill = if env.ill then [ (1, oneofl all_tys >>= fun t -> sub t (size - 1)) ] else [] in
    frequency ([ (2, gen_leaf env ty); (2, if_); (2, let_) ] @ typed @ calls @ ill) rs

and gen_call env f size =
  let counter = if f.fname = "z" then [] else [ Ast.Prim (Ast.Sub, [ Ast.Var "n"; Ast.Int 1 ]) ] in
  QCheck.Gen.map
    (fun extras -> Ast.Call (f.fname, counter @ extras))
    (QCheck.Gen.flatten_l (List.map (fun (_, t) -> gen_expr env t size) f.extras))

let gen_ty = QCheck.Gen.oneofl all_tys

let gen_value ty =
  let open QCheck.Gen in
  match ty with
  | T_int -> map (fun n -> Value.Int n) (int_range (-3) 9)
  | T_bool -> map (fun b -> Value.Bool b) bool
  | T_list -> map Value.of_int_list (list_size (int_bound 3) (int_range 0 9))

type case = { defs : Ast.def list; args : Value.t list }

let gen_case =
  let open QCheck.Gen in
  bool >>= fun ill ->
  int_range 1 3 >>= fun k ->
  let fn_of i =
    int_bound 4 >>= fun nextra ->
    flatten_l (List.init nextra (fun _ -> gen_ty)) >>= fun tys ->
    gen_ty >>= fun ret ->
    let names = [ "a"; "b"; "c"; "d" ] in
    return
      { fname = Printf.sprintf "f%d" i; extras = List.mapi (fun j t -> (List.nth names j, t)) tys; ret }
  in
  flatten_l (List.init k fn_of) >>= fun fs ->
  let z = { fname = "z"; extras = []; ret = T_int } in
  gen_expr { fns = []; scope = []; ill } T_int 4 >>= fun z_body ->
  let def_of f =
    let scope = ("n", T_int) :: f.extras in
    int_range 4 16 >>= fun size ->
    gen_expr { fns = [ z ]; scope; ill } f.ret size >>= fun base ->
    (* the recursive branch always makes at least one call *)
    let env = { fns = z :: fs; scope; ill } in
    oneofl env.fns >>= fun g ->
    gen_call env g (size / 2) >>= fun first ->
    oneofl [ "x"; "y"; "a" ] >>= fun x ->
    gen_expr { env with scope = (x, g.ret) :: scope } f.ret size >>= fun rest ->
    let recur = Ast.Let (x, first, rest) in
    return
      {
        Ast.name = f.fname;
        params = "n" :: List.map fst f.extras;
        body = Ast.If (Ast.Prim (Ast.Le, [ Ast.Var "n"; Ast.Int 0 ]), base, recur);
      }
  in
  flatten_l (List.map def_of fs) >>= fun defs ->
  let f0 = List.hd fs in
  frequency [ (1, return 0); (4, int_range 1 5) ] >>= fun n ->
  flatten_l
    (List.map
       (fun (_, t) -> if ill then gen_ty >>= gen_value else gen_value t)
       f0.extras)
  >>= fun extras ->
  return { defs = { Ast.name = "z"; params = []; body = z_body } :: defs; args = Value.Int n :: extras }

let print_case c =
  Printf.sprintf "%s\nf0(%s)"
    (String.concat "\n" (List.map Pretty.def_to_string c.defs))
    (String.concat ", " (List.map Value.to_string c.args))

let arb_case = QCheck.make ~print:print_case gen_case

let count = 500

(* ---------------- properties ---------------- *)

(* Moving a tick across an operand or an error check changes a run's
   outcome only when the fuel runs out at exactly that step, so both
   evaluators are also compared at every cut-off from 0 to [sweep]. *)
let sweep = 64

let agree_at_every_fuel oracle compiled =
  let rec go fuel =
    fuel > sweep
    ||
    let want = outcome (fun () -> oracle fuel) and got = outcome (fun () -> compiled fuel) in
    if same_eval want got then go (fuel + 1)
    else
      QCheck.Test.fail_reportf "fuel %d: oracle %s, compiled %s" fuel (show_eval want)
        (show_eval got)
  in
  go 0

(* Fan-out grows as a power of the depth counter; runs past this many
   reductions are compared at their fuel cut-off instead. *)
let budget = 20_000

let prop_programs =
  QCheck.Test.make ~count ~name:"compiled = tree-walker on random programs" arb_case (fun c ->
      let program = Program.of_defs_exn c.defs in
      let want = outcome (fun () -> Oracle.eval ~fuel:budget program "f0" c.args) in
      let got = outcome (fun () -> Eval_serial.eval ~fuel:budget program "f0" c.args) in
      if not (same_eval want got) then
        QCheck.Test.fail_reportf "eval: oracle %s, compiled %s" (show_eval want) (show_eval got);
      ignore
        (agree_at_every_fuel
           (fun fuel -> Oracle.eval ~fuel program "f0" c.args)
           (fun fuel -> Eval_serial.eval ~fuel program "f0" c.args));
      (* [call_count] runs on the default fuel: only where that is cheap *)
      (match want with
      | Error msg when String.starts_with ~prefix:"fuel" msg -> ()
      | _ ->
        let want = outcome (fun () -> Oracle.call_count program "f0" c.args) in
        let got = outcome (fun () -> Eval_serial.call_count program "f0" c.args) in
        if not (same_outcome Int.equal want got) then
          QCheck.Test.fail_reportf "call_count: oracle %s, compiled %s"
            (show_outcome string_of_int want) (show_outcome string_of_int got));
      true)

(* The inline cache against the evaluator it fronts: the same outcome on a
   first call, on a repeat (a hit exactly when the key and the result are
   scalar), and after two calls to another function have evicted the slot.
   The extra definition [evict] returns its scalar argument, so each of its
   calls is stored, and the second, with other arguments to the same slot,
   must not be answered by the first.  The random function itself is only
   called with its generated arguments: a larger depth counter can build a
   list whose shared structure is exponential to compare. *)
let evict_def = { Ast.name = "evict"; params = [ "k" ]; body = Ast.Var "k" }

(* The first argument array [| Int k |], k = 0, 1, ..., that [evict] maps
   to [slot], other than [avoid]. *)
let evict_key slot ~avoid =
  let rec go k =
    let a = [| Value.Int k |] in
    if Inline_cache.index "evict" a = slot && a <> avoid then a
    else if k > 1_000_000 then QCheck.Test.fail_reportf "no key maps to slot %d" slot
    else go (k + 1)
  in
  go 0

let prop_inline_cache =
  QCheck.Test.make ~count ~name:"inline cache = Eval_serial.run on random programs" arb_case
    (fun c ->
      let program = Program.of_defs_exn (evict_def :: c.defs) in
      let compiled = Eval_serial.compile program in
      let cache = Inline_cache.create ~fuel:budget program in
      let agree what fname args =
        let want = outcome (fun () -> Eval_serial.run ~fuel:budget compiled fname args) in
        let got = Inline_cache.call cache fname args in
        if not (same_eval want got) then
          QCheck.Test.fail_reportf "%s call: run %s, cached %s" what (show_eval want)
            (show_eval got);
        want
      in
      let args = Array.of_list c.args in
      let want = agree "first" "f0" args in
      ignore (agree "repeat" "f0" args);
      let slot = Inline_cache.index "f0" args in
      let storable =
        slot >= 0
        && match want with Ok ((Value.Int _ | Value.Bool _ | Value.Nil), _) -> true | _ -> false
      in
      if Inline_cache.hits cache <> Bool.to_int storable then
        QCheck.Test.fail_reportf "repeat: %d hits, storable %b" (Inline_cache.hits cache) storable;
      if slot >= 0 then begin
        let first = evict_key slot ~avoid:[||] in
        ignore (agree "evicting" "evict" first);
        ignore (agree "same slot, other arguments" "evict" (evict_key slot ~avoid:first));
        let hits = Inline_cache.hits cache in
        ignore (agree "evicted" "f0" args);
        if Inline_cache.hits cache <> hits then QCheck.Test.fail_reportf "hit after eviction"
      end;
      true)

(* Unchecked expressions for [eval_expr]: unbound variables, calls to an
   unknown function or with the wrong argument count, primitives with the
   wrong arity, and an initial environment that may bind a name twice. *)
let expr_program = Parser.parse_program_exn "def f(a, b) = a + b"

let gen_loose_expr =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z"; "w" ] in
  let leaf =
    oneof
      [
        map (fun n -> Ast.Int n) (int_range 0 3);
        map (fun b -> Ast.Bool b) bool;
        return Ast.Nil;
        map (fun v -> Ast.Var v) var;
      ]
  in
  let all_prims =
    Ast.
      [ Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; Not; Neg; Cons; Head; Tail; Is_nil; Min; Max ]
  in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            ( 4,
              oneofl all_prims >>= fun p ->
              frequency [ (4, return (Ast.prim_arity p)); (1, int_bound 3) ] >>= fun k ->
              map (fun args -> Ast.Prim (p, args)) (list_repeat k (self (n / 2))) );
            (2, map3 (fun c a b -> Ast.If (c, a, b)) (self (n / 3)) (self (n / 3)) (self (n / 3)));
            (1, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
            (2, map3 (fun v a b -> Ast.Let (v, a, b)) var (self (n / 2)) (self (n / 2)));
            ( 2,
              oneofl [ "f"; "g" ] >>= fun g ->
              int_bound 3 >>= fun k ->
              map (fun args -> Ast.Call (g, args)) (list_repeat k (self (n / 2))) );
          ])
    10

let gen_env =
  let open QCheck.Gen in
  list_size (int_bound 4)
    (pair
       (oneofl [ "x"; "y"; "z" ])
       (oneof
          [
            map (fun n -> Value.Int n) (int_range 0 3);
            return Value.Nil;
            map (fun b -> Value.Bool b) bool;
          ]))

let arb_expr_env =
  QCheck.make
    ~print:(fun (env, e) ->
      Printf.sprintf "[%s] |- %s"
        (String.concat "; " (List.map (fun (x, v) -> x ^ " = " ^ Value.to_string v) env))
        (Pretty.expr_to_string e))
    QCheck.Gen.(pair gen_env gen_loose_expr)

let prop_exprs =
  QCheck.Test.make ~count ~name:"compiled = tree-walker on unchecked expressions" arb_expr_env
    (fun (env, e) ->
      let want = outcome (fun () -> Oracle.eval_expr expr_program env e) in
      let got = outcome (fun () -> Eval_serial.eval_expr expr_program env e) in
      (same_eval want got
      || QCheck.Test.fail_reportf "oracle %s, compiled %s" (show_eval want) (show_eval got))
      && agree_at_every_fuel
           (fun fuel -> Oracle.eval_expr ~fuel expr_program env e)
           (fun fuel -> Eval_serial.eval_expr ~fuel expr_program env e))

let workloads_agree () =
  let module W = Recflow_workload.Workload in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (size, tag) ->
          let p = W.program w and args = w.W.args size in
          let v, s = Oracle.eval p w.W.entry args in
          let v', s' = Eval_serial.eval p w.W.entry args in
          let name = Printf.sprintf "%s/%s" w.W.name tag in
          Alcotest.(check bool) (name ^ " value") true (Value.equal v v');
          Alcotest.(check int) (name ^ " reductions") s s')
        [ (W.Tiny, "tiny"); (W.Small, "small") ])
    W.all

let suites =
  [
    ( "lang.eval-prop",
      [
        qtest prop_programs;
        qtest prop_exprs;
        qtest prop_inline_cache;
        Alcotest.test_case "workloads tiny+small" `Quick workloads_agree;
      ] );
  ]
