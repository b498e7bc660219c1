(* Tests for the applicative language: parser, validation, evaluators. *)

open Recflow_lang

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

let value = Alcotest.testable Value.pp Value.equal

let parse_expr_exn src =
  match Parser.parse_expr src with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse error: %s" (Parser.error_to_string e)

let eval_str ?(env = []) program src =
  let e = parse_expr_exn src in
  fst (Eval_serial.eval_expr program env e)

let empty_program = Program.of_defs_exn []

(* ---------------- Parser ---------------- *)

let parser_literals () =
  Alcotest.check value "int" (Value.Int 42) (eval_str empty_program "42");
  Alcotest.check value "true" (Value.Bool true) (eval_str empty_program "true");
  Alcotest.check value "nil" Value.Nil (eval_str empty_program "nil");
  Alcotest.check value "list sugar" (Value.of_int_list [ 1; 2; 3 ])
    (eval_str empty_program "[1; 2; 3]");
  Alcotest.check value "empty list" Value.Nil (eval_str empty_program "[]")

let parser_precedence () =
  let t src expected = Alcotest.check value src (Value.Int expected) (eval_str empty_program src) in
  t "1 + 2 * 3" 7;
  t "(1 + 2) * 3" 9;
  t "10 - 3 - 2" 5;  (* left assoc *)
  t "20 / 4 / 5" 1;
  t "17 % 5" 2;
  t "2 + 3 * 4 - 5" 9

let parser_bool_ops () =
  let t src expected =
    Alcotest.check value src (Value.Bool expected) (eval_str empty_program src)
  in
  t "true && false" false;
  t "true || false" true;
  t "1 < 2 && 2 < 3" true;
  t "not (1 == 2)" true;
  t "1 != 2" true;
  t "false && true || true" true  (* || binds loosest *)

let parser_cons_right_assoc () =
  Alcotest.check value "1 :: 2 :: nil" (Value.of_int_list [ 1; 2 ])
    (eval_str empty_program "1 :: 2 :: nil")

let parser_let_if () =
  Alcotest.check value "let" (Value.Int 6) (eval_str empty_program "let x = 2 in x * 3");
  Alcotest.check value "if" (Value.Int 1) (eval_str empty_program "if 2 > 1 then 1 else 0");
  Alcotest.check value "nested let" (Value.Int 9)
    (eval_str empty_program "let x = 2 in let y = x + 1 in x * y + x + 1")

let parser_builtin_calls () =
  Alcotest.check value "head" (Value.Int 1) (eval_str empty_program "head([1; 2])");
  Alcotest.check value "tail" (Value.of_int_list [ 2 ]) (eval_str empty_program "tail([1; 2])");
  Alcotest.check value "isnil" (Value.Bool true) (eval_str empty_program "isnil(nil)");
  Alcotest.check value "min" (Value.Int 2) (eval_str empty_program "min(5, 2)");
  Alcotest.check value "max" (Value.Int 5) (eval_str empty_program "max(5, 2)")

let parser_comments () =
  Alcotest.check value "comment skipped" (Value.Int 3)
    (eval_str empty_program "1 + # comment to end of line\n 2")

let parser_unary_minus () =
  Alcotest.check value "neg" (Value.Int (-5)) (eval_str empty_program "- 5");
  Alcotest.check value "sub vs neg" (Value.Int (-1)) (eval_str empty_program "2 - 3")

let expect_parse_error src pred =
  match Parser.parse_expr src with
  | Ok _ -> Alcotest.failf "expected parse error for %S" src
  | Error e -> check (Printf.sprintf "error position for %S" src) true (pred e)

let parser_errors () =
  expect_parse_error "1 +" (fun _ -> true);
  expect_parse_error "(1" (fun _ -> true);
  expect_parse_error "let x = in 1" (fun _ -> true);
  expect_parse_error "if 1 then 2" (fun _ -> true);
  expect_parse_error "head(1, 2)" (fun e ->
      let msg = Parser.error_to_string e in
      String.length msg > 0);
  expect_parse_error "1 2" (fun _ -> true);
  (* position reporting: error on line 2 *)
  expect_parse_error "1 +\n  @" (fun e -> e.Parser.line = 2)

let parser_defs () =
  match Parser.parse_defs "def f(x) = x + 1\ndef g() = f(2)" with
  | Ok [ f; g ] ->
    Alcotest.(check string) "f name" "f" f.Ast.name;
    Alcotest.(check (list string)) "f params" [ "x" ] f.Ast.params;
    Alcotest.(check (list string)) "g params" [] g.Ast.params
  | Ok _ -> Alcotest.fail "expected two defs"
  | Error e -> Alcotest.failf "parse error: %s" (Parser.error_to_string e)

(* ---------------- Program validation ---------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_program_error src fragment =
  match Parser.parse_program src with
  | Ok _ -> Alcotest.failf "expected validation error for %S" src
  | Error msg -> check (Printf.sprintf "%s in %s" fragment msg) true (contains msg fragment)

let validation_errors () =
  expect_program_error "def f(x) = x\ndef f(y) = y" "duplicate definition";
  expect_program_error "def f(x, x) = x" "duplicate parameter";
  expect_program_error "def f(x) = y" "unbound variable";
  expect_program_error "def f(x) = g(x)" "unknown function";
  expect_program_error "def f(x) = x\ndef g(y) = f(y, y)" "expects 1 arguments"

(* A child's stamp digit is its call site's number, one byte, so a
   function may hold at most 256 call sites: [f] below has [n]. *)
let call_sites_source n =
  "def g(x) = x\ndef f(x) = " ^ String.concat " + " (List.init n (fun _ -> "g(x)"))

let call_site_limit () =
  let defs n =
    match Parser.parse_defs (call_sites_source n) with
    | Ok defs -> defs
    | Error e -> Alcotest.failf "parse error: %s" (Parser.error_to_string e)
  in
  let message = "f: 257 call sites, more than the 256 a level-stamp digit can number" in
  (match Program.of_defs (defs 257) with
  | Ok _ -> Alcotest.fail "257 call sites accepted"
  | Error e -> Alcotest.(check string) "of_defs" message (Program.error_to_string e));
  (match Parser.parse_program (call_sites_source 257) with
  | Ok _ -> Alcotest.fail "257 call sites parsed"
  | Error msg -> Alcotest.(check string) "parser" message msg);
  check "256 call sites load" true (Result.is_ok (Program.of_defs (defs 256)));
  check "256 call sites parse" true (Result.is_ok (Parser.parse_program (call_sites_source 256)))

let validation_let_scoping () =
  (* let-bound names are visible in the body only *)
  expect_program_error "def f(x) = (let y = x in y) + y" "unbound variable";
  match Parser.parse_program "def f(x) = let y = x in y + x" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid program rejected: %s" msg

let program_accessors () =
  let p = Parser.parse_program_exn "def f(x) = x\ndef g(a, b) = a + b" in
  Alcotest.(check (list string)) "names" [ "f"; "g" ] (Program.names p);
  Alcotest.(check (option int)) "arity f" (Some 1) (Program.arity p "f");
  Alcotest.(check (option int)) "arity g" (Some 2) (Program.arity p "g");
  Alcotest.(check (option int)) "arity missing" None (Program.arity p "h")

let program_union () =
  let a = Parser.parse_program_exn "def f(x) = x" in
  let b = Parser.parse_program_exn "def g(x) = x" in
  (match Program.union a b with
  | Ok u -> Alcotest.(check (list string)) "union names" [ "f"; "g" ] (Program.names u)
  | Error _ -> Alcotest.fail "disjoint union failed");
  match Program.union a a with
  | Ok _ -> Alcotest.fail "overlapping union accepted"
  | Error (Program.Duplicate_definition "f") -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Program.error_to_string e)

(* ---------------- Ast helpers ---------------- *)

let ast_helpers () =
  let e = parse_expr_exn "let x = a + 1 in f(x, b)" in
  Alcotest.(check (list string)) "free vars" [ "a"; "b" ] (Ast.free_vars e);
  Alcotest.(check (list string)) "calls" [ "f" ] (Ast.calls e);
  check "size positive" true (Ast.size e > 4)

(* ---------------- Pretty round-trip ---------------- *)

let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let leaf =
    oneof
      [
        map (fun n -> Ast.Int n) (int_range 0 1000);
        map (fun b -> Ast.Bool b) bool;
        return Ast.Nil;
        map (fun v -> Ast.Var v) var;
      ]
  in
  let prim2 =
    oneofl Ast.[ Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; Cons; Min; Max ]
  in
  fix
    (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (3, map3 (fun p a b -> Ast.Prim (p, [ a; b ])) prim2 (self (n / 2)) (self (n / 2)));
            (1, map (fun a -> Ast.Prim (Ast.Not, [ a ])) (self (n - 1)));
            (1, map (fun a -> Ast.Prim (Ast.Neg, [ a ])) (self (n - 1)));
            (1, map (fun a -> Ast.Prim (Ast.Head, [ a ])) (self (n - 1)));
            (1, map (fun a -> Ast.Prim (Ast.Is_nil, [ a ])) (self (n - 1)));
            ( 2,
              map3 (fun c a b -> Ast.If (c, a, b)) (self (n / 3)) (self (n / 3)) (self (n / 3)) );
            (1, map2 (fun a b -> Ast.And (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map2 (fun a b -> Ast.Or (a, b)) (self (n / 2)) (self (n / 2)));
            ( 2,
              map3 (fun v a b -> Ast.Let (v, a, b)) var (self (n / 2)) (self (n / 2)) );
            ( 1,
              map2 (fun a b -> Ast.Call ("f", [ a; b ])) (self (n / 2)) (self (n / 2)) );
          ])
    8

let arbitrary_expr = QCheck.make ~print:Pretty.expr_to_string gen_expr

let pretty_round_trip =
  QCheck.Test.make ~name:"pretty-print then parse is identity" ~count:500 arbitrary_expr
    (fun e ->
      match Parser.parse_expr (Pretty.expr_to_string e) with
      | Ok e' -> Ast.equal_expr e e'
      | Error err ->
        QCheck.Test.fail_reportf "re-parse failed: %s on %s" (Parser.error_to_string err)
          (Pretty.expr_to_string e))

let pretty_def () =
  let d = { Ast.name = "f"; params = [ "x"; "y" ]; body = parse_expr_exn "x + y" } in
  match Parser.parse_defs (Pretty.def_to_string d) with
  | Ok [ d' ] -> check "def round trip" true (Ast.equal_expr d.Ast.body d'.Ast.body)
  | _ -> Alcotest.fail "def round trip failed"

let workload_pretty_round_trip () =
  (* every shipped program survives pretty -> parse unchanged *)
  List.iter
    (fun (w : Recflow_workload.Workload.t) ->
      List.iter
        (fun (d : Ast.def) ->
          match Parser.parse_defs (Pretty.def_to_string d) with
          | Ok [ d' ] ->
            check
              (Printf.sprintf "%s.%s" w.Recflow_workload.Workload.name d.Ast.name)
              true
              (Ast.equal_expr d.Ast.body d'.Ast.body && d.Ast.params = d'.Ast.params)
          | _ -> Alcotest.failf "%s.%s did not round-trip" w.Recflow_workload.Workload.name d.Ast.name)
        (Program.defs (Recflow_workload.Workload.program w)))
    Recflow_workload.Workload.all

(* ---------------- Deep expressions ---------------- *)

(* The AST walks, the cons chain in the parser and the pretty-printer's
   spine flattening are all iterative; a 200k-deep right-nested chain
   must survive every one of them without touching the OCaml stack. *)
let deep_expression_regression () =
  let n = 200_000 in
  let buf = Buffer.create (n * 8) in
  for i = 1 to n do
    Buffer.add_string buf (string_of_int i);
    Buffer.add_string buf " :: "
  done;
  Buffer.add_string buf "nil";
  let e = parse_expr_exn (Buffer.contents buf) in
  check_int "size" ((2 * n) + 1) (Ast.size e);
  check "no free vars" true (Ast.free_vars e = []);
  check "no calls" true (Ast.calls e = []);
  let e' = parse_expr_exn (Pretty.expr_to_string e) in
  check "pretty/parse round trip" true (Ast.equal_expr e e');
  (* list-literal sugar desugars to the same deep chain *)
  let lit = "[" ^ String.concat "; " (List.init n (fun i -> string_of_int (i + 1))) ^ "]" in
  let el = parse_expr_exn lit in
  check "literal equals cons chain" true (Ast.equal_expr el e)

(* ---------------- Value ---------------- *)

let value_roundtrip () =
  Alcotest.(check (option (list int))) "int list" (Some [ 1; 2; 3 ])
    (Value.to_int_list (Value.of_int_list [ 1; 2; 3 ]));
  Alcotest.(check (option int)) "length" (Some 3)
    (Value.list_length (Value.of_int_list [ 1; 2; 3 ]));
  Alcotest.(check (option int)) "improper list" None
    (Value.list_length (Value.Cons (Value.Int 1, Value.Int 2)))

let value_render () =
  Alcotest.(check string) "list" "[1; 2]" (Value.to_string (Value.of_int_list [ 1; 2 ]));
  Alcotest.(check string) "pair" "(1 :: 2)"
    (Value.to_string (Value.Cons (Value.Int 1, Value.Int 2)));
  Alcotest.(check string) "nil" "[]" (Value.to_string Value.Nil)

let value_compare_total () =
  let vs = [ Value.Int 1; Value.Bool true; Value.Nil; Value.Cons (Value.Int 1, Value.Nil) ] in
  List.iter
    (fun a -> List.iter (fun b -> check "antisym" true (Value.compare a b = -Value.compare b a)) vs)
    vs

(* ---------------- Serial evaluator ---------------- *)

let fib_program =
  Parser.parse_program_exn "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)"

let eval_fib () =
  let v, steps = Eval_serial.eval fib_program "fib" [ Value.Int 10 ] in
  Alcotest.check value "fib 10" (Value.Int 55) v;
  check "steps counted" true (steps > 100);
  check_int "call tree size" 177 (Eval_serial.call_count fib_program "fib" [ Value.Int 10 ])

let eval_short_circuit () =
  (* the right operand would divide by zero; && must not evaluate it *)
  let p = Parser.parse_program_exn "def f(x) = if x > 0 && 10 / x > 1 then 1 else 0" in
  Alcotest.check value "short circuit" (Value.Int 0) (fst (Eval_serial.eval p "f" [ Value.Int 0 ]))

let eval_runtime_errors () =
  let expect_error fname args =
    match Eval_serial.eval fib_program fname args with
    | exception Eval_serial.Runtime_error _ -> ()
    | exception Not_found -> ()
    | _ -> Alcotest.fail "expected a runtime error"
  in
  expect_error "nope" [];
  let p = Parser.parse_program_exn "def f(x) = 1 / x\ndef g(x) = head(x)" in
  (match Eval_serial.eval p "f" [ Value.Int 0 ] with
  | exception Eval_serial.Runtime_error msg -> check "div msg" true (contains msg "division")
  | _ -> Alcotest.fail "div by zero undetected");
  match Eval_serial.eval p "g" [ Value.Nil ] with
  | exception Eval_serial.Runtime_error msg -> check "head msg" true (contains msg "head")
  | _ -> Alcotest.fail "head nil undetected"

let eval_fuel () =
  let p = Parser.parse_program_exn "def loop(x) = loop(x + 1)" in
  match Eval_serial.eval ~fuel:1000 p "loop" [ Value.Int 0 ] with
  | exception Eval_serial.Runtime_error msg -> check "fuel msg" true (contains msg "fuel")
  | _ -> Alcotest.fail "fuel not enforced"

let eval_fuel_boundary () =
  let _, steps = Eval_serial.eval fib_program "fib" [ Value.Int 10 ] in
  let v, steps' = Eval_serial.eval ~fuel:steps fib_program "fib" [ Value.Int 10 ] in
  Alcotest.check value "fuel = steps succeeds" (Value.Int 55) v;
  check_int "same reductions" steps steps';
  match Eval_serial.eval ~fuel:(steps - 1) fib_program "fib" [ Value.Int 10 ] with
  | exception Eval_serial.Runtime_error msg ->
    check "fuel = steps - 1 exhausts" true (contains msg "fuel exhausted")
  | _ -> Alcotest.fail "ran past its fuel"

(* ---------------- inline result cache ---------------- *)

let cache_program =
  Parser.parse_program_exn
    "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)\n\
     def f(x) = 1 / x\n\
     def loop(x) = loop(x + 1)\n\
     def len(l) = if isnil(l) then 0 else 1 + len(tail(l))\n\
     def single(n) = n :: nil"

let tallies cache = (Inline_cache.hits cache, Inline_cache.misses cache)

let tally = Alcotest.(pair int int)

let expect_same what want got =
  match (want, got) with
  | Ok (v, s), Ok (v', s') ->
    Alcotest.check value (what ^ " value") v v';
    check_int (what ^ " reductions") s s'
  | Error m, Error m' -> Alcotest.(check string) (what ^ " error") m m'
  | _ -> Alcotest.failf "%s: success and error disagree" what

let serial ?fuel fname args =
  match Eval_serial.eval ?fuel cache_program fname args with
  | r -> Ok r
  | exception Eval_serial.Runtime_error msg -> Error msg

let inline_cache_hit () =
  let cache = Inline_cache.create cache_program in
  let args = [| Value.Int 12 |] in
  let first = Inline_cache.call cache "fib" args in
  expect_same "first" (serial "fib" [ Value.Int 12 ]) first;
  let again = Inline_cache.call cache "fib" [| Value.Int 12 |] in
  check "hit returns the stored block" true (first == again);
  Alcotest.check tally "one miss, one hit" (1, 1) (tallies cache);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Inline_cache.call cache "fib" args)
  done;
  let words = Gc.minor_words () -. before in
  check (Printf.sprintf "hits allocate nothing (%.0f words)" words) true (words < 100.0)

(* Errors are re-run every time and keep their text. *)
let inline_cache_errors () =
  let cache = Inline_cache.create ~fuel:1000 cache_program in
  let twice what fname args =
    let want = serial ~fuel:1000 fname (Array.to_list args) in
    (match want with Error _ -> () | Ok _ -> Alcotest.failf "%s: expected an error" what);
    expect_same (what ^ " first") want (Inline_cache.call cache fname args);
    expect_same (what ^ " repeat") want (Inline_cache.call cache fname args)
  in
  twice "division by zero" "f" [| Value.Int 0 |];
  twice "fuel exhaustion" "loop" [| Value.Int 0 |];
  twice "wrong arity" "f" [| Value.Int 1; Value.Int 2 |];
  Alcotest.check tally "never cached" (0, 6) (tallies cache);
  match Inline_cache.call cache "nope" [||] with
  | Error msg -> Alcotest.(check string) "unknown" "call to unknown function nope" msg
  | Ok _ -> Alcotest.fail "unknown function answered"

(* A list argument or a list result never enters the table. *)
let inline_cache_lists () =
  let cache = Inline_cache.create cache_program in
  let l = Value.of_int_list [ 1; 2; 3 ] in
  check_int "cons key has no slot" (-1) (Inline_cache.index "len" [| l |]);
  for _ = 1 to 2 do
    expect_same "len" (serial "len" [ l ]) (Inline_cache.call cache "len" [| l |]);
    expect_same "single" (serial "single" [ Value.Int 4 ])
      (Inline_cache.call cache "single" [| Value.Int 4 |]);
    expect_same "nil key" (serial "len" [ Value.Nil ])
      (Inline_cache.call cache "len" [| Value.Nil |])
  done;
  Alcotest.check tally "only the scalar call hits" (1, 5) (tallies cache)

let eval_expr_first_binding_wins () =
  let env = [ ("x", Value.Int 1); ("x", Value.Int 2) ] in
  Alcotest.check value "first binding" (Value.Int 1) (eval_str ~env empty_program "x");
  Alcotest.check value "let shadows it" (Value.Int 7) (eval_str ~env empty_program "let x = 7 in x");
  Alcotest.check value "and scopes back out" (Value.Int 8)
    (eval_str ~env empty_program "(let x = 7 in x) + x")

let eval_type_error_if () =
  let p = Parser.parse_program_exn "def f(x) = if x then 1 else 0" in
  match Eval_serial.eval p "f" [ Value.Int 3 ] with
  | exception Eval_serial.Runtime_error msg -> check "if cond msg" true (contains msg "boolean")
  | _ -> Alcotest.fail "non-bool condition accepted"

(* ---------------- Graph + Instance ---------------- *)

(* Synchronous driver: evaluate spawns depth-first, exactly like the
   serial evaluator would. *)
let rec run_sync lib fname args =
  let inst = Instance.create (Graph.find_exn lib fname) args in
  let rec loop () =
    match Instance.step inst with
    | Instance.Work _ -> loop ()
    | Instance.Spawn { slot; fname; args } ->
      Instance.supply inst slot (run_sync lib fname args);
      loop ()
    | Instance.Finished v -> v
    | Instance.Blocked -> Alcotest.fail "blocked under synchronous driver"
    | Instance.Failed msg -> Alcotest.failf "instance failed: %s" msg
  in
  loop ()

let graph_matches_serial () =
  List.iter
    (fun w ->
      let module W = Recflow_workload.Workload in
      let p = W.program w in
      let lib = Graph.compile_program p in
      let args = Array.of_list (w.W.args W.Tiny) in
      let expected = W.expected w W.Tiny in
      Alcotest.check value (w.W.name ^ " graph = serial") expected (run_sync lib w.W.entry args))
    Recflow_workload.Workload.all

let graph_counts () =
  let lib = Graph.compile_program fib_program in
  let g = Graph.find_exn lib "fib" in
  check_int "two call sites" 2 (Graph.call_sites g);
  check "node count sane" true (Graph.node_count g > 5)

let graph_sharing () =
  (* let x = f(1) in x + x must spawn f once *)
  let p = Parser.parse_program_exn "def f(n) = n + 1\ndef g(u) = let x = f(u) in x + x" in
  let lib = Graph.compile_program p in
  let inst = Instance.create (Graph.find_exn lib "g") [| Value.Int 1 |] in
  let spawns = ref 0 in
  let rec loop () =
    match Instance.step inst with
    | Instance.Work _ -> loop ()
    | Instance.Spawn { slot; _ } ->
      incr spawns;
      Instance.supply inst slot (Value.Int 2);
      loop ()
    | Instance.Finished v ->
      Alcotest.check value "g result" (Value.Int 4) v
    | Instance.Blocked | Instance.Failed _ -> Alcotest.fail "unexpected state"
  in
  loop ();
  check_int "f spawned once (shared let)" 1 !spawns

let graph_demand_driven () =
  (* the call in the untaken branch must never be demanded *)
  let p =
    Parser.parse_program_exn "def f(n) = n\ndef g(c) = if c > 0 then 1 else f(c)"
  in
  let lib = Graph.compile_program p in
  let inst = Instance.create (Graph.find_exn lib "g") [| Value.Int 5 |] in
  let rec loop () =
    match Instance.step inst with
    | Instance.Work _ -> loop ()
    | Instance.Spawn _ -> Alcotest.fail "untaken branch was demanded"
    | Instance.Finished v -> Alcotest.check value "g" (Value.Int 1) v
    | Instance.Blocked | Instance.Failed _ -> Alcotest.fail "unexpected state"
  in
  loop ()

let instance_blocked_then_supply () =
  let lib = Graph.compile_program fib_program in
  let inst = Instance.create (Graph.find_exn lib "fib") [| Value.Int 5 |] in
  (* run until both recursive calls are outstanding *)
  let slots = ref [] in
  let rec pump () =
    match Instance.step inst with
    | Instance.Work _ -> pump ()
    | Instance.Spawn { slot; _ } ->
      slots := slot :: !slots;
      pump ()
    | Instance.Blocked -> ()
    | Instance.Finished _ | Instance.Failed _ -> Alcotest.fail "finished too early"
  in
  pump ();
  check_int "two outstanding" 2 (Instance.outstanding_calls inst);
  Alcotest.(check (list int)) "slots tracked" (List.sort compare !slots)
    (List.sort compare (Instance.outstanding_slots inst));
  List.iteri (fun i slot -> Instance.supply inst slot (Value.Int (i + 1))) !slots;
  let rec finish () =
    match Instance.step inst with
    | Instance.Work _ -> finish ()
    | Instance.Finished v -> Alcotest.check value "sum of supplies" (Value.Int 3) v
    | Instance.Spawn _ | Instance.Blocked | Instance.Failed _ -> Alcotest.fail "unexpected"
  in
  finish ()

let instance_duplicate_supply_ignored () =
  let lib = Graph.compile_program fib_program in
  let inst = Instance.create (Graph.find_exn lib "fib") [| Value.Int 2 |] in
  let rec pump () =
    match Instance.step inst with
    | Instance.Work _ -> pump ()
    | Instance.Spawn { slot; _ } ->
      Instance.supply inst slot (Value.Int 1);
      (* the duplicate must be absorbed silently (§4.1 cases 6-7) *)
      Instance.supply inst slot (Value.Int 1);
      pump ()
    | Instance.Finished v -> Alcotest.check value "fib 2" (Value.Int 2) v
    | Instance.Blocked | Instance.Failed _ -> Alcotest.fail "unexpected"
  in
  pump ()

let instance_invalid_supply () =
  let lib = Graph.compile_program fib_program in
  let g = Graph.find_exn lib "fib" in
  let inst = Instance.create g [| Value.Int 5 |] in
  (* some node is demanded-but-pending (e.g. the comparison waiting to
     fire); supplying it must be rejected *)
  let raises = ref false in
  for slot = 0 to Graph.node_count g - 1 do
    try Instance.supply inst slot (Value.Int 1)
    with Invalid_argument _ -> raises := true
  done;
  check "supplying a non-call slot raises" true !raises

let instance_arity_check () =
  let lib = Graph.compile_program fib_program in
  check "arity mismatch raises" true
    (try
       ignore (Instance.create (Graph.find_exn lib "fib") [||]);
       false
     with Invalid_argument _ -> true)

let instance_program_error () =
  let p = Parser.parse_program_exn "def f(x) = 1 / x" in
  let lib = Graph.compile_program p in
  let inst = Instance.create (Graph.find_exn lib "f") [| Value.Int 0 |] in
  let rec pump () =
    match Instance.step inst with
    | Instance.Work _ -> pump ()
    | Instance.Failed msg -> check "division reported" true (contains msg "division")
    | Instance.Finished _ | Instance.Spawn _ | Instance.Blocked ->
      Alcotest.fail "expected failure"
  in
  pump ()

let instances_agree_with_serial =
  QCheck.Test.make ~name:"graph evaluator agrees with serial evaluator on fib" ~count:30
    QCheck.(int_range 0 15)
    (fun n ->
      let lib = Graph.compile_program fib_program in
      let expected = fst (Eval_serial.eval fib_program "fib" [ Value.Int n ]) in
      Value.equal (run_sync lib "fib" [| Value.Int n |]) expected)

(* Only a non-leaf node with two or more static uses, repeats counted,
   gets waiter slots; leaves get no state at all. *)
let graph_waiter_slots () =
  let p =
    Parser.parse_program_exn
      "def f(n) = n + 1\ndef g(u) = let x = f(u) in x + x\ndef h(u) = f(u + 1) * 2"
  in
  let lib = Graph.compile_program p in
  let g = Graph.find_exn lib "g" in
  (* n0 param u <- n1 call f <- n2 add, twice *)
  check_int "offsets cover every node" (Graph.node_count g) (Array.length g.Graph.woff);
  check_int "non-leaf nodes" 2 (Graph.inner_nodes g);
  check_int "x + x gets two slots, the leaf u none" 2 (Graph.waiter_slots g);
  check_int "a leaf has no state" (-1) g.Graph.woff.(0);
  check_int "x: index 0, slots after the 2 node words"
    (Graph.slots_flag lor (2 lsl Graph.place_shift))
    g.Graph.woff.(1);
  check_int "the result: index 1, no user" 1 g.Graph.woff.(2);
  (* n0 param u, n1 const 1 <- n2 add <- n3 call f <- n5 mul -> n4 const 2 *)
  let h = Graph.find_exn lib "h" in
  check_int "h non-leaf nodes" 3 (Graph.inner_nodes h);
  check_int "single uses get no slots" 0 (Graph.waiter_slots h);
  check_int "u + 1: index 0, names its user, the call" (3 lsl Graph.place_shift) h.Graph.woff.(2);
  check_int "the call: index 1, names its user, the product" (1 lor (5 lsl Graph.place_shift))
    h.Graph.woff.(3)

(* Templates whose counts overflow a packed field, or whose nodes are out
   of order, are refused rather than wrapped. *)
let graph_packing_guard () =
  let rejects what ~fname ~arity nodes ~result =
    match Graph.make ~fname ~arity nodes ~result with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
      check (what ^ ": message names the template") true (contains msg fname)
  in
  let limit = Graph.max_packed in
  let zero = Graph.Const (Value.Int 0) in
  rejects "too many nodes" ~fname:"wide" ~arity:0 (Array.make (limit + 1) zero) ~result:0;
  let half = Array.make ((limit / 2) + 1) 0 in
  rejects "in-degree over the limit" ~fname:"fanin" ~arity:0
    [| zero; Graph.Call { fname = "f"; args = half }; Graph.Call { fname = "f"; args = half } |]
    ~result:2;
  rejects "operands over the limit" ~fname:"long" ~arity:0
    [| zero; Graph.Call { fname = "f"; args = Array.make (limit + 1) 0 } |]
    ~result:1;
  rejects "use before definition" ~fname:"order" ~arity:0
    [| Graph.Prim (Ast.Add, [| 1; 1 |]); zero |]
    ~result:0;
  rejects "parameter out of range" ~fname:"param" ~arity:1 [| Graph.Param 1 |] ~result:0;
  let g = Graph.make ~fname:"ok" ~arity:0 [| zero; Graph.Prim (Ast.Add, [| 0; 0 |]) |] ~result:1 in
  check_int "a repeated leaf gets no slots" 0 (Graph.waiter_slots g);
  let g =
    Graph.make ~fname:"ok" ~arity:0
      [| zero; Graph.Prim (Ast.Neg, [| 0 |]); Graph.Prim (Ast.Add, [| 1; 1 |]) |]
      ~result:2
  in
  check_int "a repeated operand gets two slots" 2 (Graph.waiter_slots g)

(* ---------------- Action-trace goldens ---------------- *)

(* Two deterministic drivers run each workload's entry through
   [Instance] alone, without the machine, and append one line per action
   of every instance they create to a buffer; the MD5 of that text pins the
   evaluator's exact action order (waiters notified newest-registered
   first, FIFO ready queue, depth-first demand).  Regenerate only after an
   intentional change to that order:

     RECFLOW_GOLDEN=print dune exec test/test_main.exe -- test lang.trace *)

let record_action buf = function
  | Instance.Work { cost } -> Printf.bprintf buf "W%d\n" cost
  | Instance.Spawn { slot; fname; args } ->
    Printf.bprintf buf "S%d %s(%s)\n" slot fname
      (String.concat "," (Array.to_list (Array.map Value.to_string args)))
  | Instance.Blocked -> Buffer.add_string buf "B\n"
  | Instance.Finished v -> Printf.bprintf buf "F%s\n" (Value.to_string v)
  | Instance.Failed msg -> Printf.bprintf buf "X%s\n" msg

exception Trace_failed

(* [drive ~deferred ~observe lib fname args] runs one activation and
   returns its value, passing every action of an instance to what
   [observe] returned for that instance's template.  Synchronous: every
   spawn is evaluated (recursively, by [drive]) and supplied at once,
   depth first.  Deferred: spawns only queue up, and each [Blocked] answers
   the most recently spawned outstanding call.  A [Failed] action ends the
   whole run. *)
let rec drive ~deferred ~observe lib fname args =
  let g = Graph.find_exn lib fname in
  let inst = Instance.create g args in
  let record = observe g in
  let calls = ref [] in
  let answer (slot, fname, args) =
    Instance.supply inst slot (drive ~deferred ~observe lib fname args)
  in
  let rec loop () =
    let a = Instance.step inst in
    record a;
    match a with
    | Instance.Work _ -> loop ()
    | Instance.Spawn { slot; fname; args } ->
      if deferred then calls := (slot, fname, args) :: !calls else answer (slot, fname, args);
      loop ()
    | Instance.Blocked -> (
      match !calls with
      | c :: rest ->
        calls := rest;
        answer c;
        loop ()
      | [] -> Alcotest.fail "blocked with nothing outstanding")
    | Instance.Finished v -> v
    | Instance.Failed _ -> raise Trace_failed
  in
  loop ()

(* Hand-written edge cases: a let-bound call used twice by one node
   ([x * x] registers two waiters), [&&] whose condition is also its
   branch, a program error after a spawn, and a non-boolean condition
   that only shows once a call returns. *)
let trace_edges =
  Parser.parse_program_exn
    "def f(n) = n + 1\n\
     def g(u) = let x = f(u) in let y = f(x) in if x > 0 && x < 100 then x * x + y else f(y)\n\
     def h(u) = let z = f(u) in z / (u - u) + f(z)\n\
     def k(u) = if f(u) then 1 else 2\n\
     def m(u) = let b = f(u) > 2 in if b && b then f(f(u)) + f(u) else 0"

(* (name, library, entry, args, expected answer; [None] for a run that must fail) *)
let trace_cases =
  let module W = Recflow_workload.Workload in
  List.map
    (fun w ->
      ( w.W.name,
        Graph.compile_program (W.program w),
        w.W.entry,
        Array.of_list (w.W.args W.Small),
        Some (W.expected w W.Small) ))
    W.(all @ [ synthetic ~branching:3 ~depth:4 ~grain:3 ])
  @ List.map
      (fun (entry, arg, expected) ->
        ("edge " ^ entry, Graph.compile_program trace_edges, entry, [| Value.Int arg |], expected))
      [
        ("g", 3, Some (Value.Int 21));
        ("h", 2, None);
        ("k", 0, None);
        ("m", 4, Some (Value.Int 11));
      ]

(* (case, synchronous digest, deferred digest); workloads at size Small. *)
let trace_goldens =
  [
    ("fib", "b4503d38f1f4b94e8f9fc184484ac695", "3d335f2845dfba47f4d7abe42cc3becd");
    ("tree_sum", "0b96ef21dfed71f8b92d85f0a5f4cc08", "e771230def55350eb293ac0de05e668d");
    ("nqueens", "d130a1313c1efb4988fde4ed7f7690e8", "fd9400fd6503a4590b5af3466d8048e5");
    ("quicksort", "e814ad6cad243408f3175acca083caef", "4040e5243ef4e6c8dc2613389c2829c9");
    ("mergesort", "db24ce3e7c08b394f84fa2ff203df84c", "f20208891253d7f373ee9d5ce17ff001");
    ("map_reduce", "6ad5c18c449b7ceb52ebf5c1548b9ad8", "de50b65dc68d3a75c5338d9120f567a1");
    ("tak", "71052cabf79a82f88f2616db92567fe4", "e4d8e24aacab8f8d6b8ab237508233b1");
    ("synthetic_b3_d4_g3", "1c58ae997f255c9f7151854b995ea701", "e1340ca4ead348f80b1f528392fa5d50");
    ("edge g", "1cf1de6c19254e7d96d2d5e8d1f898c9", "73d2feab3545787c65e7f8007758c0d9");
    ("edge h", "15f89c9159f1d60d1d2c5b8360cd097f", "68138801e6c11a4334acb8957261274a");
    ("edge k", "47e9a0e6402c3cbc0541630da5ea4602", "71c14a8a2c1416e59a2bd9b93d22825b");
    ("edge m", "9b49ba6193c626ec25cbcf26c9b4c37a", "2c35c788c05536ecd90e021d9d6b1acc");
  ]

let action_trace_goldens () =
  List.iter
    (fun (name, lib, entry, args, expected) ->
      let digest deferred =
        let buf = Buffer.create 4096 in
        (match drive ~deferred ~observe:(fun _ -> record_action buf) lib entry args with
        | v -> Alcotest.(check (option value)) (name ^ " answer") expected (Some v)
        | exception Trace_failed ->
          Alcotest.(check (option value)) (name ^ " fails") expected None);
        Digest.to_hex (Digest.string (Buffer.contents buf))
      in
      let sync = digest false and deferred = digest true in
      if Sys.getenv_opt "RECFLOW_GOLDEN" = Some "print" then
        Printf.printf "    (%S, %S, %S);\n%!" name sync deferred
      else
        match List.find_opt (fun (n, _, _) -> n = name) trace_goldens with
        | None -> Alcotest.failf "no action-trace golden for %s" name
        | Some (_, s, d) ->
          Alcotest.(check string) (name ^ " synchronous trace") s sync;
          Alcotest.(check string) (name ^ " deferred trace") d deferred)
    trace_cases

(* ---------------- Call-site digits vs spawn order ---------------- *)

(* Where no spawn waits on which sibling answers first, an activation's
   k-th spawn carries digit k under both answering orders of [drive]: the
   digits the machine used to draw from a per-activation spawn counter.  Where it does (the
   list sorts), digits still never repeat within an activation. *)
let digits_follow_spawn_order () =
  let module W = Recflow_workload.Workload in
  List.iter
    (fun (w, counter_order) ->
      let lib = Graph.compile_program (W.program w) in
      List.iter
        (fun deferred ->
          (* per instance: its function and its spawns' digits, newest first *)
          let acc = ref [] in
          let observe g =
            let mine = ref [] in
            acc := (g.Graph.fname, mine) :: !acc;
            function Instance.Spawn { slot; _ } -> mine := Graph.digit g slot :: !mine | _ -> ()
          in
          ignore (drive ~deferred ~observe lib w.W.entry (Array.of_list (w.W.args W.Small)));
          List.iter
            (fun (fname, mine) ->
              let digits = List.rev !mine in
              let tag = Printf.sprintf "%s %s (%s)" w.W.name fname
                  (if deferred then "deferred" else "synchronous") in
              if counter_order then
                Alcotest.(check (list int)) tag (List.init (List.length digits) Fun.id) digits
              else
                check (tag ^ " distinct") true
                  (List.length (List.sort_uniq compare digits) = List.length digits))
            !acc)
        [ false; true ])
    W.
      [
        (fib, true); (tree_sum, true); (nqueens, true); (map_reduce, true); (tak, true);
        (synthetic ~branching:3 ~depth:4 ~grain:3, true); (quicksort, false); (mergesort, false);
      ]

(* ---------------- Instance size and allocation gate ---------------- *)

(* A [synth] activation of the X8 tree shape (branching 2), stepped until
   it blocks on its two spawned children: the state every interior task of
   a tree run holds while it waits. *)
let synth_template () =
  let w = Recflow_workload.Workload.synthetic ~branching:2 ~depth:15 ~grain:20 in
  ( Graph.find_exn (Graph.compile_program (Recflow_workload.Workload.program w)) "synth",
    [| Value.Int 5; Value.Int 20 |] )

(* Steps until the first [Blocked]; allocates nothing itself. *)
let rec steps_to_block inst n =
  match Instance.step inst with
  | Instance.Blocked -> n + 1
  | Instance.Work _ | Instance.Spawn _ -> steps_to_block inst (n + 1)
  | Instance.Finished _ | Instance.Failed _ -> Alcotest.fail "synth did not block"

(* Live words of a blocked synth instance beyond its shared template and
   parameters.  Measured: 99 with per-node variant states, waiter lists
   and a Stdlib queue; 72 with packed node words; 33 once leaves and
   single-use nodes keep no words: the 9-word record, a node word and a
   value slot for each of the 8 non-leaf nodes (two 9-word arrays), and
   the values those slots point at (the two [d - 1] results and the
   shared [false], 2 words each).  The bound leaves about 10% over the
   last figure. *)
let instance_size_gate () =
  let g, params = synth_template () in
  let inst = Instance.create g params in
  ignore (steps_to_block inst 0);
  let own =
    Obj.reachable_words (Obj.repr inst) - Obj.reachable_words (Obj.repr g)
    - Obj.reachable_words (Obj.repr params)
  in
  if own > 36 then Alcotest.failf "blocked synth instance holds %d words (bound 36)" own

(* Minor words allocated per [Instance.step] while 1000 synth instances
   run to their first [Blocked] (6 steps each).  What is left is what the
   actions must carry: two boxed [d - 1] results and two [Spawn]s with
   their argument arrays, 18 words over 6 steps.  Measured: 39.2 words per
   step with per-node variant states; 3.0 with packed node words.  The
   bound leaves one word per step of slack. *)
let instance_alloc_gate () =
  let g, params = synth_template () in
  let insts = Array.init 1000 (fun _ -> Instance.create g params) in
  let steps = ref 0 in
  let before = Gc.minor_words () in
  Array.iter (fun inst -> steps := steps_to_block inst !steps) insts;
  let per_step = (Gc.minor_words () -. before) /. float !steps in
  if per_step > 4.0 then
    Alcotest.failf "%.2f minor words per step over %d steps (bound 4.0)" per_step !steps

let suites =
  [
    ( "lang.parser",
      [
        Alcotest.test_case "literals" `Quick parser_literals;
        Alcotest.test_case "precedence" `Quick parser_precedence;
        Alcotest.test_case "bool ops" `Quick parser_bool_ops;
        Alcotest.test_case "cons assoc" `Quick parser_cons_right_assoc;
        Alcotest.test_case "let/if" `Quick parser_let_if;
        Alcotest.test_case "builtin calls" `Quick parser_builtin_calls;
        Alcotest.test_case "comments" `Quick parser_comments;
        Alcotest.test_case "unary minus" `Quick parser_unary_minus;
        Alcotest.test_case "errors" `Quick parser_errors;
        Alcotest.test_case "defs" `Quick parser_defs;
      ] );
    ( "lang.program",
      [
        Alcotest.test_case "validation errors" `Quick validation_errors;
        Alcotest.test_case "let scoping" `Quick validation_let_scoping;
        Alcotest.test_case "call-site limit" `Quick call_site_limit;
        Alcotest.test_case "accessors" `Quick program_accessors;
        Alcotest.test_case "union" `Quick program_union;
        Alcotest.test_case "ast helpers" `Quick ast_helpers;
      ] );
    ( "lang.pretty",
      [
        qtest pretty_round_trip;
        Alcotest.test_case "def round trip" `Quick pretty_def;
        Alcotest.test_case "workload round trip" `Quick workload_pretty_round_trip;
        Alcotest.test_case "deep expressions" `Quick deep_expression_regression;
      ] );
    ( "lang.value",
      [
        Alcotest.test_case "roundtrip" `Quick value_roundtrip;
        Alcotest.test_case "render" `Quick value_render;
        Alcotest.test_case "compare total" `Quick value_compare_total;
      ] );
    ( "lang.eval",
      [
        Alcotest.test_case "fib" `Quick eval_fib;
        Alcotest.test_case "short circuit" `Quick eval_short_circuit;
        Alcotest.test_case "runtime errors" `Quick eval_runtime_errors;
        Alcotest.test_case "fuel" `Quick eval_fuel;
        Alcotest.test_case "fuel boundary" `Quick eval_fuel_boundary;
        Alcotest.test_case "first binding wins" `Quick eval_expr_first_binding_wins;
        Alcotest.test_case "if type error" `Quick eval_type_error_if;
      ] );
    ( "lang.inline-cache",
      [
        Alcotest.test_case "hit" `Quick inline_cache_hit;
        Alcotest.test_case "errors never cached" `Quick inline_cache_errors;
        Alcotest.test_case "lists bypass" `Quick inline_cache_lists;
      ] );
    ( "lang.graph",
      [
        Alcotest.test_case "matches serial on all workloads" `Quick graph_matches_serial;
        Alcotest.test_case "call sites" `Quick graph_counts;
        Alcotest.test_case "let sharing" `Quick graph_sharing;
        Alcotest.test_case "demand-driven branches" `Quick graph_demand_driven;
        Alcotest.test_case "blocked then supply" `Quick instance_blocked_then_supply;
        Alcotest.test_case "duplicate supply" `Quick instance_duplicate_supply_ignored;
        Alcotest.test_case "invalid supply" `Quick instance_invalid_supply;
        Alcotest.test_case "arity check" `Quick instance_arity_check;
        Alcotest.test_case "program error" `Quick instance_program_error;
        qtest instances_agree_with_serial;
        Alcotest.test_case "waiter slots" `Quick graph_waiter_slots;
        Alcotest.test_case "packing guard" `Quick graph_packing_guard;
        Alcotest.test_case "digits follow spawn order" `Quick digits_follow_spawn_order;
      ] );
    ("lang.trace", [ Alcotest.test_case "action-trace goldens" `Quick action_trace_goldens ]);
    ( "lang.instance-cost",
      [
        Alcotest.test_case "blocked size" `Quick instance_size_gate;
        Alcotest.test_case "words per step" `Quick instance_alloc_gate;
      ] );
  ]
