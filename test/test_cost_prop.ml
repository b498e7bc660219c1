(* Property suite for the static cost analysis (ROADMAP item 5).

   Soundness oracle: a counting serial evaluator (a faithful mirror of
   [Eval_serial], extended to track the maximum call depth and the total
   activation count).  For random generated programs and for every shipped
   workload, whenever the analysis claims a finite entry depth or
   activation bound, the measured run must stay within it — no opt-outs.

   The generators are template families chosen to exercise each verdict
   path: guarded countdowns with random fan-out/steps (Bounded via a
   decreasing parameter), increasing counters under a guard ceiling
   (Bounded via a negated measure), list walks (Bounded via a size
   measure) and mutual two-function cycles (Bounded via the summed
   measure). *)

open Recflow_analysis
module Ast = Recflow_lang.Ast
module Builtins = Recflow_lang.Builtins
module Program = Recflow_lang.Program
module Value = Recflow_lang.Value
module Workload = Recflow_workload.Workload

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- counting evaluator ---------------- *)

exception Stuck of string

(* (max call depth below the entry, total activations incl. the entry);
   mirrors Eval_serial's strict semantics via the same Builtins table.
   Programs are pure, so each distinct call (fname, args) is evaluated once
   and memoised with its value, the depth of its call tree below it and
   the activations in that tree: the counts are those of the full strict
   run, but the cost is one evaluation per distinct call, so the fuel cap
   only bounds programs that are large in distinct calls, never fan-out
   blow-ups like a 3-way countdown from 14 (3^14 activations). *)
let measure program fname args =
  let fuel = ref 5_000_000 in
  let tick () =
    decr fuel;
    if !fuel <= 0 then raise (Stuck "fuel")
  in
  let memo = Hashtbl.create 64 in
  (* [depth]/[calls] accumulate the current activation's call tree *)
  let rec eval_in ((depth, calls) as frame) env expr =
    tick ();
    match expr with
    | Ast.Int n -> Value.Int n
    | Ast.Bool b -> Value.Bool b
    | Ast.Nil -> Value.Nil
    | Ast.Var x -> (
      match List.assoc_opt x env with Some v -> v | None -> raise (Stuck ("unbound " ^ x)))
    | Ast.Prim (p, args) -> (
      let vals = Array.of_list (List.map (eval_in frame env) args) in
      match Builtins.apply p vals with Ok v -> v | Error msg -> raise (Stuck msg))
    | Ast.If (c, th, el) -> (
      match eval_in frame env c with
      | Value.Bool true -> eval_in frame env th
      | Value.Bool false -> eval_in frame env el
      | _ -> raise (Stuck "if"))
    | Ast.And (a, b) -> (
      match eval_in frame env a with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> eval_in frame env b
      | _ -> raise (Stuck "&&"))
    | Ast.Or (a, b) -> (
      match eval_in frame env a with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> eval_in frame env b
      | _ -> raise (Stuck "||"))
    | Ast.Let (x, bound, body) ->
      let v = eval_in frame env bound in
      eval_in frame ((x, v) :: env) body
    | Ast.Call (f, args) ->
      let vals = List.map (eval_in frame env) args in
      let v, d, n = apply f vals in
      depth := max !depth (d + 1);
      calls := !calls + n;
      v
  and apply f vals =
    match Hashtbl.find_opt memo (f, vals) with
    | Some r -> r
    | None -> (
      match Program.find program f with
      | None -> raise (Stuck ("unknown " ^ f))
      | Some def ->
        let depth = ref 0 and calls = ref 1 in
        let v = eval_in (depth, calls) (List.combine def.Ast.params vals) def.Ast.body in
        let r = (v, !depth, !calls) in
        Hashtbl.add memo (f, vals) r;
        r)
  in
  let _, d, n = apply fname args in
  (d, n)

(* ---------------- the property ---------------- *)

(* analyze [src], run [entry args] under the oracle, and demand the
   observed depth/activations respect any finite static bound *)
let sound_for ~src ~entry ~args =
  let r = Check.check_source ~entries:[ entry ] src in
  match r.Check.cost with
  | None -> QCheck.Test.fail_reportf "no cost analysis for:\n%s" src
  | Some cost ->
    let eb = Cost.entry_bounds cost ~entry ~args in
    let d, n = measure (Option.get r.Check.program) entry args in
    (match eb.Cost.depth with
    | Some bound when d > bound ->
      QCheck.Test.fail_reportf "depth %d > static bound %d for:\n%s" d bound src
    | _ -> ());
    (match Cost.activation_bound eb with
    | Some bound when n > bound ->
      QCheck.Test.fail_reportf "%d activations > static bound %d for:\n%s" n bound src
    | _ -> ());
    true

(* ---------------- generators ---------------- *)

let gen_countdown =
  QCheck.Gen.(
    let* guard_k = int_range 0 4 in
    let* nrec = int_range 1 3 in
    let* steps = list_repeat nrec (int_range 1 3) in
    let* leaf = int_range (-5) 5 in
    let* helper = bool in
    let* arg = int_range 0 14 in
    let calls =
      List.map (fun s -> Printf.sprintf "main(n - %d)" s) steps
      @ (if helper then [ "aux(n)" ] else [])
    in
    let src =
      Printf.sprintf "def main(n) = if n > %d then %s else %d%s" guard_k
        (String.concat " + " calls) leaf
        (if helper then "\ndef aux(x) = x * x" else "")
    in
    return (src, [ Value.Int arg ]))

let gen_ceiling =
  QCheck.Gen.(
    let* ceil = int_range 1 9 in
    let* step = int_range 1 2 in
    let* arg = int_range (-3) 9 in
    let src =
      Printf.sprintf "def main(n) = if n < %d then main(n + %d) else n" ceil step
    in
    return (src, [ Value.Int (min arg ceil) ]))

let gen_list_walk =
  QCheck.Gen.(
    let* len = int_range 0 12 in
    let* acc = bool in
    let src =
      if acc then
        "def main(xs) = if isnil(xs) then 0 else head(xs) + main(tail(xs))"
      else "def main(xs) = if isnil(xs) then 0 else 1 + main(tail(xs))"
    in
    let rec mk n = if n = 0 then Value.Nil else Value.Cons (Value.Int n, mk (n - 1)) in
    return (src, [ mk len ]))

let gen_mutual =
  QCheck.Gen.(
    let* s1 = int_range 1 2 in
    let* s2 = int_range 1 2 in
    let* arg = int_range 0 10 in
    let src =
      Printf.sprintf
        "def main(n) = if n > 0 then aux(n - %d) else 0\n\
         def aux(m) = if m > 0 then main(m - %d) + main(m - %d) else 1"
        s1 s2 (s2 + 1)
    in
    return (src, [ Value.Int arg ]))

let arb gen =
  QCheck.make ~print:(fun (src, args) ->
      Printf.sprintf "%s\n-- args: %s" src
        (String.concat ", " (List.map Value.to_string args)))
    gen

let prop name gen =
  QCheck.Test.make ~count:150 ~name (arb gen) (fun (src, args) ->
      sound_for ~src ~entry:"main" ~args)

(* The countdown that used to exhaust the fuel of an unmemoised counter
   (QCHECK_SEED=473845818): 3^12 leaves at depth 12, 797161 activations. *)
let wide_countdown () =
  let src = "def main(n) = if n > 2 then main(n - 1) + main(n - 1) + main(n - 1) else -4" in
  ignore (sound_for ~src ~entry:"main" ~args:[ Value.Int 14 ]);
  let program = Option.get (Check.check_source ~entries:[ "main" ] src).Check.program in
  Alcotest.(check (pair int int))
    "depth and activations of the full strict run" (12, 797161)
    (measure program "main" [ Value.Int 14 ])

(* ---------------- workload cross-check ---------------- *)

let workload_bounds () =
  let sizes = [ Workload.Tiny; Workload.Small ] in
  List.iter
    (fun (w : Workload.t) ->
      let r = Check.check_source ~entries:[ w.Workload.entry ] w.Workload.source in
      let cost = Option.get r.Check.cost in
      List.iter
        (fun size ->
          let args = w.Workload.args size in
          let eb = Cost.entry_bounds cost ~entry:w.Workload.entry ~args in
          let d, n = measure (Workload.program w) w.Workload.entry args in
          (match eb.Cost.depth with
          | Some bound when d > bound ->
            Alcotest.failf "%s: depth %d > static bound %d" w.Workload.name d bound
          | _ -> ());
          match Cost.activation_bound eb with
          | Some bound when n > bound ->
            Alcotest.failf "%s: %d activations > static bound %d" w.Workload.name n bound
          | _ -> ())
        sizes)
    (Workload.all
    @ [ Workload.synthetic ~branching:2 ~depth:4 ~grain:3;
        Workload.synthetic ~branching:3 ~depth:3 ~grain:5 ])

let suites =
  [
    ( "analysis.cost_prop",
      [
        qtest (prop "countdown programs stay within bounds" gen_countdown);
        qtest (prop "guard-ceiling counters stay within bounds" gen_ceiling);
        qtest (prop "list walks stay within bounds" gen_list_walk);
        qtest (prop "mutual cycles stay within bounds" gen_mutual);
        Alcotest.test_case "workloads stay within bounds" `Quick workload_bounds;
        Alcotest.test_case "fan-out-3 countdown from 14 is measured" `Quick wide_countdown;
      ] );
  ]
