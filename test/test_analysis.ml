(* Tests for the static-analysis subsystem: rule-code fixtures, type
   inference, call graph, spawn shapes, and the fan-out gauntlet that
   cross-checks static bounds against journal-observed spawns. *)

open Recflow_analysis
module Ast = Recflow_lang.Ast
module Parser = Recflow_lang.Parser
module Graph = Recflow_lang.Graph
module Program = Recflow_lang.Program
module Value = Recflow_lang.Value
module Workload = Recflow_workload.Workload
module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Json = Recflow_obs_core.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_strs = Alcotest.(check (list string))

let codes_of (r : Check.report) =
  List.map (fun (d : Diagnostic.t) -> Diagnostic.code_string d.code) r.Check.diagnostics

let program_exn src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse: %s" msg

(* ---------------- Negative fixtures: one per rule code ---------------- *)

(* Each program triggers its code and nothing else; the RF007 fixture is
   below (bad primitive arity cannot be written in surface syntax — the
   parser itself rejects it — so it needs a hand-built AST). *)
let source_fixtures =
  [
    ("RF001", "def main(x = x");
    ("RF002", "def main(x) = x\ndef main(y) = y");
    ("RF003", "def main(x, x) = x");
    ("RF004", "def main(x) = y");
    ("RF005", "def main(x) = missing(x)");
    ("RF006", "def main(x) = helper(x, x)\ndef helper(y) = y");
    ( "RF008",
      "def main(x) = "
      ^ String.concat " + " (List.init 257 (fun _ -> "helper(x)"))
      ^ "\ndef helper(y) = y" );
    ("RF101", "def main(x) = if x then 1 else nil");
    ("RF102", "def main(x) = x :: x");
    ("RF201", "def main(x) = x + 1\ndef orphan(y) = y");
    ("RF202", "def main(x, y) = x");
    ("RF203", "def main(x) = main(x)");
    ("RF204", "def main(x) = let y = x in let y = y + 1 in y");
    ("RF205", "def main(x) = let unused = x + 1 in x");
    ("RF301", "def main(n) = if n > 0 then main(n + 1) else 0");
    ("RF302", "def main(n) = if n > 0 then main(n + 1) + main(n + 2) else 0");
    ("RF303", "def helper(x) = x * x\ndef main(n) = if n > 0 then helper(n) + main(n + 1) else 0");
  ]

let fixtures_trigger_exactly () =
  List.iter
    (fun (code, src) ->
      let r = Check.check_source ~entries:[ "main" ] src in
      check_strs code [ code ] (codes_of r))
    source_fixtures

let rf007_fixture () =
  let d = { Ast.name = "main"; params = [ "x" ]; body = Ast.Prim (Ast.Not, [ Ast.Int 1; Ast.Int 2 ]) } in
  let r = Check.check_defs ~entries:[ "main" ] [ d ] in
  check_strs "RF007" [ "RF007" ] (codes_of r)

let all_codes_have_fixtures () =
  let covered = "RF007" :: List.map fst source_fixtures in
  List.iter
    (fun c ->
      let cs = Diagnostic.code_string c in
      check cs true (List.mem cs covered))
    Diagnostic.all_codes

let severities_by_band () =
  List.iter
    (fun c ->
      let cs = Diagnostic.code_string c in
      let expected =
        if String.length cs = 5 && (cs.[2] = '2' || cs.[2] = '3') then Diagnostic.Warning
        else Diagnostic.Error
      in
      check cs true (Diagnostic.severity_of_code c = expected))
    Diagnostic.all_codes

let rf3xx_roundtrip () =
  (* the RF3xx fixtures survive pretty -> parse -> re-check unchanged *)
  List.iter
    (fun (code, src) ->
      let printed = Recflow_lang.Pretty.program_to_string (program_exn src) in
      let r = Check.check_source ~entries:[ "main" ] printed in
      check_strs (code ^ " roundtrip") [ code ] (codes_of r))
    (List.filter
       (fun (c, _) -> String.length c = 5 && c.[2] = '3')
       source_fixtures)

let explain_all_codes () =
  List.iter
    (fun c ->
      let cs = Diagnostic.code_string c in
      check (cs ^ " explained") true (String.length (Diagnostic.explain c) > 40);
      check (cs ^ " of_code_string") true (Diagnostic.of_code_string cs = Some c))
    Diagnostic.all_codes;
  check "unknown code" true (Diagnostic.of_code_string "RF999" = None);
  check "garbage" true (Diagnostic.of_code_string "nonsense" = None)

let diagnostics_carry_locations () =
  (* function-level findings get the def's position, call-site findings
     the call's *)
  let r = Check.check_source ~entries:[ "main" ] "def main(x) = if x then 1 else nil" in
  (match r.Check.diagnostics with
  | [ d ] ->
    check "fn" true (d.Diagnostic.fn = Some "main");
    check "def loc" true (d.Diagnostic.loc = Some (Loc.make ~line:1 ~column:5))
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds));
  let r = Check.check_source ~entries:[ "main" ] "def main(x) = main(x)" in
  match r.Check.diagnostics with
  | [ d ] ->
    check "code" true (d.Diagnostic.code = Diagnostic.Non_productive_recursion);
    check "call loc" true (d.Diagnostic.loc = Some (Loc.make ~line:1 ~column:15))
  | ds -> Alcotest.failf "expected 1 diagnostic, got %d" (List.length ds)

let json_report_shape () =
  let r = Check.check_source ~entries:[ "main" ] "def main(x) = if x then 1 else nil" in
  let js = Check.render_json r in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length js
      && (String.sub js i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  check "errors field" true (has {|"errors":1|});
  check "code field" true (has {|"code":"RF101"|});
  check "severity field" true (has {|"severity":"error"|});
  check "escaping" true (Diagnostic.json_string "a\"b\nc" = {|"a\"b\nc"|})

(* ---------------- Type inference ---------------- *)

let scheme_str (r : Check.report) name =
  match List.assoc_opt name r.Check.schemes with
  | Some s -> Infer.scheme_to_string s
  | None -> "?"

let infer_workload_schemes () =
  let r = Check.check_source ~entries:[ "fib" ] Workload.fib.Workload.source in
  check_str "fib" "int -> int" (scheme_str r "fib");
  let r = Check.check_source ~entries:[ "tak" ] Workload.tak.Workload.source in
  check_str "tak" "int * int * int -> int" (scheme_str r "tak");
  let r = Check.check_source ~entries:[ "qsort_check" ] Workload.quicksort.Workload.source in
  check_str "qsort" "int list -> int list" (scheme_str r "qsort");
  check_str "safe" "int list * int * int -> bool"
    (scheme_str (Check.check_source ~entries:[ "nqueens" ] Workload.nqueens.Workload.source) "safe")

let infer_catches_head_of_int () =
  let r = Check.check_source ~entries:[ "main" ] "def main(x) = x + head(3)" in
  check_strs "head(3)" [ "RF101" ] (codes_of r)

let infer_catches_bool_arith_confusion () =
  let r = Check.check_source ~entries:[ "main" ] "def main(x) = 1 + (x && true)" in
  check_strs "1 + bool" [ "RF101" ] (codes_of r)

let infer_propagates_across_calls () =
  (* the type error is only visible once g's scheme flows into f *)
  let r =
    Check.check_source ~entries:[ "f" ]
      "def f(x) = g(x) + 1\ndef g(y) = y :: nil"
  in
  check_strs "cross-call" [ "RF101" ] (codes_of r)

(* ---------------- Call graph ---------------- *)

let mutual_src =
  "def even(n) = if n == 0 then true else odd(n - 1)\n\
   def odd(n) = if n == 0 then false else even(n - 1)\n\
   def main(n) = even(n)"

let callgraph_basics () =
  let g = Callgraph.of_program (program_exn mutual_src) in
  check_strs "functions" [ "even"; "main"; "odd" ] g.Callgraph.functions;
  check_strs "roots" [ "main" ] (Callgraph.roots g);
  check_strs "reachable" [ "even"; "main"; "odd" ] (Callgraph.reachable g ~entries:[ "main" ]);
  check_strs "reachable from even" [ "even"; "odd" ] (Callgraph.reachable g ~entries:[ "even" ]);
  check_strs "recursive" [ "even"; "odd" ] (Callgraph.recursive_functions g);
  check "even+odd share an scc" true (List.mem [ "even"; "odd" ] (Callgraph.sccs g))

let callgraph_cyclic_roots () =
  (* a fully cyclic program has no root; everything is an entry candidate,
     so nothing is reported dead *)
  let src = "def a(n) = b(n)\ndef b(n) = a(n - 1)" in
  let g = Callgraph.of_program (program_exn src) in
  check_strs "roots fall back to all" [ "a"; "b" ] (Callgraph.roots g);
  let r = Check.check_source src in
  check "no dead functions" true
    (not (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.code = Diagnostic.Dead_function)
            r.Check.diagnostics))

(* ---------------- Spawn shapes ---------------- *)

let shape_of src fn =
  let shape = Shape.of_program (program_exn src) in
  match Shape.find shape fn with Some s -> s | None -> Alcotest.failf "no shape for %s" fn

let shape_workload_bounds () =
  let bound w fn =
    let shape = Shape.of_program (Workload.program w) in
    Option.get (Shape.fanout_bound shape fn)
  in
  check_int "fib" 2 (bound Workload.fib "fib");
  check_int "tak" 4 (bound Workload.tak "tak");
  check_int "nqueens.try_cols" 3 (bound Workload.nqueens "try_cols");
  check_int "tree_sum" 2 (bound Workload.tree_sum "tsum")

let shape_if_takes_max () =
  (* condition's call plus the wider arm: 1 + max(1, 2) = 3 *)
  let s = shape_of "def f(x) = if f(x) == 0 then f(x - 1) else f(x) + f(x + 1)" "f" in
  check_int "if max" 3 s.Shape.fanout

(* The call-site digits of [fn], in node order. *)
let digits_of program fn =
  let g = Graph.find_exn (Graph.compile_program program) fn in
  List.rev
    (snd
       (Array.fold_left
          (fun (i, acc) n ->
            (i + 1, match n with Graph.Call _ -> Graph.digit g i :: acc | _ -> acc))
          (0, []) g.Graph.nodes))

(* Every call site of every workload function, and of the synthetic
   generator's, numbers its children below the function's static fan-out
   bound; calls on exclusive arms share numbers, and a call both arms use
   is numbered once, outside them. *)
let call_site_digits () =
  let synthetic =
    List.map
      (fun b -> Workload.synthetic ~branching:b ~depth:3 ~grain:2)
      [ 1; 2; 3; 5; 8 ]
  in
  List.iter
    (fun w ->
      let program = Workload.program w in
      let shape = Shape.of_program program in
      List.iter
        (fun (d : Ast.def) ->
          let bound = Option.get (Shape.fanout_bound shape d.Ast.name) in
          List.iter
            (fun digit ->
              if digit < 0 || digit >= bound then
                Alcotest.failf "%s.%s: call-site digit %d outside [0, %d)" w.Workload.name
                  d.Ast.name digit bound)
            (digits_of program d.Ast.name))
        (Program.defs program))
    (Workload.all @ synthetic);
  let arms w fn = digits_of (Workload.program w) fn in
  Alcotest.(check (list int)) "keep_lt arms share" [ 0; 0 ] (arms Workload.quicksort "keep_lt");
  Alcotest.(check (list int)) "keep_ge arms share" [ 0; 0 ] (arms Workload.quicksort "keep_ge");
  Alcotest.(check (list int)) "merge arms share" [ 0; 0 ] (arms Workload.mergesort "merge");
  Alcotest.(check (list int))
    "synth: spin and the first synth share" [ 0; 0; 1; 2 ]
    (arms (List.nth synthetic 2) "synth");
  let p =
    program_exn
      "def f(n) = n
       def g(n) = if n > 0 then f(n) + f(n + 1) else f(n - 1) + f(n - 2) + f(n - 3)
       def h(n) = let x = f(n) in if n > 0 then x + f(1) else x
       def k(n) = if f(n) > 0 then (if n > 1 then f(1) else f(2)) + f(3) else f(4)"
  in
  Alcotest.(check (list int)) "arms from one base" [ 0; 1; 0; 1; 2 ] (digits_of p "g");
  Alcotest.(check (list int)) "a call both arms use counts once" [ 0; 1 ] (digits_of p "h");
  Alcotest.(check (list int)) "nested arms follow their scope" [ 0; 2; 2; 1; 1 ] (digits_of p "k");
  let shape = Shape.of_program p in
  List.iter
    (fun (fn, used) ->
      check_int (fn ^ " uses its whole bound") used (Option.get (Shape.fanout_bound shape fn)))
    [ ("g", 3); ("h", 2); ("k", 3) ]

let shape_recursion_classes () =
  let p = program_exn mutual_src in
  let shape = Shape.of_program p in
  let cls fn = (Option.get (Shape.find shape fn)).Shape.recursion in
  check "main" true (cls "main" = Shape.Non_recursive);
  check "even" true (cls "even" = Shape.Mutually_recursive);
  let s = shape_of "def f(n) = if n == 0 then 0 else f(n - 1)" "f" in
  check "self" true (s.Shape.recursion = Shape.Self_recursive)

let shape_program_bound_respects_entries () =
  let src = "def main(x) = leaf(x)\ndef leaf(x) = x + 1\ndef wide(x) = w(x) + w(x) + w(x)\ndef w(x) = x" in
  let p = program_exn src in
  let shape = Shape.of_program p in
  check_int "reachable only" 1 (Shape.program_fanout_bound ~entries:[ "main" ] shape p);
  check_int "whole program" 3 (Shape.program_fanout_bound shape p)

let gradient_auto_weight () =
  check_int "narrow" 1 (Recflow_balance.Policy.suggest_gradient_weight ~fanout:0);
  check_int "fib-like" 2 (Recflow_balance.Policy.suggest_gradient_weight ~fanout:2);
  check_int "clamped" 4 (Recflow_balance.Policy.suggest_gradient_weight ~fanout:9)

let ckpt_admission_suggestion () =
  let suggest ?(work = 5) ?(fanout = 2) ?(depth = Some 12) ?(loss = 0.1) ?(cost = 3) () =
    Recflow_balance.Policy.suggest_ckpt_admission ~work_per_activation:work ~fanout
      ~depth_bound:depth ~loss_rate:loss ~ckpt_cost:cost
  in
  check "free recording admits all" true (suggest ~cost:0 () = None);
  check "negative cost admits all" true (suggest ~cost:(-2) () = None);
  check "no depth bound admits all" true (suggest ~depth:None () = None);
  check "zero loss keeps only the root's children" true (suggest ~loss:0.0 () = Some 1);
  check "certain loss admits to the full bound" true (suggest ~loss:1.0 () = Some 12);
  (* monotone: more risk, or cheaper records, never raises the cutoff *)
  let d x = match x with Some d -> d | None -> Alcotest.fail "expected Some cutoff" in
  check "higher loss admits deeper" true (d (suggest ~loss:0.01 ()) <= d (suggest ~loss:0.3 ()));
  check "dearer records admit shallower" true
    (d (suggest ~cost:50 ()) <= d (suggest ~cost:2 ()));
  check "cutoff at least 1" true (d (suggest ~loss:1e-9 ~cost:1000 ()) >= 1);
  check "cutoff within bound" true (d (suggest ~loss:0.9 ~depth:(Some 4) ()) <= 4)

(* The check-smoke-<workload>.json dune targets: written by the real CLI
   (`recflow --check-json`), re-read here with the in-tree strict parser.
   Every built-in workload must be clean and carry a cost block per
   function. *)
let check_smoke_roundtrip () =
  List.iter
    (fun (w : Workload.t) ->
      let path = Printf.sprintf "check-smoke-%s.json" w.Workload.name in
      let doc = In_channel.with_open_text path In_channel.input_all in
      match Json.parse doc with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok j ->
        check (w.Workload.name ^ ": schema") true
          (Json.member "schema" j = Some (Json.Str "recflow.check/2"));
        check (w.Workload.name ^ ": clean") true
          (Json.member "errors" j = Some (Json.Int 0)
          && Json.member "warnings" j = Some (Json.Int 0));
        let fns = Json.to_list (Option.value ~default:Json.Null (Json.member "functions" j)) in
        check (w.Workload.name ^ ": has functions") true (fns <> []);
        List.iter
          (fun f ->
            check (w.Workload.name ^ ": function has a cost block") true
              (Json.member "cost" f <> None))
          fns)
    Workload.all

(* ---------------- Cost analysis precision pins ---------------- *)

let cost_of (w : Workload.t) =
  Option.get (Check.check_source ~entries:[ w.Workload.entry ] w.Workload.source).Check.cost

let fn_cost c fn = match Cost.find c fn with Some fc -> fc | None -> Alcotest.failf "no cost for %s" fn

let cost_verdicts () =
  (* pins: these are precision guarantees, not just soundness — a change
     that degrades any of them is a regression *)
  let fib = fn_cost (cost_of Workload.fib) "fib" in
  (match fib.Cost.verdict with
  | Cost.Bounded { measure = "n"; floor = Some { Cost.at_least = 2; requires_start_ge = None } } -> ()
  | _ -> Alcotest.failf "fib verdict: %s" (Cost.fn_cost_to_string fib));
  check "fib growth" true (fib.Cost.growth = Cost.Exponential);
  check_int "fib rec fan-out" 2 fib.Cost.rec_fanout;
  let tsum = fn_cost (cost_of Workload.tree_sum) "tsum" in
  (match tsum.Cost.verdict with
  | Cost.Bounded { floor = Some { Cost.at_least = 1; _ }; _ } -> ()
  | _ -> Alcotest.failf "tsum verdict: %s" (Cost.fn_cost_to_string tsum));
  let qsort = fn_cost (cost_of Workload.quicksort) "qsort" in
  (match qsort.Cost.verdict with
  | Cost.Bounded { measure = "size(xs)"; floor = Some { Cost.at_least = 1; _ } } -> ()
  | _ -> Alcotest.failf "qsort verdict: %s" (Cost.fn_cost_to_string qsort));
  (* no false divergence warnings: interval halving and merge sort are
     beyond the measure family, so they must stay quiet *)
  let msort = fn_cost (cost_of Workload.mergesort) "msort" in
  check "msort quiet" true (msort.Cost.verdict = Cost.Quiet);
  let sumsq = fn_cost (cost_of Workload.map_reduce) "sumsq" in
  check "sumsq quiet" true (sumsq.Cost.verdict = Cost.Quiet);
  let tak = fn_cost (cost_of Workload.tak) "tak" in
  check "tak quiet" true (tak.Cost.verdict = Cost.Quiet);
  let merge = fn_cost (cost_of Workload.mergesort) "merge" in
  (match merge.Cost.verdict with
  | Cost.Bounded { measure = "sum(list sizes)"; floor = Some { Cost.at_least = 2; _ } } -> ()
  | _ -> Alcotest.failf "merge verdict: %s" (Cost.fn_cost_to_string merge))

let cost_entry_bounds_exact () =
  (* fib tiny = fib(8): chain 8 -> 7 -> ... -> 2 -> leaf is 7 edges *)
  let c = cost_of Workload.fib in
  let eb = Cost.entry_bounds c ~entry:"fib" ~args:(Workload.fib.Workload.args Workload.Tiny) in
  check "fib depth" true (eb.Cost.depth = Some 7);
  check_int "fib fanout" 2 eb.Cost.fanout;
  check "fib activations" true (Cost.activation_bound eb = Some 255);
  check "fib subtree at 5" true (Cost.subtree_bound eb ~depth:5 = Some 7);
  check "fib subtree below floor" true (Cost.subtree_bound eb ~depth:7 = Some 1);
  let c = cost_of Workload.tree_sum in
  let eb = Cost.entry_bounds c ~entry:"tsum" ~args:(Workload.tree_sum.Workload.args Workload.Tiny) in
  check "tsum depth finite" true (Option.is_some eb.Cost.depth)

let cost_divergent_entry_bounds () =
  let r = Check.check_source ~entries:[ "main" ] "def main(n) = if n > 0 then main(n + 1) else 0" in
  let c = Option.get r.Check.cost in
  let eb = Cost.entry_bounds c ~entry:"main" ~args:[ Value.Int 5 ] in
  check "divergent depth" true (eb.Cost.depth = None);
  check "divergent activations" true (Cost.activation_bound eb = None)

let cost_increasing_counter_bounded () =
  (* an increasing counter climbing to a guard ceiling is depth-bounded
     via the negated measure *)
  let r = Check.check_source ~entries:[ "main" ] "def main(n) = if n < 5 then main(n + 1) else n" in
  let c = Option.get r.Check.cost in
  check "no warnings" true (Check.ok ~werror:true r);
  let fc = fn_cost c "main" in
  (match fc.Cost.verdict with
  | Cost.Bounded { floor = Some _; _ } -> ()
  | _ -> Alcotest.failf "ceiling verdict: %s" (Cost.fn_cost_to_string fc));
  let eb = Cost.entry_bounds c ~entry:"main" ~args:[ Value.Int 0 ] in
  check "ceiling depth finite" true (Option.is_some eb.Cost.depth);
  (* -n starts at 0, floor is -4: at most 5 more levels *)
  check "ceiling depth tight" true (eb.Cost.depth = Some 5)

(* ---------------- Corpus: everything we ship is clean ---------------- *)

let corpus_is_clean () =
  let check_clean name entry source =
    let r = Check.check_source ~entries:[ entry ] source in
    if not (Check.ok ~werror:true r) then
      Alcotest.failf "%s not clean:\n%s" name (Check.render_human r)
  in
  List.iter
    (fun (w : Workload.t) -> check_clean w.Workload.name w.Workload.entry w.Workload.source)
    Workload.all;
  List.iter
    (fun b ->
      let w = Workload.synthetic ~branching:b ~depth:3 ~grain:5 in
      check_clean w.Workload.name w.Workload.entry w.Workload.source)
    [ 1; 2; 3; 4 ]

let workload_program_gate () =
  (* Workload.program refuses a workload whose source has analysis errors *)
  let bad =
    {
      Workload.fib with
      Workload.name = "bad_gate_fixture";
      source = "def fib(n) = if n > 0 then 1 else nil";
    }
  in
  check "raises" true
    (try
       ignore (Workload.program bad);
       false
     with Invalid_argument _ -> true)

(* ---------------- Gauntlet: bounds vs the journal ---------------- *)

(* For every workload at every size, run a real 8-node cluster (inlining
   below stamp depth 6 keeps even tak/large fast) and require:
   - the distributed answer equals the serial reference;
   - every digit of every spawned stamp is < the program's static fan-out
     bound (a digit is the call-site number of the spawning call node,
     which [Graph] keeps below the spawning function's bound);
   - no parent stamp has more distinct spawned children than the bound;
   - when the cost analysis bounds the entry's recursion depth, no
     observed stamp exceeds it, and no subtree holds more spawned tasks
     than [Cost.subtree_bound] allows at its root's depth.  There are no
     per-workload opt-outs: the depth checks are vacuous exactly when the
     analysis itself returned "unbounded". *)
let gauntlet () =
  let sizes = [ Workload.Tiny; Workload.Small; Workload.Medium; Workload.Large ] in
  let size_tag = function
    | Workload.Tiny -> "tiny"
    | Workload.Small -> "small"
    | Workload.Medium -> "medium"
    | Workload.Large -> "large"
  in
  List.iter
    (fun (w : Workload.t) ->
      let program = Workload.program w in
      let shape = Shape.of_program program in
      let bound = Shape.program_fanout_bound ~entries:[ w.Workload.entry ] shape program in
      let cost = cost_of w in
      List.iter
        (fun size ->
          let tag = Printf.sprintf "%s/%s" w.Workload.name (size_tag size) in
          let cfg = { (Config.default ~nodes:8) with Config.inline_depth = 6 } in
          let cluster = Cluster.create cfg program in
          Cluster.start cluster ~fname:w.Workload.entry ~args:(w.Workload.args size);
          let outcome = Cluster.run cluster in
          (match outcome.Cluster.answer with
          | Some v ->
            if not (Value.equal v (Workload.expected w size)) then
              Alcotest.failf "%s: wrong answer %s" tag (Value.to_string v)
          | None -> Alcotest.failf "%s: no answer" tag);
          let spawned =
            List.filter_map
              (fun (e : Journal.entry) ->
                match e.Journal.event with Journal.Spawned _ -> Some e.Journal.stamp | _ -> None)
              (Journal.entries (Cluster.journal cluster))
          in
          check (tag ^ " spawns observed") true (spawned <> []);
          List.iter
            (fun s ->
              match Stamp.max_digit s with
              | Some d when d >= bound ->
                Alcotest.failf "%s: stamp %s has digit %d >= bound %d" tag (Stamp.to_string s) d
                  bound
              | _ -> ())
            spawned;
          let children = Hashtbl.create 256 in
          List.iter
            (fun s ->
              match Stamp.parent s with
              | Some p ->
                let set = Option.value ~default:[] (Hashtbl.find_opt children p) in
                if not (List.mem s set) then Hashtbl.replace children p (s :: set)
              | None -> ())
            spawned;
          Hashtbl.iter
            (fun p cs ->
              if List.length cs > bound then
                Alcotest.failf "%s: activation %s spawned %d children > bound %d" tag
                  (Stamp.to_string p) (List.length cs) bound)
            children;
          let eb = Cost.entry_bounds cost ~entry:w.Workload.entry ~args:(w.Workload.args size) in
          match eb.Cost.depth with
          | None -> ()
          | Some dbound ->
            List.iter
              (fun s ->
                if Stamp.depth s > dbound then
                  Alcotest.failf "%s: stamp %s at depth %d > static bound %d" tag
                    (Stamp.to_string s) (Stamp.depth s) dbound)
              spawned;
            (* counts.(s) = spawned tasks inside s's subtree (s included);
               that undercounts activations (inlined calls don't stamp),
               so <= the static subtree bound is required of it too *)
            let counts = Hashtbl.create 256 in
            let rec bump st =
              Hashtbl.replace counts st (1 + Option.value ~default:0 (Hashtbl.find_opt counts st));
              match Stamp.parent st with Some p -> bump p | None -> ()
            in
            List.iter bump spawned;
            Hashtbl.iter
              (fun s n ->
                match Cost.subtree_bound eb ~depth:(Stamp.depth s) with
                | Some b when n > b ->
                  Alcotest.failf "%s: subtree at %s holds %d tasks > static bound %d" tag
                    (Stamp.to_string s) n b
                | _ -> ())
              counts)
        sizes)
    Workload.all

let suites =
  [
    ( "analysis.diagnostics",
      [
        Alcotest.test_case "fixtures trigger exactly one code" `Quick fixtures_trigger_exactly;
        Alcotest.test_case "RF007 via raw AST" `Quick rf007_fixture;
        Alcotest.test_case "every code has a fixture" `Quick all_codes_have_fixtures;
        Alcotest.test_case "severity follows the band" `Quick severities_by_band;
        Alcotest.test_case "RF3xx pretty/parse roundtrip" `Quick rf3xx_roundtrip;
        Alcotest.test_case "explain covers every code" `Quick explain_all_codes;
        Alcotest.test_case "locations" `Quick diagnostics_carry_locations;
        Alcotest.test_case "json shape" `Quick json_report_shape;
        Alcotest.test_case "check-json CLI smoke round-trip" `Quick check_smoke_roundtrip;
      ] );
    ( "analysis.cost",
      [
        Alcotest.test_case "workload verdicts" `Quick cost_verdicts;
        Alcotest.test_case "entry bounds exact" `Quick cost_entry_bounds_exact;
        Alcotest.test_case "divergent entry bounds" `Quick cost_divergent_entry_bounds;
        Alcotest.test_case "increasing counter bounded" `Quick cost_increasing_counter_bounded;
      ] );
    ( "analysis.infer",
      [
        Alcotest.test_case "workload schemes" `Quick infer_workload_schemes;
        Alcotest.test_case "head of int" `Quick infer_catches_head_of_int;
        Alcotest.test_case "bool/arith confusion" `Quick infer_catches_bool_arith_confusion;
        Alcotest.test_case "cross-call propagation" `Quick infer_propagates_across_calls;
      ] );
    ( "analysis.callgraph",
      [
        Alcotest.test_case "sccs/roots/reachable" `Quick callgraph_basics;
        Alcotest.test_case "cyclic fallback" `Quick callgraph_cyclic_roots;
      ] );
    ( "analysis.shape",
      [
        Alcotest.test_case "workload bounds" `Quick shape_workload_bounds;
        Alcotest.test_case "if takes max" `Quick shape_if_takes_max;
        Alcotest.test_case "call-site digits" `Quick call_site_digits;
        Alcotest.test_case "recursion classes" `Quick shape_recursion_classes;
        Alcotest.test_case "entries restrict the bound" `Quick shape_program_bound_respects_entries;
        Alcotest.test_case "gradient:auto weight" `Quick gradient_auto_weight;
        Alcotest.test_case "adaptive ckpt admission cutoff" `Quick ckpt_admission_suggestion;
      ] );
    ( "analysis.corpus",
      [
        Alcotest.test_case "workloads are clean" `Quick corpus_is_clean;
        Alcotest.test_case "workload gate" `Quick workload_program_gate;
      ] );
    ("analysis.gauntlet", [ Alcotest.test_case "bounds vs journal" `Slow gauntlet ]);
  ]
