(* Differential property for the graph instance.

   [Instance] keeps no state for a leaf and no waiter slot for a node with
   one static use.  The model, [Instance_model], is the instance from
   before that layout: a node word and a value for every node and one
   waiter slot per static use.  Both run the same activations under the
   same random schedule: steps, supplies of any outstanding call slot in
   any order, duplicate supplies, supplies to call slots that are not
   outstanding (not yet spawned, or out of range), and more of all of
   these once the activation has finished or failed.  After every
   operation they must agree on the action or exception it produced, on
   [outstanding_calls] and on [outstanding_slots] (the model lists them
   in spawn order, the instance in node-id order).

   Programs come from [Test_eval_prop]'s generator, plus the hand-written
   edge cases of [Test_lang.trace_edges].  A call slot is answered with
   the serial evaluator's value for the spawned call when it has one
   within a small fuel, and otherwise, or now and then anyway, with a
   random value, so type errors after a supply come up too.  Each case
   runs its root activation and, breadth first, up to [activations - 1]
   of the calls it and its descendants spawn. *)

open Recflow_lang
module Model = Instance_model

let qtest = QCheck_alcotest.to_alcotest

let activations = 12

let spawn_line slot fname args =
  Printf.sprintf "S%d %s(%s)" slot fname
    (String.concat "," (Array.to_list (Array.map Value.to_string args)))

let render_model = function
  | Model.Work { cost } -> Printf.sprintf "W%d" cost
  | Model.Spawn { slot; fname; args } -> spawn_line slot fname args
  | Model.Blocked -> "B"
  | Model.Finished v -> "F" ^ Value.to_string v
  | Model.Failed msg -> "X" ^ msg

let render = function
  | Instance.Work { cost } -> Printf.sprintf "W%d" cost
  | Instance.Spawn { slot; fname; args } -> spawn_line slot fname args
  | Instance.Blocked -> "B"
  | Instance.Finished v -> "F" ^ Value.to_string v
  | Instance.Failed msg -> "X" ^ msg

(* What an operation did: its rendered result, or its exception. *)
let attempt f = match f () with s -> s | exception Invalid_argument msg -> "raised " ^ msg

let slots_line slots = String.concat " " (List.map string_of_int slots)

let random_value rs =
  match Random.State.int rs 4 with
  | 0 -> Value.Int (Random.State.int rs 13 - 3)
  | 1 -> Value.Bool (Random.State.bool rs)
  | 2 -> Value.Nil
  | _ -> Value.of_int_list (List.init (1 + Random.State.int rs 3) (fun _ -> Random.State.int rs 10))

exception Mismatch of string

(* Run one activation of [fname] through both, under a schedule drawn
   from [rs]; returns the calls it spawned, in spawn order. *)
let activation rs ~answer lib (fname, args) =
  let g = Graph.find_exn lib fname in
  let m = Model.create g args and inst = Instance.create g args in
  let log = Buffer.create 512 in
  Printf.bprintf log "%s\n" (spawn_line 0 fname args);
  let agree what a b =
    if a <> b then
      raise
        (Mismatch
           (Printf.sprintf "%s differs: model %s, instance %s; operations:\n%s" what a b
              (Buffer.contents log)))
  in
  let check_state () =
    agree "outstanding_calls"
      (string_of_int (Model.outstanding_calls m))
      (string_of_int (Instance.outstanding_calls inst));
    agree "outstanding_slots"
      (slots_line (List.sort compare (Model.outstanding_slots m)))
      (slots_line (Instance.outstanding_slots inst))
  in
  check_state ();
  let calls =
    List.filter
      (fun id -> match g.Graph.nodes.(id) with Graph.Call _ -> true | _ -> false)
      (List.init (Graph.node_count g) Fun.id)
  in
  (* slots spawned so far with their answers, newest first *)
  let answers = ref [] and spawned = ref [] in
  let supply slot v =
    Printf.bprintf log "  supply %d %s\n" slot (Value.to_string v);
    agree "supply"
      (attempt (fun () -> Model.supply m slot v; "ok"))
      (attempt (fun () -> Instance.supply inst slot v; "ok"));
    check_state ()
  in
  let ended = ref false in
  let step () =
    let a = attempt (fun () -> render_model (Model.step m)) in
    let b =
      attempt (fun () ->
          let action = Instance.step inst in
          (match action with
          | Instance.Spawn { slot; fname; args } ->
            answers := (slot, answer (fname, args)) :: !answers;
            spawned := (fname, args) :: !spawned
          | Instance.Finished _ | Instance.Failed _ -> ended := true
          | Instance.Work _ | Instance.Blocked -> ());
          render action)
    in
    Printf.bprintf log "  step %s\n" a;
    agree "step" a b;
    check_state ()
  in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let after = ref 0 and ops = ref 0 in
  while !after < 4 do
    incr ops;
    if !ops > 10_000 then
      raise (Mismatch ("no end after 10000 operations:\n" ^ Buffer.contents log));
    if !ended then incr after;
    let outstanding = Instance.outstanding_slots inst in
    match Random.State.int rs 10 with
    | 0 | 1 | 2 | 3 | 4 -> step ()
    | 5 | 6 | 7 when outstanding <> [] ->
      let slot = pick outstanding in
      supply slot (List.assoc slot !answers)
    | 8 when !answers <> [] ->
      let slot, v = pick !answers in
      supply slot v
    | _ ->
      let slot =
        if calls = [] || Random.State.int rs 4 = 0 then pick [ -1; Graph.node_count g ]
        else pick calls
      in
      supply slot (random_value rs)
  done;
  List.rev !spawned

(* The serial evaluator's answer for a spawned call, when it has one
   within a small fuel; otherwise, and one time in eight, a random value. *)
let answerer rs program =
  let compiled = Eval_serial.compile program in
  fun (fname, args) ->
    if Random.State.int rs 8 = 0 then random_value rs
    else
      match Eval_serial.find compiled fname with
      | None -> random_value rs
      | Some fn -> (
        match Eval_serial.apply ~fuel:2_000 fn args with
        | v, _ -> v
        | exception Eval_serial.Runtime_error _ -> random_value rs)

let run_case ~seed program root =
  let rs = Random.State.make [| seed |] in
  let lib = Graph.compile_program program in
  let answer = answerer rs program in
  let queue = Queue.create () in
  Queue.add root queue;
  let ran = ref 0 in
  match
    while !ran < activations && not (Queue.is_empty queue) do
      incr ran;
      List.iter (fun call -> Queue.add call queue) (activation rs ~answer lib (Queue.pop queue))
    done
  with
  | () -> true
  | exception Mismatch msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg

let prop_programs =
  QCheck.Test.make ~count:1000 ~name:"instance = model on random programs"
    QCheck.(pair Test_eval_prop.arb_case int)
    (fun (c, seed) ->
      run_case ~seed (Program.of_defs_exn c.Test_eval_prop.defs)
        ("f0", Array.of_list c.Test_eval_prop.args))

let prop_edges =
  QCheck.Test.make ~count:400 ~name:"instance = model on the trace edge cases"
    QCheck.(triple (oneofl ~print:Fun.id [ "g"; "h"; "k"; "m" ]) (int_range (-3) 12) int)
    (fun (entry, arg, seed) -> run_case ~seed Test_lang.trace_edges (entry, [| Value.Int arg |]))

let suites = [ ("lang.instance-model", [ qtest prop_programs; qtest prop_edges ]) ]
