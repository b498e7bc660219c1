(* Quickstart: write an applicative program, run it on a simulated
   8-processor machine, and check the distributed answer against the
   sequential evaluator.

   Run with:  dune exec examples/quickstart.exe *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
open Recflow_lang

let source =
  {|
# Sum the leaves of a perfect binary tree: every call below becomes a
# task that the load balancer may place on any processor.
def tree_sum(depth, label) =
  if depth == 0 then label
  else tree_sum(depth - 1, 2 * label) + tree_sum(depth - 1, 2 * label + 1)
|}

let () =
  (* Static analysis first: types, lints and the spawn-shape bound.  A
     real run would refuse on errors (recflow --program does); here we
     just show the clean bill of health. *)
  let report = Recflow_analysis.Check.check_source ~entries:[ "tree_sum" ] source in
  (match Recflow_analysis.Check.(errors report, warnings report) with
  | [], [] ->
    let fanout =
      match (report.Recflow_analysis.Check.program, report.Recflow_analysis.Check.shape) with
      | Some p, Some shape -> Recflow_analysis.Shape.program_fanout_bound shape p
      | _ -> 0
    in
    Format.printf "static analysis: clean; fan-out bound %d@." fanout
  | _ ->
    print_endline (Recflow_analysis.Check.render_human report);
    exit 1);
  let program = Parser.parse_program_exn source in
  (* Ground truth from the sequential reference evaluator. *)
  let expected, reductions = Eval_serial.eval program "tree_sum" [ Value.Int 8; Value.Int 1 ] in
  Format.printf "serial answer: %s (%d reductions)@." (Value.to_string expected) reductions;

  (* The same program on a simulated 8-processor Rediflow-style machine
     with gradient load balancing and splice recovery armed (no failure
     is injected here, so recovery stays idle). *)
  let config = Config.default ~nodes:8 in
  let cluster = Cluster.create config program in
  Cluster.start cluster ~fname:"tree_sum" ~args:[ Value.Int 8; Value.Int 1 ];
  let outcome = Cluster.run cluster in

  let correct = Option.fold ~none:false ~some:(Value.equal expected) outcome.Cluster.answer in
  (match outcome.Cluster.answer with
  | Some v ->
    Format.printf "distributed answer: %s at t=%d (%s)@." (Value.to_string v)
      (Option.value ~default:0 outcome.Cluster.answer_time)
      (if correct then "matches serial" else "MISMATCH!")
  | None -> Format.printf "no answer?!@.");
  Format.printf "events dispatched: %d@." outcome.Cluster.events;
  Format.printf "checkpoints stored: %d (covered: %d)@."
    (Recflow_stats.Counter.get (Cluster.counters cluster) "ckpt.recorded")
    (Recflow_stats.Counter.get (Cluster.counters cluster) "ckpt.covered");
  if not correct then exit 1
