(* Emulated hardware redundancy (§5.3): replicate the critical prefix of
   the call tree threefold and majority-vote the returns.  A processor
   failure is masked — the voter simply loses one replica and decides on
   the two identical survivors, without waiting for the slowest.

   Run with:  dune exec examples/replicated_voting.exe *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Counter = Recflow_stats.Counter
module Workload = Recflow_workload.Workload
open Recflow_lang

let run ~failures =
  let w = Workload.synthetic ~branching:3 ~depth:2 ~grain:300 in
  let config =
    {
      (Config.default ~nodes:9) with
      Config.recovery = Config.Replicate 3;
      replicate_depth = 3;
      inline_depth = 3;
      policy = Recflow_balance.Policy.Random;
    }
  in
  let cluster = Cluster.create config (Workload.program w) in
  List.iter (fun (t, p) -> Cluster.fail_at cluster ~time:t p) failures;
  Cluster.start cluster ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Medium);
  let outcome = Cluster.run cluster in
  (cluster, outcome, Workload.expected w Workload.Medium)

let () =
  let _, clean, expected = run ~failures:[] in
  Format.printf "fault-free: answer %s at t=%d@."
    (match clean.Cluster.answer with Some v -> Value.to_string v | None -> "-")
    (Option.value ~default:0 clean.Cluster.answer_time);

  let cluster, faulty, _ = run ~failures:[ (500, 4) ] in
  let correct = Option.fold ~none:false ~some:(Value.equal expected) faulty.Cluster.answer in
  (match faulty.Cluster.answer with
  | Some v ->
    Format.printf "with P4 failing at t=500: answer %s at t=%d (%s)@." (Value.to_string v)
      (Option.value ~default:0 faulty.Cluster.answer_time)
      (if correct then "correct, failure masked" else "WRONG")
  | None -> Format.printf "no answer@.");
  let c name = Counter.get (Cluster.counters cluster) name in
  Format.printf "@.replica activations: %d, re-issues needed: %d, inconclusive votes: %d@."
    (c "spawn.remote") (c "reissue.count") (c "vote.inconclusive");
  Format.printf
    "recovery delay vs fault-free: %+d ticks (checkpoint schemes pay this at fault time;@."
    (Option.value ~default:0 faulty.Cluster.answer_time
    - Option.value ~default:0 clean.Cluster.answer_time);
  Format.printf "replication paid ~3x up front instead — see experiment Q6)@.";
  if not correct then exit 1
