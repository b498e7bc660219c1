(* Splice recovery (§4) end to end: a processor dies, its orphaned
   children announce themselves, twins are regenerated from functional
   checkpoints, living orphans are inherited (not cloned), and their
   results are spliced back through grandparent relays.

   Run with:  dune exec examples/splice_salvage.exe *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Journal = Recflow_machine.Journal
module Counter = Recflow_stats.Counter
module Workload = Recflow_workload.Workload
open Recflow_lang

let () =
  let w = Workload.tree_sum in
  let config =
    {
      (Config.default ~nodes:8) with
      Config.recovery = Config.Splice;
      policy = Recflow_balance.Policy.Random;
      detect_delay = 600;
    }
  in
  let cluster = Cluster.create config (Workload.program w) in
  Cluster.fail_at cluster ~time:400 3;
  Cluster.start cluster ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Small);
  let outcome = Cluster.run cluster in

  let expected = Workload.expected w Workload.Small in
  let correct = Option.fold ~none:false ~some:(Value.equal expected) outcome.Cluster.answer in
  (match outcome.Cluster.answer with
  | Some v ->
    Format.printf "tree_sum after losing P3 at t=400: %s (%s)@." (Value.to_string v)
      (if correct then "correct" else "WRONG")
  | None -> Format.printf "no answer@.");

  let c name = Counter.get (Cluster.counters cluster) name in
  Format.printf "@.splice machinery:@.";
  Format.printf "  twins re-issued from checkpoints:   %d@." (c "reissue.count");
  Format.printf "  living orphans adopted (inherited): %d@." (c "spawn.inherited");
  Format.printf "  orphan results relayed:             %d@." (c "relay.forwarded");
  Format.printf "  results already there (no respawn): %d@." (c "spawn.skipped_preheld");
  Format.printf "  duplicates ignored:                 %d@." (c "dup.ignored");

  Format.printf "@.per-processor activity (X = failed):@.";
  print_string (Recflow_machine.Timeline.render (Cluster.journal cluster) ~nodes:8 ());

  Format.printf "@.inheritance events:@.";
  Journal.entries (Cluster.journal cluster)
  |> List.filter (fun (e : Journal.entry) ->
         match e.Journal.event with Journal.Inherited _ -> true | _ -> false)
  |> List.filteri (fun i _ -> i < 10)
  |> List.iter (fun e -> Format.printf "  %a@." Journal.pp_entry e);
  if not correct then exit 1
