(* Rollback recovery (§3) in action: kill a processor mid-run and watch
   the peers re-issue exactly their topmost functional checkpoints.

   Run with:  dune exec examples/rollback_fib.exe *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Journal = Recflow_machine.Journal
module Workload = Recflow_workload.Workload
open Recflow_lang

let () =
  let w = Workload.fib in
  let config = { (Config.default ~nodes:8) with Config.recovery = Config.Rollback } in
  let cluster = Cluster.create config (Workload.program w) in
  Cluster.fail_at cluster ~time:500 2;
  Cluster.start cluster ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Small);
  let outcome = Cluster.run cluster in

  let expected = Workload.expected w Workload.Small in
  let correct = Option.fold ~none:false ~some:(Value.equal expected) outcome.Cluster.answer in
  (match outcome.Cluster.answer with
  | Some v ->
    Format.printf "fib answer after losing P2 at t=500: %s (%s)@." (Value.to_string v)
      (if correct then "correct" else "WRONG")
  | None -> Format.printf "no answer@.");

  (* The journal shows the §3.2 protocol: checkpointed tasks re-issued by
     the processors that held them, orphans aborted and garbage collected. *)
  let journal = Cluster.journal cluster in
  Format.printf "@.recovery events (first 12):@.";
  Journal.entries journal
  |> List.filter (fun (e : Journal.entry) ->
         match e.Journal.event with
         | Journal.Failure _ | Journal.Respawned _ | Journal.Aborted _
         | Journal.Orphan_dropped _ -> true
         | _ -> false)
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter (fun e -> Format.printf "  %a@." Journal.pp_entry e);

  let count pred = Journal.count journal pred in
  Format.printf "@.re-issued checkpoints: %d@."
    (count (function Journal.Respawned _ -> true | _ -> false));
  Format.printf "orphans aborted (garbage collection): %d@."
    (count (function Journal.Aborted _ -> true | _ -> false));
  Format.printf "orphan results dropped (no salvage under rollback): %d@."
    (count (function Journal.Orphan_dropped _ -> true | _ -> false));
  if not correct then exit 1
