(* The §5.2 extension live: when a task's parent AND grandparent hosts die
   simultaneously, orphan salvage is stranded with grandparent-only links
   but resumes with great-grandparent links (ancestor_depth = 2).

   Run with:  dune exec examples/multifault_ancestors.exe *)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Counter = Recflow_stats.Counter
module Workload = Recflow_workload.Workload
module Plan = Recflow_fault.Plan
module Stamp = Recflow_recovery.Stamp
open Recflow_lang

let w = Workload.synthetic ~branching:2 ~depth:8 ~grain:60

let size = Workload.Medium

let run ~ancestor_depth =
  let config =
    {
      (Config.default ~nodes:8) with
      Config.recovery = Config.Splice;
      ancestor_depth;
      inline_depth = 9;
      (* gradient placement co-locates lineages: chain failures are easy
         to find; slow detection makes the salvage race visible *)
      policy = Recflow_balance.Policy.Gradient { weight = 2 };
      detect_delay = 1500;
    }
  in
  (* probe fault-free to find a live task whose parent and grandparent sit
     on two distinct processors, then kill both at once *)
  let probe = Cluster.create config (Workload.program w) in
  Cluster.start probe ~fname:w.Workload.entry ~args:(w.Workload.args size);
  let po = Cluster.run probe in
  let t_fail = Option.value ~default:1000 po.Cluster.answer_time * 2 / 5 in
  match Plan.Pick.parent_grandparent_pair (Cluster.journal probe) ~time:t_fail with
  | None -> Format.printf "no chain pair found in the probe run@."; None
  | Some (ph, gh) ->
    let cluster = Cluster.create config (Workload.program w) in
    Cluster.fail_at cluster ~time:t_fail ph;
    Cluster.fail_at cluster ~time:t_fail gh;
    Cluster.start cluster ~fname:w.Workload.entry ~args:(w.Workload.args size);
    let o = Cluster.run ~drain:true cluster in
    let expected = Workload.expected w size in
    let correct = Option.fold ~none:false ~some:(Value.equal expected) o.Cluster.answer in
    let c name = Counter.get (Cluster.counters cluster) name in
    Format.printf
      "ancestor_depth=%d: killed P%d and P%d at t=%d -> answer %s, %d results stranded, %d \
       relayed, %d stashed at twins@."
      ancestor_depth ph gh t_fail
      (match o.Cluster.answer with
      | Some v -> Value.to_string v ^ if correct then " (correct)" else " (WRONG)"
      | None -> "lost")
      (c "relay.stranded") (c "relay.forwarded") (c "relay.stashed");
    Some (c "relay.stranded", correct)

let () =
  Format.printf "Simultaneous parent+grandparent failure (§5.2):@.@.";
  let s1 = run ~ancestor_depth:1 in
  let s2 = run ~ancestor_depth:2 in
  (match (s1, s2) with
  | Some (a, _), Some (b, _) when b < a ->
    Format.printf
      "@.great-grandparent links rescued %d orphan results that grandparent-only links \
       stranded — the extension the paper sketches in §5.2.@."
      (a - b)
  | _ -> Format.printf "@.(placement did not produce a comparable pair this time)@.");
  if List.exists (function Some (_, correct) -> not correct | None -> false) [ s1; s2 ] then
    exit 1
