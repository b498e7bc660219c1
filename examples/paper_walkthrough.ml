(* The paper's own worked example, executable: Figure 1's call tree on
   processors A-D, its checkpoint tables, B's failure, and the resulting
   fragments and re-issue sets; then Figure 2's grandparent pointers.

   Run with:  dune exec examples/paper_walkthrough.exe *)

let () =
  let reports = [ Recflow_experiments.Exp_fig1.run (); Recflow_experiments.Exp_fig2.run () ] in
  List.iter (Format.printf "%a" Recflow_experiments.Report.pp) reports;
  if not (List.for_all Recflow_experiments.Report.all_checks_pass reports) then exit 1
