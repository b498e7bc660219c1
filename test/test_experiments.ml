(* End-to-end: every registered experiment runs (quick mode) and all of
   its internal checks — the reproduced claims of the paper — hold. *)

module Registry = Recflow_experiments.Registry
module Report = Recflow_experiments.Report
module Paper_tree = Recflow_experiments.Paper_tree
module Stamp = Recflow_recovery.Stamp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let experiment_case (e : Registry.entry) =
  Alcotest.test_case (e.Registry.id ^ " " ^ e.Registry.title) `Slow (fun () ->
      let r = e.Registry.run ~quick:true () in
      check "has tables" true (r.Report.tables <> []);
      List.iter
        (fun (name, ok) -> check (e.Registry.id ^ ": " ^ name) true ok)
        r.Report.checks)

let registry_sanity () =
  check_int "20 experiments" 20 (List.length Registry.all);
  check "X5 is gone" true (Registry.find "x5" = None);
  check "find is case-insensitive" true (Registry.find "f1" <> None);
  check "unknown id" true (Registry.find "Z9" = None);
  let ids = Registry.ids in
  check "ids unique" true (List.length (List.sort_uniq compare ids) = List.length ids)

let markdown_renders () =
  let r = Recflow_experiments.Exp_fig2.run () in
  let md = Report.to_markdown r in
  check "has header" true (String.length md > 0 && md.[0] = '#');
  check "mentions figure" true (String.length md > 100)

let paper_tree_consistency () =
  (* 17 tasks, stamps unique, children stamps extend the parent's *)
  check_int "17 tasks" 17 (List.length Paper_tree.all);
  let stamps = List.map (fun (n : Paper_tree.node) -> Stamp.digits n.Paper_tree.stamp) Paper_tree.all in
  check "stamps unique" true (List.length (List.sort_uniq compare stamps) = 17);
  List.iter
    (fun (n : Paper_tree.node) ->
      List.iter
        (fun (c : Paper_tree.node) ->
          check "child extends parent stamp" true
            (Stamp.is_ancestor n.Paper_tree.stamp c.Paper_tree.stamp))
        n.Paper_tree.children)
    Paper_tree.all;
  (* each processor hosts the tasks its name says *)
  List.iter
    (fun (n : Paper_tree.node) ->
      let letter = String.sub n.Paper_tree.label 0 1 in
      check_int
        ("task " ^ n.Paper_tree.label ^ " on its processor")
        (Paper_tree.proc_of_name letter) n.Paper_tree.proc)
    Paper_tree.all

let paper_tree_fragments_exhaustive () =
  (* failing each processor partitions the survivors exactly *)
  List.iter
    (fun proc ->
      let frags = Paper_tree.fragments ~failed:proc in
      let members = List.concat frags in
      let survivors =
        List.filter (fun (n : Paper_tree.node) -> n.Paper_tree.proc <> proc) Paper_tree.all
      in
      check_int
        ("fragments of P" ^ string_of_int proc ^ " cover survivors")
        (List.length survivors) (List.length members);
      check "no duplicates" true
        (List.length (List.sort_uniq compare members) = List.length members))
    [ 0; 1; 2; 3 ]

let suites =
  [
    ( "experiments.meta",
      [
        Alcotest.test_case "registry" `Quick registry_sanity;
        Alcotest.test_case "markdown" `Quick markdown_renders;
        Alcotest.test_case "paper tree consistency" `Quick paper_tree_consistency;
        Alcotest.test_case "paper tree fragments" `Quick paper_tree_fragments_exhaustive;
      ] );
    ("experiments.reproduction", List.map experiment_case Registry.all);
  ]
