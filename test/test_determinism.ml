(* Determinism regression: golden digests of full journal event streams.

   Perf work on the hot structures (stamps, checkpoint tables, the event
   engine) must never reorder events or change answers: every workload x
   seed x recovery scheme has to replay byte-identically.  Each case below
   runs a faulty cluster simulation and hashes the complete journal
   rendering (every entry via [Journal.pp_entry], in order) together with
   the answer, final clock and dispatch count; the hex digests are pinned
   against values recorded from the pre-optimisation implementation.

   To regenerate after an *intentional* semantic change, run

     RECFLOW_GOLDEN=print dune exec test/test_main.exe -- test determinism

   and paste the printed table over [goldens] — but first be sure the
   change is supposed to alter schedules; this suite exists to make that
   decision explicit rather than accidental.

   Each case also pins the recovery oracle's report in a table of its own
   ([oracle_goldens]), so a change to how the oracle reaches its verdict
   shows up apart from the journal digests. *)

module Config = Recflow_machine.Config
module Cluster = Recflow_machine.Cluster
module Journal = Recflow_machine.Journal
module Oracle = Recflow_machine.Oracle
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value

let recovery_tag = function
  | Config.Rollback -> "rollback"
  | Config.Splice -> "splice"
  | Config.No_recovery -> "none"
  | Config.Replicate k -> Printf.sprintf "replicate-%d" k

let digest_of_run ?drain cfg w plan =
  let c = Cluster.create cfg (Workload.program w) in
  Recflow_fault.Plan.apply c plan;
  Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Small);
  (* the batch root is one request of the super-root's table *)
  Alcotest.(check int) "root in flight before the answer" 1 (Cluster.in_flight c);
  let o = Cluster.run ?drain c in
  Alcotest.(check int) "nothing in flight after the answer" 0 (Cluster.in_flight c);
  let buf = Buffer.create 16384 in
  List.iter
    (fun e -> Buffer.add_string buf (Format.asprintf "%a\n" Journal.pp_entry e))
    (Journal.entries (Cluster.journal c));
  Buffer.add_string buf
    (match o.Cluster.answer with Some v -> Value.to_string v | None -> "<no-answer>");
  Buffer.add_string buf
    (Printf.sprintf "|sim_time=%d|events=%d" o.Cluster.sim_time o.Cluster.events);
  (Digest.to_hex (Digest.string (Buffer.contents buf)), c)

let workloads = [ Workload.fib; Workload.tree_sum; Workload.nqueens ]

let seeds = [ 1; 42 ]

let recoveries = [ Config.Rollback; Config.Splice ]

let cases =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun seed -> List.map (fun r -> (w, seed, r)) recoveries)
        seeds)
    workloads

(* Hex MD5 of the journal stream for each (workload, seed, recovery),
   recorded from the list-based stamp / linear-scan table implementation. *)
let goldens =
  [
    ("fib", 1, "rollback", "d41cf452398a917a85d6dc543ae866b0");
    ("fib", 1, "splice", "889ba631df5bfd90c542780edc325858");
    ("fib", 42, "rollback", "a2633c93bfeb5c3b928447debb1335ec");
    ("fib", 42, "splice", "c379e6e3c2f7747677d5683d50c91eda");
    ("tree_sum", 1, "rollback", "32868f52852aa9278fa75f52fe7107d5");
    ("tree_sum", 1, "splice", "cc4035d95fa57c67e54ecc05a50a66fa");
    ("tree_sum", 42, "rollback", "5c5ae9a73077c36425ff0442919d86c2");
    ("tree_sum", 42, "splice", "61d7e2e3f4295589863739342eaa6208");
    ("nqueens", 1, "rollback", "98d7f8dfbd2d08c6a8d5f666aa1d0b00");
    ("nqueens", 1, "splice", "f46d8ca58e757ca5099bfab9fdd00b85");
    ("nqueens", 42, "rollback", "6da22210846a5c51b9203c26105f00eb");
    ("nqueens", 42, "splice", "54faf5bba1e05d2c3e1edbf739c0c440");
  ]

(* The oracle's report for each case, rendered by [render_report] and
   recorded before the batch root joined the super-root's request table. *)
let oracle_goldens =
  let ok =
    "answers=1 distinct=1 leaked=0 stranded=0 abandoned=0 unsettled=0 quiescent=true violations=[]"
  in
  [
    ("fib/1/rollback", ok);
    ("fib/1/splice", ok);
    ("fib/42/rollback", ok);
    ("fib/42/splice", ok);
    ("tree_sum/1/rollback", ok);
    ("tree_sum/1/splice", ok);
    ("tree_sum/42/rollback", ok);
    ("tree_sum/42/splice", ok);
    ("nqueens/1/rollback", ok);
    ("nqueens/1/splice", ok);
    ("nqueens/42/rollback", ok);
    ("nqueens/42/splice", ok);
    ("synthetic/1/splice-ad2-double", ok);
    ( "service/7/splice",
      "answers=3 distinct=3 leaked=0 stranded=0 abandoned=0 unsettled=0 quiescent=true \
       violations=[]" );
  ]

let render_report (r : Oracle.report) =
  Printf.sprintf
    "answers=%d distinct=%d leaked=%d stranded=%d abandoned=%d unsettled=%d quiescent=%b \
     violations=[%s]"
    r.Oracle.answers r.distinct_answers r.leaked_tasks r.stranded_checkpoints r.abandoned_tasks
    r.unsettled_sends r.quiescent (String.concat "; " r.violations)

let check_report name c =
  let actual = render_report (Oracle.check c) in
  if Sys.getenv_opt "RECFLOW_GOLDEN" = Some "print" then
    Printf.printf "    (%S, %S);\n%!" name actual;
  match List.assoc_opt name oracle_goldens with
  | None -> Alcotest.failf "no oracle report recorded for %s" name
  | Some expected -> Alcotest.(check string) (name ^ " oracle report") expected actual

let golden_key w seed r = Printf.sprintf "%s/%d/%s" w.Workload.name seed (recovery_tag r)

let test_case (w, seed, r) =
  let name = golden_key w seed r in
  Alcotest.test_case name `Slow (fun () ->
      let cfg =
        { (Config.default ~nodes:6) with Config.recovery = r; seed; inline_depth = 6;
          policy = Recflow_balance.Policy.Random }
      in
      let actual, c = digest_of_run cfg w (Recflow_fault.Plan.single ~time:150 1) in
      check_report name c;
      if Sys.getenv_opt "RECFLOW_GOLDEN" = Some "print" then
        Printf.printf "    (%S, %d, %S, %S);\n%!" w.Workload.name seed (recovery_tag r) actual;
      match
        List.find_opt
          (fun (n, s, rt, _) -> n = w.Workload.name && s = seed && rt = recovery_tag r)
          goldens
      with
      | None -> Alcotest.failf "no golden digest recorded for %s" name
      | Some (_, _, _, expected) ->
        Alcotest.(check string) (name ^ " journal digest") expected actual)

(* A parent+grandparent double fault under splice with depth-2 ancestor
   links: the only golden whose salvage walks stash results and adoption
   reports at a twin that has not spawned the chain link yet, and that
   holds both kinds of message for twins still in flight.  Drained, so the
   oracle's leak and strand checks apply as well as the answer check. *)
let double_fault_golden = "380460ce04d8b79d16fe46249b9dd091"

let double_fault_case =
  Alcotest.test_case "synthetic/1/splice-ad2-double" `Slow (fun () ->
      let w = Workload.synthetic ~branching:2 ~depth:8 ~grain:60 in
      let cfg =
        { (Config.default ~nodes:8) with Config.recovery = Config.Splice; seed = 1;
          inline_depth = 8; ancestor_depth = 2; policy = Recflow_balance.Policy.Random }
      in
      let actual, c = digest_of_run ~drain:true cfg w [ (3000, 3); (3300, 5) ] in
      if Sys.getenv_opt "RECFLOW_GOLDEN" = Some "print" then
        Printf.printf "    double fault: %S\n%!" actual;
      let counter = Recflow_stats.Counter.get (Cluster.counters c) in
      Alcotest.(check bool) "results stashed at a twin" true (counter "relay.stashed" > 0);
      Alcotest.(check bool) "reports stashed at a twin" true (counter "adopt.stashed" > 0);
      ignore (Oracle.assert_ok ~expected:(Workload.expected w Workload.Small) c);
      check_report "synthetic/1/splice-ad2-double" c;
      Alcotest.(check string) "double fault journal digest" double_fault_golden actual)

(* A drained service run under a failure: three concurrent roots, the
   oracle's per-request verdicts pinned like the batch ones. *)
let service_case =
  Alcotest.test_case "service/7/splice oracle" `Quick (fun () ->
      let w = Workload.fib in
      let cfg = { (Config.default ~nodes:6) with Config.recovery = Config.Splice; seed = 7 } in
      let c = Cluster.create cfg (Workload.program w) in
      Cluster.fail_at c ~time:150 1;
      Cluster.begin_service c;
      List.iter
        (fun n -> ignore (Cluster.submit c ~fname:w.Workload.entry ~args:[ Value.Int n ] ()))
        [ 9; 10; 11 ];
      Cluster.close_arrivals c;
      Alcotest.(check int) "three in flight" 3 (Cluster.in_flight c);
      ignore (Cluster.run ~drain:true c);
      Alcotest.(check int) "none in flight" 0 (Cluster.in_flight c);
      check_report "service/7/splice" c)

let suites = [ ("determinism", List.map test_case cases @ [ double_fault_case; service_case ]) ]
