(* Where a tree run's live words are.  Runs the synthetic tree of the
   tree_1024 benchmark workload (static placement, splice recovery, batched
   delivery, streaming journal, 0-2 tick latency jitter, fault-free) and,
   at each of 16 journal samples spaced as the benchmark's memory pass
   spaces them, splits [Obj.reachable_words] of the cluster into rows:

     stamps, packets, instances, child records, task records, tombstones,
     index, checkpoint tables, rest

   Each row is the words its roots ([Node.iter_parts]) add to the rows
   before it, so a block reachable from two rows counts in the first: a
   packet's stamp is a stamp, a child's packet is its activation's packet,
   and the checkpoint-table row is the table's index around packets the
   rows above already hold.  The graph templates the instances share are
   counted in "rest" with everything else the cluster holds.  The rows sum
   to the cluster's reachable words; with --check the tool exits 1 at the
   first sample where they do not.

     dune exec bin/live_words.exe                 # tree_1024: 1024 processors, depth 15
     dune exec bin/live_words.exe -- --quick --check

   With --service it runs the service_k3 benchmark workload's stream
   instead (8 processors, k = 3 replicas under splice, fib tiny at a mean
   gap of 400 ticks, retained journal, seed 17, two kills: 500 requests,
   or 40 with --quick) and splits the drained cluster's words once, into

     node indexes, journal, requests, rest

   counted the same way, in that order: the nodes' task indexes, the
   journal's retained entries, the request ledger's window of open
   requests and what the super-root keeps of the settled ones
   ([Cluster.request_roots]), and everything else.

     dune exec bin/live_words.exe -- --service --quick --check
*)

module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Journal = Recflow_machine.Journal
module Node = Recflow_machine.Node
module Sink = Recflow_obs_core.Sink
module Workload = Recflow_workload.Workload
module Service = Recflow_service.Service

(* The rows in the order they are counted.  The graph templates the
   instances share are counted before the instances, so that row leaves
   them out, and they go to "rest". *)
let rows =
  [
    ("stamps", Node.Stamps);
    ("packets", Node.Packets);
    ("rest", Node.Templates);
    ("instances", Node.Instances);
    ("child records", Node.Children);
    ("task records", Node.Tasks);
    ("tombstones", Node.Tombstones);
    ("index", Node.Index);
    ("checkpoint tables", Node.Checkpoints);
  ]

(* Reachable words of the blocks under [roots], the array itself left
   out. *)
let words roots =
  if Array.length roots = 0 then 0
  else Obj.reachable_words (Obj.repr roots) - (Array.length roots + 1)

(* [named] root lists split cumulatively into rows, "rest" (everything
   else [c] reaches) last, with [c]'s total. *)
let split_rows c named =
  let roots = ref [] and before = ref 0 in
  let split =
    List.map
      (fun (name, os) ->
        roots := os @ !roots;
        let w = words (Array.of_list !roots) in
        let row = w - !before in
        before := w;
        (name, row))
      named
  in
  let all = words (Array.of_list (Obj.repr c :: !roots)) in
  (split @ [ ("rest", all - !before) ], Obj.reachable_words (Obj.repr c))

(* A drained service_k3 stream's words: node indexes, journal, requests,
   rest. *)
let service ~quick =
  let requests, failures =
    if quick then (40, [ (3_000, 0); (6_000, 2) ]) else (500, [ (60_000, 0); (120_000, 2) ])
  in
  let base = Config.default ~nodes:8 in
  let cfg =
    {
      base with
      Config.recovery = Config.Splice;
      seed = 17;
      journal_retain = true;
      service =
        { base.Config.service with Config.arrival_mean = 400.0; replicas = 3; max_inflight = 64 };
    }
  in
  let o =
    Service.run ~failures ~config:cfg ~workload:Workload.fib ~size:Workload.Tiny ~requests ()
  in
  let c = o.Service.cluster in
  let index = ref [] in
  List.iter
    (fun n -> Node.iter_parts n (fun part o -> if part = Node.Index then index := o :: !index))
    (Cluster.nodes c);
  Printf.printf
    "service_k3: %d requests, %d replica roots (k = 3), %d settled, %d journal entries retained\n"
    requests (Cluster.submitted_requests c) (Cluster.settled_requests c)
    (Journal.retained (Cluster.journal c));
  split_rows c
    [
      ("node indexes", !index);
      ("journal", [ Obj.repr (Cluster.journal c) ]);
      ("requests", Cluster.request_roots c);
    ]

(* The cluster's words split into [rows], "rest" last, with its total. *)
let attribute c =
  let parts = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Node.iter_parts n (fun part o ->
          Hashtbl.replace parts part (o :: Option.value ~default:[] (Hashtbl.find_opt parts part))))
    (Cluster.nodes c);
  let roots = ref [] and before = ref 0 and rest = ref 0 in
  let split =
    List.filter_map
      (fun (name, part) ->
        roots := Option.value ~default:[] (Hashtbl.find_opt parts part) @ !roots;
        let w = words (Array.of_list !roots) in
        let row = w - !before in
        before := w;
        if name = "rest" then begin
          rest := !rest + row;
          None
        end
        else Some (name, row))
      rows
  in
  let all = words (Array.of_list (Obj.repr c :: !roots)) in
  (split @ [ ("rest", !rest + all - !before) ], Obj.reachable_words (Obj.repr c))

let () =
  let nodes = ref 1024 and depth = ref 15 and grain = ref 20 and seed = ref 1 in
  let check = ref false and quick = ref false and stream = ref false in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "N processors (default 1024)");
      ("--depth", Arg.Set_int depth, "D tree depth (default 15)");
      ("--grain", Arg.Set_int grain, "G leaf work (default 20)");
      ("--seed", Arg.Set_int seed, "S simulation seed (default 1)");
      ( "--quick",
        Arg.Unit
          (fun () ->
            quick := true;
            nodes := 64;
            depth := 8),
        " 64 processors, depth 8 (the benchmark's quick size); 40 requests with --service" );
      ("--service", Arg.Set stream, " a drained service_k3 stream instead of a tree run");
      ("--check", Arg.Set check, " exit 1 unless every sample's rows sum to the cluster's words");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "live_words [--service] [--quick] [--nodes N] [--depth D] [--grain G] [--seed S] [--check]";
  if !stream then begin
    let split, total = service ~quick:!quick in
    Printf.printf "%10s" "total";
    List.iter (fun (name, _) -> Printf.printf " %20s" name) split;
    print_newline ();
    Printf.printf "%10d" total;
    List.iter (fun (_, w) -> Printf.printf " %20d" w) split;
    print_newline ();
    let sum = List.fold_left (fun acc (_, w) -> acc + w) 0 split in
    if sum <> total then Printf.printf "rows sum to %d, the cluster holds %d\n" sum total;
    exit (if !check && sum <> total then 1 else 0)
  end;
  let w = Workload.synthetic ~branching:2 ~depth:!depth ~grain:!grain in
  let base = Config.default ~nodes:!nodes in
  let cfg =
    {
      base with
      Config.policy = Recflow_balance.Policy.Static_hash;
      recovery = Config.Splice;
      inline_depth = !depth;
      batched_delivery = true;
      journal_retain = false;
      latency = { base.Config.latency with Recflow_net.Latency.jitter = 2 };
      seed = !seed;
    }
  in
  let run hook =
    let c = Cluster.create cfg (Workload.program w) in
    hook c;
    Cluster.start c ~fname:w.Workload.entry ~args:(w.Workload.args Workload.Medium);
    ignore (Cluster.run c);
    c
  in
  (* A first run counts the journal entries the samples are spaced over. *)
  let journal_len = Journal.length (Cluster.journal (run ignore)) in
  Printf.printf "tree: %d processors, depth %d, grain %d, seed %d; %d journal entries\n" !nodes
    !depth !grain !seed journal_len;
  let ok = ref true and header = ref false in
  let sample c k =
    let split, total = attribute c in
    let live = List.fold_left (fun acc n -> acc + Node.live_tasks n) 0 (Cluster.nodes c) in
    if not !header then begin
      header := true;
      Printf.printf "%6s %10s %10s" "sample" "live tasks" "total";
      List.iter (fun (name, _) -> Printf.printf " %18s" name) split;
      print_newline ()
    end;
    Printf.printf "%6d %10d %10d" k live total;
    List.iter (fun (_, w) -> Printf.printf " %18d" w) split;
    print_newline ();
    let sum = List.fold_left (fun acc (_, w) -> acc + w) 0 split in
    if sum <> total then begin
      ok := false;
      Printf.printf "sample %d: rows sum to %d, the cluster holds %d\n" k sum total
    end
  in
  let seen = ref 0 and next = ref 1 in
  ignore
    (run (fun c ->
         Journal.attach_sink (Cluster.journal c)
           (Sink.of_fun (fun _ ->
                incr seen;
                if !seen * 16 >= !next * journal_len then begin
                  sample c !next;
                  incr next
                end))));
  if !next <> 17 then begin
    ok := false;
    Printf.printf "%d samples taken, not 16\n" (!next - 1)
  end;
  if !check && not !ok then exit 1
