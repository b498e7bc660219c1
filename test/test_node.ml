(* Unit tests of the node protocol (§4.2) against a scripted context: every
   message the node emits is captured, the scheduler is pumped by hand, and
   no cluster/event loop is involved.  This isolates protocol paths that
   are hard to pin down end-to-end: bounce varieties, adoption stash and
   flush, vote bookkeeping, abort cascades, checkpoint discharge. *)

module Node = Recflow_machine.Node
module Config = Recflow_machine.Config
module Message = Recflow_machine.Message
module Journal = Recflow_machine.Journal
module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ckpt_table = Recflow_recovery.Ckpt_table
module Value = Recflow_lang.Value
module Graph = Recflow_lang.Graph
module Counter = Recflow_stats.Counter

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let program =
  Recflow_lang.Parser.parse_program_exn
    "def add1(n) = n + 1\n\
     def par(n) = add1(n) + add1(n + 1)\n\
     def wide(n) = add1(n) + add1(n) + add1(n)\n\
     def synth(d, g) = if d == 0 then spin(g, 0) else synth(d - 1, g) + synth(d - 1, g)\n\
     def spin(g, acc) = if g == 0 then acc else spin(g - 1, acc + 1) "

let library = Graph.compile_program program

(* A scripted world around one node: captures sends, counts wakes, fixes
   placement on a chosen destination. *)
type world = {
  node : Node.t;
  ctx : Node.ctx;
  sent : (int * int * Message.t) list ref;  (* src, dst, msg — oldest first *)
  journal : Journal.t;
  counters : Counter.set;
  errors : string list ref;
  mutable wakes : int;
  mutable next_id : int;
  mutable clock : int;
}

let make_world ?(config = Config.default ~nodes:4) ?(dest = 1) ~node_id () =
  let sent = ref [] in
  let journal = Journal.create () in
  let counters = Counter.create_set () in
  let errors = ref [] in
  let rec w =
    lazy
      (let ctx : Node.ctx =
         {
           Node.config;
           now = (fun () -> (Lazy.force w).clock);
           send = (fun ~src ~dst msg -> sent := !sent @ [ (src, dst, msg) ]);
           send_after = (fun ~delay:_ ~src ~dst msg -> sent := !sent @ [ (src, dst, msg) ]);
           wake =
             (fun _ ~delay:_ ->
               let w = Lazy.force w in
               w.wakes <- w.wakes + 1);
           fresh_task_id =
             (fun () ->
               let w = Lazy.force w in
               let id = w.next_id in
               w.next_id <- id + 1;
               id);
           place = (fun ~origin:_ ~key:_ -> dest);
           first_alive = (fun ~key:_ -> Some dest);
           neighbors = (fun _ -> [ 0; 1; 3 ]);
           template = Graph.find_exn library;
           inline_eval =
             (fun fname args ->
               match Recflow_lang.Eval_serial.eval program fname (Array.to_list args) with
               | v, steps -> Ok (v, steps)
               | exception Recflow_lang.Eval_serial.Runtime_error m -> Error m);
           journal;
           counters;
           record_latency = (fun _ _ -> ());
           program_error = (fun m -> errors := m :: !errors);
           settle =
             Recflow_machine.Settle.create ~procs:4
               ~reclaim:(fun ~proc:_ _ -> 0)
               ~reclaim_all:(fun () -> 0)
               ~on_settle:(fun _ -> ());
         }
       in
       {
         node = Node.create node_id config;
         ctx;
         sent;
         journal;
         counters;
         errors;
         wakes = 0;
         next_id = 1000;
         clock = 0;
       })
  in
  Lazy.force w

(* Drain the node's CPU: honour every requested wake until quiescent. *)
let pump w =
  let guard = ref 0 in
  while w.wakes > 0 && !guard < 100_000 do
    w.wakes <- w.wakes - 1;
    w.clock <- w.clock + 1;
    Node.step w.node w.ctx;
    incr guard
  done;
  check "pump terminated" true (!guard < 100_000)

let deliver w msg =
  Node.deliver w.node w.ctx msg;
  pump w

let parent_link ~task ~proc ~slot = { Packet.task; proc; slot }

let mk_packet ?(stamp = Stamp.of_digits [ 0 ]) ?(fname = "add1") ?(args = [| Value.Int 41 |])
    ?(parent = parent_link ~task:99 ~proc:0 ~slot:7) ?grandparent () =
  Packet.make ~stamp ~fname ~args ~parent ~grandparent ~ancestors:[]

let activate ?(task_id = 500) w packet =
  deliver w (Message.Task_packet { packet; task_id; replica = 0; replicas = 1 })

let sent_to w dst =
  List.filter_map (fun (_, d, m) -> if d = dst then Some m else None) !(w.sent)

let results_sent w =
  List.filter_map (fun (_, _, m) -> match m with Message.Result r -> Some r | _ -> None) !(w.sent)

let packets_sent w =
  (* (packet, task id) pairs, oldest first *)
  List.filter_map
    (fun (_, _, m) ->
      match m with
      | Message.Task_packet { packet; task_id; _ } -> Some (packet, task_id)
      | _ -> None)
    !(w.sent)

(* ---------------- activation / completion ---------------- *)

let ack_then_result () =
  let w = make_world ~node_id:2 () in
  activate w (mk_packet ());
  (* ack to the parent's processor, then the computed result *)
  (match sent_to w 0 with
  | [ Message.Ack { child_task; slot; _ }; Message.Result r ] ->
    check_int "ack child task" 500 child_task;
    check_int "ack slot" 7 slot;
    check "result value" true (Value.equal r.Message.value (Value.Int 42));
    check_int "result target task" 99 r.Message.target.Packet.task;
    check_int "result target slot" 7 r.Message.target.Packet.slot;
    check "to parent" true (r.Message.relay = Message.To_parent)
  | ms -> Alcotest.failf "unexpected messages: %d" (List.length ms));
  check_int "no program errors" 0 (List.length !(w.errors))

let no_ack_for_super_root () =
  let w = make_world ~node_id:2 () in
  activate w
    (mk_packet ~stamp:Stamp.root
       ~parent:(parent_link ~task:Recflow_recovery.Ids.no_task ~proc:Recflow_recovery.Ids.super_root ~slot:0)
       ());
  check "only the result goes out" true
    (List.for_all (fun (_, _, m) -> match m with Message.Ack _ -> false | _ -> true) !(w.sent))

let spawn_links_and_checkpoint () =
  let w = make_world ~node_id:2 () in
  let gp = parent_link ~task:11 ~proc:3 ~slot:1 in
  activate w (mk_packet ~fname:"par" ~stamp:(Stamp.of_digits [ 4 ]) ~grandparent:gp ());
  (match packets_sent w with
  | [ (p1, _); (p2, _) ] ->
    Alcotest.(check (list int)) "first child stamp" [ 4; 0 ] (Stamp.digits p1.Packet.stamp);
    Alcotest.(check (list int)) "second child stamp" [ 4; 1 ] (Stamp.digits p2.Packet.stamp);
    check_int "children parented on this activation" 500 p1.Packet.parent.Packet.task;
    check_int "parent proc is this node" 2 p1.Packet.parent.Packet.proc;
    (* the child's grandparent link is this task's parent link *)
    (match p1.Packet.grandparent with
    | Some l -> check_int "grandparent is the spawner's parent" 99 l.Packet.task
    | None -> Alcotest.fail "no grandparent link");
    check "distinct slots" true (p1.Packet.parent.Packet.slot <> p2.Packet.parent.Packet.slot)
  | ps -> Alcotest.failf "expected 2 spawns, got %d" (List.length ps));
  check_int "both checkpointed" 2 (Ckpt_table.total_size (Node.checkpoints w.node))

let child_results_complete_parent () =
  let w = make_world ~node_id:2 () in
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  let spawns = packets_sent w in
  check_int "two children out" 2 (List.length spawns);
  (* feed both answers back: add1(10)=11, add1(11)=12 *)
  List.iter
    (fun (p, _) ->
      let v =
        match p.Packet.args.(0) with Value.Int n -> Value.Int (n + 1) | _ -> assert false
      in
      deliver w
        (Message.Result
           { stamp = p.Packet.stamp; value = v; target = p.Packet.parent;
             relay = Message.To_parent }))
    spawns;
  (match results_sent w with
  | [ r ] -> check "23" true (Value.equal r.Message.value (Value.Int 23))
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs));
  check_int "checkpoints discharged" 0 (Ckpt_table.total_size (Node.checkpoints w.node))

let duplicate_result_ignored () =
  let w = make_world ~node_id:2 () in
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  match packets_sent w with
  | (p, _) :: _ ->
    let res v =
      Message.Result
        { stamp = p.Packet.stamp; value = v; target = p.Packet.parent;
          relay = Message.To_parent }
    in
    deliver w (res (Value.Int 11));
    deliver w (res (Value.Int 11));
    check_int "duplicate counted" 1 (Counter.get w.counters "dup.ignored")
  | _ -> Alcotest.fail "no spawn"

let unknown_target_ignored () =
  let w = make_world ~node_id:2 () in
  deliver w
    (Message.Result
       { stamp = Stamp.of_digits [ 9 ]; value = Value.Int 1;
         target = parent_link ~task:4242 ~proc:2 ~slot:0; relay = Message.To_parent });
  check_int "ignored" 1 (Counter.get w.counters "result.ignored")

let inline_below_grain () =
  let config = { (Config.default ~nodes:4) with Config.inline_depth = 2 } in
  let w = make_world ~config ~node_id:2 () in
  (* par at depth 1 spawns children that would reach depth 2 -> inlined *)
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  check_int "no remote spawns" 0 (List.length (packets_sent w));
  match results_sent w with
  | [ r ] -> check "inline answer" true (Value.equal r.Message.value (Value.Int 23))
  | _ -> Alcotest.fail "expected one result"

(* A task that has not run holds its packet and bookkeeping but no graph
   instance (§2: the packet is all it needs to start); [step] builds the
   instance when the task first runs.  [k] packets of the X8 tree's
   [synth] delivered without a step add at most [queued_words_bound]
   words each: 35 with the instance deferred, 64 with it built at
   activation. *)
let queued_words_bound = 48

let queued_task_holds_no_instance () =
  let w = make_world ~node_id:2 () in
  let k = 64 in
  let before = Obj.reachable_words (Obj.repr w.node) in
  for i = 0 to k - 1 do
    let packet =
      mk_packet ~stamp:(Stamp.of_digits [ 3; i ]) ~fname:"synth" ~args:[| Value.Int 1; Value.Int 4 |] ()
    in
    Node.deliver w.node w.ctx (Message.Task_packet { packet; task_id = 500 + i; replica = 0; replicas = 1 })
  done;
  let per_task = (Obj.reachable_words (Obj.repr w.node) - before) / k in
  check_int "all queued" k (Node.runnable_tasks w.node);
  check
    (Printf.sprintf "%d words per queued task, bound %d" per_task queued_words_bound)
    true (per_task <= queued_words_bound);
  (* each builds its instance on its first step and spawns both children *)
  pump w;
  check_int "all blocked on their children" k (Node.blocked_tasks w.node);
  check_int "two children each" (2 * k) (List.length (packets_sent w));
  check_int "no program errors" 0 (List.length !(w.errors))

(* ---------------- failure handling ---------------- *)

let notice_reissues_topmost () =
  let w = make_world ~node_id:2 ~dest:1 () in
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  check_int "both to P1" 2 (List.length (packets_sent w));
  w.sent := [];
  deliver w (Message.Failure_notice { failed = 1 });
  let reissues = packets_sent w in
  (* the scripted placement can only nominate the dead node again, so the
     local-regen pass re-issues once more on top of the drained pass *)
  check "children re-issued" true (List.length reissues >= 2);
  check "journal respawns" true
    (Journal.count w.journal (function Journal.Respawned _ -> true | _ -> false) >= 2);
  check "node knows the death" true (Node.knows_dead w.node 1)

let notice_idempotent () =
  let w = make_world ~node_id:2 ~dest:1 () in
  activate w (mk_packet ~fname:"par" ());
  w.sent := [];
  deliver w (Message.Failure_notice { failed = 1 });
  let first = List.length !(w.sent) in
  deliver w (Message.Failure_notice { failed = 1 });
  check_int "second notice is a no-op" first (List.length !(w.sent))

let bounced_packet_reissued () =
  let w = make_world ~node_id:2 ~dest:1 () in
  activate w (mk_packet ~fname:"par" ());
  let lost_packet, lost_id = List.hd (packets_sent w) in
  w.sent := [];
  Node.handle_bounce w.node w.ctx ~dead:1
    (Message.Task_packet { packet = lost_packet; task_id = lost_id; replica = 0; replicas = 1 });
  pump w;
  check "re-issued after bounce" true (packets_sent w <> []);
  check "death learned from bounce" true (Node.knows_dead w.node 1)

let rollback_orphan_abort_cascade () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Rollback } in
  let w = make_world ~config ~node_id:2 ~dest:3 () in
  (* a task whose parent lives on P1; it has spawned children to P3 *)
  activate w (mk_packet ~fname:"par" ~parent:(parent_link ~task:7 ~proc:1 ~slot:0) ());
  w.sent := [];
  deliver w (Message.Failure_notice { failed = 1 });
  (* the orphan is aborted and abort messages cascade to its children *)
  check_int "aborted locally" 1 (Counter.get w.counters "task.aborted");
  check "abort cascaded to children" true
    (List.exists (fun (_, d, m) -> d = 3 && match m with Message.Abort _ -> true | _ -> false)
       !(w.sent));
  check_int "journal abort" 1
    (Journal.count w.journal (function Journal.Aborted _ -> true | _ -> false))

let splice_keeps_orphans () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  let w = make_world ~config ~node_id:2 ~dest:3 () in
  activate w (mk_packet ~fname:"par" ~parent:(parent_link ~task:7 ~proc:1 ~slot:0)
                ~grandparent:(parent_link ~task:3 ~proc:0 ~slot:4) ());
  w.sent := [];
  deliver w (Message.Failure_notice { failed = 1 });
  check_int "no aborts under splice" 0 (Counter.get w.counters "task.aborted");
  (* the living orphan reports itself to the grandparent *)
  check "adoption report sent" true
    (List.exists
       (fun (_, d, m) -> d = 0 && match m with Message.Orphan_alive _ -> true | _ -> false)
       !(w.sent))

let orphan_result_diverts_to_grandparent () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  let w = make_world ~config ~node_id:2 () in
  (* parent on P1 already known dead when the task completes *)
  deliver w (Message.Failure_notice { failed = 1 });
  w.sent := [];
  activate w
    (mk_packet ~parent:(parent_link ~task:7 ~proc:1 ~slot:0)
       ~grandparent:(parent_link ~task:3 ~proc:0 ~slot:4) ());
  (match results_sent w with
  | [ r ] -> (
    match r.Message.relay with
    | Message.To_grandparent { dead_parent } ->
      check_int "grandparent targeted" 3 r.Message.target.Packet.task;
      check_int "dead parent recorded" 7 dead_parent.Packet.task
    | _ -> Alcotest.fail "expected a grandchild relay")
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs));
  check_int "relay counted" 1 (Counter.get w.counters "relay.sent")

let rollback_drops_orphan_result () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Rollback } in
  let w = make_world ~config ~node_id:2 () in
  deliver w (Message.Failure_notice { failed = 1 });
  w.sent := [];
  activate w (mk_packet ~parent:(parent_link ~task:7 ~proc:1 ~slot:0) ());
  check_int "nothing relayed" 0 (List.length (results_sent w));
  check_int "dropped" 1 (Counter.get w.counters "result.orphan_dropped")

let grandparent_relays_to_twin () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  let w = make_world ~config ~node_id:2 ~dest:1 () in
  (* this node's task spawned a child (the future dead parent) to P1 *)
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  let dead, dead_id = List.hd (packets_sent w) in
  w.sent := [];
  (* a grandchild of ours returns, finding its parent (our child) dead *)
  deliver w
    (Message.Result
       {
         stamp = Stamp.child dead.Packet.stamp 0;
         value = Value.Int 5;
         target = dead.Packet.parent;  (* = our task, the grandparent *)
         relay =
           Message.To_grandparent
             { dead_parent = { Packet.task = dead_id; proc = 1; slot = 3 } };
       });
  (* the dead child was re-homed (twin) and the value forwarded to it *)
  check "twin re-issued" true (packets_sent w <> []);
  check "salvage forwarded" true
    (List.exists
       (fun r -> match r.Message.relay with Message.To_step_parent _ -> true | _ -> false)
       (results_sent w));
  check_int "relay counter" 1 (Counter.get w.counters "relay.forwarded")

(* Salvage whose chain child already returned is dropped, not stashed,
   and salvage through the other, unfilled slot still goes on to its twin:
   a filled slot keeps no packet, so the grandparent must recognise the
   chain child by its call-site digit, whichever slot the walk meets
   first. *)
let salvage_through_filled_slot_dropped () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  List.iter
    (fun (fill, chain) ->
      let w = make_world ~config ~node_id:2 ~dest:1 () in
      activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
      let spawned = Array.of_list (packets_sent w) in
      let filled, _ = spawned.(fill) and via, via_id = spawned.(chain) in
      deliver w
        (Message.Result
           { stamp = filled.Packet.stamp; value = Value.Int 11; target = filled.Packet.parent;
             relay = Message.To_parent });
      w.sent := [];
      deliver w
        (Message.Result
           {
             stamp = Stamp.child via.Packet.stamp 0;
             value = Value.Int 5;
             target = via.Packet.parent;
             relay =
               Message.To_grandparent
                 { dead_parent = { Packet.task = via_id; proc = 3; slot = 3 } };
           });
      let reasons =
        List.filter_map
          (fun (e : Journal.entry) ->
            match e.Journal.event with Journal.Relay_dropped { reason; _ } -> Some reason | _ -> None)
          (Journal.entries w.journal)
      in
      let label = Printf.sprintf "fill %d, salvage via %d: " fill chain in
      check_int (label ^ "nothing stashed") 0 (Counter.get w.counters "relay.stashed");
      if fill = chain then begin
        Alcotest.(check (list string)) (label ^ "dropped at the filled slot")
          [ "parent slot already filled" ] reasons;
        check_int (label ^ "nothing forwarded") 0 (Counter.get w.counters "relay.forwarded")
      end
      else begin
        Alcotest.(check (list string)) (label ^ "nothing dropped") [] reasons;
        check_int (label ^ "forwarded") 1 (Counter.get w.counters "relay.forwarded")
      end)
    [ (0, 0); (1, 1); (0, 1); (1, 0) ]

let adoption_pre_spawn_inherits () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  let w = make_world ~config ~node_id:2 ~dest:1 () in
  (* the twin activation receives an adoption report BEFORE it runs: the
     matching call slot must be inherited, not cloned *)
  let twin_packet = mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ~stamp:(Stamp.of_digits [ 6 ]) () in
  Node.deliver w.node w.ctx
    (Message.Task_packet { packet = twin_packet; task_id = 600; replica = 0; replicas = 1 });
  (* report for the twin's first child-to-be (stamp 6.0): the orphan's
     link names the call slot whose digit is 0 *)
  let par = Graph.find_exn library "par" in
  let slot = ref (-1) in
  Array.iteri
    (fun i n -> match n with Graph.Call _ when Graph.digit par i = 0 -> slot := i | _ -> ())
    par.Graph.nodes;
  Node.deliver w.node w.ctx
    (Message.Orphan_alive
       {
         stamp = Stamp.of_digits [ 6; 0 ];
         orphan = parent_link ~task:77 ~proc:3 ~slot:!slot;
         dead_parent = parent_link ~task:55 ~proc:1 ~slot:!slot;
         target = parent_link ~task:600 ~proc:2 ~slot:(-1);
       });
  pump w;
  check_int "adoption recorded then consumed" 1
    (Journal.count w.journal (function Journal.Inherited _ -> true | _ -> false));
  check_int "only the second child spawned remotely" 1 (List.length (packets_sent w));
  check_int "inherit counter" 1 (Counter.get w.counters "spawn.inherited")

let early_messages_stash_until_activation () =
  let config = { (Config.default ~nodes:4) with Config.recovery = Config.Splice } in
  let w = make_world ~config ~node_id:2 ~dest:1 () in
  (* A sibling task on this node discovers par's two call slots; its two
     children on P1 are the checkpoints a failure of P1 re-issues, and the
     re-issue's reason names the message that first reported the failure. *)
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  let slot, slot1 =
    match packets_sent w with
    | [ (a, _); (b, _) ] -> (a.Packet.parent.Packet.slot, b.Packet.parent.Packet.slot)
    | ps -> Alcotest.failf "expected 2 spawns, got %d" (List.length ps)
  in
  w.sent := [];
  let twin_packet = mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ~stamp:(Stamp.of_digits [ 6 ]) () in
  let twin = parent_link ~task:600 ~proc:2 ~slot:(-1) in
  (* a salvaged result addressed to a twin whose packet has not landed *)
  deliver w
    (Message.Result
       {
         stamp = Stamp.of_digits [ 6; 0 ];
         value = Value.Int 11;
         target = parent_link ~task:600 ~proc:2 ~slot;
         relay = Message.To_step_parent { dead_parent = parent_link ~task:55 ~proc:1 ~slot };
       });
  (* the twin's second child died on P1 too: one of its children returned
     (a result for the chain), another is still running (a report) *)
  let dead_child = parent_link ~task:56 ~proc:1 ~slot:slot1 in
  deliver w
    (Message.Result
       {
         stamp = Stamp.of_digits [ 6; 1; 0 ];
         value = Value.Int 12;
         target = twin;
         relay = Message.To_grandparent { dead_parent = dead_child };
       });
  deliver w
    (Message.Orphan_alive
       {
         stamp = Stamp.of_digits [ 6; 1; 1 ];
         orphan = parent_link ~task:78 ~proc:3 ~slot:1;
         dead_parent = dead_child;
         target = twin;
       });
  check_int "not treated as unknown" 0 (Counter.get w.counters "result.ignored");
  activate ~task_id:600 w twin_packet;
  (* held reports replay before held results: the report is the first to
     tell this node that P1 died, so it names the sibling's re-issues *)
  (match
     List.filter_map
       (fun e ->
         match e.Journal.event with Journal.Respawned { reason; _ } -> Some reason | _ -> None)
       (Journal.entries w.journal)
   with
  | reason :: _ -> Alcotest.(check string) "report applied first" "orphan-alive" reason
  | [] -> Alcotest.fail "expected the sibling's children to be re-issued");
  (* the stashed result pre-fills one slot, so only one remote spawn *)
  check_int "one spawn skipped" 1 (Counter.get w.counters "spawn.skipped_preheld");
  check_int "one remote child" 1
    (List.length
       (List.filter (fun (p, _) -> p.Packet.parent.Packet.task = 600) (packets_sent w)));
  (* the chain messages waited for that child, then travelled through it *)
  check_int "result stashed" 1 (Counter.get w.counters "relay.stashed");
  check_int "report stashed" 1 (Counter.get w.counters "adopt.stashed");
  check_int "result forwarded" 1 (Counter.get w.counters "relay.forwarded");
  check_int "report forwarded" 1 (Counter.get w.counters "adopt.forwarded");
  Alcotest.(check (list string))
    "stashed results leave before stashed reports" [ "result"; "report" ]
    (List.filter_map
       (fun (_, _, m) ->
         match m with
         | Message.Result { relay = Message.To_step_parent _; _ } -> Some "result"
         | Message.Orphan_alive _ -> Some "report"
         | _ -> None)
       !(w.sent));
  (* holding and replaying a message does not count it again *)
  check_int "results counted once" 2 (Counter.get w.counters "msg.result");
  check_int "report counted once" 1 (Counter.get w.counters "msg.orphan_alive")

(* ---------------- replication ---------------- *)

let replication_spawns_and_votes () =
  let config =
    { (Config.default ~nodes:4) with Config.recovery = Config.Replicate 2; replicate_depth = 99 }
  in
  let w = make_world ~config ~node_id:2 ~dest:1 () in
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  let spawns = packets_sent w in
  check_int "two replicas per child" 4 (List.length spawns);
  w.sent := [];
  (* one replica of each child answers: undecided (majority of 2 is 2) *)
  let by_stamp = Hashtbl.create 4 in
  List.iter
    (fun (p, id) -> Hashtbl.replace by_stamp (Stamp.digits p.Packet.stamp) (p, id))
    spawns;
  let answer (p, _) =
    let v = match p.Packet.args.(0) with Value.Int n -> Value.Int (n + 1) | _ -> assert false in
    deliver w
      (Message.Result
         { stamp = p.Packet.stamp; value = v; target = p.Packet.parent;
           relay = Message.To_parent })
  in
  Hashtbl.iter (fun _ tp -> answer tp) by_stamp;
  check_int "no result yet (one vote each)" 0 (List.length (results_sent w));
  (* second replica of each: decide and complete *)
  List.iter answer spawns;
  match results_sent w with
  | [ r ] -> check "final value" true (Value.equal r.Message.value (Value.Int 23))
  | rs -> Alcotest.failf "expected 1 result, got %d" (List.length rs)

let replication_loses_replica_on_notice () =
  let config =
    { (Config.default ~nodes:4) with Config.recovery = Config.Replicate 2; replicate_depth = 99 }
  in
  let w = make_world ~config ~node_id:2 ~dest:1 () in
  activate w (mk_packet ~fname:"par" ~args:[| Value.Int 10 |] ());
  let spawns = packets_sent w in
  w.sent := [];
  (* all replicas were placed on P1; its failure loses one of each pair,
     and the survivor's unanimity cannot decide until it answers *)
  deliver w (Message.Failure_notice { failed = 1 });
  (* all-dead replica groups are respawned as fresh pairs *)
  check "vote groups re-issued" true (packets_sent w <> []);
  check_int "old spawn count" 4 (List.length spawns)

(* ---------------- kill ---------------- *)

let killed_node_is_silent () =
  let w = make_world ~node_id:2 () in
  activate w (mk_packet ~fname:"par" ());
  Node.kill w.node w.ctx;
  w.sent := [];
  deliver w (mk_packet () |> fun p -> Message.Task_packet { packet = p; task_id = 9; replica = 0; replicas = 1 });
  deliver w (Message.Failure_notice { failed = 1 });
  check_int "no reaction after kill" 0 (List.length !(w.sent));
  check "not alive" false (Node.is_alive w.node)

(* Delivery counters are bumped through one handle per message kind; each
   must spell exactly the "msg." ^ label key every report and golden was
   written with. *)
let counter_names () =
  let link = parent_link ~task:1 ~proc:2 ~slot:3 and stamp = Stamp.of_digits [ 0; 1 ] in
  List.iter
    (fun m ->
      Alcotest.(check string) (Message.label m) ("msg." ^ Message.label m)
        (Recflow_stats.Counter.handle_name (Message.counter m)))
    [
      Message.Task_packet { packet = mk_packet (); task_id = 1; replica = 0; replicas = 1 };
      Message.Orphan_alive { stamp; orphan = link; dead_parent = link; target = link };
      Message.Reparent { orphan_task = 1; stamp; new_parent = link; new_grandparent = None };
      Message.Ack { child_stamp = stamp; child_task = 1; child_proc = 2; parent_task = 3; slot = 0 };
      Message.Result { stamp; value = Value.Int 1; target = link; relay = Message.To_parent };
      Message.Gradient { from = 1; value = 2 };
      Message.Abort { task = 1; stamp };
      Message.Failure_notice { failed = 1 };
    ]

let suites =
  [
    ( "node.protocol",
      [
        Alcotest.test_case "ack then result" `Quick ack_then_result;
        Alcotest.test_case "no ack for super-root" `Quick no_ack_for_super_root;
        Alcotest.test_case "spawn links + checkpoint" `Quick spawn_links_and_checkpoint;
        Alcotest.test_case "child results complete parent" `Quick child_results_complete_parent;
        Alcotest.test_case "duplicate result ignored" `Quick duplicate_result_ignored;
        Alcotest.test_case "unknown target ignored" `Quick unknown_target_ignored;
        Alcotest.test_case "inline below grain" `Quick inline_below_grain;
        Alcotest.test_case "counter names" `Quick counter_names;
        Alcotest.test_case "queued task holds no instance" `Quick queued_task_holds_no_instance;
      ] );
    ( "node.failure",
      [
        Alcotest.test_case "notice re-issues topmost" `Quick notice_reissues_topmost;
        Alcotest.test_case "notice idempotent" `Quick notice_idempotent;
        Alcotest.test_case "bounced packet re-issued" `Quick bounced_packet_reissued;
        Alcotest.test_case "rollback abort cascade" `Quick rollback_orphan_abort_cascade;
        Alcotest.test_case "splice keeps orphans" `Quick splice_keeps_orphans;
        Alcotest.test_case "orphan result to grandparent" `Quick orphan_result_diverts_to_grandparent;
        Alcotest.test_case "rollback drops orphan result" `Quick rollback_drops_orphan_result;
        Alcotest.test_case "grandparent relays to twin" `Quick grandparent_relays_to_twin;
        Alcotest.test_case "salvage through a filled slot dropped" `Quick
          salvage_through_filled_slot_dropped;
        Alcotest.test_case "adoption inherits pre-spawn" `Quick adoption_pre_spawn_inherits;
        Alcotest.test_case "early messages stash" `Quick early_messages_stash_until_activation;
        Alcotest.test_case "killed node silent" `Quick killed_node_is_silent;
      ] );
    ( "node.replication",
      [
        Alcotest.test_case "spawns and votes" `Quick replication_spawns_and_votes;
        Alcotest.test_case "loses replica on notice" `Quick replication_loses_replica_on_notice;
      ] );
  ]
