(* Tests for the paper's core structures: stamps, packets, checkpoint
   tables, splice cases, spawn states, voting. *)

module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ckpt_table = Recflow_recovery.Ckpt_table
module Splice_case = Recflow_recovery.Splice_case
module Spawn_state = Recflow_recovery.Spawn_state
module Vote = Recflow_recovery.Vote
module Ids = Recflow_recovery.Ids
module Value = Recflow_lang.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

let stamp = Alcotest.testable (fun ppf s -> Stamp.pp ppf s) Stamp.equal

(* ---------------- Stamp ---------------- *)

let stamp_basics () =
  let s = Stamp.child (Stamp.child Stamp.root 1) 3 in
  Alcotest.(check (list int)) "digits" [ 1; 3 ] (Stamp.digits s);
  check_int "depth" 2 (Stamp.depth s);
  Alcotest.(check (option stamp)) "parent" (Some (Stamp.of_digits [ 1 ])) (Stamp.parent s);
  Alcotest.(check (option stamp)) "root has no parent" None (Stamp.parent Stamp.root);
  check "negative digit rejected" true
    (try
       ignore (Stamp.child Stamp.root (-1));
       false
     with Invalid_argument _ -> true)

let stamp_ancestry () =
  let a = Stamp.of_digits [ 1 ] in
  let b = Stamp.of_digits [ 1; 0; 2 ] in
  check "ancestor" true (Stamp.is_ancestor a b);
  check "descendant" true (Stamp.is_descendant b a);
  check "not self-ancestor (proper)" false (Stamp.is_ancestor a a);
  check "unrelated" false (Stamp.is_ancestor (Stamp.of_digits [ 2 ]) b);
  check "related includes equal" true (Stamp.related a a);
  check "root is everyone's ancestor" true (Stamp.is_ancestor Stamp.root b)

let gen_stamp = QCheck.Gen.(list_size (int_range 0 6) (int_range 0 3))

let arb_stamp =
  QCheck.make ~print:(fun ds -> Stamp.to_string (Stamp.of_digits ds)) gen_stamp

let stamp_prefix_iff_ancestor =
  QCheck.Test.make ~name:"is_ancestor iff proper digit prefix" ~count:1000
    QCheck.(pair arb_stamp arb_stamp)
    (fun (da, db) ->
      let a = Stamp.of_digits da and b = Stamp.of_digits db in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], [] -> false
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
      in
      Stamp.is_ancestor a b = is_prefix da db)

let stamp_string_round_trip =
  QCheck.Test.make ~name:"to_string/of_string round trip" ~count:500 arb_stamp (fun ds ->
      let s = Stamp.of_digits ds in
      match Stamp.of_string (Stamp.to_string s) with
      | Ok s' -> Stamp.equal s s'
      | Error _ -> false)

let stamp_compare_lexicographic =
  QCheck.Test.make ~name:"compare is lexicographic on digits" ~count:500
    QCheck.(pair arb_stamp arb_stamp)
    (fun (da, db) ->
      let c = Stamp.compare (Stamp.of_digits da) (Stamp.of_digits db) in
      let expected = compare da db in
      (c = 0) = (expected = 0) && (c < 0) = (expected < 0))

let stamp_child_parent_inverse =
  QCheck.Test.make ~name:"parent (child s k) = s" ~count:500
    QCheck.(pair arb_stamp (int_range 0 9))
    (fun (ds, k) ->
      let s = Stamp.of_digits ds in
      Stamp.parent (Stamp.child s k) = Some s)

let stamp_common_ancestor () =
  let ca a b = Stamp.common_ancestor (Stamp.of_digits a) (Stamp.of_digits b) in
  Alcotest.check stamp "shared prefix" (Stamp.of_digits [ 1; 2 ]) (ca [ 1; 2; 3 ] [ 1; 2; 9 ]);
  Alcotest.check stamp "disjoint" Stamp.root (ca [ 1 ] [ 2 ]);
  Alcotest.check stamp "one contains other" (Stamp.of_digits [ 1 ]) (ca [ 1 ] [ 1; 5 ])

let stamp_of_string_errors () =
  (match Stamp.of_string "1.x.2" with Error _ -> () | Ok _ -> Alcotest.fail "bad digit accepted");
  match Stamp.of_string "" with
  | Ok s -> check "empty is root" true (Stamp.equal s Stamp.root)
  | Error _ -> Alcotest.fail "empty rejected"

(* ---------------- Packet ---------------- *)

let mk_packet ?(stamp = Stamp.of_digits [ 0 ]) ?(fname = "f") () =
  Packet.make ~stamp ~fname ~args:[| Value.Int 1 |]
    ~parent:{ Packet.task = 1; proc = 0; slot = 2 }
    ~grandparent:(Some { Packet.task = 0; proc = 1; slot = 0 })
    ~ancestors:[]

let packet_basics () =
  let root = Packet.root ~fname:"main" ~args:[||] ~super_slot:0 in
  check "root stamp" true (Stamp.equal root.Packet.stamp Stamp.root);
  check_int "root parent proc is super-root" Ids.super_root root.Packet.parent.Packet.proc;
  check "root has no grandparent" true (root.Packet.grandparent = None);
  let p = mk_packet () in
  let p' = Packet.reparent p ~parent:{ Packet.task = 9; proc = 3; slot = 2 } ~grandparent:None in
  check "reparent keeps stamp" true (Stamp.equal p.Packet.stamp p'.Packet.stamp);
  check_int "reparent moves parent" 9 p'.Packet.parent.Packet.task;
  check "identity by stamp+fname" true (Packet.equal_identity p p');
  check "identity differs on fname" false
    (Packet.equal_identity p (mk_packet ~fname:"g" ()))

(* ---------------- Ckpt_table ---------------- *)

let ckpt_topmost_coverage () =
  let t = Ckpt_table.create () in
  let anc = mk_packet ~stamp:(Stamp.of_digits [ 1 ]) () in
  let desc = mk_packet ~stamp:(Stamp.of_digits [ 1; 0 ]) () in
  check "ancestor recorded" true (Ckpt_table.record t ~dest:2 anc = `Recorded);
  check "descendant covered" true (Ckpt_table.record t ~dest:2 desc = `Covered);
  check_int "one stored" 1 (Ckpt_table.total_size t);
  (* same stamps in a different entry are independent *)
  check "other entry records" true (Ckpt_table.record t ~dest:3 desc = `Recorded)

let ckpt_eviction_by_new_ancestor () =
  let t = Ckpt_table.create () in
  let desc = mk_packet ~stamp:(Stamp.of_digits [ 1; 0 ]) () in
  let anc = mk_packet ~stamp:(Stamp.of_digits [ 1 ]) () in
  check "descendant first" true (Ckpt_table.record t ~dest:2 desc = `Recorded);
  check "ancestor recorded" true (Ckpt_table.record t ~dest:2 anc = `Recorded);
  (* the ancestor evicts the now-covered descendant *)
  check_int "one left" 1 (List.length (Ckpt_table.entry t ~dest:2));
  check "it is the ancestor" true
    (Stamp.equal (List.hd (Ckpt_table.entry t ~dest:2)).Packet.stamp (Stamp.of_digits [ 1 ]))

let ckpt_keep_all () =
  let t = Ckpt_table.create ~mode:Ckpt_table.Keep_all () in
  let anc = mk_packet ~stamp:(Stamp.of_digits [ 1 ]) () in
  let desc = mk_packet ~stamp:(Stamp.of_digits [ 1; 0 ]) () in
  check "anc" true (Ckpt_table.record t ~dest:2 anc = `Recorded);
  check "desc also recorded" true (Ckpt_table.record t ~dest:2 desc = `Recorded);
  check_int "both stored" 2 (Ckpt_table.total_size t)

let ckpt_discharge () =
  let t = Ckpt_table.create () in
  let p = mk_packet ~stamp:(Stamp.of_digits [ 2 ]) () in
  ignore (Ckpt_table.record t ~dest:1 p);
  check "discharge hit" true (Ckpt_table.discharge t ~dest:1 (Stamp.of_digits [ 2 ]));
  check "discharge miss" false (Ckpt_table.discharge t ~dest:1 (Stamp.of_digits [ 2 ]));
  check_int "empty" 0 (Ckpt_table.total_size t)

let ckpt_deep_eviction () =
  (* A re-spawned ancestor must evict its *whole* covered subtree in one
     record, with [total_size] tracking the bulk removal. *)
  let t = Ckpt_table.create () in
  List.iter
    (fun ds -> ignore (Ckpt_table.record t ~dest:4 (mk_packet ~stamp:(Stamp.of_digits ds) ())))
    [ [ 0; 1; 0 ]; [ 0; 1; 1 ]; [ 0; 2 ]; [ 1 ] ];
  check_int "four stored" 4 (Ckpt_table.total_size t);
  check "ancestor of three recorded" true
    (Ckpt_table.record t ~dest:4 (mk_packet ~stamp:(Stamp.of_digits [ 0 ]) ()) = `Recorded);
  Alcotest.(check (list (list int))) "subtree evicted, sibling kept"
    [ [ 0 ]; [ 1 ] ]
    (List.map (fun (p : Packet.t) -> Stamp.digits p.Packet.stamp) (Ckpt_table.entry t ~dest:4));
  check_int "size reflects bulk eviction" 2 (Ckpt_table.total_size t)

let ckpt_keep_all_duplicates () =
  (* Keep-all mode stores duplicates of one stamp; discharge drops them all
     at once (the pre-index filter removed every equal stamp too). *)
  let t = Ckpt_table.create ~mode:Ckpt_table.Keep_all () in
  let p = mk_packet ~stamp:(Stamp.of_digits [ 2; 2 ]) () in
  ignore (Ckpt_table.record t ~dest:1 p);
  ignore (Ckpt_table.record t ~dest:1 p);
  ignore (Ckpt_table.record t ~dest:1 (mk_packet ~stamp:(Stamp.of_digits [ 2 ]) ()));
  check_int "three stored" 3 (Ckpt_table.total_size t);
  check "discharge removes all duplicates" true
    (Ckpt_table.discharge t ~dest:1 (Stamp.of_digits [ 2; 2 ]));
  check_int "only the ancestor left" 1 (Ckpt_table.total_size t);
  check "second discharge is a miss" false
    (Ckpt_table.discharge t ~dest:1 (Stamp.of_digits [ 2; 2 ]))

(* Randomized cross-check of the trie-indexed table against the original
   flat-list implementation, replayed operation by operation. *)
module Ckpt_oracle = struct
  type t = { mode : Ckpt_table.mode; mutable entries : (int * Packet.t list) list }

  let create mode = { mode; entries = [] }

  let entry t dest = match List.assoc_opt dest t.entries with Some l -> l | None -> []

  let set t dest l = t.entries <- (dest, l) :: List.remove_assoc dest t.entries

  let record t ~dest (p : Packet.t) =
    let l = entry t dest in
    match t.mode with
    | Ckpt_table.Keep_all ->
      set t dest (p :: l);
      `Recorded
    | Ckpt_table.Topmost ->
      if
        List.exists
          (fun (q : Packet.t) ->
            Stamp.equal q.Packet.stamp p.Packet.stamp
            || Stamp.is_ancestor q.Packet.stamp p.Packet.stamp)
          l
      then `Covered
      else begin
        set t dest
          (p
          :: List.filter
               (fun (q : Packet.t) -> not (Stamp.is_ancestor p.Packet.stamp q.Packet.stamp))
               l);
        `Recorded
      end

  let discharge t ~dest stamp =
    let l = entry t dest in
    let l' = List.filter (fun (q : Packet.t) -> not (Stamp.equal q.Packet.stamp stamp)) l in
    set t dest l';
    List.length l' < List.length l

  let sorted t dest =
    List.stable_sort
      (fun (a : Packet.t) (b : Packet.t) -> Stamp.compare a.Packet.stamp b.Packet.stamp)
      (entry t dest)

  let total t = List.fold_left (fun acc (_, l) -> acc + List.length l) 0 t.entries
end

(* Digits straddle the packed/spill boundary of [Stamp]: service-mode
   request uids pass 255 and take the spill layout. *)
let gen_digit = QCheck.Gen.(frequency [ (4, int_bound 2); (1, int_range 255 257) ])

type ckpt_op = Record of int * int list | Discharge of int * int list | Fail of int

let gen_op =
  QCheck.Gen.(
    int_bound 20 >>= fun len ->
    list_size (return len) gen_digit >>= fun digits ->
    int_bound 2 >>= fun dest ->
    frequency
      [
        (10, return (Record (dest, digits)));
        (10, return (Discharge (dest, digits)));
        (1, return (Fail dest));
      ])

let print_op = function
  | Record (dest, ds) -> Printf.sprintf "record %d %s" dest (Stamp.to_string (Stamp.of_digits ds))
  | Discharge (dest, ds) ->
    Printf.sprintf "discharge %d %s" dest (Stamp.to_string (Stamp.of_digits ds))
  | Fail dest -> Printf.sprintf "fail %d" dest

let mode_name = function Ckpt_table.Topmost -> "topmost" | Ckpt_table.Keep_all -> "keep-all"

let stamp_digits (ps : Packet.t list) = List.map (fun (p : Packet.t) -> Stamp.digits p.stamp) ps

(* Peers the model still holds checkpoints for, sorted. *)
let oracle_peers (o : Ckpt_oracle.t) =
  List.sort compare (List.filter_map (fun (d, l) -> if l = [] then None else Some d) o.Ckpt_oracle.entries)

(* Trie nodes a pruned table must hold: per peer still holding
   checkpoints, its entry root plus one node per distinct non-empty
   prefix of a stored stamp. *)
let oracle_nodes (o : Ckpt_oracle.t) =
  List.fold_left
    (fun acc (_, l) ->
      let prefixes =
        List.concat_map
          (fun ds -> List.init (List.length ds) (fun i -> List.filteri (fun j _ -> j <= i) ds))
          (stamp_digits l)
      in
      if l = [] then acc else acc + 1 + List.length (List.sort_uniq compare prefixes))
    0 o.Ckpt_oracle.entries

let ckpt_matches_oracle mode =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "trie table = flat-list oracle (%s)" (mode_name mode))
    (QCheck.make ~print:QCheck.Print.(list print_op) QCheck.Gen.(list_size (int_bound 60) gen_op))
    (fun ops ->
      let t = Ckpt_table.create ~mode () in
      let o = Ckpt_oracle.create mode in
      List.for_all
        (fun op ->
          let same_step =
            match op with
            | Record (dest, digits) ->
              let p = mk_packet ~stamp:(Stamp.of_digits digits) () in
              Ckpt_table.record t ~dest p = Ckpt_oracle.record o ~dest p
            | Discharge (dest, digits) ->
              let stamp = Stamp.of_digits digits in
              Ckpt_table.discharge t ~dest stamp = Ckpt_oracle.discharge o ~dest stamp
            | Fail failed ->
              let expected = stamp_digits (Ckpt_oracle.sorted o failed) in
              Ckpt_oracle.set o failed [];
              stamp_digits (Ckpt_table.on_failure t ~failed) = expected
          in
          let same_entry dest =
            stamp_digits (Ckpt_table.entry t ~dest) = stamp_digits (Ckpt_oracle.sorted o dest)
          in
          same_step
          && same_entry 0 && same_entry 1 && same_entry 2
          && Ckpt_table.total_size t = Ckpt_oracle.total o
          && Ckpt_table.destinations t = oracle_peers o
          && Ckpt_table.node_count t = oracle_nodes o)
        ops)

(* Discharging every recorded stamp, in any order, leaves no trie node
   behind: table memory follows the outstanding checkpoints only. *)
let ckpt_drains mode =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "discharging every record drains the trie (%s)" (mode_name mode))
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 40)
           (pair (int_bound 2) (list_size (int_bound 8) gen_digit))
         >>= fun recs -> shuffle_l recs >>= fun order -> return (recs, order)))
    (fun (recs, order) ->
      let t = Ckpt_table.create ~mode () in
      List.iter
        (fun (dest, ds) -> ignore (Ckpt_table.record t ~dest (mk_packet ~stamp:(Stamp.of_digits ds) ())))
        recs;
      List.iter (fun (dest, ds) -> ignore (Ckpt_table.discharge t ~dest (Stamp.of_digits ds))) order;
      Ckpt_table.node_count t = 0 && Ckpt_table.total_size t = 0)

let ckpt_on_failure () =
  let t = Ckpt_table.create () in
  ignore (Ckpt_table.record t ~dest:1 (mk_packet ~stamp:(Stamp.of_digits [ 2; 1 ]) ()));
  ignore (Ckpt_table.record t ~dest:1 (mk_packet ~stamp:(Stamp.of_digits [ 0 ]) ()));
  ignore (Ckpt_table.record t ~dest:5 (mk_packet ~stamp:(Stamp.of_digits [ 3 ]) ()));
  let drained = Ckpt_table.on_failure t ~failed:1 in
  Alcotest.(check (list (list int))) "stamp order (ancestors first)"
    [ [ 0 ]; [ 2; 1 ] ]
    (List.map (fun (p : Packet.t) -> Stamp.digits p.Packet.stamp) drained);
  check_int "entry cleared" 0 (List.length (Ckpt_table.entry t ~dest:1));
  Alcotest.(check (list int)) "other entries untouched" [ 5 ] (Ckpt_table.destinations t);
  check "repeat drain is empty" true (Ckpt_table.on_failure t ~failed:1 = [])

(* A table's size follows the peers it still holds checkpoints for, not
   every peer it ever spawned to: one checkpoint at a time to each of 4096
   peers leaves nothing behind, and the table never grows past a bound
   independent of how many peers it has seen. *)
let ckpt_sparse_peers () =
  let t = Ckpt_table.create () in
  let p = mk_packet ~stamp:(Stamp.of_digits [ 3; 1 ]) () in
  let empty_words = Obj.reachable_words (Obj.repr t) in
  let bound = empty_words + 64 in
  let worst = ref 0 in
  for dest = 0 to 4095 do
    ignore (Ckpt_table.record t ~dest p);
    worst := max !worst (Obj.reachable_words (Obj.repr t));
    check "discharged" true (Ckpt_table.discharge t ~dest p.Packet.stamp);
    if Ckpt_table.destinations t <> [] then Alcotest.failf "peer %d left an entry" dest;
    worst := max !worst (Obj.reachable_words (Obj.repr t))
  done;
  check_int "no trie node left" 0 (Ckpt_table.node_count t);
  if !worst > bound then
    Alcotest.failf "table reached %d reachable words (bound %d: empty %d + one entry)" !worst
      bound empty_words;
  (* the same holds when entries leave through [on_failure] *)
  for dest = 0 to 4095 do
    ignore (Ckpt_table.record t ~dest p);
    check_int "surrendered" 1 (List.length (Ckpt_table.on_failure t ~failed:dest));
    worst := max !worst (Obj.reachable_words (Obj.repr t))
  done;
  check "no peer left after failures" true (Ckpt_table.destinations t = []);
  if !worst > bound then
    Alcotest.failf "table reached %d reachable words after failures (bound %d)" !worst bound

(* ---------------- Splice_case ---------------- *)

let tl ?ci ?cc ?(pf = 100) ?pi' ?pc' ?ci' ?cc' () =
  {
    Splice_case.c_invoked = ci;
    c_completed = cc;
    p_failed = pf;
    p'_invoked = pi';
    p'_completed = pc';
    c'_invoked = ci';
    c'_completed = cc';
  }

let case = Alcotest.testable (fun ppf c -> Format.pp_print_string ppf (Splice_case.to_string c))
    (fun a b -> a = b)

let splice_classify_all () =
  Alcotest.check case "c1" Splice_case.C1 (Splice_case.classify (tl ()));
  Alcotest.check case "c2" Splice_case.C2 (Splice_case.classify (tl ~ci:50 ()));
  Alcotest.check case "c3" Splice_case.C3 (Splice_case.classify (tl ~ci:10 ~cc:90 ()));
  Alcotest.check case "c4" Splice_case.C4
    (Splice_case.classify (tl ~ci:10 ~cc:150 ~pi':200 ()));
  Alcotest.check case "c5" Splice_case.C5
    (Splice_case.classify (tl ~ci:10 ~cc:250 ~pi':200 ~ci':300 ()));
  Alcotest.check case "c6" Splice_case.C6
    (Splice_case.classify (tl ~ci:10 ~cc:350 ~pi':200 ~ci':300 ~cc':400 ()));
  Alcotest.check case "c7" Splice_case.C7
    (Splice_case.classify (tl ~ci:10 ~cc:450 ~pi':200 ~ci':300 ~cc':400 ~pc':500 ()));
  Alcotest.check case "c8" Splice_case.C8
    (Splice_case.classify (tl ~ci:10 ~cc:550 ~pi':200 ~ci':300 ~cc':400 ~pc':500 ()))

let splice_ties () =
  (* completion exactly at a milestone counts as after it *)
  Alcotest.check case "at failure instant -> case 4" Splice_case.C4
    (Splice_case.classify (tl ~ci:10 ~cc:100 ()));
  Alcotest.check case "at P' invocation -> case 5" Splice_case.C5
    (Splice_case.classify (tl ~ci:10 ~cc:200 ~pi':200 ()))

let splice_meta () =
  check_int "eight cases" 8 (List.length Splice_case.all);
  Alcotest.(check (list int)) "numbered 1..8" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.map Splice_case.case_number Splice_case.all);
  List.iter
    (fun c -> check "described" true (String.length (Splice_case.description c) > 0))
    Splice_case.all

(* ---------------- Spawn_state ---------------- *)

let spawn_state_chain () =
  let rec walk s acc =
    match Spawn_state.next s with None -> List.rev (s :: acc) | Some s' -> walk s' (s :: acc)
  in
  Alcotest.(check (list string)) "a..g"
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
    (List.map Spawn_state.label (walk Spawn_state.A []));
  check_int "seven states" 7 (List.length Spawn_state.all)

let spawn_state_labels () =
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "label round trip" (Some (Spawn_state.label s))
        (Option.map Spawn_state.label (Spawn_state.of_label (Spawn_state.label s))))
    Spawn_state.all;
  check "unknown label" true (Spawn_state.of_label "z" = None)

let spawn_state_transients () =
  Alcotest.(check (list string)) "b and d transient" [ "b"; "d" ]
    (List.filter_map
       (fun s -> if Spawn_state.is_transient s then Some (Spawn_state.label s) else None)
       Spawn_state.all)

let spawn_state_pointers () =
  check "a has no pointers" true (Spawn_state.pointers Spawn_state.A = []);
  check "e has the full chain" true (List.length (Spawn_state.pointers Spawn_state.E) = 5)

(* ---------------- Vote ---------------- *)

let vote_majority_early () =
  let v = Vote.create ~replicas:3 ~equal:Int.equal in
  check_int "majority of 3" 2 (Vote.majority v);
  check "first undecided" true (Vote.add v 7 = Vote.Undecided);
  (match Vote.add v 7 with
  | Vote.Decided 7 -> ()
  | _ -> Alcotest.fail "two identical of three should decide");
  (* decision is sticky; stragglers are absorbed without being tallied *)
  match Vote.add v 9 with
  | Vote.Decided 7 -> check_int "tally frozen at decision" 2 (Vote.received v)
  | _ -> Alcotest.fail "decision not sticky"

let vote_single_replica () =
  let v = Vote.create ~replicas:1 ~equal:Int.equal in
  match Vote.add v 5 with Vote.Decided 5 -> () | _ -> Alcotest.fail "k=1 decides immediately"

let vote_unanimous_survivors () =
  let v = Vote.create ~replicas:3 ~equal:Int.equal in
  check "loss 1 undecided" true (Vote.lose v = Vote.Undecided);
  check "loss 2 undecided" true (Vote.lose v = Vote.Undecided);
  match Vote.add v 4 with
  | Vote.Decided 4 -> ()
  | _ -> Alcotest.fail "lone survivor should decide once all are accounted"

let vote_all_lost_inconclusive () =
  let v = Vote.create ~replicas:2 ~equal:Int.equal in
  ignore (Vote.lose v);
  match Vote.lose v with
  | Vote.Inconclusive -> check_int "lost" 2 (Vote.lost v)
  | _ -> Alcotest.fail "total loss must be inconclusive"

let vote_split_inconclusive () =
  let v = Vote.create ~replicas:2 ~equal:Int.equal in
  ignore (Vote.add v 1);
  match Vote.add v 2 with
  | Vote.Inconclusive -> ()
  | _ -> Alcotest.fail "1-1 split of 2 must be inconclusive"

let vote_early_impossibility () =
  let v = Vote.create ~replicas:3 ~equal:Int.equal in
  ignore (Vote.add v 1);
  ignore (Vote.add v 2);
  (* best has 1 vote, 1 outstanding: 2 = majority still reachable -> undecided *)
  check "still reachable" true (Vote.decision v = None);
  match Vote.add v 3 with
  | Vote.Inconclusive -> ()
  | _ -> Alcotest.fail "three-way split must be inconclusive"

let vote_give_up () =
  (* decided: give_up just returns the decision *)
  let v = Vote.create ~replicas:3 ~equal:Int.equal in
  ignore (Vote.add v 7);
  ignore (Vote.add v 7);
  check "decided give_up" true (Vote.give_up v = Some 7);
  (* strict plurality below majority *)
  let v = Vote.create ~replicas:5 ~equal:Int.equal in
  ignore (Vote.add v 1);
  ignore (Vote.add v 2);
  ignore (Vote.add v 2);
  check "plurality give_up" true (Vote.give_up v = Some 2);
  (* tie between distinct values carries no information *)
  let v = Vote.create ~replicas:4 ~equal:Int.equal in
  ignore (Vote.add v 1);
  ignore (Vote.add v 2);
  check "tied give_up" true (Vote.give_up v = None);
  (* nothing on the table at all *)
  let v = Vote.create ~replicas:2 ~equal:Int.equal in
  ignore (Vote.lose v);
  ignore (Vote.lose v);
  check "empty give_up" true (Vote.give_up v = None)

let vote_leader () =
  let v = Vote.create ~replicas:5 ~equal:Int.equal in
  ignore (Vote.add v 1);
  ignore (Vote.add v 2);
  ignore (Vote.add v 2);
  (match Vote.leader v with
  | Some (2, 2) -> ()
  | _ -> Alcotest.fail "plurality leader wrong");
  check "invalid replicas" true
    (try
       ignore (Vote.create ~replicas:0 ~equal:Int.equal);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "recovery.stamp",
      [
        Alcotest.test_case "basics" `Quick stamp_basics;
        Alcotest.test_case "ancestry" `Quick stamp_ancestry;
        Alcotest.test_case "common ancestor" `Quick stamp_common_ancestor;
        Alcotest.test_case "of_string errors" `Quick stamp_of_string_errors;
        qtest stamp_prefix_iff_ancestor;
        qtest stamp_string_round_trip;
        qtest stamp_compare_lexicographic;
        qtest stamp_child_parent_inverse;
      ] );
    ("recovery.packet", [ Alcotest.test_case "basics" `Quick packet_basics ]);
    ( "recovery.ckpt_table",
      [
        Alcotest.test_case "topmost coverage" `Quick ckpt_topmost_coverage;
        Alcotest.test_case "eviction" `Quick ckpt_eviction_by_new_ancestor;
        Alcotest.test_case "keep all" `Quick ckpt_keep_all;
        Alcotest.test_case "discharge" `Quick ckpt_discharge;
        Alcotest.test_case "deep eviction" `Quick ckpt_deep_eviction;
        Alcotest.test_case "keep-all duplicates" `Quick ckpt_keep_all_duplicates;
        Alcotest.test_case "on failure" `Quick ckpt_on_failure;
        Alcotest.test_case "sparse peers" `Quick ckpt_sparse_peers;
        qtest (ckpt_matches_oracle Ckpt_table.Topmost);
        qtest (ckpt_matches_oracle Ckpt_table.Keep_all);
        qtest (ckpt_drains Ckpt_table.Topmost);
        qtest (ckpt_drains Ckpt_table.Keep_all);
      ] );
    ( "recovery.splice_case",
      [
        Alcotest.test_case "classify all" `Quick splice_classify_all;
        Alcotest.test_case "ties" `Quick splice_ties;
        Alcotest.test_case "meta" `Quick splice_meta;
      ] );
    ( "recovery.spawn_state",
      [
        Alcotest.test_case "chain" `Quick spawn_state_chain;
        Alcotest.test_case "labels" `Quick spawn_state_labels;
        Alcotest.test_case "transients" `Quick spawn_state_transients;
        Alcotest.test_case "pointers" `Quick spawn_state_pointers;
      ] );
    ( "recovery.vote",
      [
        Alcotest.test_case "majority early" `Quick vote_majority_early;
        Alcotest.test_case "single replica" `Quick vote_single_replica;
        Alcotest.test_case "unanimous survivors" `Quick vote_unanimous_survivors;
        Alcotest.test_case "all lost" `Quick vote_all_lost_inconclusive;
        Alcotest.test_case "split" `Quick vote_split_inconclusive;
        Alcotest.test_case "early impossibility" `Quick vote_early_impossibility;
        Alcotest.test_case "leader" `Quick vote_leader;
        Alcotest.test_case "give up" `Quick vote_give_up;
      ] );
  ]
