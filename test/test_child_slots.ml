(* A task's call-slot table against the table it replaced: a stdlib
   [Hashtbl.create 8] keyed by slot and filled with [Hashtbl.replace].
   The node keeps its children in a plain array in spawn order and
   replays the old table's walk order from its layout (16 buckets to
   start, doubling once the count passes twice the bucket count, newest
   first within a bucket).  Abort cascades, vote accounting and local
   regeneration send messages in walk order, so the walks, and the
   finder, must agree with the model after every bind. *)

module Node = Recflow_machine.Node

(* The model's walks and finder after binding [slots] in order. *)
let model slots =
  let h = Hashtbl.create 8 in
  List.iteri (fun i slot -> Hashtbl.replace h slot i) slots;
  let iterated = ref [] in
  Hashtbl.iter (fun slot _ -> iterated := slot :: !iterated) h;
  let folded = List.rev (Hashtbl.fold (fun slot _ acc -> slot :: acc) h []) in
  (List.rev !iterated, folded, Hashtbl.find_opt h)

let pp = QCheck.Print.(list int)

(* Compare the walks after each prefix of [slots], and then a find of
   every slot in 0..255, bound or not. *)
let agree slots =
  let check bound =
    let m_iter, m_fold, m_find = model bound in
    let n_iter, n_fold, n_find = Node.child_slot_walks bound in
    let fail what = QCheck.Test.fail_reportf "after binding %s: %s differ" (pp bound) what in
    if m_iter <> n_iter then
      fail (Printf.sprintf "iter walks (model %s, node %s)" (pp m_iter) (pp n_iter));
    if m_fold <> n_fold then
      fail (Printf.sprintf "fold walks (model %s, node %s)" (pp m_fold) (pp n_fold));
    (m_find, n_find)
  in
  for n = 1 to List.length slots - 1 do
    ignore (check (List.filteri (fun i _ -> i < n) slots))
  done;
  let m_find, n_find = check slots in
  for s = 0 to 255 do
    if m_find s <> n_find s then
      QCheck.Test.fail_reportf "after binding %s: finds of slot %d differ" (pp slots) s
  done;
  true

(* Up to 80 distinct slots in 0..255: past the 32 -> 64 bucket resize at
   the 65th bind, with many slots sharing a bucket. *)
let slots_gen =
  QCheck.Gen.(
    int_range 0 80 >>= fun n ->
    shuffle_l (List.init 256 Fun.id) >|= fun all -> List.filteri (fun i _ -> i < n) all)

let walk_order =
  QCheck.Test.make ~count:300 ~name:"walks and finds match Hashtbl.create 8"
    (QCheck.make ~print:pp slots_gen) agree

(* Slots that share one of the 16 starting buckets, bound in either
   order: the newest comes first in its bucket. *)
let colliding () =
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "slots %d and %d share a bucket" a b)
        (Hashtbl.hash a land 15) (Hashtbl.hash b land 15);
      ignore (agree [ a; b ]);
      ignore (agree [ b; a; 0; 1 ]))
    [ (2, 6); (4, 5); (3, 7) ]

let suites =
  [
    ( "machine.child-slots",
      [
        Alcotest.test_case "colliding slots" `Quick colliding;
        Alcotest.test_case "slots 0..79 in order" `Quick (fun () ->
            ignore (agree (List.init 80 Fun.id)));
        QCheck_alcotest.to_alcotest walk_order;
      ] );
  ]
