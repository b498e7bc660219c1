module Stamp = Recflow_recovery.Stamp
module Ids = Recflow_recovery.Ids
module Packet = Recflow_recovery.Packet
module Value = Recflow_lang.Value

type node = { label : string; stamp : Stamp.t; proc : Ids.proc_id; children : node list }

let proc_a = 0
let proc_b = 1
let proc_c = 2
let proc_d = 3

let proc_name = function
  | 0 -> "A"
  | 1 -> "B"
  | 2 -> "C"
  | 3 -> "D"
  | p -> Ids.proc_to_string p

let proc_of_name = function
  | "A" -> proc_a
  | "B" -> proc_b
  | "C" -> proc_c
  | "D" -> proc_d
  | _ -> raise Not_found

(* Build the tree top-down, deriving stamps from child positions. *)
let root =
  let n label proc stamp children = { label; stamp; proc; children } in
  let s = Stamp.of_digits in
  n "A1" proc_a (s [])
    [
      n "B1" proc_b (s [ 0 ]) [];
      n "C1" proc_c (s [ 1 ])
        [
          n "B2" proc_b (s [ 1; 0 ])
            [
              n "D4" proc_d (s [ 1; 0; 0 ])
                [ n "D5" proc_d (s [ 1; 0; 0; 0 ]) [ n "A5" proc_a (s [ 1; 0; 0; 0; 0 ]) [] ] ];
              n "A2" proc_a (s [ 1; 0; 1 ])
                [
                  n "D1" proc_d (s [ 1; 0; 1; 0 ]) [];
                  n "D2" proc_d (s [ 1; 0; 1; 1 ])
                    [ n "C4" proc_c (s [ 1; 0; 1; 1; 0 ]) [ n "B5" proc_b (s [ 1; 0; 1; 1; 0; 0 ]) [] ] ];
                ];
            ];
        ];
      n "C2" proc_c (s [ 2 ]) [ n "B3" proc_b (s [ 2; 0 ]) [] ];
      n "C3" proc_c (s [ 3 ]) [ n "D3" proc_d (s [ 3; 0 ]) [ n "B7" proc_b (s [ 3; 0; 0 ]) [] ] ];
    ]

let all =
  let rec go n acc = List.fold_left (fun acc c -> go c acc) (n :: acc) n.children in
  List.rev (go root [])

let find label =
  match List.find_opt (fun n -> String.equal n.label label) all with
  | Some n -> n
  | None -> raise Not_found

let parent n =
  match Stamp.parent n.stamp with
  | None -> None
  | Some ps -> List.find_opt (fun m -> Stamp.equal m.stamp ps) all

let grandparent n = Option.bind (parent n) parent

let fragments ~failed =
  let survivors = List.filter (fun n -> n.proc <> failed) all in
  let alive label = List.exists (fun n -> String.equal n.label label) survivors in
  (* A surviving task joins its parent's piece iff the parent survives;
     otherwise it roots a new piece. *)
  let piece_root n =
    let rec up m = match parent m with Some p when alive p.label -> up p | _ -> m in
    up n
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun n ->
      let r = (piece_root n).label in
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl r) in
      Hashtbl.replace tbl r (n.label :: cur))
    survivors;
  Hashtbl.fold (fun r members acc -> (r, List.sort String.compare members) :: acc) tbl []
  |> List.sort (fun (r1, _) (r2, _) -> Stamp.compare (find r1).stamp (find r2).stamp)
  |> List.map snd

let packet_of n =
  let link_of (m : node) =
    match parent m with
    | None -> { Packet.task = Ids.no_task; proc = Ids.super_root; slot = 0 }
    | Some p -> { Packet.task = Stamp.hash p.stamp; proc = p.proc; slot = 0 }
  in
  match parent n with
  | None -> Packet.root ~fname:"task" ~args:[| Value.Int 0 |] ~super_slot:0
  | Some p ->
    Packet.make ~stamp:n.stamp ~fname:"task" ~args:[| Value.Int 0 |]
      ~parent:{ Packet.task = Stamp.hash p.stamp; proc = p.proc; slot = 0 }
      ~grandparent:(Some (link_of p)) ~ancestors:[]
