(* Layer replays: one simulation's recorded activity re-driven through a
   single layer's public functions, each under one span, so a layer's cost
   is measured from outside the program.  Inputs are prepared before the
   span opens; only the calls into the layer are inside it. *)

module Journal = Recflow_machine.Journal
module Ckpt_table = Recflow_recovery.Ckpt_table
module Packet = Recflow_recovery.Packet
module Stamp = Recflow_recovery.Stamp
module Ids = Recflow_recovery.Ids
module Counter = Recflow_stats.Counter
module Eval_serial = Recflow_lang.Eval_serial

type ckpt_op =
  | Record of { src : Ids.proc_id; dest : Ids.proc_id; packet : Packet.t }
  | Discharge of { src : Ids.proc_id; dest : Ids.proc_id; stamp : Stamp.t }
  | Fail of Ids.proc_id

(* The checkpoint-table calls a run made, rebuilt from its journal: every
   spawn or re-issue files a checkpoint on the spawning processor (the
   latest [Activated] host of the parent stamp, the super-root for roots),
   every accepted result discharges it, every failure surrenders the
   entries for the dead processor on every table. *)
let ckpt_ops entries =
  let host = Hashtbl.create 4096 and dest_of = Hashtbl.create 4096 in
  let src_of stamp =
    match Stamp.parent stamp with
    | None -> Ids.super_root
    | Some p -> Option.value ~default:Ids.super_root (Hashtbl.find_opt host p)
  in
  let record stamp dest =
    Hashtbl.replace dest_of stamp dest;
    let link = { Packet.task = Ids.no_task; proc = src_of stamp; slot = 0 } in
    Record
      {
        src = link.Packet.proc;
        dest;
        packet =
          Packet.make ~stamp ~fname:"f" ~args:[||] ~parent:link ~grandparent:None ~ancestors:[];
      }
  in
  List.filter_map
    (fun { Journal.stamp; event; _ } ->
      match event with
      | Journal.Activated { proc; _ } ->
        Hashtbl.replace host stamp proc;
        None
      | Journal.Spawned { dest; _ } | Journal.Respawned { dest; _ } -> Some (record stamp dest)
      | Journal.Result_accepted _ -> (
        match Hashtbl.find_opt dest_of stamp with
        | Some dest -> Some (Discharge { src = src_of stamp; dest; stamp })
        | None -> None)
      | Journal.Failure { proc } -> Some (Fail proc)
      | _ -> None)
    entries
  |> Array.of_list

let ckpt_table entries =
  let ops = ckpt_ops entries in
  let tables = Hashtbl.create 64 in
  let table p =
    match Hashtbl.find_opt tables p with
    | Some t -> t
    | None ->
      let t = Ckpt_table.create () in
      Hashtbl.add tables p t;
      t
  in
  Array.iter
    (function Record { src; _ } | Discharge { src; _ } -> ignore (table src) | Fail _ -> ())
    ops;
  let all = Hashtbl.fold (fun _ t acc -> t :: acc) tables [] in
  Spans.time ~count:(Array.length ops) "replay.ckpt_table" (fun () ->
      Array.iter
        (function
          | Record { src; dest; packet } -> ignore (Ckpt_table.record (table src) ~dest packet)
          | Discharge { src; dest; stamp } -> ignore (Ckpt_table.discharge (table src) ~dest stamp)
          | Fail failed -> List.iter (fun t -> ignore (Ckpt_table.on_failure t ~failed)) all)
        ops)

let journal ~retain entries =
  Spans.time ~count:(List.length entries) "replay.journal" (fun () ->
      let j = Journal.create ~retain () in
      List.iter (fun { Journal.time; stamp; event } -> Journal.record j ~time ~stamp event) entries)

(* The run's final counts re-incremented one name at a time, round-robin,
   so the name lookups interleave as they do in a run. *)
let counters alist =
  let names = Array.of_list (List.map fst alist) in
  let left = Array.of_list (List.map snd alist) in
  let total = Array.fold_left ( + ) 0 left in
  Spans.time ~count:total "replay.counter" (fun () ->
      let set = Counter.create_set () in
      let remaining = ref total in
      while !remaining > 0 do
        Array.iteri
          (fun i n ->
            if left.(i) > 0 then begin
              Counter.incr set n;
              left.(i) <- left.(i) - 1;
              decr remaining
            end)
          names
      done)

let eval program fname args =
  Spans.time "replay.eval" (fun () -> ignore (Eval_serial.eval program fname args))
