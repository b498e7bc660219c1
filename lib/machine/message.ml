module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ids = Recflow_recovery.Ids

type relay =
  | To_parent
  | To_grandparent of { dead_parent : Packet.link }
  | To_step_parent of { dead_parent : Packet.link }

type result_payload = {
  stamp : Stamp.t;
  value : Recflow_lang.Value.t;
  target : Packet.link;
  relay : relay;
}

type t =
  | Task_packet of { packet : Packet.t; task_id : Ids.task_id; replica : int; replicas : int }
  | Orphan_alive of {
      stamp : Stamp.t;
      orphan : Packet.link;
      dead_parent : Packet.link;
      target : Packet.link;
    }
  | Reparent of {
      orphan_task : Ids.task_id;
      stamp : Stamp.t;
      new_parent : Packet.link;
      new_grandparent : Packet.link option;
    }
  | Ack of {
      child_stamp : Stamp.t;
      child_task : Ids.task_id;
      child_proc : Ids.proc_id;
      parent_task : Ids.task_id;
      slot : int;
    }
  | Result of result_payload
  | Gradient of { from : Ids.proc_id; value : int }
  | Abort of { task : Ids.task_id; stamp : Stamp.t }
  | Failure_notice of { failed : Ids.proc_id }

type salvage = Salvaged of Recflow_lang.Value.t | Still_running of Packet.link

let salvage_reason = function Salvaged _ -> "orphan-result" | Still_running _ -> "orphan-alive"

let salvage_forward ~via ~stamp ~dead_parent ~task ~proc = function
  | Salvaged value ->
    let direct =
      match Stamp.parent stamp with Some p -> Stamp.equal p via | None -> false
    in
    let relay, slot =
      if direct then (To_step_parent { dead_parent }, dead_parent.Packet.slot)
      else (To_grandparent { dead_parent }, -1)
    in
    Result { stamp; value; target = { Packet.task; proc; slot }; relay }
  | Still_running orphan ->
    Orphan_alive { stamp; orphan; dead_parent; target = { Packet.task; proc; slot = -1 } }

let iter_salvage f stash =
  List.iter (fun ((_, _, p) as e) -> match p with Salvaged _ -> f e | Still_running _ -> ()) stash;
  List.iter (fun ((_, _, p) as e) -> match p with Still_running _ -> f e | Salvaged _ -> ()) stash

let label = function
  | Task_packet _ -> "task_packet"
  | Orphan_alive _ -> "orphan_alive"
  | Reparent _ -> "reparent"
  | Ack _ -> "ack"
  | Result _ -> "result"
  | Gradient _ -> "gradient"
  | Abort _ -> "abort"
  | Failure_notice _ -> "failure_notice"

(* One delivery-counter handle per message kind, named ["msg." ^ label]. *)
module Count = struct
  let h kind = Recflow_stats.Counter.handle ("msg." ^ kind)

  let task_packet = h "task_packet"

  let orphan_alive = h "orphan_alive"

  let reparent = h "reparent"

  let ack = h "ack"

  let result = h "result"

  let gradient = h "gradient"

  let abort = h "abort"

  let failure_notice = h "failure_notice"
end

let counter = function
  | Task_packet _ -> Count.task_packet
  | Orphan_alive _ -> Count.orphan_alive
  | Reparent _ -> Count.reparent
  | Ack _ -> Count.ack
  | Result _ -> Count.result
  | Gradient _ -> Count.gradient
  | Abort _ -> Count.abort
  | Failure_notice _ -> Count.failure_notice
