module Ids = Recflow_recovery.Ids
module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ckpt_table = Recflow_recovery.Ckpt_table
module Vote = Recflow_recovery.Vote
module Value = Recflow_lang.Value
module Instance = Recflow_lang.Instance
module Counter = Recflow_stats.Counter
module Trace = Recflow_sim.Trace
module Profile = Recflow_obs_core.Profile

(* Checkpoint record/discharge run once per packet — hot enough that the
   per-span name lookup of [Profile.time] is worth skipping. *)
let ckpt_record_probe = Profile.probe "ckpt.record"

let ckpt_discharge_probe = Profile.probe "ckpt.discharge"

type ctx = {
  config : Config.t;
  now : unit -> int;
  send : src:Ids.proc_id -> dst:Ids.proc_id -> Message.t -> unit;
  send_after : delay:int -> src:Ids.proc_id -> dst:Ids.proc_id -> Message.t -> unit;
  wake : Ids.proc_id -> delay:int -> unit;
  fresh_task_id : unit -> Ids.task_id;
  place : origin:Ids.proc_id -> key:int -> Ids.proc_id;
  first_alive : key:int -> Ids.proc_id option;
  neighbors : Ids.proc_id -> Ids.proc_id list;
  template : string -> Recflow_lang.Graph.t;
  inline_eval : string -> Value.t array -> (Value.t * int, string) result;
  journal : Journal.t;
  counters : Counter.set;
  trace : Trace.t;
  record_latency : string -> int -> unit;
      (* named duration histogram on the owning cluster (task.sojourn, ...) *)
  program_error : string -> unit;
}

type task_state = Queued | Running | Blocked | Done | Aborted

(* Bookkeeping for one call slot of a task: the child (or replica group)
   spawned from it.  [dests]/[tasks] associate replica index with the
   current destination processor and activation id; both are rewritten when
   a checkpoint is re-issued. *)
type child = {
  slot : int;
  c_stamp : Stamp.t;
  c_packet : Packet.t;
  mutable dests : (int * Ids.proc_id) list;
  mutable ctasks : (int * Ids.task_id) list;
  mutable vote : Value.t Vote.t option;
  mutable filled : bool;
}

type task = {
  tid : Ids.task_id;
  mutable packet : Packet.t;  (* mutable only for reparenting adopted orphans *)
  inst : Instance.t;
  born : int;  (* activation tick, for the sojourn-time histogram *)
  mutable state : task_state;
  mutable child_seq : int;
  mutable children : (int, child) Hashtbl.t option;
      (* keyed by call slot; allocated on the first spawn so the (large)
         population of leaf tasks never pays for an empty table *)
  mutable pending : (int * Value.t) list;
      (* results that arrived before the slot was reached (tiny: one entry
         per outrun call slot, usually zero) *)
  mutable work : int;  (* busy ticks attributed to this task *)
  mutable result_dropped : bool;
  mutable gc_pending : (Stamp.t * Packet.link * Value.t) list;
      (* salvaged orphan results that arrived before this (twin) task
         spawned the chain link they travel through: (orphan stamp, dead
         parent link, value) *)
  mutable adopted : (int list * (Packet.link * Packet.link)) list;
      (* orphan stamp (digits) -> (orphan link, dead parent link): live
         orphans this step-parent must inherit instead of cloning *)
  mutable adopt_pending : (Stamp.t * Packet.link * Packet.link) list;
      (* adoption reports waiting for this twin to spawn the chain link *)
  mutable adoption_reported : bool;
      (* this task, as an orphan, already announced itself upward *)
}

(* A finished task's full record (instance, children, pending tables,
   packet) is dead weight: once [Done] or [Aborted] the only observable
   behaviours left are the tombstone ones — answer an Ack, absorb a
   duplicate activation, ignore a late result, apply a Reparent (possibly
   re-sending the completed value), serve as the producer in the bounce
   path, and count in [recount].  Between them they read the stamp, the
   return links, Done-or-Aborted, the answer, the work and the dropped
   flag, so the task is *retired* to a record of exactly those fields,
   inlined into the index's [Gone] constructor.  The packet's function
   name and arguments are not kept, nor the uid (it is the index key).

   Note on §3.3's never-reused-uid assumption: task uids stay monotone
   ([ctx.fresh_task_id]) and the uid-keyed index below keeps a tombstone
   per uid forever, so a late message addressed to a dead uid can never
   be confused with a newer task.

   What the index knows about a uid.  [Absent] is never stored: it is
   [lookup]'s answer for a uid the index does not hold. *)
type lookup =
  | Absent
  | Alive of task
  | Gone of {
      r_stamp : Stamp.t;
      mutable r_parent : Packet.link;  (* mutable for post-mortem reparenting *)
      mutable r_grandparent : Packet.link option;
      r_ancestors : Packet.link list;
      r_done : bool;  (* [Done]; [Aborted] otherwise *)
      r_result : Value.t;  (* the answer; meaningful only when [r_done] *)
      r_work : int;
      mutable r_dropped : bool;
    }

type t = {
  nid : Ids.proc_id;
  mutable alive : bool;
  (* uid -> live task or tombstone.  Keys are only ever inserted
     (activation), and retirement rebinds an existing key with
     [Hashtbl.replace], which rewrites the binding in place, so the
     table's iteration order is a pure function of the uid insertion
     sequence — the protocol scans below that walk it (abort cascades,
     vote accounting, producer lookup, adoption reports) observe the same
     order whatever the bindings hold, keeping runs bit-identical. *)
  tasks : (Ids.task_id, lookup) Hashtbl.t;
  (* incremental load accounting: maintained on every state transition so
     the balancer/oracle queries are O(1) instead of a fold over every
     task that ever lived *)
  mutable n_live : int;
  mutable n_blocked : int;
  mutable n_wasted : int;  (* busy ticks of aborted / result-dropped tasks *)
  run_queue : Ids.task_id Queue.t;
  mutable current : Ids.task_id option;
  ckpts : Ckpt_table.t;
  (* The four side tables below are allocated on first insertion: a
     fault-free run under a central policy never touches them, and at
     1024 processors their empty buckets alone were ~90k words. *)
  mutable known_dead : (Ids.proc_id, unit) Hashtbl.t option;
  mutable stepping : bool;
  mutable work_ticks : int;
  (* messages addressed to a re-issued twin whose (grace-delayed) packet
     has not activated here yet, keyed by the twin's task id *)
  mutable early_results : (Ids.task_id, Message.result_payload list) Hashtbl.t option;
  mutable early_adoptions :
    (Ids.task_id, (Stamp.t * Packet.link * Packet.link) list) Hashtbl.t option;
  (* distributed gradient model: last value heard from each neighbour and
     this node's own value (0 = a demand sink).  [heard_min] caches the
     fold over [gradient_heard]; [heard_dirty] marks it stale when a
     possible minimum-holder raised its value or died. *)
  mutable gradient_heard : (Ids.proc_id, int) Hashtbl.t option;
  mutable gradient_value : int;
  mutable heard_min : int;
  mutable heard_dirty : bool;
  mutable neighbor_cache : Ids.proc_id list option;
}

let create nid (config : Config.t) =
  {
    nid;
    alive = true;
    tasks = Hashtbl.create 64;
    n_live = 0;
    n_blocked = 0;
    n_wasted = 0;
    run_queue = Queue.create ();
    current = None;
    ckpts = Ckpt_table.create ~mode:(Config.table_mode config.ckpt_mode) ();
    known_dead = None;
    stepping = false;
    work_ticks = 0;
    early_results = None;
    early_adoptions = None;
    gradient_heard = None;
    gradient_value = 0;
    heard_min = max_int / 2;
    heard_dirty = false;
    neighbor_cache = None;
  }

let id t = t.nid

let is_alive t = t.alive

let checkpoints t = t.ckpts

(* Reads and first-use allocation of the lazy side tables.  [size] is the
   size each table was always created with, so a table's buckets, and
   hence its iteration order, do not depend on when it was allocated. *)
let mem_opt tbl k = match tbl with None -> false | Some h -> Hashtbl.mem h k

let find_opt_in tbl k = match tbl with None -> None | Some h -> Hashtbl.find_opt h k

let tbl_of size = function Some h -> h | None -> Hashtbl.create size

let knows_dead t p = mem_opt t.known_dead p

let mark_dead t p =
  if not (knows_dead t p) then begin
    let h = tbl_of 4 t.known_dead in
    t.known_dead <- Some h;
    Hashtbl.add h p ();
    if mem_opt t.gradient_heard p then t.heard_dirty <- true
  end

let allocated_side_tables t =
  let n o = if Option.is_some o then 1 else 0 in
  n t.known_dead + n t.early_results + n t.early_adoptions + n t.gradient_heard

let work_done t = t.work_ticks

let task_live task = match task.state with Done | Aborted -> false | _ -> true

let live_tasks t = t.n_live

let blocked_tasks t = t.n_blocked

let runnable_tasks t =
  Queue.length t.run_queue + (match t.current with Some _ -> 1 | None -> 0)

let wasted_work t = t.n_wasted

(* ------------------------------------------------------------------ *)
(* Task index plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* [result] is the task's answer when it retires [Done]; an aborted task
   passes any value (its tombstone never reads it). *)
let retire t task result =
  let p = task.packet in
  Hashtbl.replace t.tasks task.tid
    (Gone
       {
         r_stamp = p.Packet.stamp;
         r_parent = p.Packet.parent;
         r_grandparent = p.Packet.grandparent;
         r_ancestors = p.Packet.ancestors;
         r_done = task.state = Done;
         r_result = result;
         r_work = task.work;
         r_dropped = task.result_dropped;
       })

let lookup t tid = match Hashtbl.find t.tasks tid with e -> e | exception Not_found -> Absent

(* Walk the live tasks in the index's (legacy) iteration order; retiring
   the visited task rebinds its key in place, which is safe mid-walk. *)
let iter_live t f = Hashtbl.iter (fun _ e -> match e with Alive task -> f task | _ -> ()) t.tasks

let set_state t task st =
  if task.state <> st then begin
    (match task.state with Blocked -> t.n_blocked <- t.n_blocked - 1 | _ -> ());
    (match st with Blocked -> t.n_blocked <- t.n_blocked + 1 | _ -> ());
    (match st with
    | Done | Aborted -> (
      match task.state with Done | Aborted -> () | _ -> t.n_live <- t.n_live - 1)
    | Queued | Running | Blocked -> (
      match task.state with Done | Aborted -> t.n_live <- t.n_live + 1 | _ -> ()));
    task.state <- st
  end

(* A live task is never dropped (dropping happens at completion), and an
   aborted task's work is already in [n_wasted], so the guard keeps the
   counter equal to the old fold over both populations. *)
let mark_dropped t task =
  if not task.result_dropped then begin
    task.result_dropped <- true;
    if task.state <> Aborted then t.n_wasted <- t.n_wasted + task.work
  end

let children_tbl task =
  match task.children with
  | Some h -> h
  | None ->
    let h = Hashtbl.create 8 in
    task.children <- Some h;
    h

let child_find task slot =
  match task.children with None -> None | Some h -> Hashtbl.find_opt h slot

let child_iter f task = match task.children with None -> () | Some h -> Hashtbl.iter f h

let child_fold f task init =
  match task.children with None -> init | Some h -> Hashtbl.fold f h init

type task_view = {
  v_stamp : Stamp.t;
  v_task : Ids.task_id;
  v_state : string;
  v_waiting_on : (Stamp.t * Ids.proc_id list) list;
}

let state_label = function
  | Queued -> "queued"
  | Running -> "running"
  | Blocked -> "blocked"
  | Done -> "done"
  | Aborted -> "aborted"

let task_view_of task =
  let waiting =
    child_fold
      (fun _ child acc ->
        if child.filled then acc else (child.c_stamp, List.map snd child.dests) :: acc)
      task []
  in
  {
    v_stamp = task.packet.Packet.stamp;
    v_task = task.tid;
    v_state = state_label task.state;
    v_waiting_on = waiting;
  }

let iter_task_views t f = iter_live t (fun task -> f (task_view_of task))

let snapshot t =
  let acc = ref [] in
  iter_task_views t (fun v -> acc := v :: !acc);
  List.sort (fun a b -> Stamp.compare a.v_stamp b.v_stamp) !acc

(* Brute-force recount of the incremental counters over every resident and
   retired task — the invariant oracle for the property tests, never used
   on a hot path. *)
let recount t =
  let live = ref 0 and blocked = ref 0 and wasted = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Alive task ->
        if task_live task then incr live;
        if task.state = Blocked then incr blocked;
        if task.state = Aborted || task.result_dropped then wasted := !wasted + task.work
      | Gone r -> if (not r.r_done) || r.r_dropped then wasted := !wasted + r.r_work
      | Absent -> ())
    t.tasks;
  (!live, !blocked, !wasted)

let resident_tasks t =
  Hashtbl.fold (fun _ e n -> match e with Alive _ -> n + 1 | Gone _ | Absent -> n) t.tasks 0

let tracef t ctx fmt =
  Trace.logf ctx.trace ~time:(ctx.now ()) ~level:Trace.Debug
    ~tag:(Ids.proc_to_string t.nid) fmt

(* ------------------------------------------------------------------ *)
(* CPU scheduling                                                      *)
(* ------------------------------------------------------------------ *)

let ensure_stepping t ctx =
  if t.alive && not t.stepping then begin
    t.stepping <- true;
    ctx.wake t.nid ~delay:0
  end

let enqueue_task t ctx task =
  set_state t task Queued;
  Queue.add task.tid t.run_queue;
  ensure_stepping t ctx

(* ------------------------------------------------------------------ *)
(* Spawning (DEMAND_IT, §4.2)                                          *)
(* ------------------------------------------------------------------ *)

let replication_factor ctx (task : task) =
  match ctx.config.recovery with
  | Config.Replicate k ->
    (* Replicate the "critical section" prefix of the call tree (§5.3);
       deeper spawns fall back to plain checkpoint/rollback handling. *)
    if Stamp.depth task.packet.Packet.stamp + 1 <= ctx.config.replicate_depth then k else 1
  | Config.No_recovery | Config.Rollback | Config.Splice -> 1

(* The gradient surface, recomputed from neighbours' last-heard values:
   an under-loaded node is a sink (0); elsewhere the value grows with the
   hop distance to the nearest sink (Lin & Keller's gradient model [10],
   computed with local information only). *)
let gradient_threshold ctx =
  match ctx.config.policy with
  | Recflow_balance.Policy.Gradient_distributed { threshold } -> threshold
  | _ -> 1

let neighbors_of t ctx =
  match t.neighbor_cache with
  | Some l -> l
  | None ->
    let l = ctx.neighbors t.nid in
    t.neighbor_cache <- Some l;
    l

let heard_nearest t =
  if t.heard_dirty then begin
    t.heard_dirty <- false;
    t.heard_min <-
      (match t.gradient_heard with
      | None -> max_int / 2
      | Some h ->
        Hashtbl.fold (fun peer v acc -> if knows_dead t peer then acc else min acc v) h (max_int / 2))
  end;
  t.heard_min

let recompute_gradient t ctx =
  t.gradient_value <-
    (if runnable_tasks t <= gradient_threshold ctx then 0 else 1 + heard_nearest t)

(* Node-local gradient placement: stay local while under-loaded, else flow
   one hop toward the lowest-valued live neighbour. *)
let gradient_place t ctx =
  if runnable_tasks t <= gradient_threshold ctx then t.nid
  else begin
    let best =
      List.fold_left
        (fun acc peer ->
          if knows_dead t peer then acc
          else begin
            let v = Option.value ~default:(max_int / 2) (find_opt_in t.gradient_heard peer) in
            match acc with Some (_, bv) when bv <= v -> acc | _ -> Some (peer, v)
          end)
        None (neighbors_of t ctx)
    in
    match best with
    | Some (peer, v) when v < t.gradient_value -> peer
    | _ -> t.nid
  end

(* Periodic exchange: recompute and tell the neighbours. *)
let gradient_tick t ctx =
  if t.alive then begin
    recompute_gradient t ctx;
    List.iter
      (fun peer ->
        if not (knows_dead t peer) then
          ctx.send ~src:t.nid ~dst:peer
            (Message.Gradient { from = t.nid; value = t.gradient_value }))
      (neighbors_of t ctx)
  end

(* Pick a destination; static placement may nominate a dead node, in which
   case we charge a reassignment and fall back deterministically (§3.3). *)
let choose_dest t ctx ~key =
  let dest =
    match ctx.config.policy with
    | Recflow_balance.Policy.Gradient_distributed _ -> gradient_place t ctx
    | _ -> ctx.place ~origin:t.nid ~key
  in
  if dest >= 0 && not (knows_dead t dest) then dest
  else begin
    Counter.incr ctx.counters "static.reassigned";
    (* The cluster fallback only knows router liveness; a *suspected*
       processor is still routable, but anything placed there is written
       off by this node (§1), so probe past locally-known-dead picks.
       Under fail-stop alone known_dead ⊆ router-dead and the first probe
       already lands. *)
    let rec probe k tries =
      if tries <= 0 then None
      else
        match ctx.first_alive ~key:k with
        | Some d when not (knows_dead t d) -> Some d
        | Some _ -> probe (k + 1) (tries - 1)
        | None -> None
    in
    match probe key 64 with
    | Some d -> d
    | None -> dest (* no live node: send anyway; the bounce path cleans up *)
  end

(* Returns whether a checkpoint was actually stored, so the spawn path can
   charge [ckpt_cost] only for real records.  Under [Adaptive] admission,
   spawns deeper than [max_depth] skip the table entirely: their recovery
   cost is bounded (the static analysis bounds the subtree), so the
   surviving parent's local regeneration is cheaper than carrying a
   checkpoint per deep task (§3.3's recovery-cost/storage trade). *)
let record_checkpoint t ctx ~dest packet =
  match ctx.config.Config.ckpt_mode with
  | Config.Adaptive { max_depth } when Stamp.depth packet.Packet.stamp > max_depth ->
    Counter.incr ctx.counters "ckpt.skipped_deep";
    false
  | Config.Fixed _ | Config.Adaptive _ -> (
    match
      Profile.time_probe ckpt_record_probe (fun () -> Ckpt_table.record t.ckpts ~dest packet)
    with
    | `Recorded ->
      Counter.incr ctx.counters "ckpt.recorded";
      true
    | `Covered ->
      Counter.incr ctx.counters "ckpt.covered";
      false)

let send_activation t ctx packet ~task_id ~dest ~replica ~replicas =
  ctx.send ~src:t.nid ~dst:dest
    (Message.Task_packet { packet; task_id; replica; replicas });
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
    (Journal.Spawned { task = task_id; dest; replica })

(* Forward stashed salvaged results whose relay chain passes through a
   freshly spawned child: a twin that was holding an orphan's answer
   releases it as soon as it re-creates the next link of the chain. *)
let forward_orphan_alive t ctx (child : child) ~ostamp ~orphan ~dead_parent =
  match (child.dests, child.ctasks) with
  | (_, proc) :: _, (_, ctask) :: _ ->
    Counter.incr ctx.counters "adopt.forwarded";
    ctx.send ~src:t.nid ~dst:proc
      (Message.Orphan_alive
         { stamp = ostamp; orphan; dead_parent;
           target = { Packet.task = ctask; proc; slot = -1 } })
  | _ -> Counter.incr ctx.counters "adopt.dropped"

let flush_adopt_pending t ctx task (child : child) =
  if task.adopt_pending <> [] then begin
    let covered (ostamp, _, _) =
      match Stamp.parent ostamp with
      | Some ps -> Stamp.equal child.c_stamp ps || Stamp.is_ancestor child.c_stamp ps
      | None -> false
    in
    let matches, rest = List.partition covered task.adopt_pending in
    task.adopt_pending <- rest;
    List.iter
      (fun (ostamp, orphan, dead_parent) ->
        forward_orphan_alive t ctx child ~ostamp ~orphan ~dead_parent)
      matches
  end

let flush_gc_pending t ctx task (child : child) =
  if task.gc_pending <> [] then begin
    let covered (ostamp, _, _) =
      match Stamp.parent ostamp with
      | Some ps -> Stamp.equal child.c_stamp ps || Stamp.is_ancestor child.c_stamp ps
      | None -> false
    in
    let matches, rest = List.partition covered task.gc_pending in
    task.gc_pending <- rest;
    List.iter
      (fun (ostamp, (dead_parent : Packet.link), value) ->
        match (child.dests, child.ctasks) with
        | (_, proc) :: _, (_, ctask) :: _ ->
          let direct =
            match Stamp.parent ostamp with
            | Some ps -> Stamp.equal child.c_stamp ps
            | None -> false
          in
          let relay, tslot =
            if direct then (Message.To_step_parent { dead_parent }, dead_parent.Packet.slot)
            else (Message.To_grandparent { dead_parent }, -1)
          in
          Counter.incr ctx.counters "relay.forwarded";
          Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:ostamp
            (Journal.Relayed { via = t.nid });
          ctx.send ~src:t.nid ~dst:proc
            (Message.Result
               { stamp = ostamp; value; target = { Packet.task = ctask; proc; slot = tslot };
                 relay })
        | _ -> ())
      matches
  end

(* DEMAND_IT's packet formation: level-stamp with the next child digit and
   attach the parent, grandparent and deeper ancestor identifications. *)
let build_child_packet t ctx task ~slot ~fname ~args =
  let digit = task.child_seq in
  task.child_seq <- task.child_seq + 1;
  let stamp = Stamp.child task.packet.Packet.stamp digit in
  let parent = { Packet.task = task.tid; proc = t.nid; slot } in
  let grandparent =
    if ctx.config.ancestor_depth >= 1 then Some task.packet.Packet.parent else None
  in
  let ancestors =
    if ctx.config.ancestor_depth <= 1 then []
    else begin
      let inherited =
        match task.packet.Packet.grandparent with
        | Some g -> g :: task.packet.Packet.ancestors
        | None -> []
      in
      List.filteri (fun i _ -> i < ctx.config.ancestor_depth - 1) inherited
    end
  in
  Packet.make ~stamp ~fname ~args ~parent ~grandparent ~ancestors

(* Spawn the child for call slot [slot] of [task]: build the packet, level
   stamp it, functionally checkpoint it, and queue it toward the balancer's
   choice of processor. *)
let spawn_child t ctx task ~slot ~fname ~args =
  let packet = build_child_packet t ctx task ~slot ~fname ~args in
  let stamp = packet.Packet.stamp in
  let replicas = replication_factor ctx task in
  let base_key = Stamp.hash stamp in
  let dests = ref [] and ctasks = ref [] and recorded = ref 0 in
  for replica = 0 to replicas - 1 do
    let task_id = ctx.fresh_task_id () in
    let dest = choose_dest t ctx ~key:(base_key + (replica * 7919)) in
    if record_checkpoint t ctx ~dest packet then incr recorded;
    send_activation t ctx packet ~task_id ~dest ~replica ~replicas;
    dests := (replica, dest) :: !dests;
    ctasks := (replica, task_id) :: !ctasks
  done;
  let vote =
    if replicas > 1 then Some (Vote.create ~replicas ~equal:Value.equal) else None
  in
  let child =
    { slot; c_stamp = stamp; c_packet = packet; dests = !dests; ctasks = !ctasks; vote;
      filled = false }
  in
  Hashtbl.replace (children_tbl task) slot child;
  Counter.add ctx.counters "spawn.remote" replicas;
  flush_gc_pending t ctx task child;
  flush_adopt_pending t ctx task child;
  !recorded

(* Re-issue a child from its functional checkpoint (rollback §3.2 /
   splice twin creation §4.1).  The packet is byte-identical — same stamp,
   same return linkage — so by determinacy the regenerated activation is a
   functional twin of the lost one. *)
let respawn_child t ctx _task (child : child) ~reason =
  Profile.time "recovery.respawn" @@ fun () ->
  let replicas = List.length child.dests in
  Profile.time_probe ckpt_discharge_probe (fun () ->
      List.iter
        (fun (_, dest) -> ignore (Ckpt_table.discharge t.ckpts ~dest child.c_stamp))
        child.dests);
  let base_key = Stamp.hash child.c_stamp in
  let dests = ref [] and ctasks = ref [] in
  for replica = 0 to replicas - 1 do
    let task_id = ctx.fresh_task_id () in
    let dest = choose_dest t ctx ~key:(base_key + 104729 + (replica * 7919)) in
    ignore (record_checkpoint t ctx ~dest child.c_packet);
    (* Under splice, hold the twin back briefly so adoption reports from
       living orphans can overtake it (§4.1 offspring inheritance). *)
    let grace =
      match ctx.config.recovery with
      | Config.Splice -> ctx.config.adoption_grace
      | Config.No_recovery | Config.Rollback | Config.Replicate _ -> 0
    in
    ctx.send_after ~delay:grace ~src:t.nid ~dst:dest
      (Message.Task_packet { packet = child.c_packet; task_id; replica; replicas });
    Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:child.c_stamp
      (Journal.Respawned { task = task_id; dest; reason });
    dests := (replica, dest) :: !dests;
    ctasks := (replica, task_id) :: !ctasks
  done;
  child.dests <- !dests;
  child.ctasks <- !ctasks;
  if replicas > 1 then child.vote <- Some (Vote.create ~replicas ~equal:Value.equal);
  Counter.incr ctx.counters "reissue.count";
  tracef t ctx "reissued %s (%s)" (Stamp.to_string child.c_stamp) reason

(* ------------------------------------------------------------------ *)
(* Task completion and result forwarding                               *)
(* ------------------------------------------------------------------ *)

let discharge_child t child =
  Profile.time_probe ckpt_discharge_probe @@ fun () ->
  List.iter
    (fun (_, dest) -> ignore (Ckpt_table.discharge t.ckpts ~dest child.c_stamp))
    child.dests

(* Fill a call slot with a decided value and resume the task if it was
   suspended on it. *)
let fill_slot t ctx task (child : child) value =
  child.filled <- true;
  discharge_child t child;
  Instance.supply task.inst child.slot value;
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:child.c_stamp
    (Journal.Result_accepted { task = task.tid });
  if task.state = Blocked then enqueue_task t ctx task

(* §4.2: "Send the result to the parent.  If the parent is dead, notify
   the grandparent and send the result to the grandparent."

   Parameterized over the producer's stamp, return links and drop
   bookkeeping so it serves both a live task completing ([complete_task])
   and a retired producer whose earlier return bounced ([handle_bounce]). *)
let return_result_from t ctx ~stamp ~(parent : Packet.link) ~grandparent ~ancestors ~tid
    ~mark_dropped value =
  let payload relay target = Message.Result { stamp; value; target; relay } in
  if not (knows_dead t parent.Packet.proc) then
    ctx.send ~src:t.nid ~dst:parent.Packet.proc (payload Message.To_parent parent)
  else begin
    match ctx.config.recovery with
    | Config.Splice when ctx.config.ancestor_depth >= 1 -> (
      (* Climb the ancestor links (grandparent first, then the §5.2
         great-grandparent extension when enabled) to the nearest live
         holder of a checkpoint on our chain. *)
      let candidates = (match grandparent with Some gp -> [ gp ] | None -> []) @ ancestors in
      match
        List.find_opt
          (fun (l : Packet.link) -> not (knows_dead t l.Packet.proc))
          candidates
      with
      | Some live_ancestor ->
        Counter.incr ctx.counters "relay.sent";
        ctx.send ~src:t.nid ~dst:live_ancestor.Packet.proc
          (payload (Message.To_grandparent { dead_parent = parent }) live_ancestor)
      | None ->
        mark_dropped ();
        Counter.incr ctx.counters "relay.stranded";
        Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
          (Journal.Relay_dropped { at = t.nid; reason = "grandparent dead or absent" }))
    | Config.No_recovery | Config.Rollback | Config.Splice | Config.Replicate _ ->
      mark_dropped ();
      Counter.incr ctx.counters "result.orphan_dropped";
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp (Journal.Orphan_dropped { task = tid })
  end

let return_result t ctx task value =
  let p = task.packet in
  return_result_from t ctx ~stamp:p.Packet.stamp ~parent:p.Packet.parent
    ~grandparent:p.Packet.grandparent ~ancestors:p.Packet.ancestors ~tid:task.tid
    ~mark_dropped:(fun () -> mark_dropped t task)
    value

let complete_task t ctx task value =
  set_state t task Done;
  ctx.record_latency "task.sojourn" (ctx.now () - task.born);
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:task.packet.Packet.stamp
    (Journal.Completed { task = task.tid; proc = t.nid; work = task.work });
  return_result t ctx task value;
  retire t task value

(* ------------------------------------------------------------------ *)
(* Aborts (rollback garbage collection, §3.2/§3.4)                     *)
(* ------------------------------------------------------------------ *)

let abort_task t ctx task =
  if task_live task then begin
    set_state t task Aborted;
    t.n_wasted <- t.n_wasted + task.work;
    Counter.incr ctx.counters "task.aborted";
    Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:task.packet.Packet.stamp
      (Journal.Aborted { task = task.tid; proc = t.nid; work = task.work });
    (* Cascade to outstanding children so their processors can reclaim
       them; checkpoints for this doomed subtree are dropped. *)
    child_iter
      (fun _ child ->
        if not child.filled then begin
          discharge_child t child;
          List.iter
            (fun (replica, dest) ->
              if not (knows_dead t dest) then
                match List.assoc_opt replica child.ctasks with
                | Some ctask -> ctx.send ~src:t.nid ~dst:dest (Message.Abort { task = ctask })
                | None -> ())
            child.dests
        end)
      task;
    retire t task Value.Nil
  end

let abort_orphans t ctx ~failed =
  iter_live t (fun task ->
      if task.packet.Packet.parent.Packet.proc = failed then abort_task t ctx task)

(* ------------------------------------------------------------------ *)
(* Failure handling (error-detection branch of the protocol LOOP)      *)
(* ------------------------------------------------------------------ *)

(* [reason] records what first told this node about the failure: the
   broadcast notice, a bounced send, or an orphan's unexpected return —
   the re-issue journal entries carry it so experiments can tell the
   Figure-3 path (twin created on orphan evidence) from notice-driven
   recovery. *)
let handle_failure ?(reason = "notice") t ctx ~failed =
  if not (knows_dead t failed) then
    Profile.time "recovery.handle_failure" @@ fun () ->
    begin
    mark_dead t failed;
    let drained = Ckpt_table.on_failure t.ckpts ~failed in
    (match ctx.config.recovery with
    | Config.No_recovery ->
      Counter.add ctx.counters "ckpt.dropped_no_recovery" (List.length drained)
    | Config.Rollback | Config.Splice | Config.Replicate _ ->
      (* Re-issue the topmost checkpoints filed under the dead processor
         whose slots are still waiting.  Replicated slots are governed by
         the voter instead. *)
      List.iter
        (fun (packet : Packet.t) ->
          let parent = packet.Packet.parent in
          match lookup t parent.Packet.task with
          | Absent | Gone _ -> Counter.incr ctx.counters "reissue.stale"
          | Alive task -> (
            match child_find task parent.Packet.slot with
            | None -> Counter.incr ctx.counters "reissue.stale"
            | Some child ->
              if child.filled || child.vote <> None then ()
              else if not (Stamp.equal child.c_stamp packet.Packet.stamp) then
                (* The slot has moved on (covered descendant drained
                   alongside its ancestor in Keep_all mode). *)
                Counter.incr ctx.counters "reissue.stale"
              else if List.exists (fun (_, d) -> d <> failed) child.dests then
                (* already re-homed by the orphan-result path *)
                ()
              else respawn_child t ctx task child ~reason))
        drained;
      (* Replicated slots: account the lost replicas with the voter. *)
      (match ctx.config.recovery with
      | Config.Replicate _ ->
        iter_live t (fun task ->
            child_iter
              (fun _ child ->
                match child.vote with
                | Some vote when not child.filled ->
                  let lost_here =
                    List.filter (fun (_, dest) -> dest = failed) child.dests
                  in
                  List.iter
                    (fun _ ->
                      match Vote.lose vote with
                      | Vote.Decided v -> if not child.filled then fill_slot t ctx task child v
                      | Vote.Inconclusive ->
                        Counter.incr ctx.counters "vote.inconclusive";
                        respawn_child t ctx task child ~reason:"vote-inconclusive"
                      | Vote.Undecided -> ())
                    lost_here
                | Some _ | None -> ())
              task)
      | Config.No_recovery | Config.Rollback | Config.Splice -> ());
      (* Surviving tasks regenerate their own lost children.  The table's
         topmost discipline suppressed proactive re-issue of covered
         descendants — sound for pure rollback, where the doomed subtree
         is recomputed wholesale from the topmost twin — but a survivor
         that is *not* doomed (an inherited orphan's piece under splice, or
         a live replica whose vote still needs it under replication) must
         make progress by itself, so the retained packet kept in the slot
         bookkeeping is re-issued here (the C4/B5 situation of §3 once
         B2's piece is salvaged).  Replicated slots stay with the voter. *)
      let local_regen () =
        iter_live t (fun task ->
            (* pending adoptions of orphans that just died are stale *)
            (match task.adopted with
            | [] -> ()
            | l ->
              let stale, keep =
                List.partition
                  (fun (_, ((orphan : Packet.link), _)) ->
                    knows_dead t orphan.Packet.proc)
                  l
              in
              if stale <> [] then begin
                task.adopted <- keep;
                List.iter (fun _ -> Counter.incr ctx.counters "adopt.stale") stale
              end);
            child_iter
              (fun _ child ->
                if
                  (not child.filled)
                  && child.vote = None
                  && child.dests <> []
                  && List.for_all (fun (_, d) -> knows_dead t d) child.dests
                then respawn_child t ctx task child ~reason:"local-regen")
              task)
      in
      (* Rollback discards orphans; splice keeps them alive, and every
         still-running orphan announces itself upward so its step-parent
         twin can inherit it rather than spawn a duplicate clone (§4.1:
         "this twin task inherits all offspring of the faulty task"). *)
      match ctx.config.recovery with
      | Config.Rollback ->
        abort_orphans t ctx ~failed;
        (* Under adaptive admission, deep children were never offered to
           the table, so the drained topmost set cannot cover them: each
           surviving parent regenerates its own unrecorded lost children
           (the admission rule's whole bet is that this recomputation is
           cheaper than having checkpointed them). *)
        (match ctx.config.ckpt_mode with
        | Config.Adaptive _ -> local_regen ()
        | Config.Fixed _ -> ())
      | Config.Replicate _ ->
        abort_orphans t ctx ~failed;
        local_regen ()
      | Config.Splice ->
        let adoption_on = ctx.config.adoption_grace > 0 in
        local_regen ();
        if adoption_on then
        iter_live t (fun task ->
            if
              task.packet.Packet.parent.Packet.proc = failed
              && not task.adoption_reported
            then begin
              task.adoption_reported <- true;
              let candidates =
                (match task.packet.Packet.grandparent with Some gp -> [ gp ] | None -> [])
                @ task.packet.Packet.ancestors
              in
              match
                List.find_opt
                  (fun (l : Packet.link) -> not (knows_dead t l.Packet.proc))
                  candidates
              with
              | Some anc ->
                Counter.incr ctx.counters "adopt.sent";
                ctx.send ~src:t.nid ~dst:anc.Packet.proc
                  (Message.Orphan_alive
                     {
                       stamp = task.packet.Packet.stamp;
                       orphan =
                         { Packet.task = task.tid; proc = t.nid;
                           slot = task.packet.Packet.parent.Packet.slot };
                       dead_parent = task.packet.Packet.parent;
                       target = anc;
                     })
              | None -> Counter.incr ctx.counters "adopt.stranded"
            end)
      | Config.No_recovery -> ())
  end

(* ------------------------------------------------------------------ *)
(* Result delivery                                                     *)
(* ------------------------------------------------------------------ *)

(* A result (normal or spliced) reaches the task that owns the call slot. *)
let deliver_result_into t ctx task ~slot ~stamp value =
  match child_find task slot with
  | None ->
    (* The slot has not been reached yet (a salvaged result outran the
       step-parent's own evaluation, §4.1 cases 4–5): hold it so the spawn
       is skipped when the call node fires. *)
    if List.mem_assoc slot task.pending then begin
      Counter.incr ctx.counters "dup.ignored";
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
        (Journal.Duplicate_ignored { task = task.tid })
    end
    else begin
      task.pending <- (slot, value) :: task.pending;
      Counter.incr ctx.counters "result.preheld"
    end
  | Some child ->
    if child.filled then begin
      Counter.incr ctx.counters "dup.ignored";
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
        (Journal.Duplicate_ignored { task = task.tid })
    end
    else begin
      match child.vote with
      | None -> fill_slot t ctx task child value
      | Some vote -> (
        match Vote.add vote value with
        | Vote.Decided v -> fill_slot t ctx task child v
        | Vote.Undecided -> ()
        | Vote.Inconclusive ->
          Counter.incr ctx.counters "vote.inconclusive";
          respawn_child t ctx task child ~reason:"vote-inconclusive")
    end

(* An orphan's return arrived at the grandparent (§4.1): treat it as
   failure detection, make sure the dead child has a twin, and relay the
   salvaged value to the step-parent. *)
(* An orphan's salvaged result arrived at an ancestor (grandparent, or a
   deeper ancestor under the §5.2 extension).  Drive it down the chain of
   twins toward the orphan's step-parent:

   - the ancestor's own child on the chain is [Stamp.parent orphan] or an
     ancestor of it; regenerate its twin if it is still homed on a dead
     processor;
   - if the twin *is* the orphan's step-parent, forward [To_step_parent]
     (the twin's call slot is [dead_parent.slot] — slots are graph node
     ids, identical across activations of the same function);
   - if the chain is deeper, forward [To_grandparent] to the twin, which
     repeats this procedure one level down;
   - a twin that has not spawned the next chain link yet stashes the
     orphan result ([gc_pending]) and forwards when the spawn happens. *)
let handle_grandchild_result t ctx task ~(dead_parent : Packet.link) ~slot ~stamp value =
  Profile.time "recovery.splice.orphan_result" @@ fun () ->
  handle_failure ~reason:"orphan-result" t ctx ~failed:dead_parent.Packet.proc;
  let drop reason =
    Counter.incr ctx.counters "relay.dropped";
    Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
      (Journal.Relay_dropped { at = t.nid; reason })
  in
  match Stamp.parent stamp with
  | None -> drop "orphan has no parent stamp"
  | Some parent_stamp -> (
    (* Locate the chain child: by slot when the stamps agree (the direct
       grandparent case), otherwise by stamp ancestry. *)
    let by_slot =
      match child_find task slot with
      | Some child
        when Stamp.equal child.c_stamp parent_stamp
             || Stamp.is_ancestor child.c_stamp parent_stamp ->
        Some child
      | Some _ | None -> None
    in
    let chain_child =
      match by_slot with
      | Some _ -> by_slot
      | None ->
        child_fold
          (fun _ child acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if
                Stamp.equal child.c_stamp parent_stamp
                || Stamp.is_ancestor child.c_stamp parent_stamp
              then Some child
              else None)
          task None
    in
    match chain_child with
    | None ->
      (* The chain link is not spawned yet (this task is itself a twin
         that has not reached that call): hold the salvaged result. *)
      task.gc_pending <- (stamp, dead_parent, value) :: task.gc_pending;
      Counter.incr ctx.counters "relay.stashed"
    | Some child ->
      if child.filled then drop "parent slot already filled"
      else begin
        if List.for_all (fun (_, d) -> knows_dead t d) child.dests then
          respawn_child t ctx task child ~reason:"orphan-result";
        match (child.dests, child.ctasks) with
        | (_, twin_proc) :: _, (_, twin_task) :: _ ->
          Counter.incr ctx.counters "relay.forwarded";
          Journal.record ctx.journal ~time:(ctx.now ()) ~stamp (Journal.Relayed { via = t.nid });
          let relay, tslot =
            if Stamp.equal child.c_stamp parent_stamp then
              (Message.To_step_parent { dead_parent }, dead_parent.Packet.slot)
            else (Message.To_grandparent { dead_parent }, -1)
          in
          ctx.send ~src:t.nid ~dst:twin_proc
            (Message.Result
               {
                 stamp;
                 value;
                 target = { Packet.task = twin_task; proc = twin_proc; slot = tslot };
                 relay;
               })
        | _ -> drop "no live twin destination"
      end)

(* An adoption report reached an ancestor (or, after forwarding, the
   step-parent twin itself).  Mirror image of {!handle_grandchild_result}
   for orphans that are still running: drive the report down the chain of
   twins; the step-parent records the orphan so the matching call slot is
   inherited instead of cloned. *)
let handle_orphan_alive t ctx task ~ostamp ~(orphan : Packet.link)
    ~(dead_parent : Packet.link) =
  Profile.time "recovery.splice.orphan_alive" @@ fun () ->
  handle_failure ~reason:"orphan-alive" t ctx ~failed:dead_parent.Packet.proc;
  match Stamp.parent ostamp with
  | None -> Counter.incr ctx.counters "adopt.dropped"
  | Some parent_stamp ->
    if Stamp.equal parent_stamp task.packet.Packet.stamp then begin
      (* This task is the step-parent.  If the clone for that stamp is
         already out, adoption lost the race (duplicates, §4.1 case 6). *)
      let clone_exists =
        child_fold (fun _ child acc -> acc || Stamp.equal child.c_stamp ostamp) task false
      in
      if clone_exists then Counter.incr ctx.counters "adopt.late"
      else begin
        let key = Stamp.digits ostamp in
        task.adopted <- (key, (orphan, dead_parent)) :: List.remove_assoc key task.adopted;
        Counter.incr ctx.counters "adopt.recorded"
      end
    end
    else begin
      let chain_child =
        child_fold
          (fun _ child acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if
                Stamp.equal child.c_stamp parent_stamp
                || Stamp.is_ancestor child.c_stamp parent_stamp
              then Some child
              else None)
          task None
      in
      match chain_child with
      | None ->
        task.adopt_pending <- (ostamp, orphan, dead_parent) :: task.adopt_pending;
        Counter.incr ctx.counters "adopt.stashed"
      | Some child ->
        if child.filled then Counter.incr ctx.counters "adopt.dropped"
        else begin
          if List.for_all (fun (_, d) -> knows_dead t d) child.dests then
            respawn_child t ctx task child ~reason:"orphan-alive";
          forward_orphan_alive t ctx child ~ostamp ~orphan ~dead_parent
        end
    end

(* ------------------------------------------------------------------ *)
(* Message delivery                                                    *)
(* ------------------------------------------------------------------ *)

let activate_task t ctx packet ~task_id =
  let graph = ctx.template packet.Packet.fname in
  let inst = Instance.create graph packet.Packet.args in
  let task =
    {
      tid = task_id;
      packet;
      inst;
      born = ctx.now ();
      state = Queued;
      child_seq = 0;
      children = None;
      pending = [];
      work = 0;
      result_dropped = false;
      gc_pending = [];
      adopted = [];
      adopt_pending = [];
      adoption_reported = false;
    }
  in
  Hashtbl.replace t.tasks task_id (Alive task);
  t.n_live <- t.n_live + 1;
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
    (Journal.Activated { task = task_id; proc = t.nid });
  (* Positive acknowledgement: moves the spawn out of transient state b/d
     (§4.3.2).  The super-root does not track acks. *)
  let parent = packet.Packet.parent in
  if parent.Packet.proc <> Ids.super_root then
    ctx.send ~src:t.nid ~dst:parent.Packet.proc
      (Message.Ack
         {
           child_stamp = packet.Packet.stamp;
           child_task = task_id;
           child_proc = t.nid;
           parent_task = parent.Packet.task;
           slot = parent.Packet.slot;
         });
  Queue.add task_id t.run_queue;
  ensure_stepping t ctx;
  task

let deliver t ctx msg =
  if t.alive then begin
    Counter.incr ctx.counters (Message.counter_name msg);
    match msg with
    | Message.Task_packet { packet; task_id; replica = _; replicas = _ }
      when Hashtbl.mem t.tasks task_id ->
      (* A retransmitted activation raced its transport ack: activation is
         idempotent by stamp + task id, so keep the existing instance
         untouched and only repeat the protocol-level Ack — the first one
         may have been lost, and the parent must still leave state b/d. *)
      Counter.incr ctx.counters "dup.task_packet";
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
        (Journal.Duplicate_ignored { task = task_id });
      let parent = packet.Packet.parent in
      if parent.Packet.proc <> Ids.super_root then
        ctx.send ~src:t.nid ~dst:parent.Packet.proc
          (Message.Ack
             {
               child_stamp = packet.Packet.stamp;
               child_task = task_id;
               child_proc = t.nid;
               parent_task = parent.Packet.task;
               slot = parent.Packet.slot;
             })
    | Message.Task_packet { packet; task_id; replica = _; replicas = _ } ->
      let task = activate_task t ctx packet ~task_id in
      (* A grace-delayed twin may have been overtaken by adoption reports
         and salvaged results addressed to it: apply them now. *)
      (match find_opt_in t.early_adoptions task_id with
      | Some reports ->
        Option.iter (fun h -> Hashtbl.remove h task_id) t.early_adoptions;
        List.iter
          (fun (ostamp, orphan, dead_parent) ->
            handle_orphan_alive t ctx task ~ostamp ~orphan ~dead_parent)
          (List.rev reports)
      | None -> ());
      (match find_opt_in t.early_results task_id with
      | Some rs ->
        Option.iter (fun h -> Hashtbl.remove h task_id) t.early_results;
        List.iter
          (fun (r : Message.result_payload) ->
            match r.Message.relay with
            | Message.To_parent | Message.To_step_parent _ ->
              deliver_result_into t ctx task ~slot:r.Message.target.Packet.slot
                ~stamp:r.Message.stamp r.Message.value
            | Message.To_grandparent { dead_parent } ->
              handle_grandchild_result t ctx task ~dead_parent
                ~slot:r.Message.target.Packet.slot ~stamp:r.Message.stamp r.Message.value)
          (List.rev rs)
      | None -> ())
    | Message.Orphan_alive { stamp; orphan; dead_parent; target } -> (
      match lookup t target.Packet.task with
      | Alive task -> handle_orphan_alive t ctx task ~ostamp:stamp ~orphan ~dead_parent
      | Gone _ -> Counter.incr ctx.counters "adopt.ignored"
      | Absent ->
        (* the twin's own packet is still in flight: hold the report *)
        let h = tbl_of 4 t.early_adoptions in
        t.early_adoptions <- Some h;
        let prev = Option.value ~default:[] (Hashtbl.find_opt h target.Packet.task) in
        Hashtbl.replace h target.Packet.task ((stamp, orphan, dead_parent) :: prev))
    | Message.Ack { child_stamp; child_task; child_proc; parent_task; slot = _ } -> (
      (* Establishes the parent→child pointer (state b/d → c/e). *)
      if Hashtbl.mem t.tasks parent_task then
        Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:child_stamp
          (Journal.Acked { task = child_task; proc = child_proc })
      else Counter.incr ctx.counters "ack.ignored")
    | Message.Result { stamp; value; target; relay } -> (
      match lookup t target.Packet.task with
      | Absent -> (
        match relay with
        | Message.To_step_parent _ | Message.To_grandparent _ ->
          (* salvage addressed to a twin whose packet is still in flight *)
          let h = tbl_of 4 t.early_results in
          t.early_results <- Some h;
          let prev = Option.value ~default:[] (Hashtbl.find_opt h target.Packet.task) in
          Hashtbl.replace h target.Packet.task ({ Message.stamp; value; target; relay } :: prev)
        | Message.To_parent ->
          (* "If a processor receives a packet and cannot find a proper
             rule to handle it, the processor simply ignores the
             message." *)
          Counter.incr ctx.counters "result.ignored")
      | Gone _ -> Counter.incr ctx.counters "result.ignored"
      | Alive task -> (
        match relay with
        | Message.To_parent | Message.To_step_parent _ ->
          deliver_result_into t ctx task ~slot:target.Packet.slot ~stamp value
        | Message.To_grandparent { dead_parent } -> (
          match ctx.config.recovery with
          | Config.Splice ->
            handle_grandchild_result t ctx task ~dead_parent ~slot:target.Packet.slot ~stamp
              value
          | Config.No_recovery | Config.Rollback | Config.Replicate _ ->
            Counter.incr ctx.counters "relay.dropped")))
    | Message.Reparent { orphan_task; new_parent; new_grandparent } -> (
      match lookup t orphan_task with
      | Absent -> Counter.incr ctx.counters "reparent.ignored"
      | Alive task ->
        (* a live orphan has no answer yet; its eventual return follows
           the rewritten links *)
        task.packet <-
          Packet.reparent task.packet ~parent:new_parent ~grandparent:new_grandparent;
        Counter.incr ctx.counters "reparent.applied"
      | Gone p ->
        p.r_parent <- new_parent;
        p.r_grandparent <- new_grandparent;
        Counter.incr ctx.counters "reparent.applied";
        if p.r_done then begin
          (* completed before learning the address: deliver now (a
             duplicate of an earlier successful relay is absorbed) *)
          if p.r_dropped then begin
            p.r_dropped <- false;
            t.n_wasted <- t.n_wasted - p.r_work
          end;
          ctx.send ~src:t.nid ~dst:new_parent.Packet.proc
            (Message.Result
               { stamp = p.r_stamp; value = p.r_result; target = new_parent;
                 relay = Message.To_parent })
        end)
    | Message.Gradient { from; value } ->
      let h = tbl_of 8 t.gradient_heard in
      t.gradient_heard <- Some h;
      let prev = Hashtbl.find_opt h from in
      Hashtbl.replace h from value;
      (* keep the cached minimum exact without a fold: a lower value from
         a live peer tightens it directly; raising the (possible) holder
         of the minimum forces a recount *)
      if (not (knows_dead t from)) && value < t.heard_min then
        t.heard_min <- value
      else (
        match prev with
        | Some p when p <= t.heard_min -> t.heard_dirty <- true
        | Some _ | None -> ())
    | Message.Abort { task } -> (
      match lookup t task with
      | Alive task -> abort_task t ctx task
      | Gone _ -> () (* already finished or aborted: nothing to reclaim *)
      | Absent -> Counter.incr ctx.counters "abort.ignored")
    | Message.Failure_notice { failed } -> handle_failure t ctx ~failed
  end

(* ------------------------------------------------------------------ *)
(* Bounce: an earlier send turned out to be undeliverable (§1 timeout) *)
(* ------------------------------------------------------------------ *)

let handle_bounce t ctx ~dead msg =
  if t.alive then begin
    (* An undeliverable message is failure detection in its own right (§1:
       unreachable ⇒ faulty): run the full error-detection response, not
       just a local note — otherwise the later broadcast notice would be
       ignored as already-known and checkpoints would never be re-issued. *)
    handle_failure ~reason:"bounce-detect" t ctx ~failed:dead;
    Counter.incr ctx.counters "msg.bounced";
    match msg with
    | Message.Task_packet { packet; task_id = _; replica = _; replicas = _ } -> (
      (* The packet never arrived (transient state b/d): the retained
         checkpoint regenerates it, exactly like a failure notice would. *)
      match lookup t packet.Packet.parent.Packet.task with
      | Absent -> Counter.incr ctx.counters "reissue.stale"
      | Gone _ -> ()
      | Alive task -> (
        match child_find task packet.Packet.parent.Packet.slot with
        | Some child when not child.filled ->
          if List.for_all (fun (_, d) -> knows_dead t d) child.dests then
            respawn_child t ctx task child ~reason:"bounced-packet"
        | Some _ | None -> ()))
    | Message.Result ({ relay = Message.To_parent; _ } as r) -> (
      (* The paper's D4 moment: the return found its parent dead. *)
      match ctx.config.recovery with
      | Config.Splice ->
        (* Identify the producing task so its packet supplies the
           grandparent link; re-route through the relay logic.  Producers
           are [Done], hence retired — scan the tombstones in the index's
           legacy order (last match wins, as before). *)
        let producer =
          Hashtbl.fold
            (fun tid e acc ->
              match e with
              | Gone p when p.r_done && Stamp.equal p.r_stamp r.stamp -> Some tid
              | _ -> acc)
            t.tasks None
        in
        (match producer with
        | Some tid -> (
          match lookup t tid with
          | Gone p ->
            let mark_dropped () =
              (* a [Done] producer: its work is wasted once its result is *)
              if not p.r_dropped then begin
                p.r_dropped <- true;
                t.n_wasted <- t.n_wasted + p.r_work
              end
            in
            return_result_from t ctx ~stamp:p.r_stamp ~parent:p.r_parent
              ~grandparent:p.r_grandparent ~ancestors:p.r_ancestors ~tid ~mark_dropped r.value
          | Absent | Alive _ -> assert false (* the fold just found its tombstone *))
        | None ->
          Counter.incr ctx.counters "relay.dropped";
          Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:r.stamp
            (Journal.Relay_dropped { at = t.nid; reason = "producer gone after bounce" }))
      | Config.No_recovery | Config.Rollback | Config.Replicate _ ->
        Counter.incr ctx.counters "result.orphan_dropped";
        Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:r.stamp
          (Journal.Orphan_dropped { task = r.target.Packet.task }))
    | Message.Result { relay = Message.To_grandparent _; stamp; _ } ->
      (* Grandparent dead as well (§5.2's stranded orphan). *)
      Counter.incr ctx.counters "relay.stranded";
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
        (Journal.Relay_dropped { at = t.nid; reason = "grandparent dead (stranded orphan)" })
    | Message.Result { relay = Message.To_step_parent _; stamp; _ } ->
      (* The twin's processor died before the salvaged result landed; the
         next failure notice will regenerate the twin and recompute. *)
      Counter.incr ctx.counters "relay.dropped";
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
        (Journal.Relay_dropped { at = t.nid; reason = "step-parent died" })
    | Message.Orphan_alive _ ->
      (* The ancestor died before the report landed: the orphan will fall
         back to the result-relay path (or strand) at completion time. *)
      Counter.incr ctx.counters "adopt.stranded"
    | Message.Gradient _ | Message.Reparent _ | Message.Ack _ | Message.Abort _
    | Message.Failure_notice _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* CPU quantum                                                         *)
(* ------------------------------------------------------------------ *)

(* The processor cost model, in simulated ticks. *)
let work_tick = 1 (* per unit of evaluator work *)

let spawn_cost = 5 (* to form + checkpoint + enqueue a packet *)

let ctx_switch = 1 (* to pick the next task off the run queue *)

let should_inline ctx (task : task) = Stamp.depth task.packet.Packet.stamp + 1 >= ctx.config.inline_depth

let charge t task cost =
  t.work_ticks <- t.work_ticks + cost;
  task.work <- task.work + cost

let rec pick_next t ctx =
  match Queue.take_opt t.run_queue with
  | None -> t.stepping <- false
  | Some tid -> (
    match lookup t tid with
    | Alive task ->
      set_state t task Running;
      t.current <- Some tid;
      ctx.wake t.nid ~delay:ctx_switch
    | Gone _ | Absent -> pick_next t ctx)

let step t ctx =
  if t.alive then begin
    match t.current with
    | None -> pick_next t ctx
    | Some tid -> (
      match lookup t tid with
      | Absent | Gone _ ->
        t.current <- None;
        pick_next t ctx
      | Alive task -> (
          match Instance.step task.inst with
          | Instance.Work { cost } ->
            let ticks = cost * work_tick in
            charge t task ticks;
            ctx.wake t.nid ~delay:(max 1 ticks)
          | Instance.Spawn { slot; fname; args } -> (
            match List.assoc_opt slot task.pending with
            | Some v ->
              (* A salvaged result beat us to this call: adopt it instead
                 of spawning (§4.1 cases 4–5: "P' will not spawn C'
                 because the answer is already there"). *)
              task.pending <- List.remove_assoc slot task.pending;
              let c_stamp = Stamp.child task.packet.Packet.stamp task.child_seq in
              task.child_seq <- task.child_seq + 1;
              Hashtbl.replace (children_tbl task) slot
                {
                  slot;
                  c_stamp;
                  c_packet = task.packet;
                  dests = [];
                  ctasks = [];
                  vote = None;
                  filled = true;
                };
              Instance.supply task.inst slot v;
              Counter.incr ctx.counters "spawn.skipped_preheld";
              Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:c_stamp
                (Journal.Result_accepted { task = task.tid });
              ctx.wake t.nid ~delay:1
            | None ->
              let next_stamp = Stamp.child task.packet.Packet.stamp task.child_seq in
              let next_key = Stamp.digits next_stamp in
              let adoption =
                match List.assoc_opt next_key task.adopted with
                | Some (orphan, _) when knows_dead t orphan.Packet.proc ->
                  (* the orphan died since it reported: the adoption is
                     stale; spawn a fresh child instead *)
                  task.adopted <- List.remove_assoc next_key task.adopted;
                  Counter.incr ctx.counters "adopt.stale";
                  None
                | other -> other
              in
              (match adoption with
              | Some (orphan, _dead_parent) ->
                (* Inherit the living orphan: bind the slot to it instead
                   of spawning a clone; its result arrives via the
                   grandparent relay. *)
                task.adopted <- List.remove_assoc next_key task.adopted;
                let packet = build_child_packet t ctx task ~slot ~fname ~args in
                ignore (record_checkpoint t ctx ~dest:orphan.Packet.proc packet);
                let child =
                  { slot; c_stamp = packet.Packet.stamp; c_packet = packet;
                    dests = [ (0, orphan.Packet.proc) ];
                    ctasks = [ (0, orphan.Packet.task) ]; vote = None; filled = false }
                in
                Hashtbl.replace (children_tbl task) slot child;
                Counter.incr ctx.counters "spawn.inherited";
                Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
                  (Journal.Inherited
                     { orphan_task = orphan.Packet.task; proc = orphan.Packet.proc });
                (* tell the orphan its new return address (§3.4's second
                   option); if it already finished and its relay stranded,
                   it will re-send the result here *)
                ctx.send ~src:t.nid ~dst:orphan.Packet.proc
                  (Message.Reparent
                     {
                       orphan_task = orphan.Packet.task;
                       new_parent = { Packet.task = task.tid; proc = t.nid; slot };
                       new_grandparent = Some task.packet.Packet.parent;
                     });
                flush_gc_pending t ctx task child;
                flush_adopt_pending t ctx task child;
                ctx.wake t.nid ~delay:1
              | None ->
              if should_inline ctx task then begin
                match ctx.inline_eval fname args with
                | Ok (v, steps) ->
                  let ticks = max 1 (steps * work_tick) in
                  charge t task ticks;
                  Instance.supply task.inst slot v;
                  Counter.incr ctx.counters "spawn.inline";
                  Journal.record ctx.journal ~time:(ctx.now ())
                    ~stamp:task.packet.Packet.stamp
                    (Journal.Inlined { parent_task = task.tid; proc = t.nid; work = ticks });
                  ctx.wake t.nid ~delay:ticks
                | Error msg -> ctx.program_error msg
              end
              else begin
                let recorded = spawn_child t ctx task ~slot ~fname ~args in
                let cost = spawn_cost + (recorded * ctx.config.ckpt_cost) in
                charge t task cost;
                ctx.wake t.nid ~delay:(max 1 cost)
              end))
          | Instance.Blocked ->
            set_state t task Blocked;
            t.current <- None;
            pick_next t ctx
          | Instance.Finished v ->
            complete_task t ctx task v;
            t.current <- None;
            pick_next t ctx
          | Instance.Failed msg -> ctx.program_error msg))
  end

let gradient_value t = t.gradient_value

let kill t ctx =
  if t.alive then begin
    t.alive <- false;
    t.stepping <- false;
    t.current <- None;
    Queue.clear t.run_queue;
    Counter.add ctx.counters "task.lost_in_failure" t.n_live;
    (* Tasks die with the node; mark them so queries do not mistake them
       for survivors.  Their packets live on in peers' checkpoint tables.
       A [Lost] entry (distinct from [Aborted], which means rollback
       garbage collection) preserves the destroyed work for the
       observability layer. *)
    iter_live t (fun task ->
        if task_live task then begin
          Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:task.packet.Packet.stamp
            (Journal.Lost { task = task.tid; proc = t.nid; work = task.work });
          set_state t task Aborted;
          t.n_wasted <- t.n_wasted + task.work;
          retire t task Value.Nil
        end)
  end
