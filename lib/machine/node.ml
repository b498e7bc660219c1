module Ids = Recflow_recovery.Ids
module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Ckpt_table = Recflow_recovery.Ckpt_table
module Vote = Recflow_recovery.Vote
module Value = Recflow_lang.Value
module Instance = Recflow_lang.Instance
module Counter = Recflow_stats.Counter
module Profile = Recflow_obs_core.Profile

(* Handles for every counter this module bumps: a bump is an array read,
   not a string hash (see {!Counter.handle}). *)
module Count = struct
  let abort_ignored = Counter.handle "abort.ignored"

  let ack_ignored = Counter.handle "ack.ignored"

  let adopt_dropped = Counter.handle "adopt.dropped"

  let adopt_forwarded = Counter.handle "adopt.forwarded"

  let adopt_ignored = Counter.handle "adopt.ignored"

  let adopt_late = Counter.handle "adopt.late"

  let adopt_recorded = Counter.handle "adopt.recorded"

  let adopt_sent = Counter.handle "adopt.sent"

  let adopt_stale = Counter.handle "adopt.stale"

  let adopt_stashed = Counter.handle "adopt.stashed"

  let adopt_stranded = Counter.handle "adopt.stranded"

  let ckpt_covered = Counter.handle "ckpt.covered"

  let ckpt_dropped_no_recovery = Counter.handle "ckpt.dropped_no_recovery"

  let ckpt_recorded = Counter.handle "ckpt.recorded"

  let ckpt_skipped_deep = Counter.handle "ckpt.skipped_deep"

  let dup_ignored = Counter.handle "dup.ignored"

  let dup_task_packet = Counter.handle "dup.task_packet"

  let msg_bounced = Counter.handle "msg.bounced"

  let reissue_count = Counter.handle "reissue.count"

  let reissue_stale = Counter.handle "reissue.stale"

  let relay_dropped = Counter.handle "relay.dropped"

  let relay_forwarded = Counter.handle "relay.forwarded"

  let relay_sent = Counter.handle "relay.sent"

  let relay_stashed = Counter.handle "relay.stashed"

  let relay_stranded = Counter.handle "relay.stranded"

  let reparent_applied = Counter.handle "reparent.applied"

  let reparent_ignored = Counter.handle "reparent.ignored"

  let result_ignored = Counter.handle "result.ignored"

  let result_orphan_dropped = Counter.handle "result.orphan_dropped"

  let result_preheld = Counter.handle "result.preheld"

  let spawn_inherited = Counter.handle "spawn.inherited"

  let spawn_inline = Counter.handle "spawn.inline"

  let spawn_remote = Counter.handle "spawn.remote"

  let spawn_skipped_preheld = Counter.handle "spawn.skipped_preheld"

  let static_reassigned = Counter.handle "static.reassigned"

  let task_aborted = Counter.handle "task.aborted"

  let task_lost_in_failure = Counter.handle "task.lost_in_failure"

  let vote_inconclusive = Counter.handle "vote.inconclusive"
end

(* Checkpoint record/discharge run once per packet — hot enough that the
   per-span name lookup of [Profile.time] is worth skipping, and that the
   span's closure is built only while profiling is on. *)
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
  record_latency : string -> int -> unit;
      (* named duration histogram on the owning cluster (task.sojourn, ...) *)
  program_error : string -> unit;
  settle : Settle.t;
}

type task_state = Queued | Running | Blocked | Done | Aborted

(* Bookkeeping for one call slot of a task: the child (or replica group)
   spawned from it.  [c_packet] is the child's own packet, level stamp
   included: the functional checkpoint a re-issue sends again (§3.2).
   [copies] holds the current copies as [|dest; task; dest; task; ...|]
   pairs (destination processor and activation id), newest replica first;
   a re-issue replaces it whole.  A filled slot is never re-issued or
   sent salvage through, so it keeps neither: [fill_slot] swaps in the
   shared [no_packet] and empty copies, and a slot's stamp is then read
   from the task's stamp and the slot's call-site digit ([child_stamp]). *)
type child = {
  slot : int;
  mutable c_packet : Packet.t;
  mutable copies : int array;
  mutable vote : Value.t Vote.t option;
  mutable filled : bool;
}

let c_stamp child = child.c_packet.Packet.stamp

(* The packet of every filled call slot, shared. *)
let no_packet =
  Packet.make ~stamp:Stamp.root ~fname:"" ~args:[||]
    ~parent:{ Packet.task = Ids.no_task; proc = Ids.super_root; slot = 0 }
    ~grandparent:None ~ancestors:[]

(* What reached a call slot of a (twin) task before the task got there:
   a salvaged result, which the spawn then skips (§4.1 cases 4–5), or a
   living orphan, which the step-parent inherits instead of cloning (§4.1
   offspring inheritance).  A value wins over an orphan. *)
type early = Preheld of Value.t | Orphan of Packet.link

type task = {
  tid : Ids.task_id;
  mutable packet : Packet.t;  (* mutable only for reparenting adopted orphans *)
  mutable inst : Instance.t;
      (* [unstarted] until the task first runs, when [step] builds its
         graph instance from the packet: a queued task needs nothing else
         (§2), and one aborted or lost in the queue never builds one *)
  born : int;  (* activation tick, for the sojourn-time histogram *)
  mutable state : task_state;
  mutable children : child array;
      (* one per call slot spawned, in spawn order; leaves share the empty
         array (see [child_fold] for the walk order) *)
  mutable early : (int * early) list;
      (* keyed by call slot, for slots not reached yet (tiny: one entry per
         outrun slot, usually none) *)
  mutable work : int;  (* busy ticks attributed to this task *)
  mutable result_dropped : bool;
  mutable stash : (Stamp.t * Packet.link * Message.salvage) list;
      (* salvage (orphan results and adoption reports) that arrived before
         this (twin) task spawned the chain link it travels through:
         (orphan stamp, dead parent link, payload), newest first *)
  mutable adoption_reported : bool;
      (* this task, as an orphan, already announced itself upward *)
}

(* The instance every task holds before its first step, shared and never
   stepped: a one-node graph, so a queued task pays no instance words and
   a started one no [option] box. *)
let unstarted =
  Instance.create
    (Recflow_lang.Graph.make ~fname:"" ~arity:0 [| Recflow_lang.Graph.Const Value.Nil |] ~result:0)
    [||]

(* What the index knows about a uid.  A binding goes Alive -> Gone, and
   then its key is removed.

   - [Alive]: the full task record, from activation until it finishes.
   - [Gone]: a finished task's full record (instance, children, pending
     tables, packet) is dead weight: once [Done] or [Aborted] the only
     observable behaviours left are the tombstone ones — answer an Ack,
     absorb a duplicate activation, ignore a late result, apply a
     Reparent (possibly re-sending the completed value), serve as the
     producer in the bounce path, and count in [recount].  Between them
     they read the stamp, the return links, Done-or-Aborted, the answer,
     the work and the dropped flag, so the task is *retired* to a record
     of exactly those fields.  The packet's function name and arguments
     are not kept, nor the uid (it is the index key).
   - removed: once the task's request has settled ({!Settle}: its answer
     is in, and no live task, message or checkpoint can name one of its
     tasks), the tombstone is dead weight too and its cell is freed.  A
     freed uid looks up as [Absent], like a uid not activated yet, so the
     witness of a wrong settle is the ledger's: [deliver] and
     [handle_bounce] count and ignore a message naming a reclaimed request
     ({!Settle.msg_names_reclaimed}), and the scheduler counts a run-queue
     uid that has gone [Absent].

   §3.3 assumes a uid is never reused.  Task uids stay monotone
   ([ctx.fresh_task_id]), so a late message addressed to a dead uid can
   never be confused with a newer task.

   [Reclaimed] is the index's dead value: a cell is rebound to it as it is
   unlinked, so a walk that already holds the cell passes over it.
   [Absent] is never stored: it is [lookup]'s answer for a uid the index
   does not hold. *)
type lookup =
  | Absent
  | Reclaimed
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
  (* uid -> live task or tombstone.  Keys are inserted at activation,
     retirement rebinds a key in place, and reclamation removes it.  The
     index ({!Uid_index}) walks in the order a stdlib [Hashtbl] keeping
     every uid ever activated would, less the removed keys: the protocol
     scans below that walk it (abort cascades, vote accounting, producer
     lookup, adoption reports) skip reclaimed uids, so they observe the
     same order as when every key stayed, keeping runs bit-identical. *)
  tasks : lookup Uid_index.t;
  mutable reclaimed_waste : int;
      (* wasted work of the reclaimed tombstones, which [recount] can no
         longer read from them *)
  mutable reclaimed_hits : int;
      (* messages naming a reclaimed request, and run-queue uids found
         freed: wrong settles *)
  (* incremental load accounting: maintained on every state transition so
     the balancer/oracle queries are O(1) instead of a fold over every
     task that ever lived *)
  mutable n_live : int;
  mutable n_blocked : int;
  mutable n_wasted : int;  (* busy ticks of aborted / result-dropped tasks *)
  run_queue : Ids.task_id Queue.t;
  mutable current : Ids.task_id;  (* [Ids.no_task] when idle *)
  ckpts : Ckpt_table.t;
  (* The three side tables below are allocated on first insertion: a
     fault-free run under a central policy never touches them, and at
     1024 processors their empty buckets alone were ~90k words. *)
  mutable known_dead : (Ids.proc_id, unit) Hashtbl.t option;
  mutable stepping : bool;
  mutable work_ticks : int;
  (* salvage messages (results and adoption reports) addressed to a
     re-issued twin whose (grace-delayed) packet has not activated here
     yet, keyed by the twin's task id, newest first *)
  mutable held : (Ids.task_id, Message.t list) Hashtbl.t option;
  mutable gradient : gradient option;
      (* allocated on first use: only the distributed gradient policy
         needs it *)
}

(* The distributed gradient model: the last value heard from each
   neighbour and this node's own value (0 = a demand sink).  [heard_min]
   caches the fold over [heard]; [heard_dirty] marks it stale when a
   possible minimum-holder raised its value or died.  [heard] is the third
   lazily allocated side table. *)
and gradient = {
  mutable heard : (Ids.proc_id, int) Hashtbl.t option;
  mutable value : int;
  mutable heard_min : int;
  mutable heard_dirty : bool;
  mutable neighbor_cache : Ids.proc_id list option;
}

let create nid (config : Config.t) =
  {
    nid;
    alive = true;
    tasks = Uid_index.create ~dead:Reclaimed;
    reclaimed_waste = 0;
    reclaimed_hits = 0;
    n_live = 0;
    n_blocked = 0;
    n_wasted = 0;
    run_queue = Queue.create ();
    current = Ids.no_task;
    ckpts = Ckpt_table.create ~mode:(Config.table_mode config.ckpt_mode) ();
    known_dead = None;
    stepping = false;
    work_ticks = 0;
    held = None;
    gradient = None;
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
    match t.gradient with
    | Some g when mem_opt g.heard p -> g.heard_dirty <- true
    | Some _ | None -> ()
  end

let allocated_side_tables t =
  let n o = if Option.is_some o then 1 else 0 in
  n t.known_dead + n t.held + match t.gradient with Some g -> n g.heard | None -> 0

let work_done t = t.work_ticks

let task_live task = match task.state with Done | Aborted -> false | _ -> true

let live_tasks t = t.n_live

let blocked_tasks t = t.n_blocked

let runnable_tasks t =
  Queue.length t.run_queue + if t.current = Ids.no_task then 0 else 1

let wasted_work t = t.n_wasted

(* ------------------------------------------------------------------ *)
(* Task index plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* [result] is the task's answer when it retires [Done]; an aborted task
   passes any value (its tombstone never reads it).  The task stops holding
   its request, unless the run queue or [t.current] still names it
   ([scheduled]): then the scheduler releases it as it drops that
   reference ([pick_next], [step], [kill]). *)
let retire t ctx task result ~scheduled =
  let p = task.packet in
  Uid_index.replace t.tasks task.tid
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
       });
  Settle.retired ctx.settle p.Packet.stamp ~proc:t.nid task.tid;
  if not scheduled then Settle.release ctx.settle p.Packet.stamp

let lookup t tid = Uid_index.find t.tasks tid ~default:Absent

(* Only a wrong settle frees a uid something still names. *)
let note_hit t = t.reclaimed_hits <- t.reclaimed_hits + 1

(* A settled request's tombstone leaves the waste it counted with
   [recount]'s baseline. *)
let note_reclaimed t = function
  | Gone r ->
    if (not r.r_done) || r.r_dropped then t.reclaimed_waste <- t.reclaimed_waste + r.r_work
  | Absent | Reclaimed | Alive _ -> ()

let reclaim t tid =
  match lookup t tid with
  | Gone _ as e ->
    note_reclaimed t e;
    Uid_index.remove t.tasks tid;
    1
  | Absent | Reclaimed | Alive _ -> 0

let reclaim_all t =
  Uid_index.remove_if t.tasks (fun _ e ->
      match e with
      | Gone _ ->
        note_reclaimed t e;
        true
      | Absent | Reclaimed | Alive _ -> false)

let reclaimed_hits t = t.reclaimed_hits

(* Walk the live tasks in the index's (legacy) iteration order.  Retiring
   the visited task rebinds its key in place, and can settle its request
   and so free cells, the visited one included: both are safe mid-walk. *)
let iter_live t f = Uid_index.iter (fun _ e -> match e with Alive task -> f task | _ -> ()) t.tasks

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

(* A task's children, one per call slot it spawned, in spawn order.  A
   task never binds a slot twice, and a slot is a call-node id, so a find
   is a plain scan of a few entries. *)
let child_find (children : child array) slot =
  let rec go i =
    if i = Array.length children then None
    else if children.(i).slot = slot then Some children.(i)
    else go (i + 1)
  in
  go 0

let add_slot children child =
  let n = Array.length children in
  let grown = Array.make (n + 1) child in
  Array.blit children 0 grown 0 n;
  grown

(* The walks visit the children in the order of the stdlib table that
   held them before, a [Hashtbl.create 8] keyed by slot and filled with
   [Hashtbl.replace]: abort cascades, vote accounting and local
   regeneration send messages in walk order, and the journal digests pin
   it.  That order follows from the table's layout alone:
   - [create 8] rounds up to 16 buckets, and an insert that takes the
     count past twice the bucket count doubles them, so [n] children sit
     in the least [16 * 2^k] buckets with [n <= 2 * buckets];
   - a slot's bucket is [Hashtbl.hash slot] masked to the bucket count,
     and a new key goes to the head of its bucket;
   - a resize splits each bucket keeping its order, and no key is ever
     rebound or removed, so within a bucket the newest child comes first;
   - the walk takes the buckets in ascending order.
   So a child's rank is its bucket, then its distance from the newest.
   The children of a task are a template's fan-out, a handful, so the
   walk selects the next rank by a scan rather than sorting. *)
let child_buckets n =
  let rec grow nb = if n > 2 * nb then grow (2 * nb) else nb in
  grow 16

let child_fold f (children : child array) init =
  let n = Array.length children in
  let mask = child_buckets n - 1 in
  let rank i = ((Hashtbl.hash children.(i).slot land mask) * n) + (n - 1 - i) in
  let acc = ref init and last = ref (-1) in
  for _ = 1 to n do
    let next = ref (-1) and next_rank = ref max_int in
    for i = 0 to n - 1 do
      let r = rank i in
      if r > !last && r < !next_rank then begin
        next := i;
        next_rank := r
      end
    done;
    last := !next_rank;
    acc := f children.(!next) !acc
  done;
  !acc

let child_iter f children = child_fold (fun child () -> f child) children ()

let child_slot_walks slots =
  let children =
    List.fold_left
      (fun children slot ->
        add_slot children
          { slot; c_packet = no_packet; copies = [||]; vote = None; filled = false })
      [||] slots
  in
  let position child =
    let rec go i = if children.(i) == child then i else go (i + 1) in
    go 0
  in
  let iterated = ref [] in
  child_iter (fun child -> iterated := child.slot :: !iterated) children;
  ( List.rev !iterated,
    List.rev (child_fold (fun child acc -> child.slot :: acc) children []),
    fun slot -> Option.map position (child_find children slot) )

(* The roots of a node's words, for the live-words attribution; a walk
   that changes nothing, never on a hot path. *)
type part =
  | Stamps | Packets | Templates | Instances | Children | Tasks | Tombstones | Index | Checkpoints

let iter_parts t f =
  let packet (p : Packet.t) =
    f Stamps (Obj.repr p.Packet.stamp);
    f Packets (Obj.repr p)
  in
  Uid_index.iter
    (fun _ e ->
      match e with
      | Alive task ->
        packet task.packet;
        f Templates (Obj.repr (Instance.graph task.inst));
        f Instances (Obj.repr task.inst);
        Array.iter (fun (child : child) -> packet child.c_packet) task.children;
        f Children (Obj.repr task.children);
        f Tasks (Obj.repr task)
      | Gone r ->
        f Stamps (Obj.repr r.r_stamp);
        f Tombstones (Obj.repr e)
      | Absent | Reclaimed -> ())
    t.tasks;
  f Index (Obj.repr t.tasks);
  Ckpt_table.iter_packets t.ckpts packet;
  f Checkpoints (Obj.repr t.ckpts)

(* Brute-force recount of the incremental counters over every resident and
   retired task, plus the waste baseline of the reclaimed ones — the
   invariant oracle for the property tests, never used on a hot path. *)
let recount t =
  let live = ref 0 and blocked = ref 0 and wasted = ref t.reclaimed_waste in
  Uid_index.iter
    (fun _ e ->
      match e with
      | Alive task ->
        if task_live task then incr live;
        if task.state = Blocked then incr blocked;
        if task.state = Aborted || task.result_dropped then wasted := !wasted + task.work
      | Gone r -> if (not r.r_done) || r.r_dropped then wasted := !wasted + r.r_work
      | Reclaimed | Absent -> ())
    t.tasks;
  (!live, !blocked, !wasted)

let resident_tasks t =
  Uid_index.fold
    (fun _ e n -> match e with Alive _ -> n + 1 | Gone _ | Reclaimed | Absent -> n)
    t.tasks 0

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

let gradient_of t =
  match t.gradient with
  | Some g -> g
  | None ->
    let g =
      { heard = None; value = 0; heard_min = max_int / 2; heard_dirty = false;
        neighbor_cache = None }
    in
    t.gradient <- Some g;
    g

let neighbors_of t ctx =
  let g = gradient_of t in
  match g.neighbor_cache with
  | Some l -> l
  | None ->
    let l = ctx.neighbors t.nid in
    g.neighbor_cache <- Some l;
    l

let heard_nearest t g =
  if g.heard_dirty then begin
    g.heard_dirty <- false;
    g.heard_min <-
      (match g.heard with
      | None -> max_int / 2
      | Some h ->
        Hashtbl.fold (fun peer v acc -> if knows_dead t peer then acc else min acc v) h (max_int / 2))
  end;
  g.heard_min

let recompute_gradient t ctx =
  let g = gradient_of t in
  g.value <- (if runnable_tasks t <= gradient_threshold ctx then 0 else 1 + heard_nearest t g)

(* Node-local gradient placement: stay local while under-loaded, else flow
   one hop toward the lowest-valued live neighbour. *)
let gradient_place t ctx =
  if runnable_tasks t <= gradient_threshold ctx then t.nid
  else begin
    let g = gradient_of t in
    let best =
      List.fold_left
        (fun acc peer ->
          if knows_dead t peer then acc
          else begin
            let v = Option.value ~default:(max_int / 2) (find_opt_in g.heard peer) in
            match acc with Some (_, bv) when bv <= v -> acc | _ -> Some (peer, v)
          end)
        None (neighbors_of t ctx)
    in
    match best with
    | Some (peer, v) when v < g.value -> peer
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
            (Message.Gradient { from = t.nid; value = (gradient_of t).value }))
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
    Counter.bump ctx.counters Count.static_reassigned;
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
    Counter.bump ctx.counters Count.ckpt_skipped_deep;
    false
  | Config.Fixed _ | Config.Adaptive _ -> (
    let before = Ckpt_table.total_size t.ckpts in
    let verdict =
      if Profile.is_enabled () then
        Profile.time_probe ckpt_record_probe (fun () -> Ckpt_table.record t.ckpts ~dest packet)
      else Ckpt_table.record t.ckpts ~dest packet
    in
    (* a record may also evict covered descendants: all under this stamp *)
    Settle.adjust ctx.settle packet.Packet.stamp (Ckpt_table.total_size t.ckpts - before);
    match verdict with
    | `Recorded ->
      Counter.bump ctx.counters Count.ckpt_recorded;
      true
    | `Covered ->
      Counter.bump ctx.counters Count.ckpt_covered;
      false)

(* A salvage walk that cannot go on.  Salvage counters come in two
   families, [relay.*] for results and [adopt.*] for reports, and only
   results leave journal entries. *)
let drop_salvage t ctx ~ostamp payload reason =
  match payload with
  | Message.Salvaged _ ->
    Counter.bump ctx.counters Count.relay_dropped;
    Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:ostamp
      (Journal.Relay_dropped { at = t.nid; reason })
  | Message.Still_running _ -> Counter.bump ctx.counters Count.adopt_dropped

(* Send salvage for orphan [ostamp] on to [child]'s current twin, the next
   link of the orphan's chain. *)
let forward_salvage t ctx (child : child) ~ostamp ~dead_parent payload =
  if Array.length child.copies > 0 then begin
    let proc = child.copies.(0) and task = child.copies.(1) in
    (match payload with
    | Message.Salvaged _ ->
      Counter.bump ctx.counters Count.relay_forwarded;
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:ostamp (Journal.Relayed { via = t.nid })
    | Message.Still_running _ -> Counter.bump ctx.counters Count.adopt_forwarded);
    ctx.send ~src:t.nid ~dst:proc
      (Message.salvage_forward ~via:(c_stamp child) ~stamp:ostamp ~dead_parent ~task ~proc
         payload)
  end
  else drop_salvage t ctx ~ostamp payload "no live twin destination"

(* A twin that was holding salvage releases it as soon as it re-creates
   the next link of the chain: every stashed orphan below [child]. *)
let flush_salvage t ctx task (child : child) =
  if task.stash <> [] then begin
    let matches, rest =
      List.partition (fun (ostamp, _, _) -> Stamp.is_ancestor (c_stamp child) ostamp) task.stash
    in
    task.stash <- rest;
    Message.iter_salvage
      (fun (ostamp, dead_parent, payload) ->
        forward_salvage t ctx child ~ostamp ~dead_parent payload)
      matches
  end

(* §3.1: the child at call slot [slot] extends its parent's stamp with the
   slot's call-site digit, so every activation of the parent, twins
   included, names that child alike. *)
let child_stamp task slot =
  Stamp.child task.packet.Packet.stamp (Recflow_lang.Graph.digit (Instance.graph task.inst) slot)

(* DEMAND_IT's packet formation: level-stamp the child and attach the
   parent, grandparent and deeper ancestor identifications. *)
let build_child_packet t ctx task ~slot ~fname ~args =
  let stamp = child_stamp task slot in
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

(* Bind call slot [slot] of [task] to a fresh child record for [packet],
   with no copy sent yet. *)
let add_child task ~slot packet ~filled =
  let child = { slot; c_packet = packet; copies = [||]; vote = None; filled } in
  task.children <- add_slot task.children child;
  child

(* Send [replicas] copies of [child]'s packet toward the balancer's choice
   of processor, functionally checkpointing each, and rewrite the child's
   copies and voter in place.  A first spawn ([reason = None]) and a
   re-issue ([Some reason]) differ only in the journal event, the
   placement key offset and the [grace] delay.  Returns how many
   checkpoints were actually stored. *)
let dispatch_child t ctx (child : child) ~replicas ~key_offset ~grace ~reason =
  let packet = child.c_packet in
  let base_key = Stamp.hash packet.Packet.stamp + key_offset in
  let recorded = ref 0 in
  let copies = Array.make (2 * replicas) 0 in
  for replica = 0 to replicas - 1 do
    let task_id = ctx.fresh_task_id () in
    let dest = choose_dest t ctx ~key:(base_key + (replica * 7919)) in
    if record_checkpoint t ctx ~dest packet then incr recorded;
    ctx.send_after ~delay:grace ~src:t.nid ~dst:dest
      (Message.Task_packet { packet; task_id; replica; replicas });
    Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
      (match reason with
      | None -> Journal.Spawned { task = task_id; dest; replica }
      | Some reason -> Journal.Respawned { task = task_id; dest; reason });
    Journal.note_call ctx.journal ~task:task_id packet.Packet.fname packet.Packet.args;
    let pair = 2 * (replicas - 1 - replica) in
    copies.(pair) <- dest;
    copies.(pair + 1) <- task_id
  done;
  child.copies <- copies;
  child.vote <- (if replicas > 1 then Some (Vote.create ~replicas ~equal:Value.equal) else None);
  !recorded

(* Spawn the child for call slot [slot] of [task]: build the packet, level
   stamp it, functionally checkpoint it, and queue it toward the balancer's
   choice of processor. *)
let spawn_child t ctx task ~slot ~fname ~args =
  let packet = build_child_packet t ctx task ~slot ~fname ~args in
  let child = add_child task ~slot packet ~filled:false in
  let replicas = replication_factor ctx task in
  let recorded = dispatch_child t ctx child ~replicas ~key_offset:0 ~grace:0 ~reason:None in
  Counter.bump_by ctx.counters Count.spawn_remote replicas;
  flush_salvage t ctx task child;
  recorded

let discharge_copies ckpts (child : child) =
  let stamp = c_stamp child in
  let copies = child.copies in
  for i = 0 to (Array.length copies / 2) - 1 do
    ignore (Ckpt_table.discharge ckpts ~dest:copies.(2 * i) stamp)
  done

(* Drop the checkpoints of [child] at every destination it was sent to. *)
let discharge_child t ctx child =
  let before = Ckpt_table.total_size t.ckpts in
  if Profile.is_enabled () then
    Profile.time_probe ckpt_discharge_probe (fun () -> discharge_copies t.ckpts child)
  else discharge_copies t.ckpts child;
  Settle.adjust ctx.settle (c_stamp child) (Ckpt_table.total_size t.ckpts - before)

(* Re-issue a child from its functional checkpoint (rollback §3.2 /
   splice twin creation §4.1).  The packet is byte-identical — same stamp,
   same return linkage — so by determinacy the regenerated activation is a
   functional twin of the lost one. *)
let respawn_child t ctx (child : child) ~reason =
  Profile.time "recovery.respawn" @@ fun () ->
  let replicas = Array.length child.copies / 2 in
  discharge_child t ctx child;
  (* Under splice, hold the twin back briefly so adoption reports from
     living orphans can overtake it (§4.1 offspring inheritance). *)
  let grace =
    match ctx.config.recovery with
    | Config.Splice -> ctx.config.adoption_grace
    | Config.No_recovery | Config.Rollback | Config.Replicate _ -> 0
  in
  ignore (dispatch_child t ctx child ~replicas ~key_offset:104729 ~grace ~reason:(Some reason));
  Counter.bump ctx.counters Count.reissue_count

(* How many copies of [child] sit on a processor [p] accepts. *)
let copies_on (child : child) p =
  let n = ref 0 in
  for i = 0 to (Array.length child.copies / 2) - 1 do
    if p child.copies.(2 * i) then incr n
  done;
  !n

(* Every copy of [child] sits on a processor this node knows is dead. *)
let copies_lost t (child : child) =
  Array.length child.copies > 0
  && copies_on child (knows_dead t) = Array.length child.copies / 2

(* ------------------------------------------------------------------ *)
(* Task completion and result forwarding                               *)
(* ------------------------------------------------------------------ *)

(* Fill a call slot with a decided value and resume the task if it was
   suspended on it. *)
let fill_slot t ctx task (child : child) value =
  let stamp = c_stamp child in
  child.filled <- true;
  discharge_child t ctx child;
  child.c_packet <- no_packet;
  child.copies <- [||];
  Instance.supply task.inst child.slot value;
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
    (Journal.Result_accepted { task = task.tid });
  if task.state = Blocked then enqueue_task t ctx task

(* The nearest ancestor this node does not know to be dead: the
   grandparent first, then the §5.2 great-grandparent extension when
   enabled — the closest live holder of a checkpoint on the chain. *)
let nearest_live_ancestor t ~grandparent ~ancestors =
  let live (l : Packet.link) = not (knows_dead t l.Packet.proc) in
  match grandparent with
  | Some gp when live gp -> Some gp
  | Some _ | None -> List.find_opt live ancestors

(* §4.2: "Send the result to the parent.  If the parent is dead, notify
   the grandparent and send the result to the grandparent."

   Parameterized over the producer's stamp and return links so it serves
   both a live task completing ([complete_task]) and a retired producer
   whose earlier return bounced ([handle_bounce]).  Returns [true] when
   the result was dropped, for the caller's waste bookkeeping. *)
let return_result_from t ctx ~stamp ~(parent : Packet.link) ~grandparent ~ancestors ~tid value =
  if not (knows_dead t parent.Packet.proc) then begin
    ctx.send ~src:t.nid ~dst:parent.Packet.proc
      (Message.Result { stamp; value; target = parent; relay = Message.To_parent });
    false
  end
  else begin
    match ctx.config.recovery with
    | Config.Splice when ctx.config.ancestor_depth >= 1 -> (
      match nearest_live_ancestor t ~grandparent ~ancestors with
      | Some live_ancestor ->
        Counter.bump ctx.counters Count.relay_sent;
        ctx.send ~src:t.nid ~dst:live_ancestor.Packet.proc
          (Message.Result
             { stamp; value; target = live_ancestor;
               relay = Message.To_grandparent { dead_parent = parent } });
        false
      | None ->
        Counter.bump ctx.counters Count.relay_stranded;
        Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
          (Journal.Relay_dropped { at = t.nid; reason = "grandparent dead or absent" });
        true)
    | Config.No_recovery | Config.Rollback | Config.Splice | Config.Replicate _ ->
      Counter.bump ctx.counters Count.result_orphan_dropped;
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp (Journal.Orphan_dropped { task = tid });
      true
  end

let return_result t ctx task value =
  let p = task.packet in
  if
    return_result_from t ctx ~stamp:p.Packet.stamp ~parent:p.Packet.parent
      ~grandparent:p.Packet.grandparent ~ancestors:p.Packet.ancestors ~tid:task.tid value
  then mark_dropped t task

let complete_task t ctx task value =
  set_state t task Done;
  ctx.record_latency "task.sojourn" (ctx.now () - task.born);
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:task.packet.Packet.stamp
    (Journal.Completed { task = task.tid; proc = t.nid; work = task.work });
  return_result t ctx task value;
  retire t ctx task value ~scheduled:false

(* ------------------------------------------------------------------ *)
(* Aborts (rollback garbage collection, §3.2/§3.4)                     *)
(* ------------------------------------------------------------------ *)

let abort_task t ctx task =
  if task_live task then begin
    let scheduled =
      match task.state with Queued | Running -> true | Blocked | Done | Aborted -> false
    in
    set_state t task Aborted;
    t.n_wasted <- t.n_wasted + task.work;
    Counter.bump ctx.counters Count.task_aborted;
    Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:task.packet.Packet.stamp
      (Journal.Aborted { task = task.tid; proc = t.nid; work = task.work });
    (* Cascade to outstanding children so their processors can reclaim
       them; checkpoints for this doomed subtree are dropped. *)
    child_iter
      (fun child ->
        if not child.filled then begin
          discharge_child t ctx child;
          let copies = child.copies in
          for i = 0 to (Array.length copies / 2) - 1 do
            let dest = copies.(2 * i) in
            if not (knows_dead t dest) then
              ctx.send ~src:t.nid ~dst:dest
                (Message.Abort { task = copies.((2 * i) + 1); stamp = c_stamp child })
          done
        end)
      task.children;
    retire t ctx task Value.Nil ~scheduled
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
    (* each drained checkpoint holds its request until it is dealt with *)
    let release (packet : Packet.t) = Settle.release ctx.settle packet.Packet.stamp in
    (match ctx.config.recovery with
    | Config.No_recovery ->
      Counter.bump_by ctx.counters Count.ckpt_dropped_no_recovery (List.length drained);
      List.iter release drained
    | Config.Rollback | Config.Splice | Config.Replicate _ ->
      (* Re-issue the topmost checkpoints filed under the dead processor
         whose slots are still waiting.  Replicated slots are governed by
         the voter instead. *)
      List.iter
        (fun (packet : Packet.t) ->
          let parent = packet.Packet.parent in
          (match lookup t parent.Packet.task with
          | Absent | Gone _ | Reclaimed -> Counter.bump ctx.counters Count.reissue_stale
          | Alive task -> (
            match child_find task.children parent.Packet.slot with
            | None -> Counter.bump ctx.counters Count.reissue_stale
            | Some child ->
              if child.filled || child.vote <> None then ()
              else if not (Stamp.equal (c_stamp child) packet.Packet.stamp) then
                (* The slot has moved on (covered descendant drained
                   alongside its ancestor in Keep_all mode). *)
                Counter.bump ctx.counters Count.reissue_stale
              else if copies_on child (fun d -> d <> failed) > 0 then
                (* already re-homed by the orphan-result path *)
                ()
              else respawn_child t ctx child ~reason));
          release packet)
        drained;
      (* Replicated slots: account the lost replicas with the voter. *)
      (match ctx.config.recovery with
      | Config.Replicate _ ->
        iter_live t (fun task ->
            child_iter
              (fun child ->
                match child.vote with
                | Some vote when not child.filled ->
                  for _ = 1 to copies_on child (fun dest -> dest = failed) do
                    match Vote.lose vote with
                    | Vote.Decided v -> if not child.filled then fill_slot t ctx task child v
                    | Vote.Inconclusive ->
                      Counter.bump ctx.counters Count.vote_inconclusive;
                      respawn_child t ctx child ~reason:"vote-inconclusive"
                    | Vote.Undecided -> ()
                  done
                | Some _ | None -> ())
              task.children)
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
            (* held adoptions of orphans that just died are stale *)
            if task.early <> [] then begin
              let stale, keep =
                List.partition
                  (function
                    | _, Orphan orphan -> knows_dead t orphan.Packet.proc
                    | _, Preheld _ -> false)
                  task.early
              in
              task.early <- keep;
              List.iter (fun _ -> Counter.bump ctx.counters Count.adopt_stale) stale
            end;
            child_iter
              (fun child ->
                if (not child.filled) && child.vote = None && copies_lost t child then
                  respawn_child t ctx child ~reason:"local-regen")
              task.children)
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
              match
                nearest_live_ancestor t ~grandparent:task.packet.Packet.grandparent
                  ~ancestors:task.packet.Packet.ancestors
              with
              | Some anc ->
                Counter.bump ctx.counters Count.adopt_sent;
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
              | None -> Counter.bump ctx.counters Count.adopt_stranded
            end)
      | Config.No_recovery -> ())
  end

(* ------------------------------------------------------------------ *)
(* Result delivery                                                     *)
(* ------------------------------------------------------------------ *)

(* A result (normal or spliced) reaches the task that owns the call slot. *)
let deliver_result_into t ctx task ~slot ~stamp value =
  match child_find task.children slot with
  | None -> (
    (* The slot has not been reached yet (a salvaged result outran the
       step-parent's own evaluation, §4.1 cases 4–5): hold it so the spawn
       is skipped when the call node fires. *)
    match List.assoc_opt slot task.early with
    | Some (Preheld _) ->
      Counter.bump ctx.counters Count.dup_ignored;
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
        (Journal.Duplicate_ignored { task = task.tid })
    | Some (Orphan _) | None ->
      task.early <- (slot, Preheld value) :: List.remove_assoc slot task.early;
      Counter.bump ctx.counters Count.result_preheld)
  | Some child ->
    if child.filled then begin
      Counter.bump ctx.counters Count.dup_ignored;
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
          Counter.bump ctx.counters Count.vote_inconclusive;
          respawn_child t ctx child ~reason:"vote-inconclusive")
    end

(* Salvage for orphan [ostamp] (its result, or its adoption report while
   it still runs) arrived at [task]: the orphan's grandparent, a deeper
   ancestor under the §5.2 extension, or a twin one link further down.
   The arrival is failure detection for the dead parent.  Then the
   payload is driven down the chain of twins toward the orphan's
   step-parent, the twin of its dead parent:

   - the chain child is the child whose stamp is an ancestor of the
     orphan's; regenerate its twin if every copy is homed on a dead
     processor, and forward the payload to it ({!Message.salvage_forward}
     says whether that twin is the step-parent or one more link);
   - a task that has not spawned the chain child yet (itself a twin still
     evaluating) stashes the payload until the spawn ({!flush_salvage});
   - a report that reached the step-parent itself records the orphan so
     the matching call slot is inherited instead of cloned. *)
let route_salvage t ctx task ~ostamp ~(dead_parent : Packet.link) payload =
  Profile.time
    (match payload with
    | Message.Salvaged _ -> "recovery.splice.orphan_result"
    | Message.Still_running _ -> "recovery.splice.orphan_alive")
  @@ fun () ->
  let reason = Message.salvage_reason payload in
  handle_failure ~reason t ctx ~failed:dead_parent.Packet.proc;
  match (Stamp.parent ostamp, payload) with
  | None, _ -> drop_salvage t ctx ~ostamp payload "orphan has no parent stamp"
  | Some parent_stamp, Message.Still_running orphan
    when Stamp.equal parent_stamp task.packet.Packet.stamp ->
    (* This task is the step-parent, and the orphan's link names the call
       slot it fills.  If the clone is already out, adoption lost the race
       (duplicates, §4.1 case 6). *)
    let slot = orphan.Packet.slot in
    if Option.is_some (child_find task.children slot) then
      Counter.bump ctx.counters Count.adopt_late
    else begin
      (match List.assoc_opt slot task.early with
      | Some (Preheld _) -> ()
      | Some (Orphan _) | None ->
        task.early <- (slot, Orphan orphan) :: List.remove_assoc slot task.early);
      Counter.bump ctx.counters Count.adopt_recorded
    end
  | Some _, _ -> (
    (* The chain child's stamp is the task's extended by the child's
       call-site digit, read from the graph because a filled slot keeps
       no packet: [ostamp] must extend the task's stamp, then that digit,
       then at least one more. *)
    let base = task.packet.Packet.stamp in
    let d = Stamp.depth base in
    let chain_child =
      if Stamp.depth ostamp > d + 1 && Stamp.is_ancestor base ostamp then begin
        (* one activation's calls have distinct digits: at most one match *)
        let digit = Stamp.digit ostamp d and g = Instance.graph task.inst in
        Array.find_opt (fun child -> Recflow_lang.Graph.digit g child.slot = digit) task.children
      end
      else None
    in
    match chain_child with
    | None ->
      task.stash <- (ostamp, dead_parent, payload) :: task.stash;
      Counter.bump ctx.counters
        (match payload with
        | Message.Salvaged _ -> Count.relay_stashed
        | Message.Still_running _ -> Count.adopt_stashed)
    | Some child when child.filled ->
      drop_salvage t ctx ~ostamp payload "parent slot already filled"
    | Some child ->
      if copies_lost t child then respawn_child t ctx child ~reason;
      forward_salvage t ctx child ~ostamp ~dead_parent payload)

(* A result or a salvage message reaching the live activation it targets
   (on arrival, or replayed from the held table at activation). *)
let deliver_to_task t ctx task msg =
  match msg with
  | Message.Result { stamp; value; target; relay = Message.To_parent | Message.To_step_parent _ }
    ->
    deliver_result_into t ctx task ~slot:target.Packet.slot ~stamp value
  | Message.Result { stamp; value; relay = Message.To_grandparent { dead_parent }; _ } -> (
    match ctx.config.recovery with
    | Config.Splice ->
      route_salvage t ctx task ~ostamp:stamp ~dead_parent (Message.Salvaged value)
    | Config.No_recovery | Config.Rollback | Config.Replicate _ ->
      Counter.bump ctx.counters Count.relay_dropped)
  | Message.Orphan_alive { stamp; orphan; dead_parent; target = _ } ->
    route_salvage t ctx task ~ostamp:stamp ~dead_parent (Message.Still_running orphan)
  | Message.Task_packet _ | Message.Reparent _ | Message.Ack _ | Message.Gradient _
  | Message.Abort _ | Message.Failure_notice _ ->
    ()

(* ------------------------------------------------------------------ *)
(* Message delivery                                                    *)
(* ------------------------------------------------------------------ *)

(* Positive acknowledgement of activation [task_id]: moves the spawn out
   of transient state b/d (§4.3.2).  The super-root does not track acks. *)
let send_ack t ctx packet ~task_id =
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

let activate_task t ctx packet ~task_id =
  let task =
    {
      tid = task_id;
      packet;
      inst = unstarted;
      born = ctx.now ();
      state = Queued;
      children = [||];
      early = [];
      work = 0;
      result_dropped = false;
      stash = [];
      adoption_reported = false;
    }
  in
  Uid_index.replace t.tasks task_id (Alive task);
  t.n_live <- t.n_live + 1;
  Settle.hold ctx.settle packet.Packet.stamp;
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
    (Journal.Activated { task = task_id; proc = t.nid });
  send_ack t ctx packet ~task_id;
  Queue.add task_id t.run_queue;
  ensure_stepping t ctx;
  task

let deliver t ctx msg =
  if t.alive then begin
    Counter.bump ctx.counters (Message.counter msg);
    match msg with
    | _ when Settle.msg_names_reclaimed ctx.settle msg -> note_hit t
    | Message.Task_packet { packet; task_id; replica = _; replicas = _ }
      when Uid_index.mem t.tasks task_id ->
      (* A retransmitted activation raced its transport ack: activation is
         idempotent by stamp + task id, so keep the existing instance
         untouched and only repeat the protocol-level Ack — the first one
         may have been lost, and the parent must still leave state b/d. *)
      Counter.bump ctx.counters Count.dup_task_packet;
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
        (Journal.Duplicate_ignored { task = task_id });
      send_ack t ctx packet ~task_id
    | Message.Task_packet { packet; task_id; replica = _; replicas = _ } ->
      let task = activate_task t ctx packet ~task_id in
      (* A grace-delayed twin may have been overtaken by adoption reports
         and salvaged results addressed to it: apply them now, reports
         first, each kind oldest first. *)
      (match find_opt_in t.held task_id with
      | Some msgs ->
        Option.iter (fun h -> Hashtbl.remove h task_id) t.held;
        let reports, results =
          List.partition
            (function Message.Orphan_alive _ -> true | _ -> false)
            (List.rev msgs)
        in
        List.iter (deliver_to_task t ctx task) reports;
        List.iter (deliver_to_task t ctx task) results;
        List.iter (Settle.release_msg ctx.settle) msgs
      | None -> ())
    | (Message.Orphan_alive { target; _ } | Message.Result { target; _ }) as msg -> (
      match (lookup t target.Packet.task, msg) with
      | Alive task, _ -> deliver_to_task t ctx task msg
      | (Gone _ | Reclaimed), Message.Orphan_alive _ ->
        Counter.bump ctx.counters Count.adopt_ignored
      | ( Absent,
          ( Message.Orphan_alive _
          | Message.Result { relay = Message.To_step_parent _ | Message.To_grandparent _; _ } ) )
        ->
        (* salvage addressed to a twin whose packet is still in flight *)
        let h = tbl_of 4 t.held in
        t.held <- Some h;
        let prev = Option.value ~default:[] (Hashtbl.find_opt h target.Packet.task) in
        Hashtbl.replace h target.Packet.task (msg :: prev);
        Settle.hold_msg ctx.settle msg
      | (Absent | Gone _ | Reclaimed), _ ->
        (* "If a processor receives a packet and cannot find a proper
           rule to handle it, the processor simply ignores the
           message." *)
        Counter.bump ctx.counters Count.result_ignored)
    | Message.Ack { child_stamp; child_task; child_proc; parent_task; slot = _ } -> (
      (* Establishes the parent→child pointer (state b/d → c/e). *)
      if Uid_index.mem t.tasks parent_task then
        Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:child_stamp
          (Journal.Acked { task = child_task; proc = child_proc })
      else Counter.bump ctx.counters Count.ack_ignored)
    | Message.Reparent { orphan_task; stamp = _; new_parent; new_grandparent } -> (
      match lookup t orphan_task with
      | Absent | Reclaimed -> Counter.bump ctx.counters Count.reparent_ignored
      | Alive task ->
        (* a live orphan has no answer yet; its eventual return follows
           the rewritten links *)
        task.packet <-
          Packet.reparent task.packet ~parent:new_parent ~grandparent:new_grandparent;
        Counter.bump ctx.counters Count.reparent_applied
      | Gone p ->
        p.r_parent <- new_parent;
        p.r_grandparent <- new_grandparent;
        Counter.bump ctx.counters Count.reparent_applied;
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
      let g = gradient_of t in
      let h = tbl_of 8 g.heard in
      g.heard <- Some h;
      let prev = Hashtbl.find_opt h from in
      Hashtbl.replace h from value;
      (* keep the cached minimum exact without a fold: a lower value from
         a live peer tightens it directly; raising the (possible) holder
         of the minimum forces a recount *)
      if (not (knows_dead t from)) && value < g.heard_min then
        g.heard_min <- value
      else (
        match prev with
        | Some p when p <= g.heard_min -> g.heard_dirty <- true
        | Some _ | None -> ())
    | Message.Abort { task; stamp = _ } -> (
      match lookup t task with
      | Alive task -> abort_task t ctx task
      | Gone _ | Reclaimed -> () (* already finished or aborted: nothing to reclaim *)
      | Absent -> Counter.bump ctx.counters Count.abort_ignored)
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
    Counter.bump ctx.counters Count.msg_bounced;
    match msg with
    | _ when Settle.msg_names_reclaimed ctx.settle msg -> note_hit t
    | Message.Task_packet { packet; task_id = _; replica = _; replicas = _ } -> (
      (* The packet never arrived (transient state b/d): the retained
         checkpoint regenerates it, exactly like a failure notice would. *)
      match lookup t packet.Packet.parent.Packet.task with
      | Absent -> Counter.bump ctx.counters Count.reissue_stale
      | Gone _ | Reclaimed -> ()
      | Alive task -> (
        match child_find task.children packet.Packet.parent.Packet.slot with
        | Some child when not child.filled ->
          if copies_lost t child then respawn_child t ctx child ~reason:"bounced-packet"
        | Some _ | None -> ()))
    | Message.Result ({ relay = Message.To_parent; _ } as r) -> (
      (* The paper's D4 moment: the return found its parent dead. *)
      match ctx.config.recovery with
      | Config.Splice ->
        (* Identify the producing task so its packet supplies the
           grandparent link; re-route through the relay logic.  Producers
           are [Done], hence retired — scan the tombstones in the index's
           legacy order (last match wins, as before).  The producer's
           request has not settled (this bounce holds it), so its uids are
           all still in the index. *)
        let tid, producer =
          Uid_index.fold
            (fun tid e acc ->
              match e with
              | Gone p when p.r_done && Stamp.equal p.r_stamp r.stamp -> (tid, e)
              | _ -> acc)
            t.tasks (Ids.no_task, Absent)
        in
        (match producer with
        | Gone p ->
          let dropped =
            return_result_from t ctx ~stamp:p.r_stamp ~parent:p.r_parent
              ~grandparent:p.r_grandparent ~ancestors:p.r_ancestors ~tid r.value
          in
          (* a [Done] producer: its work is wasted once its result is *)
          if dropped && not p.r_dropped then begin
            p.r_dropped <- true;
            t.n_wasted <- t.n_wasted + p.r_work
          end
        | Absent | Reclaimed | Alive _ ->
          Counter.bump ctx.counters Count.relay_dropped;
          Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:r.stamp
            (Journal.Relay_dropped { at = t.nid; reason = "producer gone after bounce" }))
      | Config.No_recovery | Config.Rollback | Config.Replicate _ ->
        Counter.bump ctx.counters Count.result_orphan_dropped;
        Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:r.stamp
          (Journal.Orphan_dropped { task = r.target.Packet.task }))
    | Message.Result { relay = Message.To_grandparent _; stamp; _ } ->
      (* Grandparent dead as well (§5.2's stranded orphan). *)
      Counter.bump ctx.counters Count.relay_stranded;
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
        (Journal.Relay_dropped { at = t.nid; reason = "grandparent dead (stranded orphan)" })
    | Message.Result { relay = Message.To_step_parent _; stamp; _ } ->
      (* The twin's processor died before the salvaged result landed; the
         next failure notice will regenerate the twin and recompute. *)
      Counter.bump ctx.counters Count.relay_dropped;
      Journal.record ctx.journal ~time:(ctx.now ()) ~stamp
        (Journal.Relay_dropped { at = t.nid; reason = "step-parent died" })
    | Message.Orphan_alive _ ->
      (* The ancestor died before the report landed: the orphan will fall
         back to the result-relay path (or strand) at completion time. *)
      Counter.bump ctx.counters Count.adopt_stranded
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

(* A salvaged result beat the task to this call: take it instead of
   spawning (§4.1 cases 4–5: "P' will not spawn C' because the answer is
   already there"). *)
let skip_preheld t ctx task ~slot v =
  ignore (add_child task ~slot no_packet ~filled:true);
  Instance.supply task.inst slot v;
  Counter.bump ctx.counters Count.spawn_skipped_preheld;
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:(child_stamp task slot)
    (Journal.Result_accepted { task = task.tid });
  ctx.wake t.nid ~delay:1

(* Inherit a living orphan: bind the slot to it instead of spawning a
   clone; its result arrives via the grandparent relay. *)
let inherit_orphan t ctx task ~slot ~fname ~args (orphan : Packet.link) =
  let packet = build_child_packet t ctx task ~slot ~fname ~args in
  ignore (record_checkpoint t ctx ~dest:orphan.Packet.proc packet);
  let child = add_child task ~slot packet ~filled:false in
  child.copies <- [| orphan.Packet.proc; orphan.Packet.task |];
  Counter.bump ctx.counters Count.spawn_inherited;
  Journal.record ctx.journal ~time:(ctx.now ()) ~stamp:packet.Packet.stamp
    (Journal.Inherited { orphan_task = orphan.Packet.task; proc = orphan.Packet.proc });
  (* tell the orphan its new return address (§3.4's second option); if it
     already finished and its relay stranded, it will re-send the result
     here *)
  ctx.send ~src:t.nid ~dst:orphan.Packet.proc
    (Message.Reparent
       {
         orphan_task = orphan.Packet.task;
         stamp = packet.Packet.stamp;
         new_parent = { Packet.task = task.tid; proc = t.nid; slot };
         new_grandparent = Some task.packet.Packet.parent;
       });
  flush_salvage t ctx task child;
  ctx.wake t.nid ~delay:1

let rec pick_next t ctx =
  if Queue.is_empty t.run_queue then t.stepping <- false
  else
    let tid = Queue.take t.run_queue in
    match lookup t tid with
    | Alive task ->
      set_state t task Running;
      t.current <- tid;
      ctx.wake t.nid ~delay:ctx_switch
    | Gone r ->
      (* aborted while queued: the queue's reference was its last hold *)
      Settle.release ctx.settle r.r_stamp;
      pick_next t ctx
    | Reclaimed | Absent ->
      note_hit t;
      pick_next t ctx

let step t ctx =
  if t.alive then begin
    let tid = t.current in
    if tid = Ids.no_task then pick_next t ctx
    else begin
      match lookup t tid with
      | (Absent | Gone _ | Reclaimed) as e ->
        (* aborted while running: as in [pick_next] *)
        (match e with
        | Gone r -> Settle.release ctx.settle r.r_stamp
        | Absent | Reclaimed -> note_hit t
        | Alive _ -> ());
        t.current <- Ids.no_task;
        pick_next t ctx
      | Alive task -> (
          if task.inst == unstarted then begin
            let p = task.packet in
            task.inst <- Instance.create (ctx.template p.Packet.fname) p.Packet.args
          end;
          match Instance.step task.inst with
          | Instance.Work { cost } ->
            let ticks = cost * work_tick in
            charge t task ticks;
            ctx.wake t.nid ~delay:(max 1 ticks)
          | Instance.Spawn { slot; fname; args } -> (
            let early = List.assoc_opt slot task.early in
            if Option.is_some early then task.early <- List.remove_assoc slot task.early;
            match early with
            | Some (Preheld v) -> skip_preheld t ctx task ~slot v
            | Some (Orphan orphan) when not (knows_dead t orphan.Packet.proc) ->
              inherit_orphan t ctx task ~slot ~fname ~args orphan
            | Some (Orphan _) | None ->
              (* an orphan that died since it reported is a stale adoption:
                 spawn a fresh child instead *)
              if Option.is_some early then Counter.bump ctx.counters Count.adopt_stale;
              if should_inline ctx task then begin
                match ctx.inline_eval fname args with
                | Ok (v, steps) ->
                  let ticks = max 1 (steps * work_tick) in
                  charge t task ticks;
                  Instance.supply task.inst slot v;
                  Counter.bump ctx.counters Count.spawn_inline;
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
              end)
          | Instance.Blocked ->
            set_state t task Blocked;
            t.current <- Ids.no_task;
            pick_next t ctx
          | Instance.Finished v ->
            complete_task t ctx task v;
            t.current <- Ids.no_task;
            pick_next t ctx
          | Instance.Failed msg -> ctx.program_error msg)
    end
  end

let kill t ctx =
  if t.alive then begin
    t.alive <- false;
    t.stepping <- false;
    (* Nothing here is read again, so what this node held for requests is
       released: the scheduler's references to tasks aborted while queued
       or running, parked salvage, and its checkpoint table. *)
    let release_sched tid =
      match lookup t tid with
      | Gone r -> Settle.release ctx.settle r.r_stamp
      | Absent | Reclaimed -> note_hit t
      | Alive _ -> ()
    in
    if t.current <> Ids.no_task then release_sched t.current;
    Queue.iter release_sched t.run_queue;
    Option.iter
      (Hashtbl.iter (fun _ msgs -> List.iter (Settle.release_msg ctx.settle) msgs))
      t.held;
    List.iter
      (fun dest ->
        List.iter
          (fun (p : Packet.t) -> Settle.release ctx.settle p.Packet.stamp)
          (Ckpt_table.entry t.ckpts ~dest))
      (Ckpt_table.destinations t.ckpts);
    t.current <- Ids.no_task;
    Queue.clear t.run_queue;
    Counter.bump_by ctx.counters Count.task_lost_in_failure t.n_live;
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
          retire t ctx task Value.Nil ~scheduled:false
        end)
  end
