module Ids = Recflow_recovery.Ids
module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Value = Recflow_lang.Value
module Graph = Recflow_lang.Graph
module Inline_cache = Recflow_lang.Inline_cache
module Engine = Recflow_sim.Engine
module Trace = Recflow_sim.Trace
module Rng = Recflow_sim.Rng
module Counter = Recflow_stats.Counter
module Hdr = Recflow_stats.Hdr
module Router = Recflow_net.Router
module Topology = Recflow_net.Topology
module Latency = Recflow_net.Latency
module Policy = Recflow_balance.Policy

module Chaos = Recflow_net.Chaos
module Int_map = Map.Make (Int)

(* Handles for every counter this module bumps: a bump is an array read,
   not a string hash (see {!Counter.handle}). *)
module Count = struct
  let failure_injected = Counter.handle "failure.injected"

  let msg_bounced = Counter.handle "msg.bounced"

  let msg_sent = Counter.handle "msg.sent"

  let net_ack_dropped = Counter.handle "net.ack_dropped"

  let net_ack_sent = Counter.handle "net.ack_sent"

  let net_delayed = Counter.handle "net.delayed"

  let net_dup_injected = Counter.handle "net.dup_injected"

  let net_dup_suppressed = Counter.handle "net.dup_suppressed"

  let net_false_suspicion = Counter.handle "net.false_suspicion"

  let net_msg_dropped = Counter.handle "net.msg_dropped"

  let net_partition_dropped = Counter.handle "net.partition_dropped"

  let net_retransmit = Counter.handle "net.retransmit"

  let net_suspected = Counter.handle "net.suspected"

  let reissue_root = Counter.handle "reissue.root"
end

type event =
  | Deliver of { src : Ids.proc_id; dst : Ids.proc_id; msg : Message.t; seq : int }
      (** [seq >= 0] marks a reliable (tracked, retransmitted) send *)
  | Tack of { seq : int }  (** transport ack arriving back at the sender *)
  | Retry of { seq : int }  (** retransmission timer for a reliable send *)
  | Batch of { key : int; dst : Ids.proc_id }
      (** batched delivery: one event standing for every same-tick message
          bound for [dst]; the payloads sit in the cluster's {!Batch_buffer}
          under [key] until this fires *)
  | Bounce of { src : Ids.proc_id; dead : Ids.proc_id; msg : Message.t }
  | Step of Ids.proc_id
  | Fail of Ids.proc_id
  | Gradient_tick of Ids.proc_id
  | Callback of (unit -> unit)
      (** service-mode hook: open-loop arrival generators run inside the
          event loop so inter-arrival draws stay in simulated time *)

(* One in-flight reliable send.  [p_settled] flips when the transport ack
   arrives or the destination is discovered dead; the next timer firing
   then retires the entry. *)
type pending_send = {
  p_src : Ids.proc_id;
  p_dst : Ids.proc_id;
  p_msg : Message.t;
  p_born : int;
  mutable p_attempt : int;
  mutable p_settled : bool;
}

type outcome = {
  answer : Value.t option;
  answer_time : int option;
  sim_time : int;
  events : int;
  error : string option;
}

(* One distinct answer value of the settled service requests. *)
type tally = {
  value : Value.t;
  mutable n_answers : int;
  mutable n_requests : int;
  mutable first_uid : int;
}

type t = {
  cfg : Config.t;
  program : Recflow_lang.Program.t;
  library : Graph.library;
  engine : event Engine.t;
  router : Router.t;
  node_arr : Node.t array;
  journal : Journal.t;
  counters : Counter.set;
  latency_tbl : (string, Hdr.t) Hashtbl.t;
      (** named duration histograms (net.rtt, task.sojourn, ...) — cluster
          local like [counters], so recording never crosses domains *)
  trace : Trace.t;
  rng : Rng.t;
  policy : Policy.t;
  mutable next_task_id : Ids.task_id;
  mutable tallies : tally list;
      (** the answers of the settled service requests, one per distinct
          value, in the order the values first settled *)
  mutable split : (int * int) list;
      (** each settled service request whose answers disagreed, with its
          number of distinct values, newest first *)
  mutable redispatched : int Int_map.t;
      (** re-dispatches of each settled service request that had any *)
  mutable late_hits : int;
      (** messages reaching the super-root that named a dropped request *)
  mutable arrivals_open : bool;
  mutable unanswered : int;  (** requests still without an answer *)
  mutable error : string option;
  mutable started : bool;
  mutable drain : bool;
  chaos : Chaos.t option;  (** [None] when the spec is quiet: zero draws *)
  mutable next_seq : int;
  pending_sends : (int, pending_send) Hashtbl.t;
  seen_seqs : (int, unit) Hashtbl.t;  (** receiver-side duplicate filter *)
  suspected : (Ids.proc_id, unit) Hashtbl.t;
      (** destinations some sender gave up on (timeout suspicion); a member
          may well still be alive — it is *treated* as faulty per §1 *)
  fail_times : (Ids.proc_id, int) Hashtbl.t;
      (** injected failure tick per processor, for detection-latency
          recording when the notices land *)
  last_heard : (int, int) Hashtbl.t;
      (** (observer, subject), packed by {!heard_key} → last tick any
          delivery or transport ack from [subject] reached [observer]; the
          suspicion detector fires only on a destination silent for the
          whole window, not on one unlucky send *)
  batches : Batch_buffer.t;
      (** [Config.batched_delivery] buffers: arrival-tick × destination →
          (src, msg, seq) payloads in send order, drained by the matching
          [Batch] event.  Latency and chaos draws already happened per
          message at send time, so seeds stay stable. *)
  steps : event array;
      (** [Step pid] for every processor, built once: a wake schedules the
          shared immutable event instead of allocating one *)
  view : Policy.view;  (** the placement view, built once *)
  mutable node_ctx : Node.ctx option;
      (* built once on first use: rebuilding ~14 closures per dispatched
         event shows up at millions of events *)
  inline : Inline_cache.t;
      (** inline leaf evaluation; compiles and allocates its table on the
          first inline call, so runs that never inline (and set-up) pay
          nothing *)
  settle : Settle.t;
      (** the requests' one table: each open request's super-root record
          and what it still holds; a settled request's task uids are
          reclaimed on the processors that hosted them *)
}

let config t = t.cfg

let journal t = t.journal

let counters t = t.counters

let latency t name =
  match Hashtbl.find t.latency_tbl name with
  | h -> h
  | exception Not_found ->
    let h = Hdr.create () in
    Hashtbl.add t.latency_tbl name h;
    h

let record_latency t name v = Hdr.record (latency t name) v

let latency_hists t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.latency_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let trace t = t.trace

let router t = t.router

let inline_cache t = t.inline

let now t = Engine.now t.engine

let quiescent t = Engine.pending t.engine = 0

let error t = t.error

let unsettled_sends t =
  Hashtbl.fold (fun _ p n -> if p.p_settled then n else n + 1) t.pending_sends 0

let suspected_nodes t =
  Hashtbl.fold (fun pid () acc -> pid :: acc) t.suspected [] |> List.sort compare

(* One int per (observer, subject) pair, so recording a hearing builds no
   tuple; processor ids start at the super-root's -1. *)
let heard_key t ~observer ~subject = ((observer + 1) * (Array.length t.node_arr + 1)) + subject + 1

let node t pid =
  if pid < 0 || pid >= Array.length t.node_arr then
    invalid_arg (Printf.sprintf "Cluster.node: no processor %d" pid);
  t.node_arr.(pid)

let nodes t = Array.to_list t.node_arr

let sum_nodes t f = Array.fold_left (fun acc n -> acc + f n) 0 t.node_arr

let total_work t = sum_nodes t Node.work_done

let total_waste t = sum_nodes t Node.wasted_work

let fresh_task_id t () =
  let id = t.next_task_id in
  t.next_task_id <- id + 1;
  id

let pressure node_arr pid =
  let n = node_arr.(pid) in
  if Node.is_alive n then Node.runnable_tasks n else max_int / 2

let place t ~origin ~key =
  let origin = if origin = Ids.super_root then 0 else origin in
  Policy.choose t.policy t.view ~origin ~key

let first_alive t ~key =
  let live = Router.alive_count t.router in
  if live = 0 then None
  else
    (* [abs min_int] is negative (two's complement has no positive
       counterpart), which made [mod] produce a negative index; masking
       the sign bit keeps every key usable. *)
    Some (Router.nth_alive t.router (key land max_int mod live))

let hops t ~src ~dst =
  let src = if src = Ids.super_root then dst else src in
  let dst = if dst = Ids.super_root then src else dst in
  if src = dst || src < 0 || dst < 0 then 0
  else
    let h = Router.hops t.router src dst in
    if h >= 0 then h else Topology.ideal_distance (Router.topology t.router) src dst

(* Under batched delivery, all messages reaching [dst] at the same tick
   share one simulator event: the first one schedules it and the rest only
   append to the buffer.  The per-message latency/chaos draws above this
   point are untouched, so the RNG streams — and with them every placement
   decision — are the same as in an unbatched run. *)
let schedule_delivery t ~delay ~src ~dst ~seq msg =
  Settle.hold_msg t.settle msg;
  if t.cfg.Config.batched_delivery then begin
    let key = ((now t + delay) * (Array.length t.node_arr + 2)) + (dst + 2) in
    if Batch_buffer.add t.batches ~key ~src ~seq msg then
      Engine.schedule t.engine ~delay (Batch { key; dst })
  end
  else Engine.schedule t.engine ~delay (Deliver { src; dst; msg; seq })

(* Wire latency for one copy: the hop count, then the jitter draw. *)
let wire_delay t ~src ~dst = Latency.delay t.cfg.Config.latency t.rng ~hops:(hops t ~src ~dst)

(* The chaos layer's copies of one message, [extra_delays] in order: the
   first is the message itself, the rest injected duplicates.  A recursion
   rather than [List.iteri], so a send builds no closure. *)
let rec transmit_copies t ~extra ~src ~dst ~seq msg ~first = function
  | [] -> ()
  | d :: rest ->
    if not first then Counter.bump t.counters Count.net_dup_injected;
    if d > 0 then Counter.bump t.counters Count.net_delayed;
    schedule_delivery t ~delay:(extra + d + wire_delay t ~src ~dst) ~src ~dst ~seq msg;
    transmit_copies t ~extra ~src ~dst ~seq msg ~first:false rest

(* Transmit one message (or retransmission): wire latency plus, when a
   chaos instance is armed, the perturbation verdict — drop it, or deliver
   one or more copies with extra delay. *)
let transmit t ~extra ~src ~dst ~seq msg =
  match t.chaos with
  | None -> schedule_delivery t ~delay:(extra + wire_delay t ~src ~dst) ~src ~dst ~seq msg
  | Some ch -> (
    match Chaos.decide ch ~now:(now t) ~src ~dst with
    | Chaos.Drop reason ->
      Counter.bump t.counters Count.net_msg_dropped;
      if reason = `Partition then Counter.bump t.counters Count.net_partition_dropped;
      Trace.logf t.trace ~time:(now t) ~level:Trace.Debug ~tag:"chaos" "%s %s -> %s: %s"
        (match reason with `Loss -> "lost" | `Partition -> "severed")
        (Ids.proc_to_string src) (Ids.proc_to_string dst) (Message.label msg)
    | Chaos.Pass { extra_delays } ->
      transmit_copies t ~extra ~src ~dst ~seq msg ~first:true extra_delays)

let rec ack_copies t ~src ~dst ~seq = function
  | [] -> ()
  | d :: rest ->
    Engine.schedule t.engine ~delay:(d + wire_delay t ~src ~dst) (Tack { seq });
    ack_copies t ~src ~dst ~seq rest

(* Transport-level acknowledgement of reliable send [seq], from the
   receiver [src] back to the original sender [dst].  Unreliable itself —
   a lost ack just costs a retransmission, which the duplicate filter
   absorbs. *)
let send_transport_ack t ~src ~dst ~seq =
  Counter.bump t.counters Count.net_ack_sent;
  match t.chaos with
  | None -> Engine.schedule t.engine ~delay:(wire_delay t ~src ~dst) (Tack { seq })
  | Some ch -> (
    match Chaos.decide ch ~now:(now t) ~src ~dst with
    | Chaos.Drop _ -> Counter.bump t.counters Count.net_ack_dropped
    | Chaos.Pass { extra_delays } -> ack_copies t ~src ~dst ~seq extra_delays)

(* The §4.2 protocol messages that drive recovery forward are the ones the
   transport must not lose; the rest (app-level acks, gradient gossip) are
   advisory and stay fire-and-forget.  Failure notices are on the reliable
   side: an accusation that silently vanishes leaves one peer relaying
   results toward a processor the rest of the cluster has written off, and
   the views of who is dead never reconverge.  So are the aborts that
   collect orphans under rollback and replication: without one, an orphan
   waiting on a child lost with its ancestor waits forever. *)
let reliable_kind = function
  | Message.Task_packet _ | Message.Result _ | Message.Orphan_alive _ | Message.Reparent _
  | Message.Failure_notice _ | Message.Abort _ ->
    true
  | Message.Ack _ | Message.Gradient _ -> false

(* Retransmission timing: an unacked reliable send is retried [rto] ticks
   after it left, and attempt n waits rto·backoffⁿ after the last. *)
let rto = 150

let backoff = 2.0

let send_after t ~delay:extra ~src ~dst msg =
  Counter.bump t.counters Count.msg_sent;
  let seq =
    if t.cfg.Config.reliable && src <> dst && reliable_kind msg then begin
      let s = t.next_seq in
      t.next_seq <- s + 1;
      Hashtbl.replace t.pending_sends s
        { p_src = src; p_dst = dst; p_msg = msg; p_born = now t; p_attempt = 0;
          p_settled = false };
      Settle.hold_msg t.settle msg;
      Engine.schedule t.engine ~delay:(extra + rto) (Retry { seq = s });
      s
    end
    else -1
  in
  transmit t ~extra ~src ~dst ~seq msg

let send t ~src ~dst msg = send_after t ~delay:0 ~src ~dst msg

let wake t pid ~delay = Engine.schedule t.engine ~delay t.steps.(pid)

let program_error t msg =
  if t.error = None then begin
    t.error <- Some msg;
    Trace.log t.trace ~time:(now t) ~level:Trace.Error ~tag:"cluster" ("program error: " ^ msg);
    Engine.stop t.engine
  end

let build_ctx t : Node.ctx =
  {
    Node.config = t.cfg;
    now = (fun () -> now t);
    send = (fun ~src ~dst msg -> send t ~src ~dst msg);
    send_after = (fun ~delay ~src ~dst msg -> send_after t ~delay ~src ~dst msg);
    wake = (fun pid ~delay -> wake t pid ~delay);
    fresh_task_id = fresh_task_id t;
    place = (fun ~origin ~key -> place t ~origin ~key);
    first_alive = (fun ~key -> first_alive t ~key);
    neighbors = (fun pid -> Topology.neighbors (Router.topology t.router) pid);
    template = Graph.find_exn t.library;
    inline_eval = Inline_cache.call t.inline;
    journal = t.journal;
    counters = t.counters;
    record_latency = (fun name v -> record_latency t name v);
    program_error = program_error t;
    settle = t.settle;
  }

let ctx t =
  match t.node_ctx with
  | Some c -> c
  | None ->
    let c = build_ctx t in
    t.node_ctx <- Some c;
    c

(* [Step pid] for every processor.  Filled in place from a static [Step 0]
   rather than built by [Array.init]: an array past the minor heap's size
   limit made from a young first element forces a minor collection, which
   here would promote every freshly built node during set-up. *)
let wake_events n =
  let steps = Array.make n (Step 0) in
  for pid = 1 to n - 1 do
    steps.(pid) <- Step pid
  done;
  steps

(* A settled service request can no longer be named, and the ledger has
   dropped its record, with the root packet, the avoid list and both
   callbacks.  Its answers live on in the per-value tallies, with the
   request noted if they disagree (determinacy promises one value), and
   its re-dispatch count when it is not zero. *)
let drop_request t (req : Settle.request) =
  let distinct = ref [] in
  List.iter
    (fun v ->
      let tl =
        match List.find_opt (fun tl -> Value.equal tl.value v) t.tallies with
        | Some tl -> tl
        | None ->
          let tl = { value = v; n_answers = 0; n_requests = 0; first_uid = req.uid } in
          t.tallies <- t.tallies @ [ tl ];
          tl
      in
      tl.n_answers <- tl.n_answers + 1;
      if not (List.memq tl !distinct) then begin
        distinct := tl :: !distinct;
        tl.n_requests <- tl.n_requests + 1;
        tl.first_uid <- min tl.first_uid req.uid
      end)
    (List.rev req.answers);
  let d = List.length !distinct in
  if d > 1 then t.split <- (req.uid, d) :: t.split;
  if req.redispatches > 0 then
    t.redispatched <- Int_map.add req.uid req.redispatches t.redispatched

let create cfg program =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let n = Topology.size cfg.Config.topology in
  let router = Router.create cfg.Config.topology in
  let node_arr = Array.init n (fun i -> Node.create i cfg) in
  let engine = Engine.create () in
  let journal = Journal.create ~retain:cfg.Config.journal_retain () in
  (* the ledger exists before the cluster that drops its settled requests *)
  let self = ref None in
  let settle =
    Settle.create ~procs:n
      ~reclaim:(fun ~proc uid -> Node.reclaim node_arr.(proc) uid)
      ~reclaim_all:(fun () -> Array.fold_left (fun n node -> n + Node.reclaim_all node) 0 node_arr)
      ~on_settle:(fun req ->
        Journal.release journal ~uid:req.Settle.uid ~since:req.opened ~time:(Engine.now engine);
        Option.iter (fun t -> drop_request t req) !self)
  in
  let t = {
    cfg;
    program;
    library = Graph.compile_program program;
    engine;
    router;
    node_arr;
    journal;
    counters = Counter.create_set ();
    latency_tbl = Hashtbl.create 8;
    trace = Trace.create ~capacity:65536 ();
    rng = Rng.create cfg.Config.seed;
    policy = Policy.create ~seed:cfg.Config.seed cfg.Config.policy;
    next_task_id = 0;
    tallies = [];
    split = [];
    redispatched = Int_map.empty;
    late_hits = 0;
    arrivals_open = false;
    unanswered = 0;
    error = None;
    started = false;
    drain = false;
    chaos =
      (* an independent stream: enabling chaos must not perturb the
         placement / jitter draws of [t.rng], and a quiet spec must not
         change anything at all *)
      (if Chaos.quiet cfg.Config.chaos then None
       else Some (Chaos.create ~seed:(cfg.Config.seed lxor 0x5eedca05) cfg.Config.chaos));
    next_seq = 0;
    pending_sends = Hashtbl.create 64;
    fail_times = Hashtbl.create 4;
    seen_seqs = Hashtbl.create 256;
    suspected = Hashtbl.create 4;
    last_heard = Hashtbl.create 64;
    batches = Batch_buffer.create ();
    steps = wake_events n;
    view = { Policy.router; pressure = pressure node_arr };
    node_ctx = None;
    inline = Inline_cache.create program;
    settle;
  } in
  self := Some t;
  t

(* ------------------------------------------------------------------ *)
(* Super-root (§4.3.1)                                                 *)
(* ------------------------------------------------------------------ *)

let batch_uid = -1

(* [true] while some request hosted on [pid] still awaits its answer. *)
let hosted_unanswered t pid =
  let found = ref false in
  Settle.iter t.settle (fun r -> if r.dest = pid && r.answers = [] then found := true);
  !found

(* Period of the distributed gradient exchange ([Policy.Gradient_distributed]
   only): every node recomputes its gradient value from its neighbours'
   last-heard values and broadcasts it to them. *)
let gradient_period = 100

(* Gradient gossip keeps ticking while there is (or may yet be) work. *)
let gradient_live t = t.arrivals_open || t.unanswered > 0

(* Forward the salvage that was waiting for the request root's twin.  A
   direct child of the root fills the twin's call slot; a deeper orphan
   (reachable here because §5.2 ancestor links can skip past a dead
   grandparent) must instead be driven down the chain of twins, so it
   keeps its [To_grandparent] shape — filling the root's slot with a
   grandchild's partial value would silently drop the rest of that
   subtree.  {!Message.salvage_forward} makes that choice.  A report skips
   a twin placed on a dead processor (static placement can pick one); a
   result is sent regardless, and its bounce re-dispatches the root. *)
let flush_pending t (req : Settle.request) =
  let pending = req.pending in
  req.pending <- [];
  let live = Router.alive t.router req.dest in
  Message.iter_salvage
    (fun (stamp, dead_parent, payload) ->
      (match payload with
      | Message.Still_running _ when not live -> ()
      | Message.Salvaged _ | Message.Still_running _ ->
        send t ~src:Ids.super_root ~dst:req.dest
          (Message.salvage_forward ~via:req.packet.Packet.stamp ~stamp ~dead_parent ~task:req.task
             ~proc:req.dest payload));
      Settle.release t.settle stamp)
    pending

(* Dispatch (or re-dispatch) a request's root task from the super-root's
   retained checkpoint. *)
let dispatch_request t (req : Settle.request) ~reason =
  if Router.alive_count t.router = 0 then
    Trace.log t.trace ~time:(now t) ~level:Trace.Error ~tag:"SR" "no live processor for root"
  else
    let packet = req.packet in
    let task_id = fresh_task_id t () in
    let key = Stamp.hash packet.Packet.stamp + task_id in
    let dest = place t ~origin:Ids.super_root ~key in
    (* A suspected processor is router-alive, so placement can pick it —
       but the rest of the cluster has written it off and would never relay
       the twin's results home.  Re-home on an unsuspected survivor
       whenever one exists.  Replica siblings of the same logical request
       ([avoid]) are rehomed the same way: co-locating them would void the
       independence the vote relies on. *)
    let clear p = not (Hashtbl.mem t.suspected p) && not (List.mem p req.avoid) in
    let dest =
      if clear dest then dest
      else
        match List.filter clear (Router.alive_nodes t.router) with
        | [] -> dest (* every survivor is accused; any choice is a guess *)
        | cs -> List.nth cs (key land max_int mod List.length cs)
    in
    req.dest <- dest;
    req.task <- task_id;
    send t ~src:Ids.super_root ~dst:dest
      (Message.Task_packet { packet; task_id; replica = 0; replicas = 1 });
    (match reason with
    | None ->
      Journal.record t.journal ~time:(now t) ~stamp:packet.Packet.stamp
        (Journal.Spawned { task = task_id; dest; replica = 0 })
    | Some reason ->
      Counter.bump t.counters Count.reissue_root;
      req.redispatches <- req.redispatches + 1;
      Journal.record t.journal ~time:(now t) ~stamp:packet.Packet.stamp
        (Journal.Respawned { task = task_id; dest; reason });
      req.on_disturbed reason);
    flush_pending t req

(* Salvage reaching the super-root, the ancestor of every request root: an
   orphaned result (a direct child of a dead root, or a deeper orphan
   whose parent and grandparent both died, escalated here via §5.2
   ancestor links), or a child of a dead root announcing itself.  Make
   sure the root has a twin, then forward the salvage to it: at once when
   a live twin exists, else behind a re-dispatch. *)
let super_root_salvage t (req : Settle.request) ~stamp ~(dead_parent : Packet.link) payload =
  if req.answers = [] && t.cfg.Config.recovery = Config.Splice then begin
    req.pending <- (stamp, dead_parent, payload) :: req.pending;
    Settle.hold t.settle stamp;
    let root_alive = req.dest >= 0 && Router.alive t.router req.dest in
    if root_alive && req.dest <> dead_parent.Packet.proc then flush_pending t req
    else dispatch_request t req ~reason:(Some (Message.salvage_reason payload))
  end

(* Hand a message to the super-root's request it names.  One naming a
   request already dropped means that request settled too early, and it
   counts with the nodes' reclaimed hits. *)
let super_root_deliver t msg =
  let to_request stamp f =
    match Settle.owner t.settle stamp with
    | Some req -> f req
    | None -> if Settle.msg_names_reclaimed t.settle msg then t.late_hits <- t.late_hits + 1
  in
  match msg with
  | Message.Result { stamp; value; relay = Message.To_parent; _ } ->
    to_request stamp (fun req ->
        req.answers <- value :: req.answers;
        if req.answer_time = None then begin
          t.unanswered <- t.unanswered - 1;
          Settle.answered t.settle req ~time:(now t);
          req.on_answer value
        end)
  | Message.Result { stamp; value; relay = Message.To_grandparent { dead_parent }; _ } ->
    to_request stamp (fun req ->
        super_root_salvage t req ~stamp ~dead_parent (Message.Salvaged value))
  | Message.Orphan_alive { stamp; orphan; dead_parent; target = _ } ->
    to_request stamp (fun req ->
        super_root_salvage t req ~stamp ~dead_parent (Message.Still_running orphan))
  | Message.Result { relay = Message.To_step_parent _; _ }
  | Message.Task_packet _ | Message.Reparent _ | Message.Gradient _ | Message.Ack _
  | Message.Abort _ | Message.Failure_notice _ ->
    ()

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let fail_at t ~time pid =
  if pid < 0 || pid >= Array.length t.node_arr then
    invalid_arg (Printf.sprintf "Cluster.fail_at: no processor %d" pid);
  Engine.schedule_at t.engine ~time (Fail pid)

(* Tell the super-root, [delay] ticks from now, that [failed] is lost to
   it; on arrival it re-dispatches every unanswered request hosted there. *)
let notify_super_root t ~delay failed =
  if t.cfg.Config.recovery <> Config.No_recovery then
    Engine.schedule t.engine ~delay
      (Deliver
         { src = Ids.super_root; dst = Ids.super_root; msg = Message.Failure_notice { failed };
           seq = -1 })

(* A send of the super-root's own (a root packet or salvage) turned out
   undeliverable to [dead]. *)
let super_root_bounced t ~dead =
  Counter.bump t.counters Count.msg_bounced;
  if t.unanswered > 0 then notify_super_root t ~delay:t.cfg.Config.bounce_delay dead

(* Error detection: every live peer learns after a detection delay that
   grows with its distance from the failed (or suspected) node, and the
   super-root notices the loss of the root task's processor.  The suspect
   itself is never notified of its own "death": a falsely-suspected live
   processor keeps running obliviously, coexisting with its twins. *)
let broadcast_failure t pid =
  let topo = Router.topology t.router in
  Array.iter
    (fun peer ->
      if Node.is_alive peer && Node.id peer <> pid then begin
        let d = Topology.ideal_distance topo pid (Node.id peer) in
        let delay = t.cfg.Config.detect_delay + (d * t.cfg.Config.latency.Latency.per_hop) in
        Engine.schedule t.engine ~delay
          (Deliver
             { src = Node.id peer; dst = Node.id peer;
               msg = Message.Failure_notice { failed = pid }; seq = -1 })
      end)
    t.node_arr;
  if hosted_unanswered t pid then notify_super_root t ~delay:t.cfg.Config.detect_delay pid

let handle_fail t pid =
  let n = t.node_arr.(pid) in
  if Node.is_alive n then begin
    Node.kill n (ctx t);
    Router.kill t.router pid;
    Hashtbl.replace t.fail_times pid (now t);
    Counter.bump t.counters Count.failure_injected;
    Journal.record t.journal ~time:(now t) ~stamp:Stamp.root (Journal.Failure { proc = pid });
    broadcast_failure t pid
  end

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

(* The sender has waited out the whole suspicion window without a transport
   ack: per §1 an unresponsive destination is *treated* as faulty, live or
   not — the message takes the same bounce path an undeliverable send
   would, and the existing recovery machinery (checkpoint re-issue, twins,
   grandparent relay) does the rest.  A falsely-suspected live processor
   simply coexists with its twin; determinacy makes whichever result lands
   first the right one. *)
let give_up t seq p =
  Hashtbl.remove t.pending_sends seq;
  let first_time = not (Hashtbl.mem t.suspected p.p_dst) in
  Hashtbl.replace t.suspected p.p_dst ();
  Counter.bump t.counters Count.net_suspected;
  if p.p_dst >= 0 && Node.is_alive t.node_arr.(p.p_dst) then begin
    Counter.bump t.counters Count.net_false_suspicion;
    Trace.logf t.trace ~time:(now t) ~level:Trace.Warn ~tag:"suspect"
      "%s suspects live %s (no ack in %d ticks): treating as faulty"
      (Ids.proc_to_string p.p_src) (Ids.proc_to_string p.p_dst)
      (now t - p.p_born)
  end
  else
    Trace.logf t.trace ~time:(now t) ~level:Trace.Info ~tag:"suspect"
      "%s suspects %s (no ack in %d ticks)" (Ids.proc_to_string p.p_src)
      (Ids.proc_to_string p.p_dst)
      (now t - p.p_born);
  (* First suspicion of this destination: tell the cluster, so every
     holder of a checkpoint filed under the suspect re-issues a twin and
     the views of who is dead stay convergent — a sender keeping its
     verdict private leaves peers relaying results toward a processor it
     has written off, and nobody re-homes the suspect's work.  Unlike the
     out-of-band fail-stop detector in [handle_fail], these notices
     originate at the accuser and cross the same hostile network, so an
     isolated island's false accusations cannot poison the mainland.  The
     accuser itself learns through the bounce path, and the suspect is
     never told of its own "death" — it keeps running obliviously,
     coexisting with its twins. *)
  if first_time && p.p_dst >= 0 then begin
    Array.iter
      (fun peer ->
        let pid = Node.id peer in
        if Node.is_alive peer && pid <> p.p_dst && pid <> p.p_src then
          (* reliable: a lost accusation would leave this peer's view of
             the membership divergent forever *)
          send_after t ~delay:t.cfg.Config.detect_delay ~src:p.p_src ~dst:pid
            (Message.Failure_notice { failed = p.p_dst }))
      t.node_arr;
    if hosted_unanswered t p.p_dst then
      notify_super_root t ~delay:t.cfg.Config.detect_delay p.p_dst
  end;
  if p.p_src = Ids.super_root then super_root_bounced t ~dead:p.p_dst
  else begin
    Settle.hold_msg t.settle p.p_msg;
    Engine.schedule t.engine ~delay:0 (Bounce { src = p.p_src; dead = p.p_dst; msg = p.p_msg })
  end;
  Settle.release_msg t.settle p.p_msg

(* Receiver half of the reliable transport: acknowledge and deduplicate.
   Returns true when [msg] should actually be processed. *)
let transport_accept t ~src ~dst ~seq =
  seq < 0
  ||
  if Hashtbl.mem t.seen_seqs seq then begin
    Counter.bump t.counters Count.net_dup_suppressed;
    (* re-ack: the ack for the first copy may itself have been lost *)
    send_transport_ack t ~src:dst ~dst:src ~seq;
    false
  end
  else begin
    Hashtbl.replace t.seen_seqs seq ();
    send_transport_ack t ~src:dst ~dst:src ~seq;
    true
  end

(* Process one physically arrived message — the body of the [Deliver]
   event, shared with the batched path so both deliver identically. *)
let deliver_one t ~src ~dst ~seq msg =
    (* any arrival is evidence the sender is alive and reachable; only the
       reliable transport's [Retry] handler ever reads it *)
    if t.cfg.Config.reliable && src <> dst then
      Hashtbl.replace t.last_heard (heard_key t ~observer:dst ~subject:src) (now t);
    if dst = Ids.super_root then begin
      if transport_accept t ~src ~dst ~seq then
        match msg with
        | Message.Failure_notice { failed } ->
          Settle.iter t.settle (fun req ->
              if req.dest = failed && req.answers = [] then
                dispatch_request t req ~reason:(Some "notice"))
        | _ -> super_root_deliver t msg
    end
    else begin
      let n = t.node_arr.(dst) in
      if Node.is_alive n then begin
        if transport_accept t ~src ~dst ~seq then begin
          (* a notice of an injected failure landing on a live peer is a
             detection-latency sample: failure tick -> this peer learning *)
          (match msg with
          | Message.Failure_notice { failed } -> (
            match Hashtbl.find_opt t.fail_times failed with
            | Some ft -> record_latency t "failure.detection" (now t - ft)
            | None -> ())
          | _ -> ());
          Node.deliver n (ctx t) msg
        end
      end
      else begin
        (* The destination is dead.  For a reliable send, cancel the
           retransmission timer and let only the first copy to arrive
           trigger the bounce; an unreliable send bounces as before. *)
        let already_settled =
          seq >= 0
          &&
          match Hashtbl.find t.pending_sends seq with
          | p ->
            let was = p.p_settled in
            p.p_settled <- true;
            was
          | exception Not_found -> true
        in
        if not already_settled then
          if src = Ids.super_root then super_root_bounced t ~dead:dst
          else begin
            Settle.hold_msg t.settle msg;
            Engine.schedule t.engine ~delay:t.cfg.Config.bounce_delay
              (Bounce { src; dead = dst; msg })
          end
      end
    end;
    (* processed (or turned into a bounce): the delivery no longer holds
       its request *)
    Settle.release_msg t.settle msg

(* Deliver a detached batch from slot [s] on, in send order.  Each slot is
   read and freed before its delivery, whose handlers may buffer new
   messages into the freed slots. *)
let rec deliver_batch t ~dst s =
  if s >= 0 then begin
    let b = t.batches in
    let src = Batch_buffer.src b s and seq = Batch_buffer.seq b s and msg = Batch_buffer.msg b s in
    let next = Batch_buffer.release b s in
    deliver_one t ~src ~dst ~seq msg;
    deliver_batch t ~dst next
  end

let handle_event t _at ev =
  match ev with
  | Deliver { src; dst; msg; seq } -> deliver_one t ~src ~dst ~seq msg
  | Batch { key; dst } ->
    (* detach first: a handler may send again toward [dst] at this very
       tick, which must open a fresh batch behind this one *)
    deliver_batch t ~dst (Batch_buffer.take t.batches ~key)
  | Tack { seq } -> (
    match Hashtbl.find t.pending_sends seq with
    | p ->
      (* first ack only: re-acks of suppressed duplicates are not RTTs *)
      if not p.p_settled then record_latency t "net.rtt" (now t - p.p_born);
      p.p_settled <- true;
      Hashtbl.replace t.last_heard (heard_key t ~observer:p.p_src ~subject:p.p_dst) (now t)
    | exception Not_found -> ())
  | Retry { seq } -> (
    match Hashtbl.find t.pending_sends seq with
    | exception Not_found -> ()
    | p ->
      if p.p_settled then begin
        Hashtbl.remove t.pending_sends seq;
        Settle.release_msg t.settle p.p_msg
      end
      else if p.p_src >= 0 && not (Node.is_alive t.node_arr.(p.p_src)) then begin
        (* the sender itself died: nobody is waiting on this delivery *)
        Hashtbl.remove t.pending_sends seq;
        Settle.release_msg t.settle p.p_msg
      end
      else begin
        let { Config.suspicion_after } = t.cfg.Config.retry in
        let elapsed = now t - p.p_born in
        (* Suspicion is a verdict on the *destination*, not on one unlucky
           send: give up only when the sender has heard nothing back from
           that processor — no delivery, no transport ack on any sequence —
           for a whole window.  A send whose own acks keep getting eaten
           retries for as long as the destination shows other signs of
           life. *)
        let heard =
          match Hashtbl.find t.last_heard (heard_key t ~observer:p.p_src ~subject:p.p_dst) with
          | tick -> tick
          | exception Not_found -> -1
        in
        let silent = now t - heard >= suspicion_after in
        if elapsed >= suspicion_after && silent && p.p_dst <> Ids.super_root then
          give_up t seq p
        else begin
          (* never give up on the super-root: it is the cluster itself *)
          p.p_attempt <- p.p_attempt + 1;
          Counter.bump t.counters Count.net_retransmit;
          (* how stale the payload already is when we try again *)
          record_latency t "net.retransmit_delay" (now t - p.p_born);
          transmit t ~extra:0 ~src:p.p_src ~dst:p.p_dst ~seq p.p_msg;
          Engine.schedule t.engine ~delay:(Config.retry_delay ~rto ~backoff p.p_attempt)
            (Retry { seq })
        end
      end)
  | Bounce { src; dead; msg } ->
    if src >= 0 then begin
      let n = t.node_arr.(src) in
      if Node.is_alive n then Node.handle_bounce n (ctx t) ~dead msg
    end;
    Settle.release_msg t.settle msg
  | Step pid -> Node.step t.node_arr.(pid) (ctx t)
  | Gradient_tick pid ->
    let n = t.node_arr.(pid) in
    if Node.is_alive n && gradient_live t then begin
      Node.gradient_tick n (ctx t);
      Engine.schedule t.engine ~delay:gradient_period (Gradient_tick pid)
    end
  | Fail pid -> handle_fail t pid
  | Callback f -> f ()

let check_entry t ~who ~fname ~args =
  match Recflow_lang.Program.arity t.program fname with
  | None -> invalid_arg (Printf.sprintf "Cluster.%s: unknown function %s" who fname)
  | Some a when a <> List.length args ->
    invalid_arg (Printf.sprintf "Cluster.%s: %s expects %d arguments" who fname a)
  | Some _ -> ()

(* arm the distributed gradient exchange when that policy is selected;
   ticks stop once no work remains so the event queue can drain *)
let arm_gradient t =
  match t.cfg.Config.policy with
  | Policy.Gradient_distributed _ ->
    Array.iteri
      (fun pid _ ->
        Engine.schedule t.engine ~delay:(1 + (pid * 7 mod gradient_period))
          (Gradient_tick pid))
      t.node_arr
  | _ -> ()

(* Register one root request with the super-root and dispatch it from its
   pre-evaluation checkpoint (§4.3.1). *)
let open_request t ~uid ~avoid ~on_answer ~on_disturbed ~fname ~args =
  let req =
    Settle.open_request t.settle ~uid ~time:(now t) ~fname ~args:(Array.of_list args) ~avoid
      ~on_answer ~on_disturbed
  in
  t.unanswered <- t.unanswered + 1;
  dispatch_request t req ~reason:None

let start t ~fname ~args =
  if t.started then invalid_arg "Cluster.start: already started";
  check_entry t ~who:"start" ~fname ~args;
  t.started <- true;
  arm_gradient t;
  (* A batch run ends at its one answer, unless asked to drain. *)
  let on_answer value =
    Trace.logf t.trace ~time:(now t) ~level:Trace.Info ~tag:"SR" "answer: %s"
      (Value.to_string value);
    if not t.drain then Engine.stop t.engine
  in
  open_request t ~uid:batch_uid ~avoid:[] ~on_answer ~on_disturbed:ignore ~fname ~args

(* ------------------------------------------------------------------ *)
(* Service mode: many concurrent roots                                 *)
(* ------------------------------------------------------------------ *)

let begin_service t =
  if t.started then invalid_arg "Cluster.begin_service: already started";
  t.started <- true;
  t.arrivals_open <- true;
  arm_gradient t

let close_arrivals t = t.arrivals_open <- false

let schedule_callback t ~delay f =
  if not t.started then invalid_arg "Cluster.schedule_callback: call begin_service first";
  Engine.schedule t.engine ~delay (Callback f)

let submit t ?(avoid = []) ?(on_answer = ignore) ?(on_disturbed = ignore) ~fname ~args () =
  if (not t.started) || Option.is_some (Settle.find t.settle batch_uid) then
    invalid_arg "Cluster.submit: call begin_service first";
  check_entry t ~who:"submit" ~fname ~args;
  let uid = Settle.issued t.settle in
  open_request t ~uid ~avoid ~on_answer ~on_disturbed ~fname ~args;
  uid

let submitted_requests t = Settle.issued t.settle

let iter_request_uids t f = Settle.iter t.settle (fun r -> f r.uid)

let in_flight t = t.unanswered

let issued t uid = uid >= 0 && uid < Settle.issued t.settle

let find_request t uid =
  match Settle.find t.settle uid with
  | Some r -> r
  | None when issued t uid -> invalid_arg (Printf.sprintf "Cluster: request %d has settled" uid)
  | None -> invalid_arg (Printf.sprintf "Cluster: no request %d" uid)

let request_answers t uid = List.rev (find_request t uid).answers

let request_answer_time t uid = (find_request t uid).answer_time

let request_dest t uid =
  let r = find_request t uid in
  if r.dest >= 0 then Some r.dest else None

let request_packet t uid = (find_request t uid).packet

let request_stamp t uid =
  if issued t uid then Stamp.child Stamp.root uid else (find_request t uid).packet.Packet.stamp

let request_redispatches t uid =
  match Settle.find t.settle uid with
  | None when issued t uid -> Option.value ~default:0 (Int_map.find_opt uid t.redispatched)
  | _ -> (find_request t uid).redispatches

let settled_answers t = t.tallies

let split_requests t = List.rev t.split

let settled_requests t = Settle.settled t.settle

let reclaimed_tombstones t = Settle.reclaimed t.settle

let reclaimed_hits t = sum_nodes t Node.reclaimed_hits + t.late_hits

let reclaim_unsettled t uid = Settle.force t.settle (find_request t uid)

let replay t ~dst msg =
  if dst = Ids.super_root then super_root_deliver t msg
  else Node.deliver t.node_arr.(dst) (ctx t) msg

let request_roots t =
  [ Settle.open_table t.settle; Obj.repr t.tallies; Obj.repr t.split; Obj.repr t.redispatched ]

let release_unsettled t uid =
  ignore (find_request t uid);
  Journal.release t.journal ~uid ~since:0 ~time:(now t)

let run ?(drain = false) t =
  if not t.started then invalid_arg "Cluster.run: call start first";
  t.drain <- drain;
  Engine.run t.engine ~until:t.cfg.Config.horizon (fun at ev -> handle_event t at ev);
  (* Nothing left to run can record an entry in this tick: decide every
     request that settled in it too. *)
  Journal.drop_settled t.journal ~before:(if quiescent t then now t + 1 else now t);
  let batch = Settle.find t.settle batch_uid in
  {
    answer = Option.bind batch (fun r -> List.nth_opt (List.rev r.Settle.answers) 0);
    answer_time = Option.bind batch (fun r -> r.Settle.answer_time);
    sim_time = now t;
    events = Engine.events_dispatched t.engine;
    error = t.error;
  }
