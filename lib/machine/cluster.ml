module Ids = Recflow_recovery.Ids
module Stamp = Recflow_recovery.Stamp
module Packet = Recflow_recovery.Packet
module Value = Recflow_lang.Value
module Graph = Recflow_lang.Graph
module Eval_serial = Recflow_lang.Eval_serial
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

type event =
  | Deliver of { src : Ids.proc_id; dst : Ids.proc_id; msg : Message.t; seq : int }
      (** [seq >= 0] marks a reliable (tracked, retransmitted) send *)
  | Tack of { seq : int }  (** transport ack arriving back at the sender *)
  | Retry of { seq : int }  (** retransmission timer for a reliable send *)
  | Batch of { key : int; dst : Ids.proc_id }
      (** batched delivery: one event standing for every same-tick message
          bound for [dst]; the payloads sit in the cluster's batch buffer
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

(* One root request tracked by the super-root.  Batch mode has exactly one
   (uid -1, the empty stamp); service mode keeps one per submitted request,
   each rooted at a distinct depth-1 stamp so the checkpoint tables, orphan
   relays and journals of concurrent requests can never alias. *)
type request = {
  uid : int;  (** -1 for the batch root *)
  r_stamp : Stamp.t;  (** [Stamp.root] for batch, [child root uid] for service *)
  avoid : Ids.proc_id list;  (** processors never chosen as this root's host *)
  mutable packet : Packet.t option;  (** the super-root's functional checkpoint *)
  mutable dest : Ids.proc_id;
  mutable task : Ids.task_id;
  mutable pending : (Stamp.t * Packet.link * Value.t) list;
      (** salvaged orphan results awaiting the twin, with the orphan's
          stamp and dead parent so depth is preserved on forwarding *)
  mutable answers : Value.t list;  (** results for this request, newest first *)
  mutable answer_time : int option;
  mutable redispatches : int;
  on_answer : (Value.t -> unit) option;  (** first answer only *)
  on_disturbed : (string -> unit) option;  (** each root re-dispatch *)
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
  root : request;
  requests : (int, request) Hashtbl.t;  (** service requests, by uid >= 0 *)
  mutable next_uid : int;
  mutable service : bool;
  mutable arrivals_open : bool;
  mutable unanswered : int;  (** service requests still without an answer *)
  mutable answer : Value.t option;
  mutable answer_time : int option;
  mutable root_answers : Value.t list;
      (** every root result that reached the super-root (newest first);
          twins of a falsely-suspected root may deliver more than one *)
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
  last_heard : (Ids.proc_id * Ids.proc_id, int) Hashtbl.t;
      (** (observer, subject) → last tick any delivery or transport ack
          from [subject] reached [observer]; the suspicion detector fires
          only on a destination silent for the whole window, not on one
          unlucky send *)
  batches : (int, (Ids.proc_id * Message.t * int) list ref) Hashtbl.t;
      (** [Config.batched_delivery] buffers: arrival-tick × destination →
          (src, msg, seq) payloads in reverse send order, drained by the
          matching [Batch] event.  Latency and chaos draws already
          happened per message at send time, so seeds stay stable. *)
  mutable node_ctx : Node.ctx option;
      (* built once on first use: rebuilding ~14 closures per dispatched
         event shows up at millions of events *)
  mutable compiled : Eval_serial.compiled option;
      (* compiled on the first inline call, so runs that never inline (and
         set-up) pay nothing *)
}

let config t = t.cfg

let journal t = t.journal

let counters t = t.counters

let latency t name =
  match Hashtbl.find_opt t.latency_tbl name with
  | Some h -> h
  | None ->
    let h = Hdr.create () in
    Hashtbl.add t.latency_tbl name h;
    h

let record_latency t name v = Hdr.record (latency t name) v

let latency_hists t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.latency_tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let trace t = t.trace

let router t = t.router

let now t = Engine.now t.engine

let quiescent t = Engine.pending t.engine = 0

let root_answers t = List.rev t.root_answers

let error t = t.error

let unsettled_sends t =
  Hashtbl.fold (fun _ p n -> if p.p_settled then n else n + 1) t.pending_sends 0

let suspected_nodes t =
  Hashtbl.fold (fun pid () acc -> pid :: acc) t.suspected [] |> List.sort compare

let node t pid =
  if pid < 0 || pid >= Array.length t.node_arr then
    invalid_arg (Printf.sprintf "Cluster.node: no processor %d" pid);
  t.node_arr.(pid)

let nodes t = Array.to_list t.node_arr

let total_work t = Array.fold_left (fun acc n -> acc + Node.work_done n) 0 t.node_arr

let total_waste t = Array.fold_left (fun acc n -> acc + Node.wasted_work n) 0 t.node_arr

let root_location t = if t.root.dest >= 0 then Some t.root.dest else None

let fresh_task_id t () =
  let id = t.next_task_id in
  t.next_task_id <- id + 1;
  id

let pressure t pid =
  let n = t.node_arr.(pid) in
  if Node.is_alive n then Node.runnable_tasks n else max_int / 2

let view t = { Policy.router = t.router; pressure = pressure t }

let place t ~origin ~key =
  let origin = if origin = Ids.super_root then 0 else origin in
  Policy.choose t.policy (view t) ~origin ~key

let first_alive t ~key =
  match Router.alive_nodes t.router with
  | [] -> None
  | alive ->
    (* [abs min_int] is negative (two's complement has no positive
       counterpart), which made [mod] produce a negative index and
       [List.nth] raise; masking the sign bit keeps every key usable. *)
    Some (List.nth alive (key land max_int mod List.length alive))

let hops t ~src ~dst =
  let src = if src = Ids.super_root then dst else src in
  let dst = if dst = Ids.super_root then src else dst in
  if src = dst || src < 0 || dst < 0 then 0
  else
    match Router.distance t.router src dst with
    | Some h -> h
    | None -> Topology.ideal_distance (Router.topology t.router) src dst

(* Under batched delivery, all messages reaching [dst] at the same tick
   share one simulator event: the first one schedules it and the rest only
   append to the buffer.  The per-message latency/chaos draws above this
   point are untouched, so the RNG streams — and with them every placement
   decision — are the same as in an unbatched run. *)
let schedule_delivery t ~delay ~src ~dst ~seq msg =
  if t.cfg.Config.batched_delivery then begin
    let at = now t + delay in
    let key = (at * (Array.length t.node_arr + 2)) + (dst + 2) in
    match Hashtbl.find_opt t.batches key with
    | Some items -> items := (src, msg, seq) :: !items
    | None ->
      Hashtbl.add t.batches key (ref [ (src, msg, seq) ]);
      Engine.schedule t.engine ~delay (Batch { key; dst })
  end
  else Engine.schedule t.engine ~delay (Deliver { src; dst; msg; seq })

(* Transmit one message (or retransmission): wire latency plus, when a
   chaos instance is armed, the perturbation verdict — drop it, or deliver
   one or more copies with extra delay. *)
let transmit t ~extra ~src ~dst ~seq msg =
  let copy d =
    let delay =
      extra + d
      + Latency.delay ~rng:(fun bound -> Rng.int t.rng bound) t.cfg.Config.latency
          ~hops:(hops t ~src ~dst)
    in
    schedule_delivery t ~delay ~src ~dst ~seq msg
  in
  match t.chaos with
  | None -> copy 0
  | Some ch -> (
    match Chaos.decide ch ~now:(now t) ~src ~dst with
    | Chaos.Drop reason ->
      Counter.incr t.counters "net.msg_dropped";
      if reason = `Partition then Counter.incr t.counters "net.partition_dropped";
      Trace.logf t.trace ~time:(now t) ~level:Trace.Debug ~tag:"chaos" "%s %s -> %s: %s"
        (match reason with `Loss -> "lost" | `Partition -> "severed")
        (Ids.proc_to_string src) (Ids.proc_to_string dst) (Message.label msg)
    | Chaos.Pass { extra_delays } ->
      List.iteri
        (fun i d ->
          if i > 0 then Counter.incr t.counters "net.dup_injected";
          if d > 0 then Counter.incr t.counters "net.delayed";
          copy d)
        extra_delays)

(* Transport-level acknowledgement of reliable send [seq], from the
   receiver [src] back to the original sender [dst].  Unreliable itself —
   a lost ack just costs a retransmission, which the duplicate filter
   absorbs. *)
let send_transport_ack t ~src ~dst ~seq =
  Counter.incr t.counters "net.ack_sent";
  let copy d =
    let delay =
      d
      + Latency.delay ~rng:(fun bound -> Rng.int t.rng bound) t.cfg.Config.latency
          ~hops:(hops t ~src ~dst)
    in
    Engine.schedule t.engine ~delay (Tack { seq })
  in
  match t.chaos with
  | None -> copy 0
  | Some ch -> (
    match Chaos.decide ch ~now:(now t) ~src ~dst with
    | Chaos.Drop _ -> Counter.incr t.counters "net.ack_dropped"
    | Chaos.Pass { extra_delays } -> List.iter copy extra_delays)

(* The §4.2 protocol messages that drive recovery forward are the ones the
   transport must not lose; the rest (app-level acks, gradient gossip,
   aborts) are advisory and stay fire-and-forget.  Failure notices are on
   the reliable side: an accusation that silently vanishes leaves one peer
   relaying results toward a processor the rest of the cluster has written
   off, and the views of who is dead never reconverge. *)
let reliable_kind = function
  | Message.Task_packet _ | Message.Result _ | Message.Orphan_alive _ | Message.Reparent _
  | Message.Failure_notice _ ->
    true
  | Message.Ack _ | Message.Gradient _ | Message.Abort _ -> false

let send_after t ~delay:extra ~src ~dst msg =
  Counter.incr t.counters "msg.sent";
  let seq =
    if t.cfg.Config.reliable && src <> dst && reliable_kind msg then begin
      let s = t.next_seq in
      t.next_seq <- s + 1;
      Hashtbl.replace t.pending_sends s
        { p_src = src; p_dst = dst; p_msg = msg; p_born = now t; p_attempt = 0;
          p_settled = false };
      Engine.schedule t.engine ~delay:(extra + t.cfg.Config.retry.Config.rto) (Retry { seq = s });
      s
    end
    else -1
  in
  transmit t ~extra ~src ~dst ~seq msg

let send t ~src ~dst msg = send_after t ~delay:0 ~src ~dst msg

let wake t pid ~delay = Engine.schedule t.engine ~delay (Step pid)

let compiled t =
  match t.compiled with
  | Some c -> c
  | None ->
    let c = Eval_serial.compile t.program in
    t.compiled <- Some c;
    c

let inline_eval t fname args =
  match Eval_serial.run (compiled t) fname args with
  | v, steps -> Ok (v, steps)
  | exception Eval_serial.Runtime_error msg -> Error msg
  | exception Not_found -> Error ("call to unknown function " ^ fname)

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
    inline_eval = inline_eval t;
    journal = t.journal;
    counters = t.counters;
    trace = t.trace;
    record_latency = (fun name v -> record_latency t name v);
    program_error = program_error t;
  }

let ctx t =
  match t.node_ctx with
  | Some c -> c
  | None ->
    let c = build_ctx t in
    t.node_ctx <- Some c;
    c

let create cfg program =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Cluster.create: " ^ msg));
  let n = Topology.size cfg.Config.topology in
  {
    cfg;
    program;
    library = Graph.compile_program program;
    engine = Engine.create ();
    router = Router.create cfg.Config.topology;
    node_arr = Array.init n (fun i -> Node.create i cfg);
    journal = Journal.create ~retain:cfg.Config.journal_retain ();
    counters = Counter.create_set ();
    latency_tbl = Hashtbl.create 8;
    trace = Trace.create ~capacity:65536 ();
    rng = Rng.create cfg.Config.seed;
    policy = Policy.create ~seed:cfg.Config.seed cfg.Config.policy;
    next_task_id = 0;
    root =
      {
        uid = -1;
        r_stamp = Stamp.root;
        avoid = [];
        packet = None;
        dest = -2;
        task = Ids.no_task;
        pending = [];
        answers = [];
        answer_time = None;
        redispatches = 0;
        on_answer = None;
        on_disturbed = None;
      };
    requests = Hashtbl.create 64;
    next_uid = 0;
    service = false;
    arrivals_open = false;
    unanswered = 0;
    answer = None;
    answer_time = None;
    root_answers = [];
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
    batches = Hashtbl.create 64;
    node_ctx = None;
    compiled = None;
  }

(* ------------------------------------------------------------------ *)
(* Super-root (§4.3.1)                                                 *)
(* ------------------------------------------------------------------ *)

let root_super_slot = 0

(* Which request a message landing on the super-root belongs to.  Batch
   mode owns every stamp; a service stamp names its request in its first
   digit (request roots sit at depth 1, so any descendant carries it). *)
let request_of_stamp t stamp =
  if not t.service then Some t.root
  else if Stamp.depth stamp = 0 then None
  else Hashtbl.find_opt t.requests (Stamp.digit stamp 0)

(* Deterministic iteration in submission order (uid order), batch root
   included — hash-table order must never leak into the event stream. *)
let iter_requests t f =
  if t.service then
    for uid = 0 to t.next_uid - 1 do
      match Hashtbl.find_opt t.requests uid with Some r -> f r | None -> ()
    done
  else f t.root

(* [true] while some request hosted on [pid] still awaits its answer. *)
let hosted_unanswered t pid =
  let found = ref false in
  iter_requests t (fun r -> if r.dest = pid && r.answers = [] then found := true);
  !found

(* The generalized "no answer yet" guard: in batch mode the single root
   answer, in service mode any request still in flight. *)
let unanswered_exists t = if t.service then t.unanswered > 0 else t.answer = None

(* Period of the distributed gradient exchange ([Policy.Gradient_distributed]
   only): every node recomputes its gradient value from its neighbours'
   last-heard values and broadcasts it to them. *)
let gradient_period = 100

(* Gradient gossip keeps ticking while there is (or may yet be) work. *)
let gradient_live t =
  if t.service then t.arrivals_open || t.unanswered > 0 else t.answer = None

(* Dispatch (or re-dispatch) a request's root task from the super-root's
   retained checkpoint. *)
let dispatch_request t req ~reason =
  match req.packet with
  | None -> ()
  | Some packet -> (
    match Router.alive_nodes t.router with
    | [] -> Trace.log t.trace ~time:(now t) ~level:Trace.Error ~tag:"SR" "no live processor for root"
    | _ :: _ ->
      let task_id = fresh_task_id t () in
      let key = Stamp.hash packet.Packet.stamp + task_id in
      let dest = place t ~origin:Ids.super_root ~key in
      (* A suspected processor is router-alive, so placement can pick it —
         but the rest of the cluster has written it off and would never
         relay the twin's results home.  Re-home on an unsuspected
         survivor whenever one exists.  Replica siblings of the same
         logical request ([avoid]) are rehomed the same way: co-locating
         them would void the independence the vote relies on. *)
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
      | None -> Journal.record t.journal ~time:(now t) ~stamp:req.r_stamp
          (Journal.Spawned { task = task_id; dest; replica = 0 })
      | Some reason ->
        Counter.incr t.counters "reissue.root";
        req.redispatches <- req.redispatches + 1;
        Journal.record t.journal ~time:(now t) ~stamp:req.r_stamp
          (Journal.Respawned { task = task_id; dest; reason });
        Option.iter (fun f -> f reason) req.on_disturbed);
      (* Forward any salvaged orphan results that were waiting for a twin.
         A direct child of the request root fills the twin's call slot; a
         deeper orphan (reachable here because §5.2 ancestor links can skip
         past a dead grandparent) must instead be driven down the chain of
         twins, so it keeps its [To_grandparent] shape — filling the
         root's slot with a grandchild's partial value would silently
         drop the rest of that subtree. *)
      let pending = req.pending in
      req.pending <- [];
      List.iter
        (fun (stamp, (dead_parent : Packet.link), value) ->
          let direct =
            match Stamp.parent stamp with
            | Some p -> Stamp.equal p req.r_stamp
            | None -> false
          in
          let relay, slot =
            if direct then (Message.To_step_parent { dead_parent }, dead_parent.Packet.slot)
            else (Message.To_grandparent { dead_parent }, -1)
          in
          send t ~src:Ids.super_root ~dst:dest
            (Message.Result
               { stamp; value; target = { Packet.task = task_id; proc = dest; slot }; relay }))
        pending)

let super_root_deliver t msg =
  match msg with
  | Message.Result { stamp; value; relay = Message.To_parent; _ } -> (
    match request_of_stamp t stamp with
    | None -> ()
    | Some req ->
      req.answers <- value :: req.answers;
      t.root_answers <- value :: t.root_answers;
      if req.answer_time = None then begin
        req.answer_time <- Some (now t);
        if t.service then begin
          t.unanswered <- t.unanswered - 1;
          Option.iter (fun f -> f value) req.on_answer
        end
      end;
      if (not t.service) && t.answer = None then begin
        t.answer <- Some value;
        t.answer_time <- Some (now t);
        Trace.logf t.trace ~time:(now t) ~level:Trace.Info ~tag:"SR" "answer: %s"
          (Value.to_string value);
        if not t.drain then Engine.stop t.engine
      end)
  | Message.Result { stamp; value; target; relay = Message.To_grandparent { dead_parent }; _ }
    -> (
    (* An orphaned result salvages itself through the super-root acting
       as an ancestor.  Only a *direct* child of the dead request root
       fills a root call slot; a deeper orphan (its parent and grandparent
       both dead, escalated here via §5.2 ancestor links) keeps its
       [To_grandparent] shape and is driven down the chain of twins by
       the root twin — its value is one subtree fragment, not the whole
       slot. *)
    match request_of_stamp t stamp with
    | None -> ()
    | Some req ->
      if req.answers = [] && t.cfg.Config.recovery = Config.Splice then begin
        let direct =
          match Stamp.parent stamp with
          | Some p -> Stamp.equal p req.r_stamp
          | None -> false
        in
        let root_alive = req.dest >= 0 && Router.alive t.router req.dest in
        if root_alive && req.dest <> dead_parent.Packet.proc then begin
          (* a twin already exists: forward straight to it *)
          let relay, slot =
            if direct then (Message.To_step_parent { dead_parent }, dead_parent.Packet.slot)
            else (Message.To_grandparent { dead_parent }, -1)
          in
          send t ~src:Ids.super_root ~dst:req.dest
            (Message.Result
               {
                 stamp;
                 value;
                 target = { Packet.task = req.task; proc = req.dest; slot };
                 relay;
               })
        end
        else begin
          req.pending <- (stamp, dead_parent, value) :: req.pending;
          dispatch_request t req ~reason:(Some "orphan-result")
        end;
        ignore target
      end)
  | Message.Orphan_alive { stamp; orphan; dead_parent; target = _ } -> (
    (* A child of a (dead) request root announces itself: make sure that
       root has a twin and let the twin inherit the orphan. *)
    match request_of_stamp t stamp with
    | None -> ()
    | Some req ->
      if req.answers = [] && t.cfg.Config.recovery = Config.Splice then begin
        let root_alive = req.dest >= 0 && Router.alive t.router req.dest in
        if (not root_alive) || req.dest = dead_parent.Packet.proc then
          dispatch_request t req ~reason:(Some "orphan-alive");
        if req.dest >= 0 && Router.alive t.router req.dest then
          send t ~src:Ids.super_root ~dst:req.dest
            (Message.Orphan_alive
               { stamp; orphan; dead_parent;
                 target = { Packet.task = req.task; proc = req.dest; slot = -1 } })
      end)
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
  if hosted_unanswered t pid && t.cfg.Config.recovery <> Config.No_recovery then
    Engine.schedule t.engine ~delay:t.cfg.Config.detect_delay
      (Deliver
         { src = Ids.super_root; dst = Ids.super_root;
           msg = Message.Failure_notice { failed = pid }; seq = -1 })

let handle_fail t pid =
  let n = t.node_arr.(pid) in
  if Node.is_alive n then begin
    Node.kill n (ctx t);
    Router.kill t.router pid;
    Hashtbl.replace t.fail_times pid (now t);
    Counter.incr t.counters "failure.injected";
    Journal.record t.journal ~time:(now t) ~stamp:Stamp.root (Journal.Failure { proc = pid });
    Trace.logf t.trace ~time:(now t) ~level:Trace.Warn ~tag:"cluster" "%s failed"
      (Ids.proc_to_string pid);
    broadcast_failure t pid
  end

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

(* Retransmission schedule: attempt n fires rto·backoffⁿ after the
   previous one, capped so a long suspicion window cannot overflow. *)
let retry_delay t attempt =
  let { Config.rto; backoff; _ } = t.cfg.Config.retry in
  let d = float_of_int rto *. (backoff ** float_of_int attempt) in
  max 1 (min (rto * 64) (int_of_float d))

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
  Counter.incr t.counters "net.suspected";
  if p.p_dst >= 0 && Node.is_alive t.node_arr.(p.p_dst) then begin
    Counter.incr t.counters "net.false_suspicion";
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
    if hosted_unanswered t p.p_dst && t.cfg.Config.recovery <> Config.No_recovery then
      Engine.schedule t.engine ~delay:t.cfg.Config.detect_delay
        (Deliver
           { src = Ids.super_root; dst = Ids.super_root;
             msg = Message.Failure_notice { failed = p.p_dst }; seq = -1 })
  end;
  if p.p_src = Ids.super_root then begin
    Counter.incr t.counters "msg.bounced";
    if unanswered_exists t && t.cfg.Config.recovery <> Config.No_recovery then
      Engine.schedule t.engine ~delay:t.cfg.Config.bounce_delay
        (Deliver
           { src = Ids.super_root; dst = Ids.super_root;
             msg = Message.Failure_notice { failed = p.p_dst }; seq = -1 })
  end
  else Engine.schedule t.engine ~delay:0 (Bounce { src = p.p_src; dead = p.p_dst; msg = p.p_msg })

(* Receiver half of the reliable transport: acknowledge and deduplicate.
   Returns true when [msg] should actually be processed. *)
let transport_accept t ~src ~dst ~seq =
  seq < 0
  ||
  if Hashtbl.mem t.seen_seqs seq then begin
    Counter.incr t.counters "net.dup_suppressed";
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
    if t.cfg.Config.reliable && src <> dst then Hashtbl.replace t.last_heard (dst, src) (now t);
    if dst = Ids.super_root then begin
      if transport_accept t ~src ~dst ~seq then
        match msg with
        | Message.Failure_notice { failed } ->
          iter_requests t (fun req ->
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
          match Hashtbl.find_opt t.pending_sends seq with
          | Some p ->
            let was = p.p_settled in
            p.p_settled <- true;
            was
          | None -> true
        in
        if not already_settled then
          if src = Ids.super_root then begin
            (* the super-root's own send bounced: re-dispatch the root *)
            Counter.incr t.counters "msg.bounced";
            if unanswered_exists t && t.cfg.Config.recovery <> Config.No_recovery then
              Engine.schedule t.engine ~delay:t.cfg.Config.bounce_delay
                (Deliver
                   { src = Ids.super_root; dst = Ids.super_root;
                     msg = Message.Failure_notice { failed = dst }; seq = -1 })
          end
          else
            Engine.schedule t.engine ~delay:t.cfg.Config.bounce_delay
              (Bounce { src; dead = dst; msg })
      end
    end

let handle_event t _at ev =
  match ev with
  | Deliver { src; dst; msg; seq } -> deliver_one t ~src ~dst ~seq msg
  | Batch { key; dst } -> (
    match Hashtbl.find_opt t.batches key with
    | None -> ()
    | Some items ->
      (* detach first: a handler may send again toward [dst] at this very
         tick, which must open a fresh batch behind this one *)
      Hashtbl.remove t.batches key;
      List.iter (fun (src, msg, seq) -> deliver_one t ~src ~dst ~seq msg) (List.rev !items))
  | Tack { seq } -> (
    match Hashtbl.find_opt t.pending_sends seq with
    | Some p ->
      (* first ack only: re-acks of suppressed duplicates are not RTTs *)
      if not p.p_settled then record_latency t "net.rtt" (now t - p.p_born);
      p.p_settled <- true;
      Hashtbl.replace t.last_heard (p.p_src, p.p_dst) (now t)
    | None -> ())
  | Retry { seq } -> (
    match Hashtbl.find_opt t.pending_sends seq with
    | None -> ()
    | Some p ->
      if p.p_settled then Hashtbl.remove t.pending_sends seq
      else if p.p_src >= 0 && not (Node.is_alive t.node_arr.(p.p_src)) then
        (* the sender itself died: nobody is waiting on this delivery *)
        Hashtbl.remove t.pending_sends seq
      else begin
        let { Config.suspicion_after; _ } = t.cfg.Config.retry in
        let elapsed = now t - p.p_born in
        (* Suspicion is a verdict on the *destination*, not on one unlucky
           send: give up only when the sender has heard nothing back from
           that processor — no delivery, no transport ack on any sequence —
           for a whole window.  A send whose own acks keep getting eaten
           retries for as long as the destination shows other signs of
           life. *)
        let heard =
          Option.value ~default:(-1) (Hashtbl.find_opt t.last_heard (p.p_src, p.p_dst))
        in
        let silent = now t - heard >= suspicion_after in
        if elapsed >= suspicion_after && silent && p.p_dst <> Ids.super_root then
          give_up t seq p
        else begin
          (* never give up on the super-root: it is the cluster itself *)
          p.p_attempt <- p.p_attempt + 1;
          Counter.incr t.counters "net.retransmit";
          (* how stale the payload already is when we try again *)
          record_latency t "net.retransmit_delay" (now t - p.p_born);
          transmit t ~extra:0 ~src:p.p_src ~dst:p.p_dst ~seq p.p_msg;
          Engine.schedule t.engine ~delay:(retry_delay t p.p_attempt) (Retry { seq })
        end
      end)
  | Bounce { src; dead; msg } ->
    if src >= 0 then begin
      let n = t.node_arr.(src) in
      if Node.is_alive n then Node.handle_bounce n (ctx t) ~dead msg
    end
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

let start t ~fname ~args =
  if t.started then invalid_arg "Cluster.start: already started";
  check_entry t ~who:"start" ~fname ~args;
  t.started <- true;
  arm_gradient t;
  let packet = Packet.root ~fname ~args:(Array.of_list args) ~super_slot:root_super_slot in
  t.root.packet <- Some packet;  (* the pre-evaluation checkpoint *)
  dispatch_request t t.root ~reason:None

(* ------------------------------------------------------------------ *)
(* Service mode: many concurrent roots                                 *)
(* ------------------------------------------------------------------ *)

let begin_service t =
  if t.started then invalid_arg "Cluster.begin_service: already started";
  t.started <- true;
  t.service <- true;
  t.arrivals_open <- true;
  arm_gradient t

let service_mode t = t.service

let close_arrivals t = t.arrivals_open <- false

let schedule_callback t ~delay f =
  if not t.started then invalid_arg "Cluster.schedule_callback: call begin_service first";
  Engine.schedule t.engine ~delay (Callback f)

let submit t ?(avoid = []) ?on_answer ?on_disturbed ~fname ~args () =
  if not t.service then invalid_arg "Cluster.submit: call begin_service first";
  check_entry t ~who:"submit" ~fname ~args;
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let stamp = Stamp.child Stamp.root uid in
  (* The depth-1 stamp is the request's whole identity: its checkpoint
     entries, orphan relays and journal rows all live in a subtree no
     other request can reach, so nothing leaks across requests.  The
     super-root slot carries the uid for symmetry with the batch root. *)
  let packet =
    Packet.make ~stamp ~fname ~args:(Array.of_list args)
      ~parent:{ Packet.task = Ids.no_task; proc = Ids.super_root; slot = uid }
      ~grandparent:None ~ancestors:[]
  in
  let req =
    {
      uid;
      r_stamp = stamp;
      avoid;
      packet = Some packet;
      dest = -2;
      task = Ids.no_task;
      pending = [];
      answers = [];
      answer_time = None;
      redispatches = 0;
      on_answer;
      on_disturbed;
    }
  in
  Hashtbl.replace t.requests uid req;
  t.unanswered <- t.unanswered + 1;
  dispatch_request t req ~reason:None;
  uid

let submitted_requests t = t.next_uid

let in_flight t = t.unanswered

let find_request t uid =
  match Hashtbl.find_opt t.requests uid with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Cluster: no request %d" uid)

let request_answers t uid = List.rev (find_request t uid).answers

let request_answer_time t uid = (find_request t uid).answer_time

let request_dest t uid =
  let r = find_request t uid in
  if r.dest >= 0 then Some r.dest else None

let request_stamp t uid = (find_request t uid).r_stamp

let request_redispatches t uid = (find_request t uid).redispatches

let run ?(drain = false) t =
  if not t.started then invalid_arg "Cluster.run: call start first";
  t.drain <- drain;
  Engine.run t.engine ~until:t.cfg.Config.horizon (fun at ev -> handle_event t at ev);
  {
    answer = t.answer;
    answer_time = t.answer_time;
    sim_time = now t;
    events = Engine.events_dispatched t.engine;
    error = t.error;
  }
