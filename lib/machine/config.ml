type recovery = No_recovery | Rollback | Splice | Replicate of int

let recovery_to_string = function
  | No_recovery -> "none"
  | Rollback -> "rollback"
  | Splice -> "splice"
  | Replicate k -> Printf.sprintf "replicate:%d" k

type ckpt_mode =
  | Fixed of Recflow_recovery.Ckpt_table.mode
  | Adaptive of { max_depth : int }

let ckpt_mode_string = function
  | Fixed Recflow_recovery.Ckpt_table.Topmost -> "topmost"
  | Fixed Recflow_recovery.Ckpt_table.Keep_all -> "keep-all"
  | Adaptive { max_depth } -> Printf.sprintf "adaptive:%d" max_depth

let table_mode = function
  | Fixed m -> m
  | Adaptive _ -> Recflow_recovery.Ckpt_table.Topmost

type retry = { suspicion_after : int }

(* Clamped in float: rto·backoffⁿ past 2^62 would wrap [int_of_float]. *)
let retry_delay ~rto ~backoff attempt =
  let cap = rto * 64 in
  let d = float_of_int rto *. (backoff ** float_of_int attempt) in
  if not (d < float_of_int cap) then cap else max 1 (int_of_float d)

type service = {
  arrival_mean : float;
  replicas : int;
  max_inflight : int;
  shed_suspect_frac : float;
}

type t = {
  topology : Recflow_net.Topology.t;
  latency : Recflow_net.Latency.t;
  policy : Recflow_balance.Policy.spec;
  recovery : recovery;
  ckpt_mode : ckpt_mode;
  ckpt_cost : int;
  ancestor_depth : int;
  replicate_depth : int;
  inline_depth : int;
  detect_delay : int;
  adoption_grace : int;
  bounce_delay : int;
  horizon : int;
  seed : int;
  chaos : Recflow_net.Chaos.spec;
  reliable : bool;
  retry : retry;
  service : service;
  batched_delivery : bool;
  journal_retain : bool;
}

let default ~nodes =
  {
    topology = Recflow_net.Topology.Full nodes;
    latency = Recflow_net.Latency.default;
    policy = Recflow_balance.Policy.Gradient { weight = 2 };
    recovery = Splice;
    ckpt_mode = Fixed Recflow_recovery.Ckpt_table.Topmost;
    ckpt_cost = 0;
    ancestor_depth = 1;
    replicate_depth = 2;
    inline_depth = max_int;
    detect_delay = 200;
    adoption_grace = 80;
    bounce_delay = 150;
    horizon = 200_000_000;
    seed = 42;
    chaos = Recflow_net.Chaos.none;
    reliable = false;
    retry = { suspicion_after = 1500 };
    service =
      { arrival_mean = 400.0; replicas = 1; max_inflight = 64; shed_suspect_frac = 0.5 };
    batched_delivery = false;
    journal_retain = true;
  }

type meta_value = [ `Int of int | `Str of string | `Bool of bool ]

let metadata t : (string * meta_value) list =
  [
    ("nodes", `Int (Recflow_net.Topology.size t.topology));
    ("topology", `Str (Recflow_net.Topology.to_string t.topology));
    ("policy", `Str (Recflow_balance.Policy.spec_to_string t.policy));
    ("recovery", `Str (recovery_to_string t.recovery));
    ("ckpt_mode", `Str (ckpt_mode_string t.ckpt_mode));
    ("ckpt_cost", `Int t.ckpt_cost);
    ("ancestor_depth", `Int t.ancestor_depth);
    ("replicate_depth", `Int t.replicate_depth);
    ("inline_depth", if t.inline_depth = max_int then `Str "unbounded" else `Int t.inline_depth);
    ("latency_base", `Int t.latency.Recflow_net.Latency.base);
    ("latency_per_hop", `Int t.latency.Recflow_net.Latency.per_hop);
    ("latency_jitter", `Int t.latency.Recflow_net.Latency.jitter);
    ("detect_delay", `Int t.detect_delay);
    ("adoption_grace", `Int t.adoption_grace);
    ("bounce_delay", `Int t.bounce_delay);
    ("seed", `Int t.seed);
    ("reliable", `Bool t.reliable);
    ("suspicion_after", `Int t.retry.suspicion_after);
    ("chaos_drop_rate", `Str (Printf.sprintf "%g" t.chaos.Recflow_net.Chaos.drop_rate));
    ("chaos_dup_rate", `Str (Printf.sprintf "%g" t.chaos.Recflow_net.Chaos.dup_rate));
    ("chaos_reorder_rate", `Str (Printf.sprintf "%g" t.chaos.Recflow_net.Chaos.reorder_rate));
    ("chaos_spike_rate", `Str (Printf.sprintf "%g" t.chaos.Recflow_net.Chaos.spike_rate));
    ("chaos_partitions", `Int (List.length t.chaos.Recflow_net.Chaos.partitions));
    ("service_arrival_mean", `Str (Printf.sprintf "%g" t.service.arrival_mean));
    ("service_replicas", `Int t.service.replicas);
    ("service_max_inflight", `Int t.service.max_inflight);
    ("service_shed_suspect_frac", `Str (Printf.sprintf "%g" t.service.shed_suspect_frac));
    ("batched_delivery", `Bool t.batched_delivery);
    ("journal_retain", `Bool t.journal_retain);
  ]

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if Recflow_net.Topology.size t.topology < 1 then err "topology has no nodes"
  else if Recflow_net.Topology.size t.topology > Journal.proc_limit then
    err "topology has %d nodes; a journal entry holds processor ids below %d"
      (Recflow_net.Topology.size t.topology) Journal.proc_limit
  else if t.ancestor_depth < 0 then err "ancestor_depth must be >= 0"
  else if t.replicate_depth < 0 then err "replicate_depth must be >= 0"
  else if t.inline_depth < 1 then err "inline_depth must be >= 1 (the root task is never inline)"
  else if t.ckpt_cost < 0 then err "costs must be non-negative"
  else if (match t.ckpt_mode with Adaptive { max_depth } -> max_depth < 1 | Fixed _ -> false)
  then err "adaptive ckpt_mode max_depth must be >= 1 (the root's children must be covered)"
  else if t.latency.Recflow_net.Latency.base < 0 then err "latency base must be >= 0"
  else if t.latency.Recflow_net.Latency.per_hop < 0 then err "latency per_hop must be >= 0"
  else if t.latency.Recflow_net.Latency.jitter < 0 then err "latency jitter must be >= 0"
  else if t.latency.Recflow_net.Latency.jitter = max_int then
    err "latency jitter must be below max_int (a draw is in [0, jitter])"
  else if t.detect_delay < 1 then err "detect_delay must be >= 1"
  else if t.adoption_grace < 0 then err "adoption_grace must be >= 0"
  else if t.bounce_delay < 1 then err "bounce_delay must be >= 1"
  else if t.horizon < 1 then err "horizon must be >= 1"
  else if t.reliable && t.retry.suspicion_after <= t.detect_delay then
    err
      "suspicion_after must exceed detect_delay (timeout suspicion is the slow local fallback \
       to the failure-notice broadcast)"
  else if not (t.service.arrival_mean > 0.0) then err "service arrival_mean must be > 0"
  else if t.service.replicas < 1 then err "service replicas must be >= 1"
  else if t.service.replicas > Recflow_net.Topology.size t.topology then
    err "service replicas %d exceeds cluster size" t.service.replicas
  else if t.service.max_inflight < 1 then err "service max_inflight must be >= 1"
  else if not (t.service.shed_suspect_frac >= 0.0 && t.service.shed_suspect_frac <= 1.0) then
    err "service shed_suspect_frac must be in [0,1]"
  else
    match Recflow_net.Chaos.validate t.chaos with
    | Error m -> err "%s" m
    | Ok () ->
      if Recflow_net.Chaos.lossy t.chaos && not t.reliable then
        err "a lossy chaos spec (drop_rate > 0 or partitions) requires reliable transport"
      else (
        match t.recovery with
        | Replicate _ when (match t.ckpt_mode with Adaptive _ -> true | Fixed _ -> false) ->
          err
            "adaptive checkpoint admission cannot be combined with replication (lost replicas \
             are governed by the voter, not the checkpoint table)"
        | Replicate k when k < 1 -> err "replication factor must be >= 1"
        | Replicate k when k > Recflow_net.Topology.size t.topology ->
          err "replication factor %d exceeds cluster size" k
        | No_recovery | Rollback | Splice | Replicate _ -> Ok ())
