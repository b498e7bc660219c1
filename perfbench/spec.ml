(* Workload definitions, read from workloads.json: a workload is data, not
   code.  Each entry names a machine configuration and one of three shapes
   (one tree-shaped batch run, a sweep of small runs, or a request stream);
   its optional "quick" object overrides top-level fields for the toy-size
   smoke mode. *)

module Json = Recflow_obs_core.Json
module Config = Recflow_machine.Config
module Workload = Recflow_workload.Workload
module Policy = Recflow_balance.Policy
module Chaos = Recflow_net.Chaos
module Plan = Recflow_fault.Plan

type machine = {
  nodes : int;
  policy : Policy.spec;
  recovery : Config.recovery;
  inline_depth : int option;
  batched_delivery : bool;
  journal_retain : bool;
  reliable : bool;
  jitter : int;
  chaos : Chaos.spec;
}

type shape =
  | Tree of { seeds : int; branching : int; depth : int; grain : int; failures : Plan.t }
      (** one batch run of [Workload.synthetic] at Medium size per seed in
          [[seed, seed + seeds)], with the leaf level inlined as in the X8
          experiment *)
  | Sweep of { seeds : int; combos : (Workload.t * Config.recovery) list; size : Workload.size }
      (** for each of [seeds] consecutive seeds and each combo: a fault-free
          probe, then one failure placed from the probe's makespan *)
  | Stream of {
      workload : Workload.t;
      size : Workload.size;
      requests : int;
      arrival_mean : float;
      replicas : int;
      max_inflight : int;
      failures : Plan.t;
    }

type golden = { g_depth : int; g_seed : int; g_digest : string }

type t = {
  name : string;
  default_seed : int;
  machine : machine;
  shape : shape;
  golden : golden option;
}

let fail fmt = Printf.ksprintf failwith fmt

let recovery_of_string = function
  | "rollback" -> Config.Rollback
  | "splice" -> Config.Splice
  | s -> fail "workloads.json: unknown recovery %S" s

let size_of_string = function
  | "tiny" -> Workload.Tiny
  | "small" -> Workload.Small
  | "medium" -> Workload.Medium
  | "large" -> Workload.Large
  | s -> fail "workloads.json: unknown size %S" s

(* "synthetic:B:D:G" or a built-in workload name. *)
let workload_of_string s =
  match String.split_on_char ':' s with
  | [ "synthetic"; b; d; g ] ->
    Workload.synthetic ~branching:(int_of_string b) ~depth:(int_of_string d)
      ~grain:(int_of_string g)
  | _ -> (
    match Workload.by_name s with Some w -> w | None -> fail "workloads.json: unknown program %S" s)

let of_json ~quick obj =
  let name = match Option.bind (Json.member "name" obj) Json.str with Some n -> n | None -> "?" in
  let field k =
    let over = if quick then Option.bind (Json.member "quick" obj) (Json.member k) else None in
    match over with Some v -> Some v | None -> Json.member k obj
  in
  let get k conv =
    match Option.bind (field k) conv with
    | Some v -> v
    | None -> fail "workloads.json: %s: missing or bad field %S" name k
  in
  let opt k conv = Option.bind (field k) conv in
  let num = function Json.Int n -> Some (float_of_int n) | Json.Float f -> Some f | _ -> None in
  let bool = function Json.Bool b -> Some b | _ -> None in
  let failures () =
    List.map
      (function
        | Json.List [ Json.Int t; Json.Int p ] -> (t, p)
        | _ -> fail "workloads.json: %s: failures are [time, processor] pairs" name)
      (get "failures" (fun v -> Some (Json.to_list v)))
  in
  let chaos =
    match field "chaos" with
    | None -> Chaos.none
    | Some c ->
      let rate k = match Option.bind (Json.member k c) num with Some r -> r | None -> 0.0 in
      Chaos.none |> Plan.drop_rate (rate "drop") |> Plan.duplicate_rate (rate "dup")
      |> Plan.reorder ~rate:(rate "reorder") ~spread:(int_of_float (rate "spread"))
  in
  let machine =
    {
      nodes = get "nodes" Json.int;
      policy =
        (match Policy.spec_of_string (get "policy" Json.str) with
        | Ok p -> p
        | Error e -> fail "workloads.json: %s: %s" name e);
      recovery = Option.fold ~none:Config.Splice ~some:recovery_of_string (opt "recovery" Json.str);
      inline_depth = opt "inline_depth" Json.int;
      batched_delivery = get "batched_delivery" bool;
      journal_retain = get "journal_retain" bool;
      reliable = get "reliable" bool;
      jitter = Option.value ~default:0 (opt "jitter" Json.int);
      chaos;
    }
  in
  let shape =
    match get "kind" Json.str with
    | "tree" ->
      Tree
        {
          seeds = Option.value ~default:1 (opt "seeds" Json.int);
          branching = get "branching" Json.int;
          depth = get "depth" Json.int;
          grain = get "grain" Json.int;
          failures = failures ();
        }
    | "sweep" ->
      Sweep
        {
          seeds = get "seeds" Json.int;
          size = size_of_string (get "size" Json.str);
          combos =
            List.map
              (function
                | Json.List [ Json.Str w; Json.Str r ] ->
                  (workload_of_string w, recovery_of_string r)
                | _ -> fail "workloads.json: %s: combos are [program, recovery] pairs" name)
              (get "combos" (fun v -> Some (Json.to_list v)));
        }
    | "service" ->
      Stream
        {
          workload = workload_of_string (get "program" Json.str);
          size = size_of_string (get "size" Json.str);
          requests = get "requests" Json.int;
          arrival_mean = get "arrival_mean" num;
          replicas = get "replicas" Json.int;
          max_inflight = get "max_inflight" Json.int;
          failures = failures ();
        }
    | k -> fail "workloads.json: %s: unknown kind %S" name k
  in
  let golden =
    Option.map
      (fun g ->
        let int k = match Option.bind (Json.member k g) Json.int with Some v -> v | None -> 0 in
        {
          g_depth = int "depth";
          g_seed = int "seed";
          g_digest = Option.value ~default:"" (Option.bind (Json.member "digest" g) Json.str);
        })
      (Json.member "golden" obj)
  in
  { name; default_seed = get "default_seed" Json.int; machine; shape; golden }

let load ~quick path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with
  | Error e -> fail "%s: %s" path e
  | Ok doc -> (
    match Json.member "workloads" doc with
    | Some ws -> List.map (of_json ~quick) (Json.to_list ws)
    | None -> fail "%s: no \"workloads\" array" path)

(* The cluster configuration of one simulation of this workload. *)
let config m ~seed ~inline_depth =
  let base = Config.default ~nodes:m.nodes in
  {
    base with
    Config.policy = m.policy;
    recovery = m.recovery;
    inline_depth = Option.value ~default:inline_depth m.inline_depth;
    batched_delivery = m.batched_delivery;
    journal_retain = m.journal_retain;
    reliable = m.reliable;
    chaos = m.chaos;
    latency = { base.Config.latency with Recflow_net.Latency.jitter = m.jitter };
    seed;
  }
