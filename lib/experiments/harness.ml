module Cluster = Recflow_machine.Cluster
module Config = Recflow_machine.Config
module Workload = Recflow_workload.Workload
module Value = Recflow_lang.Value
module Counter = Recflow_stats.Counter
module Rng = Recflow_sim.Rng
module Pool = Recflow_parallel.Pool
module Pick = Recflow_fault.Plan.Pick
module Stamp = Recflow_recovery.Stamp

module Oracle = Recflow_machine.Oracle

type run = {
  cluster : Cluster.t;
  outcome : Cluster.outcome;
  correct : bool;
  makespan : int;
  oracle : Oracle.report;
}

type obs_info = { workload_name : string; size_name : string }

(* The hook is a process-wide mutable and harness runs execute on pool
   domains.  The slot is an [Atomic.t] read lock-free per run, so hook
   bodies execute concurrently on pool domains and must be domain-safe
   themselves: guard shared per-sweep state with a mutex taken once per
   finished run, or use atomics for ordinals — see bin/experiments.ml for
   the pattern. *)
let obs_hook : (obs_info -> run -> unit) option Atomic.t = Atomic.make None

let set_obs_hook h = Atomic.set obs_hook h

let notify_obs info r = match Atomic.get obs_hook with Some hook -> hook info r | None -> ()

let size_name = function
  | Workload.Tiny -> "tiny"
  | Workload.Small -> "small"
  | Workload.Medium -> "medium"
  | Workload.Large -> "large"

let run ?(drain = false) config workload size ~failures =
  let cluster = Cluster.create config (Workload.program workload) in
  Recflow_fault.Plan.apply cluster failures;
  Cluster.start cluster ~fname:workload.Workload.entry ~args:(workload.Workload.args size);
  let outcome = Cluster.run ~drain cluster in
  (* every harness run answers to the recovery oracle — no opt-out — and
     a root answer other than the workload's serial reference is one of
     its violations *)
  let expected = Workload.expected workload size in
  let oracle = Oracle.assert_ok ~expected cluster in
  let correct =
    match outcome.Cluster.answer with Some v -> Value.equal v expected | None -> false
  in
  let makespan =
    match outcome.Cluster.answer_time with Some t -> t | None -> outcome.Cluster.sim_time
  in
  let r = { cluster; outcome; correct; makespan; oracle } in
  notify_obs { workload_name = workload.Workload.name; size_name = size_name size } r;
  r

let probe config workload size = run config workload size ~failures:[]

let busiest_victim ?(exclude = []) probe ~time =
  let live = Pick.live_activations (Cluster.journal probe.cluster) ~time in
  let root_host = List.assoc_opt Stamp.root live in
  match Pick.busiest live ~exclude:(Option.to_list root_host @ exclude) with
  | Some victim -> Ok victim
  | None -> Error root_host

let run_many f xs = Pool.map (Pool.default ()) f xs

let warm_pool () =
  let p = Pool.default () in
  (* One trivial batch wider than the pool forces every worker through its
     first wakeup (and its GC resize) before anything is timed. *)
  ignore (Pool.map p Fun.id (List.init (4 * Pool.jobs p) Fun.id))

let run_many_seeded ~seed f xs =
  (* Derive one independent stream per element by splitting a master
     generator *before* the fan-out: stream [i] depends only on [seed]
     and [i], never on which domain (or how many) runs the element, so a
     sweep is bit-identical at any [--jobs]. *)
  let master = Rng.create seed in
  let seeded = List.map (fun x -> (Rng.split master, x)) xs in
  run_many (fun (rng, x) -> f ~rng x) seeded

let synthetic_setup ~quick =
  let depth = 8 in
  let w = Workload.synthetic ~branching:2 ~depth ~grain:60 in
  let size = if quick then Workload.Small else Workload.Medium in
  let effective_depth = match size with Workload.Small -> depth - 1 | _ -> depth in
  (w, size, effective_depth + 1)

let counter r name = Counter.get (Cluster.counters r.cluster) name

let pct_of ~part ~whole = if whole = 0 then 0.0 else float_of_int part /. float_of_int whole

let c_int = string_of_int

let c_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let c_bool b = if b then "yes" else "no"
