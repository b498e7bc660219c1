module Ids = Recflow_recovery.Ids
module Stamp = Recflow_recovery.Stamp
module Journal = Recflow_machine.Journal
module Chaos = Recflow_net.Chaos

type t = (int * Ids.proc_id) list

let apply cluster plan =
  List.iter (fun (time, pid) -> Recflow_machine.Cluster.fail_at cluster ~time pid) plan

let single ~time pid = [ (time, pid) ]

let at_fractions ~makespan specs =
  List.map
    (fun (frac, pid) ->
      let frac = Float.min 0.99 (Float.max 0.01 frac) in
      (int_of_float (frac *. float_of_int makespan), pid))
    specs

let fresh_victims ~rng ~procs n =
  let pool = Array.init procs Fun.id in
  Recflow_sim.Rng.shuffle rng pool;
  Array.to_list (Array.sub pool 0 (min n procs))

let random_burst ~rng ~procs ~count ~lo ~hi =
  if procs <= 0 then invalid_arg "Plan.random_burst: procs must be positive";
  if count < 0 then invalid_arg "Plan.random_burst: negative count";
  if hi < lo then invalid_arg "Plan.random_burst: empty time range";
  let victims = fresh_victims ~rng ~procs count in
  List.map (fun v -> (Recflow_sim.Rng.int_in rng lo hi, v)) victims
  |> List.sort compare

let poisson ~rng ~procs ~mean_interval ~until =
  if procs <= 0 then invalid_arg "Plan.poisson: procs must be positive";
  if mean_interval <= 0.0 then invalid_arg "Plan.poisson: mean_interval must be positive";
  if until < 0 then invalid_arg "Plan.poisson: negative horizon";
  let victims = fresh_victims ~rng ~procs procs in
  let rec go t victims acc =
    match victims with
    | [] -> List.rev acc
    | v :: rest ->
      let t = t +. Recflow_sim.Rng.exponential rng mean_interval in
      if int_of_float t > until then List.rev acc
      else go t rest ((int_of_float t, v) :: acc)
  in
  go 0.0 victims []

(* Chaos-spec combinators: build a network fault plan by piping
   [Chaos.none] through these, then place it in [Config.chaos]. *)

let drop_rate r spec = { spec with Chaos.drop_rate = r }

let duplicate_rate r spec = { spec with Chaos.dup_rate = r }

let reorder ~rate ~spread spec = { spec with Chaos.reorder_rate = rate; reorder_spread = spread }

let delay_spikes ~rate ~max_delay spec =
  { spec with Chaos.spike_rate = rate; spike_max = max_delay }

let partition ~from ~until ~groups spec =
  {
    spec with
    Chaos.partitions =
      spec.Chaos.partitions @ [ { Chaos.p_from = from; p_until = until; groups } ];
  }

module Pick = struct
  (* Activations live at [time]: activated at or before, not completed/
     aborted before.  Returns (stamp, proc) pairs (latest activation per
     stamp), sorted by stamp. *)
  let live_activations journal ~time =
    let latest : (Stamp.t, Ids.proc_id * bool) Hashtbl.t = Hashtbl.create 128 in
    List.iter
      (fun (e : Journal.entry) ->
        if e.Journal.time <= time then begin
          let key = e.Journal.stamp in
          match e.Journal.event with
          | Journal.Activated { proc; _ } -> Hashtbl.replace latest key (proc, true)
          | Journal.Completed _ | Journal.Aborted _ -> (
            match Hashtbl.find_opt latest key with
            | Some (proc, _) -> Hashtbl.replace latest key (proc, false)
            | None -> ())
          | _ -> ()
        end)
      (Journal.entries journal);
    Hashtbl.fold (fun key (proc, live) acc -> if live then (key, proc) :: acc else acc) latest []
    |> List.sort (fun (a, _) (b, _) -> Stamp.compare a b)

  let busiest live ~exclude =
    let tally = Hashtbl.create 16 in
    List.iter
      (fun (_, proc) ->
        if proc >= 0 && not (List.mem proc exclude) then
          Hashtbl.replace tally proc (1 + Option.value ~default:0 (Hashtbl.find_opt tally proc)))
      live;
    Hashtbl.fold
      (fun proc n acc ->
        match acc with
        | Some (_, best) when best >= n -> acc
        | _ -> Some (proc, n))
      tally None
    |> Option.map fst

  let parent_grandparent_pair journal ~time =
    let live = live_activations journal ~time in
    let host s = List.assoc_opt s live in
    (* Look for a live task C at depth >= 2 whose parent and grandparent
       activations live on distinct processors. *)
    let rec search = function
      | [] -> None
      | (stamp, _) :: rest -> (
        match Stamp.parent stamp with
        | None -> search rest
        | Some pstamp -> (
          match Stamp.parent pstamp with
          | None -> search rest
          | Some gstamp -> (
            match (host pstamp, host gstamp) with
            | Some ph, Some gh when ph <> gh && ph >= 0 && gh >= 0 -> Some (ph, gh)
            | _ -> search rest)))
    in
    search (List.rev live)

  let disjoint_pair journal ~time =
    let live = live_activations journal ~time in
    (* Hosts of tasks under distinct root children: failures there touch
       disjoint branches of the call tree. *)
    let branch stamp = if Stamp.depth stamp = 0 then None else Some (Stamp.digit stamp 0) in
    let rec search = function
      | [] -> None
      | (s1, p1) :: rest -> (
        match branch s1 with
        | None -> search rest
        | Some b1 -> (
          let other =
            List.find_opt
              (fun (s2, p2) ->
                p2 <> p1 && p2 >= 0 && match branch s2 with Some b2 -> b2 <> b1 | None -> false)
              rest
          in
          match other with
          | Some (_, p2) when p1 >= 0 -> Some (p1, p2)
          | _ -> search rest))
    in
    search live
end
