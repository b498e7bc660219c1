module Router = Recflow_net.Router

type spec =
  | Gradient of { weight : int }
  | Random
  | Round_robin
  | Static_hash
  | Neighborhood of { radius : int }
  | Gradient_distributed of { threshold : int }

let spec_to_string = function
  | Gradient { weight } -> Printf.sprintf "gradient:%d" weight
  | Random -> "random"
  | Round_robin -> "round-robin"
  | Static_hash -> "static"
  | Neighborhood { radius } -> Printf.sprintf "neighborhood:%d" radius
  | Gradient_distributed { threshold } -> Printf.sprintf "gradient-distributed:%d" threshold

let spec_of_string s =
  match String.split_on_char ':' s with
  | [ "gradient" ] -> Ok (Gradient { weight = 2 })
  | [ "gradient"; w ] -> (
    match int_of_string_opt w with
    | Some w when w >= 0 -> Ok (Gradient { weight = w })
    | _ -> Error (Printf.sprintf "bad gradient weight in %S" s))
  | [ "random" ] -> Ok Random
  | [ "round-robin" ] | [ "rr" ] -> Ok Round_robin
  | [ "static" ] -> Ok Static_hash
  | [ "neighborhood" ] -> Ok (Neighborhood { radius = 1 })
  | [ "neighborhood"; r ] -> (
    match int_of_string_opt r with
    | Some r when r >= 0 -> Ok (Neighborhood { radius = r })
    | _ -> Error (Printf.sprintf "bad neighborhood radius in %S" s))
  | [ "gradient-distributed" ] -> Ok (Gradient_distributed { threshold = 1 })
  | [ "gradient-distributed"; t ] -> (
    match int_of_string_opt t with
    | Some t when t >= 0 -> Ok (Gradient_distributed { threshold = t })
    | _ -> Error (Printf.sprintf "bad gradient-distributed threshold in %S" s))
  | _ -> Error (Printf.sprintf "unknown policy %S" s)

(* A wide spawner floods its neighbourhood quickly, so distance should
   cost more (spawns stay local and spread in waves); narrow programs
   need distance to be cheap or nothing ever leaves the origin.  Clamped
   to the weights that behave sensibly on the experiment topologies. *)
let suggest_gradient_weight ~fanout = max 1 (min 4 fanout)

(* Sodre-style checkpoint admission: a checkpoint stored at depth d costs
   [ckpt_cost] for certain (on the spawn critical path), and insures
   against losing the subtree below it — an expected
   [loss_rate * work_per_activation * (activations below depth d)]
   recomputation.  Admit checkpoints down to the deepest level where the
   insurance still pays for itself; below that, skipping the record and
   regenerating from the surviving parent is cheaper. *)
let suggest_ckpt_admission ~work_per_activation ~fanout ~depth_bound ~loss_rate ~ckpt_cost =
  match depth_bound with
  | None -> None (* no static depth bound: nothing to reason from, admit all *)
  | Some depth_bound ->
    if ckpt_cost <= 0 then None (* recording is free: pruning buys nothing *)
    else begin
      let work = float_of_int (max 1 work_per_activation) in
      let b = float_of_int (max 1 fanout) in
      let subtree_work d =
        let levels = max 0 (depth_bound - d) in
        let rec go i acc pow =
          if i > levels || acc > 1e15 then acc else go (i + 1) (acc +. pow) (pow *. b)
        in
        work *. go 0 0.0 1.0
      in
      let rec cutoff d =
        if d >= depth_bound then depth_bound
        else if loss_rate *. subtree_work (d + 1) < float_of_int ckpt_cost then d
        else cutoff (d + 1)
      in
      Some (max 1 (cutoff 1))
    end

type view = { router : Router.t; pressure : int -> int }

type t = { spec : spec; rng : Recflow_sim.Rng.t; mutable rr_next : int }

let create ?(seed = 0x5eed) spec = { spec; rng = Recflow_sim.Rng.create seed; rr_next = 0 }

let spec t = t.spec

(* The dynamic policies walk the node ids in order and skip the dead ones,
   which visits exactly [Router.alive_nodes] in its order without building
   it; a later node replaces the best so far only when strictly better, so
   ties go to the lowest id as they did over the list.  Nothing here
   allocates. *)

(* Hops from [origin] to the live [node], [if_cut] when no live route
   joins them (the origin may be failing while it spawns). *)
let hops_or router origin node ~if_cut =
  let h = Router.hops router origin node in
  if h < 0 then if_cut else h

let in_ball router origin radius node =
  let h = Router.hops router origin node in
  h >= 0 && h <= radius

let choose t view ~origin ~key =
  (* O(1) existence check; only the policies that really enumerate the
     live set pay for the O(P) walk below. *)
  let router = view.router in
  let live = Router.alive_count router in
  if live = 0 then invalid_arg "Policy.choose: no live node";
  let n = Recflow_net.Topology.size (Router.topology router) in
  match t.spec with
  | Random -> Router.nth_alive router (Recflow_sim.Rng.int t.rng live)
  | Round_robin ->
    let idx = t.rr_next mod live in
    t.rr_next <- t.rr_next + 1;
    Router.nth_alive router idx
  | Static_hash ->
    (* Deterministic placement over the *configured* node set, ignoring
       liveness: exactly what a static allocator does.  No live-set
       enumeration at all — this is the O(1) fast path the scale runs
       lean on. *)
    (* Knuth multiplicative scrambling keeps consecutive stamps apart. *)
    abs (key * 2654435761) mod n
  | Gradient { weight } ->
    (* Walk downhill on [pressure + weight * distance-from-origin]; the
       origin itself competes, so light local load keeps tasks nearby.  A
       dead origin counts every distance as 0, so placement degenerates to
       pure pressure. *)
    let best = ref (-1) and best_s = ref 0 in
    for node = 0 to n - 1 do
      if Router.alive router node then begin
        let s = view.pressure node + (weight * hops_or router origin node ~if_cut:0) in
        if !best < 0 || s < !best_s then begin
          best := node;
          best_s := s
        end
      end
    done;
    !best
  | Neighborhood { radius } ->
    (* Restrict the gradient surface to the origin's r-hop ball; if the
       whole ball is dead, take the nearest live node anyway (the task
       must go somewhere).  Candidates compare by (pressure, distance). *)
    let ball = ref false in
    for node = 0 to n - 1 do
      if Router.alive router node && in_ball router origin radius node then ball := true
    done;
    let best = ref (-1) and best_p = ref 0 and best_d = ref 0 in
    for node = 0 to n - 1 do
      if Router.alive router node && ((not !ball) || in_ball router origin radius node) then begin
        let p = view.pressure node and d = hops_or router origin node ~if_cut:max_int in
        if !best < 0 || p < !best_p || (p = !best_p && d < !best_d) then begin
          best := node;
          best_p := p;
          best_d := d
        end
      end
    done;
    !best
  | Gradient_distributed _ ->
    (* Placement proper happens node-locally in the machine; this cluster-
       level fallback (used for the root dispatch and static analyses)
       degenerates to least pressure among all live nodes. *)
    let best = ref (-1) and best_p = ref 0 in
    for node = 0 to n - 1 do
      if Router.alive router node then begin
        let p = view.pressure node in
        if !best < 0 || p < !best_p then begin
          best := node;
          best_p := p
        end
      end
    done;
    !best

let is_static t = match t.spec with Static_hash -> true | _ -> false
