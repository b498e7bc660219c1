(* Tests for placement policies. *)

module Policy = Recflow_balance.Policy
module Router = Recflow_net.Router
module Topology = Recflow_net.Topology

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let view ?(pressure = fun _ -> 0) router = { Policy.router; pressure }

let full8 () = Router.create (Topology.Full 8)

let dynamic_stays_alive () =
  let router = full8 () in
  Router.kill router 3;
  Router.kill router 5;
  List.iter
    (fun spec ->
      let p = Policy.create spec in
      for key = 0 to 50 do
        let d = Policy.choose p (view router) ~origin:0 ~key in
        check (Policy.spec_to_string spec ^ " avoids dead") true (d <> 3 && d <> 5);
        check "in range" true (d >= 0 && d < 8)
      done)
    [ Policy.Gradient { weight = 2 }; Policy.Random; Policy.Round_robin;
      Policy.Neighborhood { radius = 1 } ]

let static_ignores_liveness () =
  let router = full8 () in
  let p = Policy.create Policy.Static_hash in
  (* same key -> same node, dead or not *)
  let d1 = Policy.choose p (view router) ~origin:0 ~key:123 in
  Router.kill router d1;
  let d2 = Policy.choose p (view router) ~origin:4 ~key:123 in
  check_int "static placement is a pure function of the key" d1 d2

let round_robin_cycles () =
  let router = Router.create (Topology.Full 3) in
  let p = Policy.create Policy.Round_robin in
  let picks = List.init 6 (fun key -> Policy.choose p (view router) ~origin:0 ~key) in
  Alcotest.(check (list int)) "cycle" [ 0; 1; 2; 0; 1; 2 ] picks

let gradient_prefers_idle () =
  let router = full8 () in
  (* node 6 is idle, everyone else heavily loaded *)
  let pressure n = if n = 6 then 0 else 100 in
  let p = Policy.create (Policy.Gradient { weight = 2 }) in
  check_int "flows to the idle node" 6 (Policy.choose p (view ~pressure router) ~origin:0 ~key:1)

let gradient_weight_keeps_local () =
  let router = Router.create (Topology.Ring 8) in
  (* origin slightly loaded; distance weight dominates *)
  let pressure n = if n = 0 then 3 else 0 in
  let heavy = Policy.create (Policy.Gradient { weight = 100 }) in
  check_int "heavy weight stays local" 0
    (Policy.choose heavy (view ~pressure router) ~origin:0 ~key:1);
  let light = Policy.create (Policy.Gradient { weight = 0 }) in
  check "zero weight escapes" true
    (Policy.choose light (view ~pressure router) ~origin:0 ~key:1 <> 0)

let neighborhood_radius () =
  let router = Router.create (Topology.Ring 8) in
  let p = Policy.create (Policy.Neighborhood { radius = 1 }) in
  for key = 0 to 20 do
    let d = Policy.choose p (view router) ~origin:4 ~key in
    check "within 1 hop of origin" true (List.mem d [ 3; 4; 5 ])
  done

let neighborhood_dead_ball_falls_back () =
  let router = Router.create (Topology.Ring 8) in
  Router.kill router 3;
  Router.kill router 4;
  Router.kill router 5;
  let p = Policy.create (Policy.Neighborhood { radius = 1 }) in
  (* origin 4 is dead itself; ball empty -> nearest live node *)
  let d = Policy.choose p (view router) ~origin:4 ~key:0 in
  check "falls back to a live node" true (Router.alive router d)

let no_live_node_raises () =
  let router = Router.create (Topology.Full 2) in
  Router.kill router 0;
  Router.kill router 1;
  let p = Policy.create Policy.Random in
  check "raises with no live node" true
    (try
       ignore (Policy.choose p (view router) ~origin:0 ~key:0);
       false
     with Invalid_argument _ -> true)

let spec_strings () =
  List.iter
    (fun spec ->
      match Policy.spec_of_string (Policy.spec_to_string spec) with
      | Ok s -> check "round trip" true (s = spec)
      | Error e -> Alcotest.fail e)
    [ Policy.Gradient { weight = 3 }; Policy.Random; Policy.Round_robin; Policy.Static_hash;
      Policy.Neighborhood { radius = 2 }; Policy.Gradient_distributed { threshold = 2 } ];
  (match Policy.spec_of_string "gradient" with
  | Ok (Policy.Gradient _) -> ()
  | _ -> Alcotest.fail "bare gradient");
  match Policy.spec_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted"

let is_static () =
  check "static" true (Policy.is_static (Policy.create Policy.Static_hash));
  check "gradient not static" false (Policy.is_static (Policy.create Policy.Random))

let deterministic_given_seed () =
  let run () =
    let router = full8 () in
    let p = Policy.create ~seed:9 Policy.Random in
    List.init 20 (fun key -> Policy.choose p (view router) ~origin:0 ~key)
  in
  Alcotest.(check (list int)) "same seed same picks" (run ()) (run ())

(* The list-walking [choose] that placement used before it became
   allocation-free, kept as the reference the rewrite must agree with: the
   same node for every spec, liveness pattern, pressure map and origin,
   and the same RNG and round-robin state afterwards. *)
let reference_choose spec rng rr router ~pressure ~origin ~key =
  let alive = Router.alive_nodes router in
  let dist node =
    let h = Router.hops router origin node in
    if h < 0 then None else Some h
  in
  let least score nodes =
    let best =
      List.fold_left
        (fun acc node ->
          let s = score node in
          match acc with Some (_, best_s) when compare best_s s <= 0 -> acc | _ -> Some (node, s))
        None nodes
    in
    match best with Some (node, _) -> node | None -> assert false
  in
  match spec with
  | Policy.Random -> Recflow_sim.Rng.pick rng (Array.of_list alive)
  | Policy.Round_robin ->
    let idx = !rr mod List.length alive in
    incr rr;
    List.nth alive idx
  | Policy.Static_hash -> abs (key * 2654435761) mod Topology.size (Router.topology router)
  | Policy.Gradient { weight } ->
    least (fun node -> pressure node + (weight * Option.value ~default:0 (dist node))) alive
  | Policy.Neighborhood { radius } ->
    let in_ball =
      List.filter (fun n -> match dist n with Some d -> d <= radius | None -> false) alive
    in
    least
      (fun node -> (pressure node, Option.value ~default:max_int (dist node)))
      (if in_ball = [] then alive else in_ball)
  | Policy.Gradient_distributed _ -> least pressure alive

let choose_matches_reference =
  let topologies =
    [ Topology.Full 9; Topology.Ring 9; Topology.Mesh (3, 3); Topology.Hypercube 3 ]
  in
  let specs =
    [
      Policy.Random; Policy.Round_robin; Policy.Static_hash; Policy.Gradient { weight = 0 };
      Policy.Gradient { weight = 2 }; Policy.Neighborhood { radius = 1 };
      Policy.Neighborhood { radius = 0 }; Policy.Gradient_distributed { threshold = 1 };
    ]
  in
  QCheck.Test.make ~name:"choose agrees with the list-walking reference" ~count:300
    QCheck.(
      quad (int_bound 3) (int_bound (List.length specs - 1)) small_nat
        (list_of_size (Gen.return 12) (pair (int_bound 8) (int_bound 4))))
    (fun (ti, si, seed, draws) ->
      let topo = List.nth topologies ti and spec = List.nth specs si in
      let router = Router.create topo in
      let n = Topology.size topo in
      (* kill a seed-dependent set, never the whole machine *)
      List.iteri
        (fun i (node, _) -> if i < seed mod 5 && node < n - 1 then Router.kill router node)
        draws;
      let pressure node = (node * 7919 + seed) mod 5 in
      let p = Policy.create ~seed spec in
      let rng = Recflow_sim.Rng.create seed and rr = ref 0 in
      List.for_all
        (fun (origin, k) ->
          let origin = origin mod n and key = (k * 1_000_003) + seed in
          Policy.choose p { Policy.router; pressure } ~origin ~key
          = reference_choose spec rng rr router ~pressure ~origin ~key)
        draws)

let suites =
  [
    ( "balance.policy",
      [
        Alcotest.test_case "dynamic stays alive" `Quick dynamic_stays_alive;
        Alcotest.test_case "static ignores liveness" `Quick static_ignores_liveness;
        Alcotest.test_case "round robin cycles" `Quick round_robin_cycles;
        Alcotest.test_case "gradient prefers idle" `Quick gradient_prefers_idle;
        Alcotest.test_case "gradient weight" `Quick gradient_weight_keeps_local;
        Alcotest.test_case "neighborhood radius" `Quick neighborhood_radius;
        Alcotest.test_case "neighborhood fallback" `Quick neighborhood_dead_ball_falls_back;
        Alcotest.test_case "no live node" `Quick no_live_node_raises;
        Alcotest.test_case "spec strings" `Quick spec_strings;
        Alcotest.test_case "is_static" `Quick is_static;
        Alcotest.test_case "deterministic" `Quick deterministic_given_seed;
        QCheck_alcotest.to_alcotest choose_matches_reference;
      ] );
  ]
