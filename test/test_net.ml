(* Tests for topologies, routing and latency. *)

module Topology = Recflow_net.Topology
module Router = Recflow_net.Router
module Latency = Recflow_net.Latency
module Rng = Recflow_sim.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qtest = QCheck_alcotest.to_alcotest

let topo_sizes () =
  check_int "full" 8 (Topology.size (Topology.Full 8));
  check_int "ring" 6 (Topology.size (Topology.Ring 6));
  check_int "mesh" 12 (Topology.size (Topology.Mesh (3, 4)));
  check_int "cube" 8 (Topology.size (Topology.Hypercube 3))

let topo_neighbors () =
  Alcotest.(check (list int)) "full 4, node 1" [ 0; 2; 3 ]
    (Topology.neighbors (Topology.Full 4) 1);
  Alcotest.(check (list int)) "ring 5, node 0" [ 1; 4 ] (Topology.neighbors (Topology.Ring 5) 0);
  Alcotest.(check (list int)) "ring 2" [ 1 ] (Topology.neighbors (Topology.Ring 2) 0);
  Alcotest.(check (list int)) "mesh 3x3 centre" [ 1; 3; 5; 7 ]
    (Topology.neighbors (Topology.Mesh (3, 3)) 4);
  Alcotest.(check (list int)) "mesh 3x3 corner" [ 1; 3 ]
    (Topology.neighbors (Topology.Mesh (3, 3)) 0);
  Alcotest.(check (list int)) "cube 3, node 0" [ 1; 2; 4 ]
    (Topology.neighbors (Topology.Hypercube 3) 0)

let topo_distances () =
  check_int "full" 1 (Topology.ideal_distance (Topology.Full 8) 0 5);
  check_int "ring wraps" 2 (Topology.ideal_distance (Topology.Ring 6) 0 4);
  check_int "mesh manhattan" 4 (Topology.ideal_distance (Topology.Mesh (3, 3)) 0 8);
  check_int "cube popcount" 3 (Topology.ideal_distance (Topology.Hypercube 3) 0 7);
  check_int "self" 0 (Topology.ideal_distance (Topology.Ring 6) 3 3)

let topo_diameter () =
  check_int "ring" 3 (Topology.diameter (Topology.Ring 6));
  check_int "mesh" 4 (Topology.diameter (Topology.Mesh (3, 3)));
  check_int "cube" 3 (Topology.diameter (Topology.Hypercube 3));
  check_int "full" 1 (Topology.diameter (Topology.Full 9))

let topo_strings () =
  List.iter
    (fun t ->
      match Topology.of_string (Topology.to_string t) with
      | Ok t' -> check "round trip" true (t = t')
      | Error e -> Alcotest.fail e)
    [ Topology.Full 4; Topology.Ring 7; Topology.Mesh (2, 5); Topology.Hypercube 4 ];
  List.iter
    (fun s ->
      match Topology.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "full"; "mesh:3"; "ring:0"; "cube:-1"; "torus:4"; "mesh:2x"; "" ]

let topo_out_of_range () =
  check "bad node rejected" true
    (try
       ignore (Topology.neighbors (Topology.Ring 4) 9);
       false
     with Invalid_argument _ -> true)

let dist_symmetric =
  QCheck.Test.make ~name:"ideal_distance symmetric on mesh" ~count:200
    QCheck.(pair (int_range 0 11) (int_range 0 11))
    (fun (a, b) ->
      let t = Topology.Mesh (3, 4) in
      Topology.ideal_distance t a b = Topology.ideal_distance t b a)

let dist_matches_bfs =
  QCheck.Test.make ~name:"closed-form distance equals BFS on live router" ~count:100
    QCheck.(triple (oneofl [ 0; 1; 2 ]) (int_range 0 7) (int_range 0 7))
    (fun (which, a, b) ->
      let t =
        match which with 0 -> Topology.Ring 8 | 1 -> Topology.Hypercube 3 | _ -> Topology.Mesh (2, 4)
      in
      let r = Router.create t in
      Router.hops r a b = Topology.ideal_distance t a b)

let router_kill () =
  let r = Router.create (Topology.Full 4) in
  check "alive initially" true (Router.alive r 2);
  Router.kill r 2;
  check "dead" false (Router.alive r 2);
  Alcotest.(check (list int)) "alive nodes" [ 0; 1; 3 ] (Router.alive_nodes r);
  check_int "distance to dead" (-1) (Router.hops r 0 2);
  check_int "distance from dead" (-1) (Router.hops r 2 0);
  Router.revive r 2;
  check "revived" true (Router.alive r 2)

let router_partition () =
  (* killing two opposite nodes of a ring cuts it in half *)
  let r = Router.create (Topology.Ring 6) in
  Router.kill r 0;
  Router.kill r 3;
  check "1-2 still connected" true (Router.reachable r 1 2);
  check "1-4 cut" false (Router.reachable r 1 4);
  check_int "4-5 side intact" 1 (Router.hops r 4 5);
  check_int "1-5 cut" (-1) (Router.hops r 1 5)

let router_reroute () =
  (* with a dead shortcut the route goes the long way round *)
  let r = Router.create (Topology.Ring 6) in
  check_int "short way" 2 (Router.hops r 0 2);
  Router.kill r 1;
  check_int "long way" 4 (Router.hops r 0 2)

let router_revive_distances () =
  (* regression: revive must invalidate whatever route state kill built,
     not merely flip the liveness bit *)
  let r = Router.create (Topology.Ring 6) in
  Router.kill r 1;
  check_int "long way while dead" 4 (Router.hops r 0 2);
  Router.revive r 1;
  check_int "short way restored" 2 (Router.hops r 0 2);
  Alcotest.(check (list int)) "all alive again" [ 0; 1; 2; 3; 4; 5 ] (Router.alive_nodes r)

let router_alive_but_unreachable () =
  (* a live node whose every route is severed answers exactly like a dead
     one — unreachability *is* failure to the bounce-based detector (§1) *)
  let r = Router.create (Topology.Ring 6) in
  Router.kill r 1;
  Router.kill r 3;
  check "node 2 still alive" true (Router.alive r 2);
  check "but unreachable" false (Router.reachable r 0 2);
  check_int "hops reports -1, like a dead node" (-1) (Router.hops r 0 2);
  check "dead node agrees" false (Router.reachable r 0 1);
  Router.revive r 3;
  check_int "reviving the cut vertex restores a route" 4 (Router.hops r 0 2)

let latency_fixed () =
  let m = Latency.no_jitter ~base:10 ~per_hop:5 in
  let rng = Rng.create 1 and twin = Rng.create 1 in
  check_int "0 hops" 10 (Latency.delay m rng ~hops:0);
  check_int "3 hops" 25 (Latency.delay m rng ~hops:3);
  check "the generator is untouched" true (Rng.next_int64 rng = Rng.next_int64 twin)

let latency_jitter () =
  let m = { Latency.base = 10; per_hop = 0; jitter = 5 } in
  let rng = Rng.create 3 in
  let twin = Rng.copy rng in
  for _ = 1 to 50 do
    check_int "one Rng.int (jitter + 1) draw added" (10 + Rng.int twin 6)
      (Latency.delay m rng ~hops:0)
  done;
  check "negative hops rejected" true
    (try
       ignore (Latency.delay m rng ~hops:(-1));
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "net.topology",
      [
        Alcotest.test_case "sizes" `Quick topo_sizes;
        Alcotest.test_case "neighbors" `Quick topo_neighbors;
        Alcotest.test_case "distances" `Quick topo_distances;
        Alcotest.test_case "diameter" `Quick topo_diameter;
        Alcotest.test_case "strings" `Quick topo_strings;
        Alcotest.test_case "out of range" `Quick topo_out_of_range;
        qtest dist_symmetric;
        qtest dist_matches_bfs;
      ] );
    ( "net.router",
      [
        Alcotest.test_case "kill/revive" `Quick router_kill;
        Alcotest.test_case "partition" `Quick router_partition;
        Alcotest.test_case "reroute" `Quick router_reroute;
        Alcotest.test_case "revive recomputes distances" `Quick router_revive_distances;
        Alcotest.test_case "alive but unreachable = dead" `Quick router_alive_but_unreachable;
      ] );
    ( "net.latency",
      [
        Alcotest.test_case "fixed" `Quick latency_fixed;
        Alcotest.test_case "jitter" `Quick latency_jitter;
      ] );
  ]
