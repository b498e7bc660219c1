type t = {
  topology : Topology.t;
  dead : bool array;
  mutable n_dead : int;
  full : bool;  (* [Full] topology: every live pair is 1 hop, no BFS needed *)
  rows : int array option array;  (* per-source distance rows, filled lazily *)
}

let create topology =
  let n = Topology.size topology in
  {
    topology;
    dead = Array.make n false;
    n_dead = 0;
    full = (match topology with Topology.Full _ -> true | _ -> false);
    rows = Array.make n None;
  }

let topology t = t.topology

let check t node =
  if node < 0 || node >= Array.length t.dead then
    invalid_arg (Printf.sprintf "Router: node %d out of range" node)

(* Any death or revival can reroute any pair: drop every cached row.
   O(P) per liveness change, against the old all-pairs rebuild. *)
let invalidate t = Array.fill t.rows 0 (Array.length t.rows) None

let kill t node =
  check t node;
  if not t.dead.(node) then begin
    t.dead.(node) <- true;
    t.n_dead <- t.n_dead + 1;
    invalidate t
  end

let revive t node =
  check t node;
  if t.dead.(node) then begin
    t.dead.(node) <- false;
    t.n_dead <- t.n_dead - 1;
    invalidate t
  end

let alive t node =
  check t node;
  not t.dead.(node)

let alive_count t = Array.length t.dead - t.n_dead

let alive_nodes t =
  let acc = ref [] in
  for i = Array.length t.dead - 1 downto 0 do
    if not t.dead.(i) then acc := i :: !acc
  done;
  !acc

let rec walk_alive dead i left =
  if dead.(i) then walk_alive dead (i + 1) left
  else if left = 0 then i
  else walk_alive dead (i + 1) (left - 1)

let nth_alive t k =
  if k < 0 || k >= alive_count t then invalid_arg "Router.nth_alive: index out of range";
  walk_alive t.dead 0 k

let unreachable = max_int

let bfs t src =
  let n = Array.length t.dead in
  let dist = Array.make n unreachable in
  if not t.dead.(src) then begin
    dist.(src) <- 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.take q in
      List.iter
        (fun v ->
          if (not t.dead.(v)) && dist.(v) = unreachable then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (Topology.neighbors t.topology u)
    done
  end;
  dist

let row t src =
  match t.rows.(src) with
  | Some r -> r
  | None ->
    let r = bfs t src in
    t.rows.(src) <- Some r;
    r

let hops t a b =
  check t a;
  check t b;
  if t.dead.(a) || t.dead.(b) then -1
  else if t.full then if a = b then 0 else 1
  else begin
    let d = (row t a).(b) in
    if d = unreachable then -1 else d
  end

let reachable t a b = hops t a b >= 0
