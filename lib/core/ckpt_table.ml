(* Indexed checkpoint tables.

   Each per-peer entry used to be a flat [Packet.t list]: [record]'s
   covered/dominates checks scanned the whole entry with stamp prefix
   comparisons (O(n) stamp walks per checkpoint, O(n^2) per run — far worse
   under [Keep_all], which is exactly the configuration the Q8 experiment
   stresses), and [discharge] filtered the full list.

   The entry is a digit trie over the held stamps with compressed paths: it
   keeps a node only where a checkpoint sits ([Leaf], or [Held] in
   [Keep_all] mode) and where two held stamps diverge ([Branch]).  A stamp's
   ancestors are exactly its proper prefixes, so the nodes on the path to a
   stamp's place are the only held stamps that can cover it.  The digits a
   node skips are never stored: they are the digits of any stamp below it,
   and [rep] names one, the stamp of the node's leftmost checkpoint.

   [record] walks down the path of the new stamp's digits.  At each node
   it compares, with [Stamp.first_diff_from], the digits the node skips
   against the node's [rep] (the digits above them already matched), and
   then picks the child by the new stamp's digit at the node's length,
   a binary search over children sorted by that digit.  Where the new
   stamp leaves the path the walk stops: it is covered (a checkpoint at
   a prefix, [Topmost]), evicts (the new stamp is a prefix of a whole
   subtree, [Topmost]), adds a packet at an equal stamp ([Keep_all]),
   splits a compressed run with a new [Branch], or adds a leaf under an
   existing node.  [discharge] follows the digits down
   without comparing skipped ones and checks the stamp it ends at for
   equality, so most discharges, which miss (the child's record was
   covered), change nothing; a hit removes and merges on the way back up
   every node left with one child and no checkpoint.  Both are
   O(stamp depth) hops, whatever the entry holds, which keeps [Keep_all]
   (the Q8 space/time ablation) usable at scale.

   In [Topmost] mode the held stamps form an antichain (a descendant is
   covered, an ancestor evicts), so checkpoints sit only at leaves and
   every inner node is a [Branch] with two or more children: an entry of
   one checkpoint is one 2-word [Leaf], and an entry of n costs n leaves
   and at most n - 1 branches (4 words and a child array each).

   A depth-1 digit is the request uid in service mode, unbounded over a
   run (a stamp gives it a whole word, see [Stamp]); only the requests
   with a checkpoint still outstanding toward a peer keep a child under
   that entry's top [Branch], and the binary search keeps the walk
   logarithmic in them.

   The same rule holds one level up: the per-peer entries live in two
   exactly-sized arrays sorted by peer, found by binary search, and an
   entry leaves them as soon as [discharge] empties it or [on_failure]
   surrenders it.  A table's size is therefore set by the peers it still
   holds checkpoints for, not by every peer it ever spawned to (up to P
   per node, P^2 across a run, under static hash placement): an empty
   table is one 5-word record, one with a single entry adds 4 words of
   arrays.  Adding or dropping a peer copies both arrays, so this suits
   tables of few peers: the benchmark's runs hold at most 11 at a
   [record], 2 to 6 in the median. *)

type mode = Topmost | Keep_all

type node =
  | Empty  (* what [remove] returns for a subtree it emptied; never stored *)
  | Leaf of Packet.t  (* one checkpoint, nothing below it *)
  | Held of { mutable packets : Packet.t list; mutable kids : node array }
      (* [Keep_all] only: checkpoints at one stamp, newest first, with
         either two or more of them or something below *)
  | Branch of { len : int; mutable rep : Stamp.t; mutable kids : node array }
(* no checkpoint at its prefix of [len] digits; two or more children,
   sorted by their digit at the parent's length *)

type t = {
  mode : mode;
  mutable size : int;  (* checkpoints held, so [total_size] is O(1) *)
  mutable peers : int array;  (* sorted *)
  mutable tries : node array;  (* [tries.(i)] is [peers.(i)]'s entry *)
}

exception Covered

let create ?(mode = Topmost) () = { mode; size = 0; peers = [||]; tries = [||] }

let mode t = t.mode

(* [Held]'s packets are never empty. *)
let[@inline] held_stamp = function (p : Packet.t) :: _ -> p.stamp | [] -> assert false

(* The stamp of a checkpoint under [n]: its leftmost one. *)
let[@inline] rep = function
  | Leaf p -> p.Packet.stamp
  | Held h -> held_stamp h.packets
  | Branch b -> b.rep
  | Empty -> assert false

(* Digits of [n]'s prefix: the depth of its checkpoints, or where its
   children diverge. *)
let[@inline] len = function
  | Leaf p -> Stamp.depth p.Packet.stamp
  | Held h -> Stamp.depth (held_stamp h.packets)
  | Branch b -> b.len
  | Empty -> assert false

(* Children arrays, with the common small sizes built as literals, which
   allocate inline. *)
let insert_kid_at (a : node array) i x : node array =
  match a with
  | [| y; z |] -> if i = 0 then [| x; y; z |] else if i = 1 then [| y; x; z |] else [| y; z; x |]
  | _ ->
    let n = Array.length a in
    let b = Array.make (n + 1) x in
    Array.blit a 0 b 0 i;
    Array.blit a i b (i + 1) (n - i);
    b

let remove_kid_at (a : node array) i : node array =
  match a with
  | [| _ |] -> [||]
  | [| y; z |] -> if i = 0 then [| z |] else [| y |]
  | _ ->
    let n = Array.length a in
    let b = Array.make (n - 1) a.(0) in
    Array.blit a 0 b 0 i;
    Array.blit a (i + 1) b i (n - 1 - i);
    b

(* Index of the child whose digit at [l] is [k], or [-(insertion point) -
   1]: a binary search over the children's [rep]s.  The walks are
   top-level recursions over explicit arguments: a local recursive
   function would capture the stamp or packet and cost a closure per
   call. *)
let rec search_kids kids l k lo hi =
  if lo >= hi then -lo - 1
  else begin
    let mid = (lo + hi) lsr 1 in
    let x = Stamp.digit (rep (Array.unsafe_get kids mid)) l in
    if x = k then mid
    else if x < k then search_kids kids l k (mid + 1) hi
    else search_kids kids l k lo mid
  end

let[@inline] find_kid kids l k = search_kids kids l k 0 (Array.length kids)

(* The index of [dest] in the sorted peers, or [-(insertion point) - 1]. *)
let rec search_peers peers dest lo hi =
  if lo >= hi then -lo - 1
  else begin
    let mid = (lo + hi) lsr 1 in
    let p = Array.unsafe_get peers mid in
    if p = dest then mid
    else if p < dest then search_peers peers dest (mid + 1) hi
    else search_peers peers dest lo mid
  end

let find_peer t dest = search_peers t.peers dest 0 (Array.length t.peers)

let add_peer t i dest n =
  let peers = t.peers in
  let k = Array.length peers in
  let ps = Array.make (k + 1) dest in
  Array.blit peers 0 ps 0 i;
  Array.blit peers i ps (i + 1) (k - i);
  t.peers <- ps;
  t.tries <- insert_kid_at t.tries i n

let drop_peer t i =
  let peers = t.peers in
  let k = Array.length peers in
  if k = 1 then t.peers <- [||]
  else begin
    let ps = Array.make (k - 1) 0 in
    Array.blit peers 0 ps 0 i;
    Array.blit peers (i + 1) ps i (k - 1 - i);
    t.peers <- ps
  end;
  t.tries <- remove_kid_at t.tries i

(* Checkpoints under [n]. *)
let rec count n =
  match n with
  | Empty -> 0
  | Leaf _ -> 1
  | Held h -> List.length h.packets + count_kids h.kids 0 0
  | Branch b -> count_kids b.kids 0 0

and count_kids kids i acc =
  if i = Array.length kids then acc else count_kids kids (i + 1) (acc + count kids.(i))

let rec nodes n =
  match n with
  | Empty -> 0
  | Leaf _ -> 1
  | Held { kids; _ } | Branch { kids; _ } -> nodes_kids kids 0 1

and nodes_kids kids i acc =
  if i = Array.length kids then acc else nodes_kids kids (i + 1) (acc + nodes kids.(i))

(* A [Branch]'s [rep] is its first child's, kept current on every walk
   back up so it never names a checkpoint the table dropped. *)
let refresh_rep n =
  match n with
  | Branch b ->
    let r = rep (Array.unsafe_get b.kids 0) in
    if r != b.rep then b.rep <- r
  | Empty | Leaf _ | Held _ -> ()

(* Record [p] (stamp [stamp] of depth [d]) under [n], returning what
   replaces [n].  [stamp]'s first [from] digits are [n]'s.  Raises
   [Covered] before changing anything. *)
let rec insert t p stamp d from n =
  let l = len n in
  (* where [stamp] leaves [n]'s prefix, if it does *)
  let c = if l <= from then l else Stamp.first_diff_from stamp (rep n) from in
  if c < l then begin
    t.size <- t.size + 1;
    if c = d then begin
      (* [stamp] is a proper prefix of every stamp under [n] *)
      match t.mode with
      | Topmost ->
        t.size <- t.size - count n;
        Leaf p
      | Keep_all ->
        Held { packets = [ p ]; kids = [| n |] }
    end
    else begin
      (* [stamp] and [n] part at digit [c], among the digits [n] skips *)
      let leaf = Leaf p in
      let kids =
        if Stamp.digit stamp c < Stamp.digit (rep n) c then [| leaf; n |] else [| n; leaf |]
      in
      Branch { len = c; rep = rep kids.(0); kids }
    end
  end
  else begin
    (* [n]'s prefix is a prefix of [stamp] *)
    match n with
    | Leaf q -> (
      match t.mode with
      | Topmost -> raise_notrace Covered (* an ancestor if [l < d], the same stamp if [l = d] *)
      | Keep_all ->
        t.size <- t.size + 1;
        if l = d then Held { packets = [ p; q ]; kids = [||] }
        else Held { packets = [ q ]; kids = [| Leaf p |] })
    | Held h ->
      if l = d then begin
        h.packets <- p :: h.packets;
        t.size <- t.size + 1
      end
      else begin
        let kids = insert_kid t p stamp d h.kids l in
        if kids != h.kids then h.kids <- kids
      end;
      n
    | Branch b ->
      if l = d then begin
        t.size <- t.size + 1;
        match t.mode with
        | Topmost ->
          (* the new checkpoint dominates everything below: evict it *)
          t.size <- t.size - count n;
          Leaf p
        | Keep_all -> Held { packets = [ p ]; kids = b.kids }
      end
      else begin
        let kids = insert_kid t p stamp d b.kids l in
        if kids != b.kids then b.kids <- kids;
        refresh_rep n;
        n
      end
    | Empty -> assert false
  end

and insert_kid t p stamp d kids l =
  let i = find_kid kids l (Stamp.digit stamp l) in
  if i < 0 then begin
    t.size <- t.size + 1;
    insert_kid_at kids (-i - 1) (Leaf p)
  end
  else begin
    let kid = kids.(i) in
    let kid' = insert t p stamp d (l + 1) kid in
    if kid' != kid then kids.(i) <- kid';
    kids
  end

let record t ~dest (p : Packet.t) =
  let i = find_peer t dest in
  if i < 0 then begin
    add_peer t (-i - 1) dest (Leaf p);
    t.size <- t.size + 1;
    `Recorded
  end
  else begin
    let top = t.tries.(i) in
    let stamp = p.stamp in
    match insert t p stamp (Stamp.depth stamp) 0 top with
    | top' ->
      if top' != top then t.tries.(i) <- top';
      `Recorded
    | exception Covered -> `Covered
  end

(* What replaces a node at depth [l] whose own checkpoints were all
   removed, leaving [kids]. *)
let without_packets kids l =
  match Array.length kids with
  | 0 -> Empty
  | 1 -> kids.(0)
  | _ -> Branch { len = l; rep = rep kids.(0); kids }

(* Remove every checkpoint at exactly [stamp] (depth [d]) from under [n],
   returning what replaces [n]: [n] itself, the node it merges into, or
   [Empty].  The walk follows [stamp]'s digits without checking the digits
   nodes skip; the equality test where it ends does. *)
let rec remove t stamp d n =
  match n with
  | Leaf q ->
    if Stamp.equal q.Packet.stamp stamp then begin
      t.size <- t.size - 1;
      Empty
    end
    else n
  | Held h ->
    let l = len n in
    if l = d then begin
      if Stamp.equal (held_stamp h.packets) stamp then begin
        t.size <- t.size - List.length h.packets;
        without_packets h.kids l
      end
      else n
    end
    else if l > d then n
    else begin
      let kids = remove_kid t stamp d h.kids l in
      if kids != h.kids then h.kids <- kids;
      match h.packets with [ q ] when Array.length kids = 0 -> Leaf q | _ -> n
    end
  | Branch b ->
    if b.len >= d then n
    else begin
      let kids = remove_kid t stamp d b.kids b.len in
      if Array.length kids = 1 then kids.(0)
      else begin
        if kids != b.kids then b.kids <- kids;
        refresh_rep n;
        n
      end
    end
  | Empty -> n

and remove_kid t stamp d kids l =
  let i = find_kid kids l (Stamp.digit stamp l) in
  if i < 0 then kids
  else begin
    let kid = kids.(i) in
    match remove t stamp d kid with
    | Empty -> remove_kid_at kids i
    | kid' ->
      if kid' != kid then kids.(i) <- kid';
      kids
  end

let discharge t ~dest stamp =
  let i = find_peer t dest in
  i >= 0
  &&
  let size = t.size and top = t.tries.(i) in
  (match remove t stamp (Stamp.depth stamp) top with
  | Empty -> drop_peer t i
  | top' -> if top' != top then t.tries.(i) <- top');
  t.size < size

let node_count t = Array.fold_left (fun acc n -> acc + nodes n) 0 t.tries

(* The checkpoints under [n] in stamp order, equal stamps newest first,
   before [acc]: a node's own checkpoints, then its children in digit
   order. *)
let rec collect n acc =
  match n with
  | Empty -> acc
  | Leaf p -> p :: acc
  | Held h -> h.packets @ collect_kids h.kids (Array.length h.kids - 1) acc
  | Branch b -> collect_kids b.kids (Array.length b.kids - 1) acc

and collect_kids kids i acc =
  if i < 0 then acc else collect_kids kids (i - 1) (collect kids.(i) acc)

let iter_packets t f = Array.iter (fun n -> List.iter f (collect n [])) t.tries

let on_failure t ~failed =
  let i = find_peer t failed in
  if i < 0 then []
  else begin
    let top = t.tries.(i) in
    drop_peer t i;
    t.size <- t.size - count top;
    collect top []
  end

let entry t ~dest =
  let i = find_peer t dest in
  if i < 0 then [] else collect t.tries.(i) []

let total_size t = t.size

let destinations t = Array.to_list t.peers
