(* Indexed checkpoint tables.

   Each per-peer entry used to be a flat [Packet.t list]: [record]'s
   covered/dominates checks scanned the whole entry with stamp prefix
   comparisons (O(n) stamp walks per checkpoint, O(n^2) per run — far worse
   under [Keep_all], which is exactly the configuration the Q8 experiment
   stresses), and [discharge] filtered the full list.

   The entry is now a digit trie mirroring the call tree: a node per stamp
   prefix, packets stored at the node addressed by their stamp's digit
   path.  Because a stamp's ancestors are precisely its proper prefixes,
   walking the trie root-to-leaf visits every possible covering ancestor —
   [record]'s covered check, its descendant eviction (the subtree below the
   new node) and [discharge] are all O(depth) hops, each a scan of one
   node's live children.

   The trie holds only paths to outstanding checkpoints: [discharge]
   unlinks every node it leaves with no packets and no children on its way
   back up, so an entry's size follows the work still in flight rather
   than the work ever spawned.  That matters for the sibling scans.  Below
   depth 1 a digit is a call-site number, bounded by the program's static
   fan-out (typically < 8; the analysis gauntlet asserts the bound at
   runtime).  At depth 1 in service mode the digit is the request
   uid, unbounded over a run and past 255 after 256 requests (such stamps
   take the spill layout, see [Stamp]); only the requests with a checkpoint
   still outstanding toward this peer keep a child there.

   Children are sibling-linked: a node carries its digit, its first child
   and its next sibling, ending in the self-referential [nil_node].  A hop
   is one 5-word block — no cons cell or pair per child — and unlinking
   allocates nothing.

   The same rule holds one level up: the per-peer entries live in a sparse
   map keyed by destination, and an entry leaves it as soon as [discharge]
   empties it or [on_failure] surrenders it.  A table's size is therefore
   set by the peers it still holds checkpoints for, not by every peer it
   ever spawned to (up to P per node, P^2 across a run, under static hash
   placement).  Nothing iterates the map in an order callers can see:
   [destinations] sorts, the other walks only sum. *)

type mode = Topmost | Keep_all

type node = {
  digit : int;  (* last digit of this node's path; -1 at an entry root *)
  mutable packets : Packet.t list;
      (* newest first; all share the stamp addressed by this node's path.
         At most one element in [Topmost] mode (equal stamps are covered). *)
  mutable first : node;  (* first child, [nil_node] if none *)
  mutable next : node;  (* next sibling, [nil_node] at the end *)
}

type entry = { root : node; mutable count : int }

(* Peers are small ints ([Ids.proc_id]; the super-root is -1), so the
   identity is a good enough hash. *)
module Peers = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int
end)

type t = {
  mode : mode;
  entries : entry Peers.t;
  mutable size : int;  (* the entries' counts summed, so [total_size] is O(1) *)
}

(* End of every child and sibling chain, and the "absent child" result of
   the descend loops, so they never allocate an option.  Never mutated,
   never linked into a trie as a real node. *)
let rec nil_node = { digit = -1; packets = []; first = nil_node; next = nil_node }

let create ?(mode = Topmost) () = { mode; entries = Peers.create 1; size = 0 }

let mode t = t.mode

let entry_of t dest =
  match Peers.find t.entries dest with
  | e -> e
  | exception Not_found ->
    let e =
      { root = { digit = -1; packets = []; first = nil_node; next = nil_node }; count = 0 }
    in
    Peers.add t.entries dest e;
    e

(* The child of [node] with digit [k], or [nil_node].  This and the walks
   below are top-level recursions over explicit arguments: a local
   recursive function would capture the digit, stamp or packet and cost a
   closure per call. *)
let rec scan_siblings n k = if n == nil_node || n.digit = k then n else scan_siblings n.next k

let kid node k = scan_siblings node.first k

let kid_or_create node k =
  let n = kid node k in
  if n != nil_node then n
  else begin
    let n = { digit = k; packets = []; first = nil_node; next = node.first } in
    node.first <- n;
    n
  end

let rec unlink_after prev child =
  if prev.next == child then prev.next <- child.next else unlink_after prev.next child

(* Remove [child], known to be linked under [parent]. *)
let unlink parent child =
  if parent.first == child then parent.first <- child.next else unlink_after parent.first child

(* [f] folded over the packets of [n], its descendants and its later
   siblings.  Tail-recursive along sibling chains, which can be long. *)
let rec fold_forest f n acc =
  if n == nil_node then acc else fold_forest f n.next (fold_forest f n.first (f n acc))

let subtree_packets root =
  (* Prepend [node.packets] without reversing: equal-stamp packets must
     reach the stable sort newest-first, as the flat list did. *)
  fold_forest (fun n acc -> List.fold_right (fun p acc -> p :: acc) n.packets acc) root []

let rec record_all e p stamp d node i =
  if i = d then begin
    node.packets <- p :: node.packets;
    e.count <- e.count + 1
  end
  else record_all e p stamp d (kid_or_create node (Stamp.digit stamp i)) (i + 1)

let packet_count n acc = acc + List.length n.packets

(* Single descent: any populated node passed strictly before depth [d] is
   a proper ancestor of [stamp] — the new packet is covered.  The
   emptiness tests are pattern matches, not [<> []]: the latter is a
   polymorphic-compare call per hop on this hot path. *)
let rec record_topmost e p stamp d node i =
  match node.packets with
  | _ :: _ -> `Covered (* ancestor if i < d, identical stamp if i = d *)
  | [] ->
    if i = d then begin
      node.packets <- [ p ];
      (* The new checkpoint may dominate previously-recorded descendants
         (possible during recovery when an ancestor is re-spawned to the
         same destination); they live exactly in the subtree below this
         node — evict it wholesale.  A leaf (the overwhelmingly common
         case) has nothing below it. *)
      if node.first != nil_node then begin
        e.count <- e.count - fold_forest packet_count node.first 0;
        node.first <- nil_node
      end;
      e.count <- e.count + 1;
      `Recorded
    end
    else record_topmost e p stamp d (kid_or_create node (Stamp.digit stamp i)) (i + 1)

let record t ~dest (p : Packet.t) =
  let e = entry_of t dest in
  let stamp = p.stamp in
  let before = e.count in
  let verdict =
    match t.mode with
    | Keep_all ->
      record_all e p stamp (Stamp.depth stamp) e.root 0;
      `Recorded
    | Topmost -> record_topmost e p stamp (Stamp.depth stamp) e.root 0
  in
  t.size <- t.size + e.count - before;
  verdict

(* Packets removed at [stamp]'s node.  On the way back up, every node left
   with no packets and no children is unlinked from its parent, so the trie
   keeps only paths to outstanding checkpoints. *)
let rec discharge_at stamp d node i =
  if i = d then begin
    match node.packets with
    | [] -> 0 (* already drained: the node lives on for its children *)
    | ps ->
      node.packets <- [];
      List.length ps
  end
  else begin
    let c = kid node (Stamp.digit stamp i) in
    if c == nil_node then 0
    else begin
      let removed = discharge_at stamp d c (i + 1) in
      (match c.packets with
      | [] when removed > 0 && c.first == nil_node -> unlink node c
      | _ -> ());
      removed
    end
  end

let discharge t ~dest stamp =
  match Peers.find t.entries dest with
  | exception Not_found -> false
  | e ->
    let removed = discharge_at stamp (Stamp.depth stamp) e.root 0 in
    e.count <- e.count - removed;
    t.size <- t.size - removed;
    (* An emptied entry's trie is already pruned down to its root: drop
       the entry itself too. *)
    if e.count = 0 then Peers.remove t.entries dest;
    removed > 0

let node_count t =
  Peers.fold (fun _ e acc -> fold_forest (fun _ acc -> acc + 1) e.root.first (acc + 1)) t.entries 0

let by_stamp (a : Packet.t) (b : Packet.t) = Stamp.compare a.stamp b.stamp

(* Collected order is arbitrary (trie walk), but the caller-visible order
   is fixed by the stable sort: distinct stamps by [Stamp.compare], equal
   stamps kept newest-first because each node's packets stay contiguous and
   newest-first in the collected list. *)
let sorted_packets e = List.stable_sort by_stamp (subtree_packets e.root)

let on_failure t ~failed =
  match Peers.find t.entries failed with
  | exception Not_found -> []
  | e ->
    Peers.remove t.entries failed;
    t.size <- t.size - e.count;
    sorted_packets e

let entry t ~dest =
  match Peers.find t.entries dest with exception Not_found -> [] | e -> sorted_packets e

let total_size t = t.size

let destinations t = List.sort Int.compare (Peers.fold (fun dest _ acc -> dest :: acc) t.entries [])
