(* Slots are indices into the parallel arrays.  [next] chains a batch's
   slots in send order and, for a free slot, the free list.  [tail] is
   meaningful at a batch's first slot only.  The table maps an open
   batch's key to its first slot; [Hashtbl.find] with an exception handler
   looks it up without allocating an option. *)

type t = {
  heads : (int, int) Hashtbl.t;
  mutable srcs : int array;
  mutable seqs : int array;
  mutable msgs : Message.t array;
  mutable next : int array;
  mutable tail : int array;
  mutable free : int;
}

let none = -1

(* What a free slot's message field holds, so a delivered message is not
   kept reachable by the slab. *)
let vacant = Message.Abort { task = -1; stamp = Recflow_recovery.Stamp.root }

let create () =
  { heads = Hashtbl.create 64; srcs = [||]; seqs = [||]; msgs = [||]; next = [||]; tail = [||];
    free = none }

(* Called with the free list empty: double the slab (64 slots at first use,
   so an unbatched cluster never allocates one) and thread the new slots
   onto the free list. *)
let grow t =
  let n = Array.length t.next in
  let cap = max 64 (2 * n) in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.srcs <- widen t.srcs 0;
  t.seqs <- widen t.seqs 0;
  t.msgs <- widen t.msgs vacant;
  t.next <- widen t.next none;
  t.tail <- widen t.tail none;
  for s = n to cap - 2 do
    t.next.(s) <- s + 1
  done;
  t.next.(cap - 1) <- none;
  t.free <- n

let add t ~key ~src ~seq msg =
  if t.free = none then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  t.srcs.(s) <- src;
  t.seqs.(s) <- seq;
  t.msgs.(s) <- msg;
  t.next.(s) <- none;
  match Hashtbl.find t.heads key with
  | head ->
    t.next.(t.tail.(head)) <- s;
    t.tail.(head) <- s;
    false
  | exception Not_found ->
    Hashtbl.add t.heads key s;
    t.tail.(s) <- s;
    true

let take t ~key =
  match Hashtbl.find t.heads key with
  | head ->
    Hashtbl.remove t.heads key;
    head
  | exception Not_found -> none

let src t s = t.srcs.(s)

let seq t s = t.seqs.(s)

let msg t s = t.msgs.(s)

let release t s =
  let next = t.next.(s) in
  t.msgs.(s) <- vacant;
  t.next.(s) <- t.free;
  t.free <- s;
  next
