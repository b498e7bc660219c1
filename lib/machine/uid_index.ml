(* Stdlib [Hashtbl]'s bucket layout and resize (OCaml 5), specialised to
   int keys, with a resize count that removal does not lower. *)

type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable inserted : int;  (* keys ever inserted: the resize count *)
  mutable data : 'a bucket array;
  mutable walking : bool;  (* a walk is under way: resize by copying *)
  dead : 'a;
}

let create ~dead = { inserted = 0; data = Array.make 64 Empty; walking = false; dead }

let index t key = Hashtbl.hash key land (Array.length t.data - 1)

(* [Hashtbl.insert_all_buckets]: each old bucket is appended, cell by cell
   in bucket order, to the tails of the new ones.  In place, the cells are
   relinked; while a walk holds the old cells, they are copied and left
   as they were. *)
let resize t =
  let odata = t.data in
  let nsize = 2 * Array.length odata in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let inplace = not t.walking in
    t.data <- ndata;
    let ndata_tail = Array.make nsize Empty in
    let rec insert_bucket = function
      | Empty -> ()
      | Cons { key; data; next } as cell ->
        let cell = if inplace then cell else Cons { key; data; next = Empty } in
        let nidx = index t key in
        (match ndata_tail.(nidx) with
        | Empty -> ndata.(nidx) <- cell
        | Cons tail -> tail.next <- cell);
        ndata_tail.(nidx) <- cell;
        insert_bucket next
    in
    for i = 0 to Array.length odata - 1 do
      insert_bucket odata.(i)
    done;
    if inplace then
      for i = 0 to nsize - 1 do
        match ndata_tail.(i) with Empty -> () | Cons tail -> tail.next <- Empty
      done
  end

let rec replace_bucket key data = function
  | Empty -> true
  | Cons c ->
    if c.key = key then begin
      c.data <- data;
      false
    end
    else replace_bucket key data c.next

let replace t key data =
  let i = index t key in
  let l = t.data.(i) in
  if replace_bucket key data l then begin
    t.data.(i) <- Cons { key; data; next = l };
    t.inserted <- t.inserted + 1;
    if t.inserted > Array.length t.data lsl 1 then resize t
  end

let rec find_rec key default = function
  | Empty -> default
  | Cons c -> if c.key = key then c.data else find_rec key default c.next

let find t key ~default = find_rec key default t.data.(index t key)

let rec mem_rec key = function Empty -> false | Cons c -> c.key = key || mem_rec key c.next

let mem t key = mem_rec key t.data.(index t key)

(* Unlink [cell], which follows [prec] in bucket [i].  Its [next] is left
   alone, for a walk that holds it. *)
let unlink t i prec cell =
  match cell with
  | Empty -> ()
  | Cons c -> (
    c.data <- t.dead;
    match prec with Empty -> t.data.(i) <- c.next | Cons p -> p.next <- c.next)

let rec remove_rec t i key prec = function
  | Empty -> ()
  | Cons c as cell -> if c.key = key then unlink t i prec cell else remove_rec t i key cell c.next

let remove t key =
  let i = index t key in
  remove_rec t i key Empty t.data.(i)

let rec remove_if_rec t f i n prec = function
  | Empty -> n
  | Cons c as cell ->
    let next = c.next in
    if f c.key c.data then begin
      unlink t i prec cell;
      remove_if_rec t f i (n + 1) prec next
    end
    else remove_if_rec t f i n cell next

let remove_if t f =
  let n = ref 0 in
  for i = 0 to Array.length t.data - 1 do
    n := remove_if_rec t f i !n Empty t.data.(i)
  done;
  !n

(* The walks save and restore the flag, as [Hashtbl]'s do, so a walk
   nested in another's callback leaves it set. *)
let iter f t =
  let rec do_bucket = function
    | Empty -> ()
    | Cons { key; data; next } ->
      f key data;
      do_bucket next
  in
  let old = t.walking in
  t.walking <- true;
  match
    let d = t.data in
    for i = 0 to Array.length d - 1 do
      do_bucket d.(i)
    done
  with
  | () -> t.walking <- old
  | exception e ->
    t.walking <- old;
    raise e

let fold f t init =
  let rec do_bucket b accu =
    match b with Empty -> accu | Cons { key; data; next } -> do_bucket next (f key data accu)
  in
  let old = t.walking in
  t.walking <- true;
  match
    let d = t.data in
    let accu = ref init in
    for i = 0 to Array.length d - 1 do
      accu := do_bucket d.(i) !accu
    done;
    !accu
  with
  | accu ->
    t.walking <- old;
    accu
  | exception e ->
    t.walking <- old;
    raise e
