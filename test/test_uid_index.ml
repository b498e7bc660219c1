(* The task-uid index against the table it replaced: a stdlib [Hashtbl]
   created with 64 buckets in which a removed key is rebound to a
   tombstone instead.  Every walk of the index must see the model's walk
   with the tombstones left out, whatever the walk's callback does to the
   table it walks, across several resize points. *)

module Uid_index = Recflow_machine.Uid_index

type v = Live of int | Dead

type action =
  | Rebind_current
  | Remove_current
  | Remove_other of int  (* a kept key, by pick *)
  | Remove_mates of int
      (* about half of the kept keys that can share the current key's
         bucket, the successor the walk holds among them, chosen by the
         salt *)
  | Insert_fresh of int  (* this many fresh keys *)

type op =
  | Insert of int  (* this many fresh keys *)
  | Rebind of int  (* a kept key, by pick *)
  | Remove of int  (* a kept key, by pick *)
  | Remove_stale of int  (* a removed key, by pick, or a key never inserted *)
  | Remove_if of int  (* every kept key whose value this divides *)
  | Find of int
  | Mem of int
  | Walk of { fold : bool; acts : (int * action) list }
      (* act at the n-th live binding the walk meets *)

type case = { scramble : int; base : int; ops : op list }

(* What one structure is driven through, so the model and the index run
   the same program. *)
type 'a table = {
  insert : int -> v -> unit;
  rebind : int -> v -> unit;
  remove : int -> unit;
  remove_if : (v -> bool) -> int;
  find : int -> v option;
  mem : int -> bool;
  iter : (int -> v -> unit) -> unit;
  fold : (int -> v -> int -> int) -> int -> int;
}

let model () =
  let h = Hashtbl.create 64 in
  {
    insert = (fun k x -> Hashtbl.replace h k x);
    rebind = (fun k x -> Hashtbl.replace h k x);
    remove = (fun k -> if Hashtbl.mem h k then Hashtbl.replace h k Dead);
    remove_if =
      (fun p ->
        let n = ref 0 in
        Hashtbl.filter_map_inplace
          (fun _ x ->
            if x <> Dead && p x then begin
              incr n;
              Some Dead
            end
            else Some x)
          h;
        !n);
    find = (fun k -> match Hashtbl.find_opt h k with Some Dead | None -> None | x -> x);
    mem = (fun k -> match Hashtbl.find_opt h k with Some (Live _) -> true | _ -> false);
    iter = (fun f -> Hashtbl.iter f h);
    fold = (fun f a -> Hashtbl.fold f h a);
  }

let index () =
  let t = Uid_index.create ~dead:Dead in
  {
    insert = (fun k x -> Uid_index.replace t k x);
    rebind = (fun k x -> Uid_index.replace t k x);
    remove = (fun k -> Uid_index.remove t k);
    remove_if = (fun p -> Uid_index.remove_if t (fun _ x -> p x));
    find = (fun k -> match Uid_index.find t k ~default:Dead with Dead -> None | x -> Some x);
    mem = (fun k -> Uid_index.mem t k);
    iter = (fun f -> Uid_index.iter f t);
    fold = (fun f a -> Uid_index.fold f t a);
  }

(* The kept keys in a growable array (swap-remove), so a pick names the
   same key in both runs as long as their histories agree. *)
type keys = { mutable arr : int array; mutable len : int; pos : (int, int) Hashtbl.t }

let add_key ks k =
  if ks.len = Array.length ks.arr then begin
    let a = Array.make (2 * ks.len + 16) 0 in
    Array.blit ks.arr 0 a 0 ks.len;
    ks.arr <- a
  end;
  ks.arr.(ks.len) <- k;
  Hashtbl.replace ks.pos k ks.len;
  ks.len <- ks.len + 1

let drop_key ks k =
  match Hashtbl.find_opt ks.pos k with
  | None -> ()
  | Some i ->
    let last = ks.arr.(ks.len - 1) in
    ks.arr.(i) <- last;
    Hashtbl.replace ks.pos last i;
    Hashtbl.remove ks.pos k;
    ks.len <- ks.len - 1

let pick ks p = if ks.len = 0 then None else Some ks.arr.(p mod ks.len)

(* Run [case] on [t]; returns everything observable, in order. *)
let run case t =
  let out = Buffer.create 4096 in
  let obs fmt = Printf.bprintf out fmt in
  let kept = { arr = [||]; len = 0; pos = Hashtbl.create 64 } in
  let removed = ref [] and n_removed = ref 0 in
  let next_key = ref 0 and next_value = ref 0 in
  let fresh_value () =
    incr next_value;
    Live !next_value
  in
  (* distinct keys, in an order the case picks: [scramble] odd makes the
     affine map a bijection on 30 bits *)
  let fresh_key () =
    let i = !next_key in
    incr next_key;
    if case.scramble = 0 then case.base + i else ((i * case.scramble) + case.base) land 0x3fffffff
  in
  let insert n =
    for _ = 1 to n do
      let k = fresh_key () in
      t.insert k (fresh_value ());
      add_key kept k
    done
  in
  let remove k =
    t.remove k;
    if Hashtbl.mem kept.pos k then begin
      drop_key kept k;
      removed := k :: !removed;
      incr n_removed
    end
  in
  let act k = function
    | Rebind_current ->
      (* a walk that outlived a resize may meet a key removed since from
         the new cells; rebinding it would insert it again *)
      if Hashtbl.mem kept.pos k then t.rebind k (fresh_value ())
    | Remove_current -> remove k
    | Remove_other p -> Option.iter remove (pick kept p)
    | Remove_mates salt ->
      (* a bucket of any size holds keys of one hash class mod 64 *)
      let cls = Hashtbl.hash k land 63 in
      let mates = ref [] in
      for i = kept.len - 1 downto 0 do
        let m = kept.arr.(i) in
        if m <> k && Hashtbl.hash m land 63 = cls && Hashtbl.hash (m lxor salt) land 1 = 0 then
          mates := m :: !mates
      done;
      List.iter remove !mates
    | Insert_fresh n -> insert n
  in
  let visit acts seen k x =
    match x with
    | Dead -> seen
    | Live y ->
      obs "%d=%d " k y;
      (match List.assoc_opt seen acts with Some a -> act k a | None -> ());
      seen + 1
  in
  List.iter
    (function
      | Insert n -> insert n
      | Rebind p -> Option.iter (fun k -> t.rebind k (fresh_value ())) (pick kept p)
      | Remove p -> Option.iter remove (pick kept p)
      | Remove_stale p ->
        if !n_removed = 0 || p mod 3 = 0 then t.remove (-1 - p)
        else t.remove (List.nth !removed (p mod !n_removed))
      | Remove_if m ->
        let p = function Live y -> y mod m = 0 | Dead -> false in
        (* the model's predicate meets keys in its own order; only the
           survivors and the count are compared *)
        let gone = ref [] in
        Array.iteri
          (fun i k ->
            if i < kept.len then
              match t.find k with Some x when p x -> gone := k :: !gone | _ -> ())
          kept.arr;
        obs "removed_if %d " (t.remove_if p);
        List.iter
          (fun k ->
            drop_key kept k;
            removed := k :: !removed;
            incr n_removed)
          !gone
      | Find p -> (
        let k =
          match (pick kept p, !removed) with
          | Some k, _ when p mod 4 <> 0 -> k
          | _, k :: _ -> k
          | _, [] -> -7
        in
        match t.find k with Some (Live y) -> obs "find %d=%d " k y | _ -> obs "find %d=- " k)
      | Mem p ->
        let k = match pick kept p with Some k when p mod 4 <> 0 -> k | _ -> -3 - p in
        obs "mem %d=%b " k (t.mem k)
      | Walk { fold; acts } ->
        obs "walk[";
        if fold then ignore (t.fold (fun k x seen -> visit acts seen k x) 0)
        else begin
          let seen = ref 0 in
          t.iter (fun k x -> seen := visit acts !seen k x)
        end;
        obs "] ")
    case.ops;
  obs "final[";
  t.iter (fun k x -> match x with Live y -> obs "%d=%d " k y | Dead -> ());
  obs "] inserted %d" !next_key;
  Buffer.contents out

let gen_action =
  QCheck.Gen.(
    frequency
      [
        (3, return Rebind_current);
        (3, return Remove_current);
        (3, map (fun p -> Remove_other p) nat);
        (3, map (fun s -> Remove_mates s) nat);
        (1, map (fun n -> Insert_fresh n) (int_range 1 1500));
      ])

let gen_walk =
  QCheck.Gen.(
    map2
      (fun fold acts -> Walk { fold; acts })
      bool
      (list_size (int_range 0 40) (pair (int_range 0 3000) gen_action)))

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun n -> Insert n) (int_range 20 400));
        (2, map (fun p -> Rebind p) nat);
        (3, map (fun p -> Remove p) nat);
        (1, map (fun p -> Remove_stale p) nat);
        (1, map (fun m -> Remove_if m) (int_range 2 7));
        (2, map (fun p -> Find p) nat);
        (1, map (fun p -> Mem p) nat);
        (2, gen_walk);
      ])

(* At least 5000 keys, spread over the program so that removals and walks
   meet every resize point (129, 257, 513, 1025, 2049 and 4097 keys), and a
   walk with actions at the end. *)
let gen_case =
  QCheck.Gen.(
    map4
      (fun scramble base ops last ->
        let per = 5000 / List.length ops in
        { scramble; base; ops = List.concat_map (fun op -> [ Insert per; op ]) ops @ [ last ] })
      (oneof [ return 0; map (fun x -> (2 * x) + 1) (int_bound 0x1fffffff) ])
      (int_bound 1_000_000)
      (list_size (int_range 20 60) gen_op)
      gen_walk)

let print_case c =
  Printf.sprintf "scramble=%d base=%d, %d ops" c.scramble c.base (List.length c.ops)

let equivalence =
  QCheck.Test.make ~count:30 ~name:"walks, finds and removals match the tombstone model"
    (QCheck.make ~print:print_case gen_case) (fun c ->
      let expected = run c (model ()) and got = run c (index ()) in
      if expected <> got then begin
        (* show both from a little before the first difference *)
        let n = min (String.length expected) (String.length got) in
        let rec first i = if i < n && expected.[i] = got.[i] then first (i + 1) else i in
        let from = max 0 (first 0 - 100) in
        let around s = String.sub s from (min 300 (String.length s - from)) in
        QCheck.Test.fail_reportf "model and index differ at byte %d:@.model: ...%s@.index: ...%s"
          (first 0) (around expected) (around got)
      end;
      true)

(* The count behind the resize rule is of keys ever inserted: removing
   every key moves no resize point, so later keys land where they would
   have had the removed ones stayed. *)
let removal_keeps_resize_points () =
  let t = Uid_index.create ~dead:Dead and h = Hashtbl.create 64 in
  for k = 0 to 299 do
    Uid_index.replace t k (Live k);
    Hashtbl.replace h k (Live k)
  done;
  for k = 0 to 299 do
    Uid_index.remove t k;
    Hashtbl.replace h k Dead
  done;
  for k = 300 to 599 do
    Uid_index.replace t k (Live k);
    Hashtbl.replace h k (Live k)
  done;
  let walk f = List.rev (f (fun k x acc -> match x with Live _ -> k :: acc | Dead -> acc) []) in
  Alcotest.(check (list int))
    "walk order" (walk (fun f a -> Hashtbl.fold f h a)) (walk (fun f a -> Uid_index.fold f t a))

let suites =
  [
    ( "machine.uid-index",
      [
        Alcotest.test_case "removal keeps resize points" `Quick removal_keeps_resize_points;
        QCheck_alcotest.to_alcotest equivalence;
      ] );
  ]
