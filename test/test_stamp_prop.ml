(* Property suite for the packed level-stamp representation (§3.1).

   The reference implementation here is the original list-of-digits one:
   every operation is re-derived from first principles on plain [int list]
   values (forward order, root first) and cross-checked against the packed
   [Stamp.t] on randomized pairs.  Pairs are generated with a shared-prefix
   bias so the ancestor/common-prefix branches are exercised, not just the
   unrelated fast path, and service-shaped, sharing a request digit a
   whole word wide and differing in the call-site bytes below it. *)

module Stamp = Recflow_recovery.Stamp

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- list-based oracle ---------------- *)

module Oracle = struct
  type t = int list (* forward order, root first *)

  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && is_prefix a' b'

  let is_ancestor a b = List.length a < List.length b && is_prefix a b

  let compare (a : t) (b : t) = Stdlib.compare a b

  let rec common_prefix a b =
    match (a, b) with
    | x :: a', y :: b' when x = y -> x :: common_prefix a' b'
    | _ -> []

  let hash (a : t) = Hashtbl.hash a

  let to_string = function
    | [] -> "\xce\xb5"
    | ds -> String.concat "." (List.map string_of_int ds)
end

(* ---------------- generators ---------------- *)

(* The depth-1 digit is a request uid in service mode: mostly small, now
   and then just past a byte or up to 2^40.  Every deeper digit is a
   call-site number, one byte: mostly fan-out-sized, now and then at the
   top of the byte range. *)
let gen_request =
  QCheck.Gen.(
    frequency
      [ (6, int_bound 5); (2, map (fun d -> 250 + d) (int_bound 20)); (1, int_bound (1 lsl 40)) ])

let gen_site = QCheck.Gen.(frequency [ (9, int_bound 5); (1, map (fun d -> 250 + d) (int_bound 5)) ])

(* Up to 19 call-site digits, to go below a request digit. *)
let gen_sites = QCheck.Gen.(int_bound 19 >>= fun len -> list_repeat len gen_site)

let gen_stem = QCheck.Gen.map2 List.cons gen_request gen_sites

let gen_digits = QCheck.Gen.(frequency [ (1, return []); (20, gen_stem) ])

(* [a] with more digits appended: call sites below a request, or a whole
   stamp below the root. *)
let extend a = if a = [] then gen_digits else QCheck.Gen.map (fun t -> a @ t) gen_sites

(* A pair that shares a prefix with probability ~3/4: either [b] extends
   [a], or both extend a common stem, or they are service-shaped (one
   request word, different call sites below it), or they are
   independent. *)
let gen_pair =
  QCheck.Gen.(
    gen_digits >>= fun a ->
    oneof
      [
        map (fun b -> (a, b)) (extend a);
        pair (extend a) (extend a);
        ( gen_request >>= fun u ->
          map2 (fun x y -> (u :: x, u :: y)) gen_sites gen_sites );
        map (fun b -> (a, b)) gen_digits;
      ])

let arb_digits = QCheck.make ~print:Oracle.to_string gen_digits

let arb_pair =
  QCheck.make
    ~print:(fun (a, b) -> Oracle.to_string a ^ " / " ^ Oracle.to_string b)
    gen_pair

let count = 2000

(* ---------------- properties ---------------- *)

let norm c = Stdlib.compare c 0

let prop_roundtrip =
  QCheck.Test.make ~count ~name:"of_digits/digits round-trip" arb_digits (fun ds ->
      Stamp.digits (Stamp.of_digits ds) = ds)

let prop_child_digits =
  QCheck.Test.make ~count ~name:"child appends a digit" arb_digits (fun ds ->
      match List.rev ds with
      | [] -> Stamp.equal (Stamp.of_digits []) Stamp.root
      | last :: rev_init ->
        let parent = Stamp.of_digits (List.rev rev_init) in
        Stamp.equal (Stamp.child parent last) (Stamp.of_digits ds))

let prop_depth =
  QCheck.Test.make ~count ~name:"depth = digit count" arb_digits (fun ds ->
      Stamp.depth (Stamp.of_digits ds) = List.length ds)

let prop_is_ancestor =
  QCheck.Test.make ~count ~name:"is_ancestor matches prefix oracle" arb_pair (fun (a, b) ->
      Stamp.is_ancestor (Stamp.of_digits a) (Stamp.of_digits b) = Oracle.is_ancestor a b)

let prop_compare =
  QCheck.Test.make ~count ~name:"compare matches list compare" arb_pair (fun (a, b) ->
      norm (Stamp.compare (Stamp.of_digits a) (Stamp.of_digits b)) = norm (Oracle.compare a b))

let prop_equal =
  QCheck.Test.make ~count ~name:"equal iff same digits" arb_pair (fun (a, b) ->
      Stamp.equal (Stamp.of_digits a) (Stamp.of_digits b) = (a = b))

let prop_common_ancestor =
  QCheck.Test.make ~count ~name:"common_ancestor is longest common prefix" arb_pair
    (fun (a, b) ->
      Stamp.digits (Stamp.common_ancestor (Stamp.of_digits a) (Stamp.of_digits b))
      = Oracle.common_prefix a b)

(* Both argument orders, from every start the two stamps agree below: the
   scan compares the request word, finds the first differing byte inside
   a packed word, and must stop at the shorter depth even when the longer
   stamp's digits beyond it are zero. *)
let prop_first_diff =
  QCheck.Test.make ~count ~name:"first_diff_from is the common prefix length" arb_pair
    (fun (a, b) ->
      let n = List.length (Oracle.common_prefix a b) in
      let sa = Stamp.of_digits a and sb = Stamp.of_digits b in
      List.for_all
        (fun from -> Stamp.first_diff_from sa sb from = n && Stamp.first_diff_from sb sa from = n)
        (List.init (n + 1) Fun.id))

let prop_hash =
  QCheck.Test.make ~count ~name:"hash matches Hashtbl.hash of digit list" arb_digits
    (fun ds -> Stamp.hash (Stamp.of_digits ds) = Oracle.hash ds)

(* [hash] reimplements the runtime's list hash digit by digit; hold it to
   [Hashtbl.hash] of the digit list past the generator above too: stamps
   deeper than the hash's ten-int limit, and request digits far beyond a
   byte, whose tagged value outgrows 32 bits. *)
let prop_hash_deep_and_wide =
  let gen =
    QCheck.Gen.(
      int_bound 40 >>= fun len ->
      if len = 0 then return []
      else
        map2 List.cons
          (frequency [ (6, int_bound 7); (3, int_bound 100_000); (1, int_bound (1 lsl 40)) ])
          (list_repeat (len - 1) (frequency [ (6, int_bound 7); (3, int_bound 255) ])))
  in
  QCheck.Test.make ~count ~name:"hash matches Hashtbl.hash for deep stamps and wide digits"
    (QCheck.make ~print:Oracle.to_string gen)
    (fun ds -> Stamp.hash (Stamp.of_digits ds) = Hashtbl.hash ds)

let prop_hash_consistent =
  QCheck.Test.make ~count ~name:"equal stamps hash equal (child-built vs of_digits)"
    arb_digits (fun ds ->
      let built = List.fold_left Stamp.child Stamp.root ds in
      Stamp.hash built = Stamp.hash (Stamp.of_digits ds)
      && Stamp.equal built (Stamp.of_digits ds))

let prop_string_roundtrip =
  QCheck.Test.make ~count ~name:"of_string (to_string s) = Ok s" arb_digits (fun ds ->
      let s = Stamp.of_digits ds in
      Stamp.to_string s = Oracle.to_string ds
      && match Stamp.of_string (Stamp.to_string s) with
         | Ok s' -> Stamp.equal s s'
         | Error _ -> false)

let prop_max_digit =
  QCheck.Test.make ~count ~name:"max_digit matches fold" arb_digits (fun ds ->
      Stamp.max_digit (Stamp.of_digits ds)
      = (match ds with [] -> None | _ -> Some (List.fold_left max 0 ds)))

let prop_parent =
  QCheck.Test.make ~count ~name:"parent drops the last digit" arb_digits (fun ds ->
      match (Stamp.parent (Stamp.of_digits ds), List.rev ds) with
      | None, [] -> true
      | Some p, _ :: rev_init -> Stamp.digits p = List.rev rev_init
      | _ -> false)

(* Below depth 1 a digit is a call-site byte.  A larger one is refused
   wherever it would land: appended by [child], anywhere past the first in
   [of_digits], and by [of_string] as an [Error], since it parses outside
   input. *)
let arb_wide_below =
  QCheck.make
    ~print:(fun (ds, at, k) -> Printf.sprintf "%s, %d at %d" (Oracle.to_string ds) k at)
    QCheck.Gen.(
      gen_stem >>= fun ds ->
      triple (return ds)
        (int_range 1 (List.length ds))
        (frequency [ (3, int_range 256 300); (1, int_range 256 (1 lsl 40)) ]))

let insert_at at k ds = List.filteri (fun i _ -> i < at) ds @ (k :: List.filteri (fun i _ -> i >= at) ds)

let prop_wide_refused =
  QCheck.Test.make ~count ~name:"child/of_digits refuse a digit above 255 past depth 1"
    arb_wide_below (fun (ds, at, k) ->
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      raises (fun () -> Stamp.child (Stamp.of_digits ds) k)
      && raises (fun () -> Stamp.of_digits (insert_at at k ds)))

let prop_of_string_wide =
  QCheck.Test.make ~count ~name:"of_string is Error on a digit above 255 past depth 1"
    arb_wide_below (fun (ds, at, k) ->
      Result.is_error (Stamp.of_string (Oracle.to_string (insert_at at k ds))))

(* One layout and no cache: polymorphic equality and [Hashtbl.hash] are
   sound on stamps, however they were built — by [child], by [of_digits],
   or cut down from deeper stamps by [parent] and [common_ancestor]. *)
let builds ds =
  let rec up s n = if n = 0 then s else up (Option.get (Stamp.parent s)) (n - 1) in
  let below = if ds = [] then [ 7; 1 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  [
    List.fold_left Stamp.child Stamp.root ds;
    Stamp.of_digits ds;
    up (Stamp.of_digits (ds @ below)) (List.length below);
    Stamp.common_ancestor (Stamp.of_digits (ds @ [ 0; 9 ])) (Stamp.of_digits (ds @ [ 1 ]));
  ]

let prop_structural_sound =
  QCheck.Test.make ~count ~name:"= and Hashtbl.hash agree with equal on every build" arb_pair
    (fun (a, b) ->
      List.for_all
        (fun s ->
          List.for_all
            (fun s' ->
              let eq = Stamp.equal s s' in
              eq = (a = b) && (s = s') = eq && ((not eq) || Hashtbl.hash s = Hashtbl.hash s'))
            (builds b))
        (builds a))

(* Words per stamp, header included, on every build: no more than the
   [3 + ceil(d/7)] of a layout with a hash slot and a byte for every digit
   below 256, for byte digits at depths 0-30 and for a request digit a
   whole word wide. *)
let words_per_stamp () =
  let check ds =
    let d = List.length ds in
    List.iter
      (fun s ->
        let words = Obj.reachable_words (Obj.repr s) in
        if words > 3 + ((d + 6) / 7) then
          Alcotest.failf "%s: %d words, more than %d" (Oracle.to_string ds) words (3 + ((d + 6) / 7)))
      (builds ds)
  in
  for d = 0 to 30 do
    let sites = List.init d (fun i -> (37 * i) mod 256) in
    check sites;
    if d > 0 then check ((1 lsl 40) :: List.tl sites)
  done

let suites =
  [
    ( "stamp-prop",
      List.map qtest
        [
          prop_roundtrip; prop_child_digits; prop_depth; prop_is_ancestor; prop_compare;
          prop_equal; prop_common_ancestor; prop_first_diff; prop_hash; prop_hash_deep_and_wide; prop_hash_consistent;
          prop_string_roundtrip; prop_max_digit; prop_parent; prop_wide_refused;
          prop_of_string_wide; prop_structural_sound;
        ]
      @ [ Alcotest.test_case "words per stamp" `Quick words_per_stamp ] );
  ]
