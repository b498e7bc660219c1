(* Property suite for the packed level-stamp representation (§3.1).

   The reference implementation here is the original list-of-digits one:
   every operation is re-derived from first principles on plain [int list]
   values (forward order, root first) and cross-checked against the packed
   [Stamp.t] on randomized pairs.  Pairs are generated with a shared-prefix
   bias so the ancestor/common-prefix branches are exercised, not just the
   unrelated fast path. *)

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

(* Mostly realistic fan-out-sized digits, with an occasional digit large
   enough (> 255) to force the packed representation's spill layout, so
   every property also covers the spill and mixed packed/spill paths. *)
let gen_digit =
  QCheck.Gen.(frequency [ (9, int_bound 5); (1, map (fun d -> 250 + d) (int_bound 20)) ])

let gen_digits =
  QCheck.Gen.(
    int_bound 20 >>= fun len ->
    list_size (return len) gen_digit)

(* A pair that shares a prefix with probability ~2/3: either [b] extends
   [a], or both extend a common stem, or they are independent. *)
let gen_pair =
  QCheck.Gen.(
    gen_digits >>= fun a ->
    oneof
      [
        (gen_digits >>= fun ext -> return (a, a @ ext));
        ( gen_digits >>= fun b' ->
          gen_digits >>= fun c -> return (a @ b', a @ c) );
        (gen_digits >>= fun b -> return (a, b));
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

(* Both argument orders, on packed, spill and mixed pairs, from every
   start the two stamps agree below: the packed path finds the first
   differing byte inside a word, and must stop at the shorter depth even
   when the longer stamp's digits beyond it are zero. *)
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
   deeper than the hash's ten-int limit and digits far beyond a byte
   (service request uids), whose tagged value outgrows 32 bits. *)
let prop_hash_deep_and_wide =
  let gen =
    QCheck.Gen.(
      int_bound 40 >>= fun len ->
      list_repeat len
        (frequency [ (6, int_bound 7); (3, int_bound 100_000); (1, int_bound (1 lsl 40)) ]))
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

let suites =
  [
    ( "stamp-prop",
      List.map qtest
        [
          prop_roundtrip; prop_child_digits; prop_depth; prop_is_ancestor; prop_compare;
          prop_equal; prop_common_ancestor; prop_first_diff; prop_hash; prop_hash_deep_and_wide; prop_hash_consistent;
          prop_string_roundtrip; prop_max_digit; prop_parent;
        ] );
  ]
