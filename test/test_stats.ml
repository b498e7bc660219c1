(* Tests for counters, summaries, HDR histograms and table rendering. *)

module Counter = Recflow_stats.Counter
module Hdr = Recflow_stats.Hdr
module Table = Recflow_stats.Table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Counter ---------------- *)

let counter_basic () =
  let s = Counter.create_set () in
  Counter.incr s "a";
  Counter.incr s "a";
  Counter.add s "b" 5;
  check_int "a" 2 (Counter.get s "a");
  check_int "b" 5 (Counter.get s "b");
  check_int "missing is zero" 0 (Counter.get s "nope")

let counter_names_sorted () =
  let s = Counter.create_set () in
  Counter.incr s "zz";
  Counter.incr s "aa";
  Alcotest.(check (list string)) "sorted" [ "aa"; "zz" ] (Counter.names s)

let counter_merge () =
  let a = Counter.create_set () and b = Counter.create_set () in
  Counter.add a "x" 1;
  Counter.add b "x" 2;
  Counter.add b "y" 3;
  let m = Counter.merge a b in
  check_int "x summed" 3 (Counter.get m "x");
  check_int "y carried" 3 (Counter.get m "y");
  check_int "inputs untouched" 1 (Counter.get a "x")

let counter_reset () =
  let s = Counter.create_set () in
  Counter.add s "x" 9;
  Counter.reset s;
  check_int "reset to zero" 0 (Counter.get s "x")

(* Handles: resolved per set on the first bump, sharing the named cell. *)

let handle_untouched_is_invisible () =
  let h = Counter.handle "handle.never" in
  let s = Counter.create_set () in
  Counter.incr s "other";
  ignore h;
  Alcotest.(check (list string)) "names" [ "other" ] (Counter.names s);
  Alcotest.(check (list (pair string int))) "to_alist" [ ("other", 1) ] (Counter.to_alist s);
  check_int "get of an unbumped handle's name" 0 (Counter.get s (Counter.handle_name h))

let handle_shares_named_cell () =
  let h = Counter.handle "handle.shared" in
  let s = Counter.create_set () in
  Counter.incr s "handle.shared";
  Counter.bump s h;
  Counter.bump_by s h 5;
  Counter.incr s "handle.shared";
  Counter.add s "handle.shared" 10;
  check_int "one cell" 18 (Counter.get s "handle.shared");
  Alcotest.(check (list string)) "one name" [ "handle.shared" ] (Counter.names s);
  (* a second set resolves the same handle to its own cell *)
  let t = Counter.create_set () in
  Counter.bump t h;
  check_int "sets are independent" 1 (Counter.get t "handle.shared");
  check_int "first set untouched" 18 (Counter.get s "handle.shared")

(* A handle made after the set exists still resolves (the set's cache
   grows), and [reset] / [merge] see what was bumped through handles. *)
let handle_reset_and_merge () =
  let s = Counter.create_set () in
  let h = Counter.handle "handle.late" in
  Counter.bump_by s h 4;
  let m = Counter.merge s s in
  check_int "merge sees handle counts" 8 (Counter.get m "handle.late");
  Counter.reset s;
  check_int "reset zeroes the handle's cell" 0 (Counter.get s "handle.late");
  Counter.bump s h;
  check_int "handle still bound after reset" 1 (Counter.get s "handle.late")

(* Counter.merge is the primitive the sharded collector folds over; the
   --jobs byte-identical contract rests on it being a pointwise sum that
   is insensitive to shard order and never forgets a touched name. *)

let set_of_alist xs =
  let s = Counter.create_set () in
  List.iter (fun (k, v) -> Counter.add s k v) xs;
  s

let alist_gen =
  QCheck.(list_of_size (Gen.int_range 0 12) (pair (oneofl [ "a"; "bb"; "c.d"; "e"; "f" ]) (int_range (-50) 50)))

let counter_merge_commutative =
  QCheck.Test.make ~name:"Counter.merge commutative up to to_alist" ~count:300
    QCheck.(pair alist_gen alist_gen)
    (fun (xs, ys) ->
      let a = set_of_alist xs and b = set_of_alist ys in
      Counter.to_alist (Counter.merge a b) = Counter.to_alist (Counter.merge b a))

let counter_merge_associative =
  QCheck.Test.make ~name:"Counter.merge associative up to to_alist" ~count:300
    QCheck.(triple alist_gen alist_gen alist_gen)
    (fun (xs, ys, zs) ->
      let a = set_of_alist xs and b = set_of_alist ys and c = set_of_alist zs in
      Counter.to_alist (Counter.merge (Counter.merge a b) c)
      = Counter.to_alist (Counter.merge a (Counter.merge b c)))

let counter_merge_pointwise =
  QCheck.Test.make ~name:"Counter.merge is the pointwise sum" ~count:300
    QCheck.(pair alist_gen alist_gen)
    (fun (xs, ys) ->
      let a = set_of_alist xs and b = set_of_alist ys in
      let m = Counter.merge a b in
      List.for_all
        (fun name -> Counter.get m name = Counter.get a name + Counter.get b name)
        (Counter.names m)
      && List.sort_uniq String.compare (Counter.names a @ Counter.names b) = Counter.names m)

let counter_merge_keeps_zero_names () =
  let a = Counter.create_set () and b = Counter.create_set () in
  Counter.add a "touched.zero" 0;
  Counter.incr b "other";
  let m = Counter.merge a b in
  check "touched-but-zero name survives merge" true
    (List.mem "touched.zero" (Counter.names m));
  check_int "its value is zero" 0 (Counter.get m "touched.zero")

(* ---------------- Hdr ---------------- *)

let hdr_exact_small () =
  (* Below 2^precision every integer has its own bucket: quantiles exact. *)
  let h = Hdr.create ~precision:5 () in
  for v = 0 to 31 do
    Hdr.record h v
  done;
  check_int "count" 32 (Hdr.count h);
  check_int "min" 0 (Hdr.min_value h);
  check_int "max" 31 (Hdr.max_value h);
  check_int "total" (31 * 32 / 2) (Hdr.total h);
  check_float "mean" 15.5 (Hdr.mean h);
  check_int "p50 exact" 15 (Hdr.quantile h 50.0);
  check_int "p100 exact" 31 (Hdr.quantile h 100.0);
  check_int "p0 is min" 0 (Hdr.quantile h 0.0)

let hdr_relative_error =
  QCheck.Test.make ~name:"Hdr bucket width within 2^-precision of the value" ~count:500
    QCheck.(int_range 0 (1 lsl 40))
    (fun v ->
      let h = Hdr.create ~precision:5 () in
      Hdr.record h v;
      match Hdr.to_alist h with
      | [ (lo, hi, 1) ] -> lo <= v && v < hi && hi - lo <= max 1 (v asr 5)
      | _ -> false)

let hdr_quantile_clamped_to_extremes =
  QCheck.Test.make ~name:"Hdr quantile stays within [min,max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 1_000_000))
    (fun vs ->
      let h = Hdr.create () in
      List.iter (Hdr.record h) vs;
      let lo = List.fold_left min max_int vs and hi = List.fold_left max 0 vs in
      List.for_all
        (fun q ->
          let x = Hdr.quantile h q in
          lo <= x && x <= hi)
        [ 0.0; 10.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])

let hdr_negative_invalid () =
  let h = Hdr.create () in
  Hdr.record h (-1);
  Hdr.record h (-999);
  check_int "invalid tally" 2 (Hdr.invalid h);
  check_int "count untouched" 0 (Hdr.count h);
  Hdr.record h 7;
  check_int "valid still counted" 1 (Hdr.count h);
  check_int "p50 of singleton" 7 (Hdr.quantile h 50.0)

let hdr_empty_raises () =
  let h = Hdr.create () in
  check "quantile on empty raises" true
    (try
       ignore (Hdr.quantile h 50.0);
       false
     with Invalid_argument _ -> true);
  check "min on empty raises" true
    (try
       ignore (Hdr.min_value h);
       false
     with Invalid_argument _ -> true);
  check_float "mean of empty" 0.0 (Hdr.mean h);
  Hdr.record h 1;
  check "q out of range raises" true
    (try
       ignore (Hdr.quantile h 100.5);
       false
     with Invalid_argument _ -> true)

let hdr_merge () =
  let a = Hdr.create () and b = Hdr.create () in
  List.iter (Hdr.record a) [ 1; 2; 3 ];
  List.iter (Hdr.record b) [ 1000; 2000 ];
  Hdr.record b (-5);
  let m = Hdr.merge a b in
  check_int "counts sum" 5 (Hdr.count m);
  check_int "invalid sums" 1 (Hdr.invalid m);
  check_int "min combined" 1 (Hdr.min_value m);
  check_int "max combined" 2000 (Hdr.max_value m);
  check_int "inputs untouched" 3 (Hdr.count a);
  check "precision mismatch raises" true
    (try
       ignore (Hdr.merge (Hdr.create ~precision:5 ()) (Hdr.create ~precision:6 ()));
       false
     with Invalid_argument _ -> true)

let hdr_merge_order_independent =
  QCheck.Test.make ~name:"Hdr.merge commutes (same buckets either way)" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 0 30) (int_range 0 100_000))
              (list_of_size (Gen.int_range 0 30) (int_range 0 100_000)))
    (fun (xs, ys) ->
      let build vs =
        let h = Hdr.create () in
        List.iter (Hdr.record h) vs;
        h
      in
      let ab = Hdr.merge (build xs) (build ys) and ba = Hdr.merge (build ys) (build xs) in
      Hdr.to_alist ab = Hdr.to_alist ba
      && Hdr.count ab = List.length xs + List.length ys)

(* A histogram holds slots only up to the highest octave it recorded.
   This model is the eager layout: every slot of all 59 octaves up to
   2^62, allocated at creation, with the nearest-rank quantile clamped to
   the recorded extremes.  Values mix 0, base - 1, 2^40, negatives and
   anything between; merges pair histograms of different lengths. *)
module Eager = struct
  type t = { p : int; counts : int array; mutable vs : int list }

  let base m = 1 lsl m.p

  let create p = { p; counts = Array.make ((1 lsl p) * (64 - p)) 0; vs = [] }

  let index m v =
    if v < base m then v
    else
      let rec msb v acc = if v <= 1 then acc else msb (v lsr 1) (acc + 1) in
      let e = msb v 0 in
      base m + ((e - m.p) * base m) + ((v lsr (e - m.p)) - base m)

  let bounds m i =
    if i < base m then (i, i + 1)
    else
      let e = m.p + ((i - base m) / base m) and sub = (i - base m) mod base m in
      let lo = (base m + sub) lsl (e - m.p) in
      (lo, lo + (1 lsl (e - m.p)))

  let record m v =
    if v >= 0 then begin
      let i = index m v in
      m.counts.(i) <- m.counts.(i) + 1;
      m.vs <- v :: m.vs
    end

  let merge a b =
    let m = create a.p in
    Array.iteri (fun i c -> m.counts.(i) <- a.counts.(i) + c) b.counts;
    m.vs <- a.vs @ b.vs;
    m

  let quantile m q =
    let n = List.length m.vs in
    let rank = max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int n))) in
    let rec find i acc = if acc + m.counts.(i) >= rank then i else find (i + 1) (acc + m.counts.(i)) in
    let v = snd (bounds m (find 0 0)) - 1 in
    let lo = List.fold_left min max_int m.vs and hi = List.fold_left max 0 m.vs in
    if v < lo then lo else if v > hi then hi else v

  let to_alist m =
    List.filter_map
      (fun i ->
        let c = m.counts.(i) in
        if c > 0 then
          let lo, hi = bounds m i in
          Some (lo, hi, c)
        else None)
      (List.init (Array.length m.counts) Fun.id)
end

let hdr_agrees (h : Hdr.t) (m : Eager.t) =
  let n = List.length m.Eager.vs in
  Hdr.count h = n
  && Hdr.total h = List.fold_left ( + ) 0 m.Eager.vs
  && Hdr.to_alist h = Eager.to_alist m
  && (n = 0
     || Hdr.min_value h = List.fold_left min max_int m.Eager.vs
        && Hdr.max_value h = List.fold_left max 0 m.Eager.vs
        && List.for_all (fun q -> Hdr.quantile h q = Eager.quantile m q) [ 0.0; 50.0; 99.0; 100.0 ])

let hdr_matches_eager_model =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun p ->
      let base = 1 lsl p in
      let value hi =
        oneof
          [
            return 0; return (base - 1); return (1 lsl 40); int_range (-5) (-1); int_bound hi;
            int_bound (1 lsl 40);
          ]
      in
      (* the second histogram stays small, so merges pair lengths that differ *)
      map2 (fun xs ys -> (p, xs, ys))
        (list_size (int_bound 40) (value (1 lsl 20)))
        (list_size (int_bound 40) (value (4 * base))))
  in
  QCheck.Test.make ~count:300 ~name:"range-sized Hdr = eager slot array (one, merge both ways)"
    (QCheck.make gen)
    (fun (p, xs, ys) ->
      let build vs =
        let h = Hdr.create ~precision:p () and m = Eager.create p in
        List.iter
          (fun v ->
            Hdr.record h v;
            Eager.record m v)
          vs;
        (h, m)
      in
      let ha, ma = build xs and hb, mb = build ys in
      hdr_agrees ha ma && hdr_agrees hb mb
      && hdr_agrees (Hdr.merge ha hb) (Eager.merge ma mb)
      && hdr_agrees (Hdr.merge hb ha) (Eager.merge mb ma))

(* Live words of a histogram at the default precision: an empty one is
   its record (10 measured), and one whose values stay below 2^14 adds
   the exact slots and nine octaves, 321 words with the array's header
   (330 measured); an eagerly sized one held 1,898 either way. *)
let hdr_sized_by_range () =
  let words h = Obj.reachable_words (Obj.repr h) in
  let h = Hdr.create () in
  let empty = words h in
  List.iter (Hdr.record h) [ 0; 31; 1000; (1 lsl 14) - 1 ];
  let small = words h in
  Printf.printf "Hdr: %d words empty, %d holding values below 2^14\n" empty small;
  if empty > 12 then Alcotest.failf "an empty histogram holds %d words (bound 12)" empty;
  if small > 400 then Alcotest.failf "a histogram of values below 2^14 holds %d words (bound 400)" small

(* ---------------- Table ---------------- *)

let table_rows_and_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "beta"; "22" ];
  Alcotest.(check (list (list string))) "rows" [ [ "alpha"; "1" ]; [ "beta"; "22" ] ] (Table.rows t);
  let rendered = Format.asprintf "%a" Table.pp t in
  check "title present" true (String.length rendered > 0 && String.sub rendered 0 3 = "== ");
  check "contains beta" true
    (String.split_on_char '\n' rendered |> List.exists (fun l -> String.length l > 0 && l.[0] = 'b'))

let table_width_mismatch () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  check "short row rejected" true
    (try
       Table.add_row t [ "only" ];
       false
     with Invalid_argument _ -> true)

let table_csv_escaping () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "has,comma"; "has\"quote" ];
  let csv = Table.to_csv t in
  check "comma quoted" true
    (String.length csv > 0
    && String.split_on_char '\n' csv
       |> List.exists (fun l -> String.length l > 0 && l.[0] = '"'))

let table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float 3.141592);
  Alcotest.(check string) "float decimals" "3.1416" (Table.cell_float ~decimals:4 3.141592);
  Alcotest.(check string) "pct" "12.5%" (Table.cell_pct 0.125)

let suites =
  [
    ( "stats.counter",
      [
        Alcotest.test_case "basic" `Quick counter_basic;
        Alcotest.test_case "names sorted" `Quick counter_names_sorted;
        Alcotest.test_case "untouched handle invisible" `Quick handle_untouched_is_invisible;
        Alcotest.test_case "handle shares named cell" `Quick handle_shares_named_cell;
        Alcotest.test_case "handle reset and merge" `Quick handle_reset_and_merge;
        Alcotest.test_case "merge" `Quick counter_merge;
        Alcotest.test_case "reset" `Quick counter_reset;
        Alcotest.test_case "merge keeps zero names" `Quick counter_merge_keeps_zero_names;
        qtest counter_merge_commutative;
        qtest counter_merge_associative;
        qtest counter_merge_pointwise;
      ] );
    ( "stats.hdr",
      [
        Alcotest.test_case "exact below 2^precision" `Quick hdr_exact_small;
        Alcotest.test_case "negative is invalid" `Quick hdr_negative_invalid;
        Alcotest.test_case "empty and range errors" `Quick hdr_empty_raises;
        Alcotest.test_case "merge" `Quick hdr_merge;
        qtest hdr_relative_error;
        qtest hdr_quantile_clamped_to_extremes;
        qtest hdr_merge_order_independent;
        qtest hdr_matches_eager_model;
        Alcotest.test_case "sized by recorded range" `Quick hdr_sized_by_range;
      ] );
    ( "stats.table",
      [
        Alcotest.test_case "rows and render" `Quick table_rows_and_render;
        Alcotest.test_case "width mismatch" `Quick table_width_mismatch;
        Alcotest.test_case "csv escaping" `Quick table_csv_escaping;
        Alcotest.test_case "cells" `Quick table_cells;
      ] );
  ]
