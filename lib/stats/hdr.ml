(* Log-bucketed (HDR-style) histogram over non-negative integer durations.

   Layout: values below [base = 2^precision] land in their own exact slot;
   above that, each power-of-two octave is split into [base] linear
   sub-buckets, so relative error is bounded by 2^-precision everywhere.
   The slots come in groups of [base]: the exact values, then one group per
   octave.  [counts] holds the groups up to the highest one recorded and
   grows a group at a time, so a histogram of small latencies keeps a few
   hundred words instead of a slot for every octave up to 2^62 (1,888 at
   the default precision), and a record allocates only when its value
   lands past every octave seen.  The index
   arithmetic is branch-light, which is what lets the machine layer record
   every RTT / sojourn / detection latency without showing up in
   profiles. *)

type t = {
  precision : int;  (* sub-bucket bits; relative error <= 2^-precision *)
  base : int;  (* 1 lsl precision *)
  mutable counts : int array;  (* [||] until the first valid value *)
  mutable n : int;
  mutable sum : int;
  mutable minv : int;  (* max_int when empty *)
  mutable maxv : int;  (* -1 when empty *)
  mutable invalid : int;
}

let create ?(precision = 5) () =
  if precision < 1 || precision > 14 then
    invalid_arg "Hdr.create: precision must be in [1, 14]";
  {
    precision;
    base = 1 lsl precision;
    counts = [||];
    n = 0;
    sum = 0;
    minv = max_int;
    maxv = -1;
    invalid = 0;
  }

let precision t = t.precision

(* Position of the highest set bit of [v > 0]. *)
let msb v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let index_of t v =
  if v < t.base then v
  else begin
    let e = msb v in
    let sub = (v lsr (e - t.precision)) - t.base in
    t.base + ((e - t.precision) * t.base) + sub
  end

(* Half-open value range [lo, hi) covered by slot [i]. *)
let bucket_bounds t i =
  if i < t.base then (i, i + 1)
  else begin
    let e = t.precision + ((i - t.base) / t.base) in
    let sub = (i - t.base) mod t.base in
    let lo = (t.base + sub) lsl (e - t.precision) in
    (lo, lo + (1 lsl (e - t.precision)))
  end

(* Room for slot [i]: the groups up to and including its own. *)
let grow t i =
  let a = Array.make (((i lsr t.precision) + 1) lsl t.precision) 0 in
  Array.blit t.counts 0 a 0 (Array.length t.counts);
  t.counts <- a

let record t v =
  if v < 0 then t.invalid <- t.invalid + 1
  else begin
    let i = index_of t v in
    if i >= Array.length t.counts then grow t i;
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v
  end

let count t = t.n

let invalid t = t.invalid

let total t = t.sum

let min_value t = if t.n = 0 then invalid_arg "Hdr.min_value: empty" else t.minv

let max_value t = if t.n = 0 then invalid_arg "Hdr.max_value: empty" else t.maxv

let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

(* Nearest-rank quantile: the value [hi - 1] of the bucket holding the
   ceil(q/100 * n)-th sample, clamped to the recorded min/max so exact
   extremes come back exact. *)
let quantile t q =
  if t.n = 0 then invalid_arg "Hdr.quantile: empty";
  if q < 0.0 || q > 100.0 then invalid_arg "Hdr.quantile: q outside [0, 100]";
  let rank = int_of_float (ceil (q /. 100.0 *. float_of_int t.n)) in
  let rank = if rank < 1 then 1 else rank in
  let acc = ref 0 and found = ref (-1) and i = ref 0 in
  let slots = Array.length t.counts in
  while !found < 0 && !i < slots do
    acc := !acc + t.counts.(!i);
    if !acc >= rank then found := !i;
    incr i
  done;
  let _, hi = bucket_bounds t !found in
  let v = hi - 1 in
  if v < t.minv then t.minv else if v > t.maxv then t.maxv else v

let merge a b =
  if a.precision <> b.precision then invalid_arg "Hdr.merge: precision mismatch";
  let out = create ~precision:a.precision () in
  out.counts <- Array.make (max (Array.length a.counts) (Array.length b.counts)) 0;
  let blend s =
    Array.iteri (fun i c -> out.counts.(i) <- out.counts.(i) + c) s.counts;
    out.n <- out.n + s.n;
    out.sum <- out.sum + s.sum;
    if s.minv < out.minv then out.minv <- s.minv;
    if s.maxv > out.maxv then out.maxv <- s.maxv;
    out.invalid <- out.invalid + s.invalid
  in
  blend a;
  blend b;
  out

let to_alist t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bucket_bounds t i in
      acc := (lo, hi, t.counts.(i)) :: !acc
    end
  done;
  !acc

let pp ?(width = 40) ppf t =
  if t.n = 0 then Format.fprintf ppf "(empty)@."
  else begin
    let rows = to_alist t in
    let peak = List.fold_left (fun m (_, _, c) -> max m c) 1 rows in
    List.iter
      (fun (lo, hi, c) ->
        Format.fprintf ppf "[%10d, %10d) %8d %s@." lo hi c (String.make (c * width / peak) '#'))
      rows;
    Format.fprintf ppf "n=%d mean=%.1f p50=%d p99=%d max=%d@." t.n (mean t) (quantile t 50.0)
      (quantile t 99.0) t.maxv
  end
