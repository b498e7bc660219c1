(* Packed representation.  The original implementation was a reversed
   [int list]; every comparison-shaped operation (is_ancestor, compare,
   common_ancestor, hash) had to allocate a full reversed copy of both
   stamps before looking at a single digit.  A stamp is now a single int
   array:

     s.(0)          cached structural hash, -1 until first demanded
     s.(1) = d >= 0 packed layout: depth is [d] and slots 2.. hold
                    ceil(d/7) words of seven digit-bytes each, big-endian
                    within the word (digit [i] sits at bit 8*(6 - i mod 7)
                    of word [2 + i/7]); unused trailing bytes are zero
     s.(1) < 0      spill layout for stamps with a digit > 255: depth is
                    [-s.(1) - 1] and slots 2.. hold the digits verbatim

   Below depth 1, digits are call-site numbers bounded by the static
   fan-out, so seven bytes per word captures every stamp a batch program
   makes: the comparison loops touch ceil(depth/7) words instead of
   [depth] list cells, and construction is one small allocation.  In
   service mode the depth-1 digit is the request uid, so from the 257th
   request on a request's stamps take the spill layout.  Big-endian byte order
   makes word comparison agree with lexicographic digit comparison, and
   zero padding is harmless because depth disambiguates (words equal, then
   the shorter stamp is the prefix).  Operations between two packed stamps
   take the word-wise fast paths below; anything touching a spill stamp
   falls back to generic per-digit loops, so the two layouts never need to
   be canonical with respect to each other.

   Invariant: slots 1.. are never mutated after construction.  Slot 0 is
   lazily filled (see [hash]); nothing outside this module may observe it,
   so [t] must never meet polymorphic equality/hash — [equal]/[compare]/
   [hash] below are the only lawful comparisons. *)

type t = int array

let root = [| -1; 0 |]

let[@inline] depth s =
  let d = Array.unsafe_get s 1 in
  if d >= 0 then d else -d - 1

let[@inline] digit s i =
  if i < 0 || i >= depth s then invalid_arg "index out of bounds";
  let d = Array.unsafe_get s 1 in
  if d >= 0 then (Array.unsafe_get s (2 + (i / 7)) lsr (8 * (6 - (i mod 7)))) land 0xff
  else Array.unsafe_get s (2 + i)

(* Index of the first nonzero digit-byte of a nonzero xor of two packed
   words: digit [k] sits at bit [8 * (6 - k)]. *)
let rec first_byte x k = if (x lsr (8 * (6 - k))) land 0xff <> 0 then k else first_byte x (k + 1)

(* Word [j] holds digits [7 * (j - 2)] on; both stamps have it while that
   index is below [n], the smaller depth.  Top-level recursions over
   explicit arguments, so a call allocates no closure. *)
let rec diff_words a b n j =
  let i = 7 * (j - 2) in
  if i >= n then n
  else begin
    let x = Array.unsafe_get a j lxor Array.unsafe_get b j in
    if x = 0 then diff_words a b n (j + 1)
    else begin
      let i = i + first_byte x 0 in
      if i < n then i else n
    end
  end

let rec diff_digits a b n i =
  if i < n && digit a i = digit b i then diff_digits a b n (i + 1) else i

(* Digits below [from] agree, so the scan starts at the word holding it. *)
let first_diff_from a b from =
  let da = Array.unsafe_get a 1 and db = Array.unsafe_get b 1 in
  if da >= 0 && db >= 0 then diff_words a b (if da < db then da else db) (2 + (from / 7))
  else begin
    let n = min (depth a) (depth b) in
    diff_digits a b n (min from n)
  end

let digits s =
  let rec go i acc = if i < 0 then acc else go (i - 1) (digit s i :: acc) in
  go (depth s - 1) []

(* Spill stamp holding the digits of [s] (any layout) plus appended [k]. *)
let spill_child s k =
  let d = depth s in
  let a = Array.make (d + 3) k in
  a.(0) <- -1;
  a.(1) <- -(d + 1) - 1;
  for i = 0 to d - 1 do
    a.(2 + i) <- digit s i
  done;
  a

let child s k =
  if k < 0 then invalid_arg "Stamp.child: negative digit";
  let d = Array.unsafe_get s 1 in
  if d >= 0 && k <= 0xff then
    if d mod 7 = 0 then
      (* The new digit opens a fresh word.  Common cases build as array
         literals, which ocamlopt allocates inline; [Array.make] is a C
         call per stamp. *)
      match s with
      | [| _; _ |] -> [| -1; 1; k lsl 48 |]
      | [| _; _; w0 |] -> [| -1; d + 1; w0; k lsl 48 |]
      | [| _; _; w0; w1 |] -> [| -1; d + 1; w0; w1; k lsl 48 |]
      | [| _; _; w0; w1; w2 |] -> [| -1; d + 1; w0; w1; w2; k lsl 48 |]
      | s ->
        let n = Array.length s in
        let a = Array.make (n + 1) (k lsl 48) in
        Array.blit s 2 a 2 (n - 2);
        a.(0) <- -1;
        a.(1) <- d + 1;
        a
    else begin
      let j = Array.length s - 1 in
      let nw = Array.unsafe_get s j lor (k lsl (8 * (6 - (d mod 7)))) in
      match s with
      | [| _; _; _ |] -> [| -1; d + 1; nw |]
      | [| _; _; w0; _ |] -> [| -1; d + 1; w0; nw |]
      | [| _; _; w0; w1; _ |] -> [| -1; d + 1; w0; w1; nw |]
      | [| _; _; w0; w1; w2; _ |] -> [| -1; d + 1; w0; w1; w2; nw |]
      | s ->
        let a = Array.copy s in
        a.(0) <- -1;
        a.(1) <- d + 1;
        a.(j) <- nw;
        a
    end
  else spill_child s k

let of_digits ds =
  List.iter (fun d -> if d < 0 then invalid_arg "Stamp.of_digits: negative digit") ds;
  match List.length ds with
  | 0 -> root
  | d when List.for_all (fun k -> k <= 0xff) ds ->
    let a = Array.make (((d + 6) / 7) + 2) 0 in
    a.(0) <- -1;
    a.(1) <- d;
    List.iteri
      (fun i k ->
        let j = 2 + (i / 7) in
        a.(j) <- a.(j) lor (k lsl (8 * (6 - (i mod 7)))))
      ds;
    a
  | d ->
    let a = Array.make (d + 2) 0 in
    a.(0) <- -1;
    a.(1) <- -d - 1;
    List.iteri (fun i k -> a.(2 + i) <- k) ds;
    a

(* First [l] digits of [s]; [0 <= l <= depth s]. *)
let prefix s l =
  if l = 0 then root
  else if l = depth s then s
  else if Array.unsafe_get s 1 >= 0 then begin
    let nw = (l + 6) / 7 in
    let a = Array.make (nw + 2) 0 in
    a.(0) <- -1;
    a.(1) <- l;
    Array.blit s 2 a 2 nw;
    let r = l mod 7 in
    if r > 0 then a.(nw + 1) <- a.(nw + 1) land (((1 lsl (8 * r)) - 1) lsl (8 * (7 - r)));
    a
  end
  else begin
    let a = Array.make (l + 2) 0 in
    a.(0) <- -1;
    a.(1) <- -l - 1;
    Array.blit s 2 a 2 l;
    a
  end

let parent s = match depth s with 0 -> None | d -> Some (prefix s (d - 1))

(* Generic per-digit fallbacks, lawful for any layout mix. *)

let slow_equal a b =
  let d = depth a in
  depth b = d
  && (let rec eq i = i = d || (digit a i = digit b i && eq (i + 1)) in
      eq 0)

let slow_compare a b =
  let da = depth a and db = depth b in
  let n = if da < db then da else db in
  let rec go i =
    if i = n then Stdlib.compare da db
    else
      let c = Stdlib.compare (digit a i) (digit b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let slow_is_ancestor a b =
  let da = depth a in
  da < depth b
  && (let rec pre i = i = da || (digit a i = digit b i && pre (i + 1)) in
      pre 0)

let equal a b =
  a == b
  ||
  let da = Array.unsafe_get a 1 and db = Array.unsafe_get b 1 in
  if da >= 0 && db >= 0 then
    da = db
    && (let rec eq j =
          j = 1 || (Array.unsafe_get a j = Array.unsafe_get b j && eq (j - 1))
        in
        eq (Array.length a - 1))
  else slow_equal a b

(* Lexicographic on forward digits; a proper prefix sorts first — the same
   order [Stdlib.compare] gave on forward digit lists.  Packed words are
   positive ints, so [Stdlib.compare] on them is an unsigned byte-string
   comparison, i.e. exactly digit-lexicographic; zero padding ties are
   broken by depth. *)
let compare a b =
  let da = Array.unsafe_get a 1 and db = Array.unsafe_get b 1 in
  if da >= 0 && db >= 0 then begin
    let wa = Array.length a and wb = Array.length b in
    let n = if wa < wb then wa else wb in
    let rec go j =
      if j = n then Stdlib.compare da db
      else
        let x = Array.unsafe_get a j and y = Array.unsafe_get b j in
        if x = y then go (j + 1) else Stdlib.compare x y
    in
    go 2
  end
  else slow_compare a b

(* [a] proper prefix of [b]: the full words of [a] match and the leading
   [depth a mod 7] bytes of its final partial word match. *)
let is_ancestor a b =
  let da = Array.unsafe_get a 1 and db = Array.unsafe_get b 1 in
  if da >= 0 && db >= 0 then
    da < db
    && (let q = da / 7 and r = da mod 7 in
        let rec words j =
          j = q + 2 || (Array.unsafe_get a j = Array.unsafe_get b j && words (j + 1))
        in
        words 2
        && (r = 0
            || (Array.unsafe_get a (q + 2) lxor Array.unsafe_get b (q + 2))
                 land (((1 lsl (8 * r)) - 1) lsl (8 * (7 - r)))
               = 0))
  else slow_is_ancestor a b

let is_descendant a b = is_ancestor b a

let related a b = equal a b || is_ancestor a b || is_ancestor b a

let common_ancestor a b =
  let da = depth a and db = depth b in
  let l = first_diff_from a b 0 in
  if l = da then a else if l = db then b else prefix a l

let max_digit s =
  match depth s with
  | 0 -> None
  | d ->
    let rec go i m = if i = d then m else go (i + 1) (max m (digit s i)) in
    Some (go 0 0)

let to_string s =
  match depth s with
  | 0 -> "\xce\xb5" (* ε *)
  | d ->
    let buf = Buffer.create (2 * d) in
    for i = 0 to d - 1 do
      if i > 0 then Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int (digit s i))
    done;
    Buffer.contents buf

let of_string str =
  if str = "\xce\xb5" || str = "" then Ok root
  else
    let parts = String.split_on_char '.' str in
    let rec go acc = function
      | [] -> Ok (of_digits (List.rev acc))
      | p :: rest -> (
        match int_of_string_opt p with
        | Some d when d >= 0 -> go (d :: acc) rest
        | _ -> Error (Printf.sprintf "bad stamp digit %S in %S" p str))
    in
    go [] parts

let pp ppf s = Format.pp_print_string ppf (to_string s)

(* Slot 0 < 0 means not yet computed: [child] must not pay for a hash the
   stamp may never need.  The value, once computed, must stay
   *value-identical* to the historical [Hashtbl.hash (digits s)]:
   processor-placement keys are derived from it (node spawn/respawn,
   super-root dispatch), so changing the hash function would re-route tasks
   and break journal replay compatibility.  ([Hashtbl.hash] is
   non-negative, so -1 is a safe sentinel; the fill-in is idempotent,
   making a racy duplicate computation benign.) *)
let mask32 = 0xffff_ffff

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* One MurmurHash3 mixing step of the runtime's [caml_hash] on 32-bit
   words, in OCaml ints masked to 32 bits. *)
let mix h d =
  let d = (rotl32 ((d * 0xcc9e2d51) land mask32) 15 * 0x1b873593) land mask32 in
  ((rotl32 (h lxor d) 13 * 5) + 0xe6546b64) land mask32

(* [caml_hash_mix_intnat] of the tagged int [2k + 1]: its low 32 bits
   folded with the high ones. *)
let mix_int h k =
  let v = (2 * k) + 1 in
  mix h (((v asr 32) lxor v) land mask32)

(* The header word of a cons cell (size 2, tag 0, colour bits clear). *)
let cons_header = 2 lsl 10

(* [Hashtbl.hash (digits s)] without building the list.  [caml_hash]
   walks the list breadth-first: each cell mixes its header, then its
   digit; the [[]] ending a short list mixes as the int 0.  It stops after
   ten ints ([Hashtbl.hash]'s meaningful limit), so deep stamps hash by
   their first ten digits. *)
let hash_digits s =
  let d = depth s in
  let n = min d 10 in
  let h = ref 0 in
  for i = 0 to n - 1 do
    h := mix_int (mix !h cons_header) (digit s i)
  done;
  let h = if n < 10 then mix_int !h 0 else !h in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land mask32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land mask32 in
  let h = h lxor (h lsr 16) in
  h land 0x3fff_ffff

let hash s =
  let h = Array.unsafe_get s 0 in
  if h >= 0 then h
  else begin
    let h = hash_digits s in
    Array.unsafe_set s 0 h;
    h
  end
