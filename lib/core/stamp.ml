(* Packed representation.  A stamp is one int array in one canonical
   layout:

     s.(0)   depth [d]
     s.(1)   digit 0, any non-negative int (absent at the root)
     s.(2..) digits 1 .. d-1, seven bytes to a word, big-endian within the
             word (digit [i >= 1] sits at bit 8*(6 - (i-1) mod 7) of word
             [2 + (i-1)/7]); unused trailing bytes are zero

   Digit 0 is the request uid in service mode and the root call's site in
   a batch run, so it gets a whole word.  Every deeper digit is a call-site
   number below its function's static fan-out bound, which
   [Program.of_defs] keeps to at most 256 call sites, so it fits a byte:
   [child] and [of_digits] reject a larger one.  The comparison loops touch
   [1 + ceil((d-1)/7)] words instead of [d] list cells, and construction is
   one small allocation.  Big-endian byte order makes word comparison agree
   with lexicographic digit comparison, and zero padding is harmless
   because depth disambiguates (words equal, then the shorter stamp is the
   prefix).

   Every digit string has exactly one array and no slot changes after
   construction, so polymorphic equality and [Hashtbl.hash] on stamps are
   sound.  [Stdlib.compare] is not an order on them (it looks at array
   length first); [compare] below is. *)

type t = int array

let root = [| 0 |]

let[@inline] depth (s : t) = Array.unsafe_get s 0

let[@inline] digit s i =
  if i < 0 || i >= depth s then invalid_arg "index out of bounds";
  if i = 0 then Array.unsafe_get s 1
  else (Array.unsafe_get s (2 + ((i - 1) / 7)) lsr (8 * (6 - ((i - 1) mod 7)))) land 0xff

(* The leading [r] bytes (0 < r < 7) of a packed word. *)
let[@inline] top_bytes r = ((1 lsl (8 * r)) - 1) lsl (8 * (7 - r))

(* Index of the first nonzero digit-byte of a nonzero xor of two packed
   words: byte [k] sits at bit [8 * (6 - k)]. *)
let rec first_byte x k = if (x lsr (8 * (6 - k))) land 0xff <> 0 then k else first_byte x (k + 1)

(* Word [j] holds digits [1 + 7 * (j - 2)] on; both stamps have it while
   that index is below [n], the smaller depth.  A top-level recursion over
   explicit arguments, so a call allocates no closure. *)
let rec diff_words a b n j =
  let i = 1 + (7 * (j - 2)) in
  if i >= n then n
  else begin
    let x = Array.unsafe_get a j lxor Array.unsafe_get b j in
    if x = 0 then diff_words a b n (j + 1)
    else
      let i = i + first_byte x 0 in
      if i < n then i else n
  end

(* Digits below [from] agree, so the scan starts at the word holding it. *)
let first_diff_from a b from =
  let da = depth a and db = depth b in
  let n = if da < db then da else db in
  if n = 0 then 0
  else if from = 0 then
    if Array.unsafe_get a 1 <> Array.unsafe_get b 1 then 0 else diff_words a b n 2
  else diff_words a b n (2 + ((from - 1) / 7))

let digits s =
  let rec go i acc = if i < 0 then acc else go (i - 1) (digit s i :: acc) in
  go (depth s - 1) []

let child s k =
  if k < 0 then invalid_arg "Stamp.child: negative digit";
  match depth s with
  | 0 -> [| 1; k |]
  | d ->
    if k > 0xff then invalid_arg (Printf.sprintf "Stamp.child: digit %d above 255 below depth 1" k);
    let p = d - 1 in
    if p mod 7 = 0 then
      (* The new digit opens a fresh word.  Common cases build as array
         literals, which ocamlopt allocates inline; [Array.make] is a C
         call per stamp. *)
      match s with
      | [| _; d0 |] -> [| 2; d0; k lsl 48 |]
      | [| _; d0; w0 |] -> [| d + 1; d0; w0; k lsl 48 |]
      | [| _; d0; w0; w1 |] -> [| d + 1; d0; w0; w1; k lsl 48 |]
      | s ->
        let n = Array.length s in
        let a = Array.make (n + 1) (k lsl 48) in
        Array.blit s 1 a 1 (n - 1);
        a.(0) <- d + 1;
        a
    else begin
      let j = Array.length s - 1 in
      let nw = Array.unsafe_get s j lor (k lsl (8 * (6 - (p mod 7)))) in
      match s with
      | [| _; d0; _ |] -> [| d + 1; d0; nw |]
      | [| _; d0; w0; _ |] -> [| d + 1; d0; w0; nw |]
      | [| _; d0; w0; w1; _ |] -> [| d + 1; d0; w0; w1; nw |]
      | s ->
        let a = Array.copy s in
        a.(0) <- d + 1;
        a.(j) <- nw;
        a
    end

let of_digits ds = List.fold_left child root ds

(* First [l] digits of [s]; [0 <= l <= depth s]. *)
let prefix s l =
  if l = 0 then root
  else if l = depth s then s
  else begin
    let nw = (l + 5) / 7 in
    let a = Array.sub s 0 (nw + 2) in
    a.(0) <- l;
    let r = (l - 1) mod 7 in
    if r > 0 then a.(nw + 1) <- a.(nw + 1) land top_bytes r;
    a
  end

let parent s = match depth s with 0 -> None | d -> Some (prefix s (d - 1))

(* Equal depths mean equal lengths; the deepest word is compared first. *)
let equal a b =
  a == b
  || depth a = depth b
     && (let rec eq j = j = 0 || (Array.unsafe_get a j = Array.unsafe_get b j && eq (j - 1)) in
         eq (Array.length a - 1))

(* Lexicographic on forward digits; a proper prefix sorts first — the same
   order [Stdlib.compare] gives on forward digit lists.  Digit 0 is a plain
   int, and packed words are positive ints, so [Stdlib.compare] on them is
   an unsigned byte-string comparison, i.e. exactly digit-lexicographic;
   zero padding ties are broken by depth. *)
let compare a b =
  let wa = Array.length a and wb = Array.length b in
  let n = if wa < wb then wa else wb in
  let rec go j =
    if j = n then Stdlib.compare (depth a) (depth b)
    else
      let x = Array.unsafe_get a j and y = Array.unsafe_get b j in
      if x = y then go (j + 1) else Stdlib.compare x y
  in
  go 1

(* [a] proper prefix of [b]: digit 0 and the full packed words of [a]
   match, and so do the leading [(depth a - 1) mod 7] bytes of its final
   partial word. *)
let is_ancestor a b =
  let da = depth a in
  da < depth b
  && (da = 0
     ||
     let q = (da - 1) / 7 and r = (da - 1) mod 7 in
     let rec words j = j = q + 2 || (Array.unsafe_get a j = Array.unsafe_get b j && words (j + 1)) in
     words 1
     && (r = 0
        || (Array.unsafe_get a (q + 2) lxor Array.unsafe_get b (q + 2)) land top_bytes r = 0))

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
        | Some d when d >= 0 && (acc = [] || d <= 0xff) -> go (d :: acc) rest
        | Some d when d >= 0 ->
          Error (Printf.sprintf "stamp digit %d above 255 below depth 1 in %S" d str)
        | _ -> Error (Printf.sprintf "bad stamp digit %S in %S" p str))
    in
    go [] parts

let pp ppf s = Format.pp_print_string ppf (to_string s)

(* [hash] must stay *value-identical* to the historical
   [Hashtbl.hash (digits s)]: processor-placement keys are derived from it
   (node spawn/respawn, super-root dispatch), so changing the hash function
   would re-route tasks and break journal replay compatibility. *)
let mask32 = 0xffff_ffff

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* One MurmurHash3 mixing step of the runtime's [caml_hash] on 32-bit
   words, in OCaml ints masked to 32 bits: the word is scrambled, then
   mixed into the state. *)
let[@inline] scramble d = (rotl32 ((d * 0xcc9e2d51) land mask32) 15 * 0x1b873593) land mask32

let[@inline] mix_scrambled h k = ((rotl32 (h lxor k) 13 * 5) + 0xe6546b64) land mask32

let[@inline] mix h d = mix_scrambled h (scramble d)

(* [caml_hash_mix_intnat] of the tagged int [2k + 1]: its low 32 bits
   folded with the high ones. *)
let[@inline] mix_int h k =
  let v = (2 * k) + 1 in
  mix h (((v asr 32) lxor v) land mask32)

(* The header word of a cons cell (size 2, tag 0, colour bits clear),
   scrambled once: every digit mixes it first. *)
let cons_header = scramble (2 lsl 10)

(* [Hashtbl.hash (digits s)] without building the list.  [caml_hash]
   walks the list breadth-first: each cell mixes its header, then its
   digit; the [[]] ending a short list mixes as the int 0.  It stops after
   ten ints ([Hashtbl.hash]'s meaningful limit), so deep stamps hash by
   their first ten digits: digit 0's word, then the bytes of the packed
   words, read in place.  Computed on demand: a stamp is hashed about
   once (placing its task), so a cache would buy nothing. *)
let hash s =
  let d = depth s in
  let n = if d < 10 then d else 10 in
  let h = ref 0 in
  if n > 0 then h := mix_int (mix_scrambled 0 cons_header) (Array.unsafe_get s 1);
  let i = ref 1 and j = ref 2 in
  while !i < n do
    let w = Array.unsafe_get s !j and shift = ref 48 in
    while !i < n && !shift >= 0 do
      h := mix_int (mix_scrambled !h cons_header) ((w lsr !shift) land 0xff);
      shift := !shift - 8;
      incr i
    done;
    incr j
  done;
  let h = if n < 10 then mix_int !h 0 else !h in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land mask32 in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land mask32 in
  let h = h lxor (h lsr 16) in
  h land 0x3fff_ffff
