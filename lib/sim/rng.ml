(* The 64-bit state lives in an 8-byte buffer read and written through the
   unboxed [%caml_bytes_get64u] / [%caml_bytes_set64u] primitives, so a
   draw is int64 arithmetic on registers: nothing is boxed, no closure is
   built, and [int] and [bool] allocate nothing at all.  (A [mutable
   state : int64] field boxes every new state, and returning an [int64]
   from a non-inlined call boxes it again.)  The byte order is the host's;
   the state never leaves the process, and [copy]/[split] move it whole. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (Int64.mul (Int64.of_int (seed + 1)) golden_gamma)

let copy t = Bytes.copy t

(* Advance the state and return the finalization mix of splitmix64 (two
   xor-shift-multiply rounds) of the new state.  Inlined into every draw
   below, so the int64 never crosses a call boundary and is never boxed. *)
let[@inline] next_int64 t =
  let z = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

(* One raw draw shifted down to 62 bits: the value fits OCaml's tagged int
   (a 63-bit value would not, and [Int64.to_int] would wrap it negative). *)
let[@inline] draw62 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling: [r mod bound] alone over-represents the first
     [2^62 mod bound] residues, so draws at or above the largest multiple
     of [bound] below 2^62 are re-drawn.  For realistic bounds the accept
     region is nearly all of the range, so this almost never costs an
     extra draw and the emitted stream matches the biased one except on
     the (astronomically rare) rejected draws.  The limit is
     [floor (2^62 / bound) * bound], computed without the unrepresentable
     2^62 = [max_int + 1]: [max_int / bound] is one short exactly when
     [bound] divides 2^62. *)
  let q = max_int / bound in
  let q = if max_int - (q * bound) + 1 = bound then q + 1 else q in
  (* When [bound] divides 2^62 (1 or a power of two) the limit is 2^62
     itself, which wraps negative here: every 62-bit draw is accepted,
     which [limit <= 0] encodes. *)
  let limit = q * bound in
  let r = ref (draw62 t) in
  while limit > 0 && !r >= limit do
    r := draw62 t
  done;
  !r mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform mantissa bits, scaled to [0, bound). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
