module Profile = Recflow_obs_core.Profile

type result = (Value.t * int, string) Stdlib.result

type entry = { fname : string; args : Value.t array; result : result }

type t = {
  program : Program.t;
  fuel : int option;
  mutable compiled : Eval_serial.compiled option;
  mutable table : entry array;  (** [[||]] until the first call *)
  mutable hits : int;
  mutable misses : int;
}

let slots = 64

(* Never matched: an empty slot is recognised by physical equality, so no
   real key can hit it. *)
let vacant = { fname = ""; args = [||]; result = Error "" }

let create ?fuel program =
  { program; fuel; compiled = None; table = [||]; hits = 0; misses = 0 }

let hits t = t.hits

let misses t = t.misses

(* Multiplicative hashing: the top six bits of the product. *)
let finish h = ((h * 0x2545F4914F6CDD1D) lsr 57) land (slots - 1)

let rec hash_args args i h =
  if i = Array.length args then finish h
  else
    match Array.unsafe_get args i with
    | Value.Int n -> hash_args args (i + 1) ((h * 31) + n)
    | Value.Bool b -> hash_args args (i + 1) ((h * 31) + if b then 0x5bd1 else 0x2a7f)
    | Value.Nil -> hash_args args (i + 1) ((h * 31) + 0x1f35)
    | Value.Cons _ -> -1

let index fname args = hash_args args 0 (Hashtbl.hash fname)

let same_scalar a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Bool x, Value.Bool y -> Bool.equal x y
  | Value.Nil, Value.Nil -> true
  | _ -> false

let rec same_from a b i = i = Array.length a || (same_scalar a.(i) b.(i) && same_from a b (i + 1))

let same_args a b = Array.length a = Array.length b && same_from a b 0

let compiled t =
  match t.compiled with
  | Some c -> c
  | None ->
    let c = Eval_serial.compile t.program in
    t.compiled <- Some c;
    c

let eval_probe = Profile.probe "inline.eval"

let evaluate t fname args : result =
  t.misses <- t.misses + 1;
  Profile.time_probe eval_probe @@ fun () ->
  match Eval_serial.find (compiled t) fname with
  | None -> Error ("call to unknown function " ^ fname)
  | Some fn -> (
    match Eval_serial.apply ?fuel:t.fuel fn args with
    | r -> Ok r
    | exception Eval_serial.Runtime_error msg -> Error msg)

let call t fname args =
  let i = index fname args in
  if i < 0 then evaluate t fname args
  else begin
    if Array.length t.table = 0 then t.table <- Array.make slots vacant;
    let e = Array.unsafe_get t.table i in
    if e != vacant && String.equal e.fname fname && same_args e.args args then begin
      t.hits <- t.hits + 1;
      e.result
    end
    else
      let r = evaluate t fname args in
      (match r with
      | Ok ((Value.Int _ | Value.Bool _ | Value.Nil), _) ->
        t.table.(i) <- { fname; args = Array.copy args; result = r }
      | Ok (Value.Cons _, _) | Error _ -> ());
      r
  end
