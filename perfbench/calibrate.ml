(* Host-speed calibration.  A fixed kernel that shares no code with the
   program under test — a pointer chase through 32 MB outside the OCaml
   heap, hashtable churn and a list sort, the same mix of memory latency,
   allocation and compute the simulator has — is timed between iterations.
   Host-time metrics are scaled by [reference_s] over its median time in
   the same run, so a neighbour that slows the whole host for a while moves
   them much less than it moves raw seconds, while a change to the program
   moves them fully. *)

let reference_s = 0.08

(* One cycle through all slots (Sattolo's shuffle), so the chase cannot
   settle into a short loop that fits in cache. *)
let ring =
  lazy
    (let n = 1 lsl 22 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     let st = ref 0x2545f491 in
     for i = n - 1 downto 1 do
       st := ((!st * 1103515245) + 12345) land 0x3fffffff;
       let j = !st mod i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

(* Seconds the kernel takes now. *)
let run () =
  let a = Lazy.force ring in
  let t0 = Unix.gettimeofday () in
  let p = ref 0 in
  for _ = 1 to 400_000 do
    p := a.{!p}
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 49_999 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  let l = List.sort compare (List.init 50_000 (fun i -> i * 7919 mod 100_003)) in
  ignore (Sys.opaque_identity (!p + Hashtbl.length h + List.length l));
  Unix.gettimeofday () -. t0
