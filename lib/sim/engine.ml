(* The event queue is an inline binary heap over a plain [int array] of
   *packed priorities* — [(at lsl seq_bits) lor seq] — with payloads in a
   parallel array: scheduling allocates nothing beyond the payload itself,
   and a sift step is one unboxed [int] compare.

   Packing preserves the dispatch order exactly: keys compare first by
   timestamp and then by scheduling sequence (FIFO among same-instant
   events), because [seq] occupies the low [seq_bits] bits and is strictly
   monotone.  The packable ranges — times up to 2^34 ticks (hours of
   simulated microseconds) and 2^28 events per engine (the X8 scale sweep
   pushes past 2^26 even with batched delivery) — are orders of magnitude
   above anything else the experiments reach and are enforced with
   [invalid_arg] rather than silent wraparound.

   The payload store is an [Obj.t array] rather than an ['a array] so
   vacated slots can be overwritten with an immediate junk value
   ([dummy]): with a plain polymorphic array there is no value of type ['a]
   to clear with, and a popped event (task packet, message) would stay
   reachable until its slot was reused.  The array is created from
   [dummy], never from a payload, so it is never a flat float array and
   the [Obj.repr]/[Obj.obj] round-trip is representation-safe even for
   float payloads. *)

type time = int

module Profile = Recflow_obs_core.Profile

let seq_bits = 28

let seq_limit = 1 lsl seq_bits

let max_time = max_int lsr seq_bits

let dummy = Obj.repr 0

(* Clusters schedule hundreds of events within the first few ticks;
   starting at a real capacity avoids the doubling ladder on every run. *)
let initial_capacity = 256

type 'a t = {
  mutable keys : int array;  (* packed [(at lsl seq_bits) lor seq] *)
  mutable payloads : Obj.t array;  (* parallel to [keys] *)
  mutable size : int;
  mutable clock : time;
  mutable next_seq : int;
  mutable stopping : bool;
  mutable dispatched : int;
}

let create () =
  {
    keys = Array.make initial_capacity 0;
    payloads = Array.make initial_capacity dummy;
    size = 0;
    clock = 0;
    next_seq = 0;
    stopping = false;
    dispatched = 0;
  }

let now t = t.clock

let pending t = t.size

let grow t =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let ncap = cap * 2 in
    let nkeys = Array.make ncap 0 and npayloads = Array.make ncap dummy in
    Array.blit t.keys 0 nkeys 0 t.size;
    Array.blit t.payloads 0 npayloads 0 t.size;
    t.keys <- nkeys;
    t.payloads <- npayloads
  end

(* Halve the store once it is three-quarters junk (never below the initial
   capacity), so a drained queue does not pin its high-water mark. *)
let shrink t =
  let cap = Array.length t.keys in
  if cap > initial_capacity && t.size <= cap / 4 then begin
    let ncap = cap / 2 in
    let nkeys = Array.make ncap 0 and npayloads = Array.make ncap dummy in
    Array.blit t.keys 0 nkeys 0 t.size;
    Array.blit t.payloads 0 npayloads 0 t.size;
    t.keys <- nkeys;
    t.payloads <- npayloads
  end

let swap t i j =
  let ki = Array.unsafe_get t.keys i in
  Array.unsafe_set t.keys i (Array.unsafe_get t.keys j);
  Array.unsafe_set t.keys j ki;
  let pi = Array.unsafe_get t.payloads i in
  Array.unsafe_set t.payloads i (Array.unsafe_get t.payloads j);
  Array.unsafe_set t.payloads j pi

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if Array.unsafe_get t.keys i < Array.unsafe_get t.keys parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && Array.unsafe_get t.keys l < Array.unsafe_get t.keys !smallest then
    smallest := l;
  if r < t.size && Array.unsafe_get t.keys r < Array.unsafe_get t.keys !smallest then
    smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let do_schedule_at : 'a. 'a t -> time:time -> 'a -> unit =
 fun t ~time payload ->
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)" time t.clock);
  if time > max_time then
    invalid_arg (Printf.sprintf "Engine.schedule_at: time %d exceeds packable range" time);
  if t.next_seq >= seq_limit then invalid_arg "Engine.schedule_at: event sequence exhausted";
  grow t;
  let i = t.size in
  Array.unsafe_set t.keys i ((time lsl seq_bits) lor t.next_seq);
  Array.unsafe_set t.payloads i (Obj.repr payload);
  t.size <- t.size + 1;
  t.next_seq <- t.next_seq + 1;
  sift_up t i

(* Scheduling is a ~100ns heap push: wrapping each call in a wall-clock
   span would more than double its cost, so schedule time is deliberately
   left inside the enclosing [engine.dispatch] chunk's self time (every
   schedule call of a running cluster happens inside a dispatched
   handler) rather than given a per-call span of its own. *)
let schedule_at = do_schedule_at

let schedule t ~delay payload =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) payload

let next : 'a. 'a t -> (time * 'a) option =
 fun t ->
  if t.size = 0 then None
  else begin
    let key = Array.unsafe_get t.keys 0 in
    let payload = Obj.obj (Array.unsafe_get t.payloads 0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.payloads.(0) <- t.payloads.(t.size);
      t.payloads.(t.size) <- dummy;
      sift_down t 0
    end
    else t.payloads.(0) <- dummy;
    shrink t;
    t.clock <- key lsr seq_bits;
    t.dispatched <- t.dispatched + 1;
    Some (t.clock, payload)
  end

let stop t = t.stopping <- true

(* A dispatched event costs ~150ns, so timing each one individually
   (two clock reads + a tally lookup per event) would double the hot
   loop.  The profiled drain instead times *chunks* of up to
   [profile_chunk] events: the clock is read twice per chunk, nested
   spans opened by handlers (checkpoint record, recovery splice) still
   subtract correctly from the open chunk frame's self time, and the
   amortized overhead is well under a nanosecond per event.  The
   [engine.dispatch] entry's [count] therefore counts chunks — event
   counts come from {!events_dispatched}. *)
let profile_chunk = 256

let dispatch_probe = Profile.probe "engine.dispatch"

(* The [until]-absent case is the common one (clusters stop themselves via
   [stop]); it runs a straight drain loop with no per-event horizon peek.
   Profiling is decided once per run: the disabled drain loops are
   byte-for-byte the old ones, no closure and no flag test per event. *)
let run t ?until handler =
  t.stopping <- false;
  if Profile.is_enabled () then begin
    (* Specialized per [until] exactly like the unprofiled loops below,
       with the chunk countdown as a recursive int parameter (a register,
       not a [ref]): the per-event work inside a chunk is the unprofiled
       drain's tests plus a single integer compare. *)
    match until with
    | None ->
      let rec chunk budget =
        if budget > 0 && not t.stopping then
          match next t with
          | None -> ()
          | Some (at, ev) ->
            handler at ev;
            chunk (budget - 1)
      in
      let rec drain () =
        if (not t.stopping) && t.size > 0 then begin
          Profile.time_probe dispatch_probe (fun () -> chunk profile_chunk);
          drain ()
        end
      in
      drain ()
    | Some limit ->
      let rec chunk budget =
        if
          budget > 0
          && (not t.stopping)
          && (t.size = 0 || Array.unsafe_get t.keys 0 lsr seq_bits <= limit)
        then
          match next t with
          | None -> ()
          | Some (at, ev) ->
            handler at ev;
            chunk (budget - 1)
      in
      let rec drain () =
        if
          (not t.stopping)
          && t.size > 0
          && Array.unsafe_get t.keys 0 lsr seq_bits <= limit
        then begin
          Profile.time_probe dispatch_probe (fun () -> chunk profile_chunk);
          drain ()
        end
      in
      drain ()
  end
  else
    match until with
    | None ->
      let rec drain () =
        if not t.stopping then
          match next t with
          | None -> ()
          | Some (at, ev) ->
            handler at ev;
            drain ()
      in
      drain ()
    | Some limit ->
      let rec loop () =
        if (not t.stopping) && (t.size = 0 || Array.unsafe_get t.keys 0 lsr seq_bits <= limit)
        then
          match next t with
          | None -> ()
          | Some (at, ev) ->
            handler at ev;
            loop ()
      in
      loop ()

let events_dispatched t = t.dispatched
