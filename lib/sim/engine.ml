(* The event queue is a timing wheel (Varghese & Lauck, 1987) in front of a
   packed-key binary heap.

   The wheel has [wheel_size] FIFO buckets, one per tick of the window
   [now, now + wheel_size).  Bucket [time land wheel_mask] is a circular
   singly-linked list threaded through one slab of slots ([links] holds the
   integer successor of each slot, [slots] its payload); the bucket array
   points at the list's *tail*, whose successor is its head, so one array
   serves both the append (after the tail) and the pop (the head).  Slots
   freed by a pop go on a free list through [links]; never-used slots are
   handed out by a bump index, so creating an engine initialises nothing
   per slot.

   Events scheduled at or beyond [now + wheel_size] wait in the *overflow
   heap*: an inline binary heap over a plain [int array] of packed
   priorities — [(at lsl seq_bits) lor seq] — with payloads in a parallel
   array, so one unboxed [int] compare orders by timestamp and then by
   scheduling sequence.

   Three invariants make the dispatch order exactly (time, seq):
   - every event in the wheel lies in [now, now + wheel_size), so a
     non-empty bucket holds events of exactly one instant;
   - every overflow event has time >= now + wheel_size;
   - whenever the clock advances, the overflow events the new window covers
     migrate into their buckets in heap (time, seq) order, *before* any
     handler can append to those buckets directly.  An overflow event was
     scheduled before its instant entered the window and a direct append
     after, so each bucket is in scheduling order.

   The packable ranges — times up to 2^34 ticks (hours of simulated
   microseconds) and 2^28 events per engine (the X8 scale sweep pushes past
   2^26 even with batched delivery) — are orders of magnitude above
   anything else the experiments reach and are enforced with [invalid_arg]
   rather than silent wraparound.

   Payload stores are [Obj.t array]s rather than ['a array]s so vacated
   slots can be overwritten with an immediate junk value ([dummy]): with a
   plain polymorphic array there is no value of type ['a] to clear with,
   and a popped event (task packet, message) would stay reachable until its
   slot was reused.  The arrays are created from [dummy], never from a
   payload, so they are never flat float arrays and the
   [Obj.repr]/[Obj.obj] round-trip is representation-safe even for float
   payloads. *)

type time = int

module Profile = Recflow_obs_core.Profile

let seq_bits = 28

let seq_limit = 1 lsl seq_bits

let max_time = max_int lsr seq_bits

let dummy = Obj.repr 0

(* The machine's delays are almost all below 256 ticks ([Config]): a
   processor step takes 1–5, one hop 30 plus jitter, adoption grace 80, the
   gradient period 100, the first retransmission and bounce 150, failure
   detection 210.  A 256-tick window therefore puts nearly every event in
   the wheel; backed-off retransmissions, planned failures and service
   arrivals are what the overflow heap sees. *)
let wheel_size = 256

let wheel_mask = wheel_size - 1

let empty = -1

(* The slab starts small and doubles on demand; compaction never takes it
   below this. *)
let slab_initial = 32

(* Smallest non-empty overflow heap. *)
let heap_initial = 16

type 'a t = {
  buckets : int array;  (* tail slot of each bucket's circular list, or [empty] *)
  mutable links : int array;  (* successor of a queued slot; next free of a free one *)
  mutable slots : Obj.t array;  (* payload of each slab slot *)
  mutable free : int;  (* head of the free list, or [empty] *)
  mutable bump : int;  (* slots at and above this index were never used *)
  mutable in_wheel : int;
  mutable keys : int array;  (* overflow heap: packed [(at lsl seq_bits) lor seq] *)
  mutable payloads : Obj.t array;  (* parallel to [keys] *)
  mutable far : int;  (* overflow heap size *)
  mutable clock : time;
  mutable next_seq : int;
  mutable stopping : bool;
  mutable dispatched : int;
}

let create () =
  {
    buckets = Array.make wheel_size empty;
    links = Array.make slab_initial empty;
    slots = Array.make slab_initial dummy;
    free = empty;
    bump = 0;
    in_wheel = 0;
    keys = [||];
    payloads = [||];
    far = 0;
    clock = 0;
    next_seq = 0;
    stopping = false;
    dispatched = 0;
  }

let now t = t.clock

let pending t = t.in_wheel + t.far

(* ---------------- wheel ---------------- *)

(* Called with no free slot left, so every slot below [bump] is queued and
   a plain copy keeps every link and bucket valid. *)
let grow_slab t =
  let cap = Array.length t.slots in
  let links = Array.make (2 * cap) empty and slots = Array.make (2 * cap) dummy in
  Array.blit t.links 0 links 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  t.links <- links;
  t.slots <- slots

(* Move the queued slots into fresh arrays of [cap] slots, bucket by bucket,
   so the live ones become [0, in_wheel) and the free list empties. *)
let compact_slab t cap =
  let links = Array.make cap empty and slots = Array.make cap dummy in
  let j = ref 0 in
  for b = 0 to wheel_mask do
    let tail = Array.unsafe_get t.buckets b in
    if tail <> empty then begin
      let first = !j in
      let rec copy s =
        slots.(!j) <- t.slots.(s);
        links.(!j) <- !j + 1;
        incr j;
        if s <> tail then copy t.links.(s)
      in
      copy t.links.(tail);
      links.(!j - 1) <- first;
      t.buckets.(b) <- !j - 1
    end
  done;
  t.links <- links;
  t.slots <- slots;
  t.free <- empty;
  t.bump <- !j

let alloc_slot t =
  if t.free <> empty then begin
    let s = t.free in
    t.free <- Array.unsafe_get t.links s;
    s
  end
  else begin
    if t.bump = Array.length t.slots then grow_slab t;
    let s = t.bump in
    t.bump <- s + 1;
    s
  end

let append t time payload =
  let s = alloc_slot t in
  Array.unsafe_set t.slots s payload;
  let b = time land wheel_mask in
  let tail = Array.unsafe_get t.buckets b in
  if tail = empty then Array.unsafe_set t.links s s
  else begin
    Array.unsafe_set t.links s (Array.unsafe_get t.links tail);
    Array.unsafe_set t.links tail s
  end;
  Array.unsafe_set t.buckets b s;
  t.in_wheel <- t.in_wheel + 1

(* Pop the head of [time]'s bucket, which must be non-empty.  The slab is
   compacted to half once it is three-quarters free, so a drained wheel does
   not pin its high-water mark. *)
let pop_bucket t time =
  let b = time land wheel_mask in
  let tail = Array.unsafe_get t.buckets b in
  let head = Array.unsafe_get t.links tail in
  if head = tail then Array.unsafe_set t.buckets b empty
  else Array.unsafe_set t.links tail (Array.unsafe_get t.links head);
  let payload = Array.unsafe_get t.slots head in
  Array.unsafe_set t.slots head dummy;
  Array.unsafe_set t.links head t.free;
  t.free <- head;
  t.in_wheel <- t.in_wheel - 1;
  let cap = Array.length t.slots in
  if cap > slab_initial && t.in_wheel <= cap / 4 then compact_slab t (cap / 2);
  payload

(* ---------------- overflow heap ---------------- *)

let resize_heap t cap =
  let keys = Array.make cap 0 and payloads = Array.make cap dummy in
  Array.blit t.keys 0 keys 0 t.far;
  Array.blit t.payloads 0 payloads 0 t.far;
  t.keys <- keys;
  t.payloads <- payloads

(* Sifts move a hole rather than swapping: one key and one payload write
   per level.  Both are top-level recursions over explicit arguments, so a
   push or pop builds no closure. *)
let rec sift_up keys payloads key i =
  if i = 0 then i
  else
    let parent = (i - 1) / 2 in
    let pk = Array.unsafe_get keys parent in
    if key < pk then begin
      Array.unsafe_set keys i pk;
      Array.unsafe_set payloads i (Array.unsafe_get payloads parent);
      sift_up keys payloads key parent
    end
    else i

let rec sift_down keys payloads key last i =
  let l = (2 * i) + 1 in
  if l >= last then i
  else
    let r = l + 1 in
    let c = if r < last && Array.unsafe_get keys r < Array.unsafe_get keys l then r else l in
    let ck = Array.unsafe_get keys c in
    if ck < key then begin
      Array.unsafe_set keys i ck;
      Array.unsafe_set payloads i (Array.unsafe_get payloads c);
      sift_down keys payloads key last c
    end
    else i

let heap_push t key payload =
  let cap = Array.length t.keys in
  if t.far = cap then resize_heap t (max heap_initial (2 * cap));
  let keys = t.keys and payloads = t.payloads in
  let i = sift_up keys payloads key t.far in
  Array.unsafe_set keys i key;
  Array.unsafe_set payloads i payload;
  t.far <- t.far + 1

(* Remove the minimum, whose payload the caller has already read.  The heap
   halves once three-quarters empty, never below [heap_initial]. *)
let heap_drop_min t =
  let keys = t.keys and payloads = t.payloads in
  let last = t.far - 1 in
  t.far <- last;
  let key = Array.unsafe_get keys last and payload = Array.unsafe_get payloads last in
  Array.unsafe_set payloads last dummy;
  if last > 0 then begin
    let i = sift_down keys payloads key last 0 in
    Array.unsafe_set keys i key;
    Array.unsafe_set payloads i payload
  end;
  let cap = Array.length keys in
  if cap > heap_initial && t.far <= cap / 4 then resize_heap t (cap / 2)

(* Advance the clock to [time] and migrate every overflow event the new
   window covers.  Their buckets are empty: no wheel event lies beyond the
   old window's end, and no overflow event before it. *)
let advance t time =
  t.clock <- time;
  let horizon = time + wheel_size in
  while t.far > 0 && Array.unsafe_get t.keys 0 lsr seq_bits < horizon do
    let key = Array.unsafe_get t.keys 0 in
    let payload = Array.unsafe_get t.payloads 0 in
    heap_drop_min t;
    append t (key lsr seq_bits) payload
  done

(* ---------------- dispatch ---------------- *)

(* Timestamp of the earliest pending event; the engine must not be empty.
   The wheel's events all precede the overflow heap's, and its non-empty
   bucket nearest the clock holds the earliest of them. *)
let rec scan_wheel buckets time =
  if Array.unsafe_get buckets (time land wheel_mask) <> empty then time
  else scan_wheel buckets (time + 1)

let earliest t =
  if t.in_wheel = 0 then Array.unsafe_get t.keys 0 lsr seq_bits else scan_wheel t.buckets t.clock

let schedule_at : 'a. 'a t -> time:time -> 'a -> unit =
 fun t ~time payload ->
  if time < t.clock then
    invalid_arg (Printf.sprintf "Engine.schedule_at: time %d is in the past (now %d)" time t.clock);
  if time > max_time then
    invalid_arg (Printf.sprintf "Engine.schedule_at: time %d exceeds packable range" time);
  if t.next_seq >= seq_limit then invalid_arg "Engine.schedule_at: event sequence exhausted";
  if time < t.clock + wheel_size then append t time (Obj.repr payload)
  else heap_push t ((time lsl seq_bits) lor t.next_seq) (Obj.repr payload);
  t.next_seq <- t.next_seq + 1

(* Scheduling is a few array writes: wrapping each call in a wall-clock
   span would more than double its cost, so schedule time is deliberately
   left inside the enclosing [engine.dispatch] chunk's self time (every
   schedule call of a running cluster happens inside a dispatched
   handler) rather than given a per-call span of its own. *)
let schedule t ~delay payload =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) payload

(* Pop the earliest event and advance the clock to [at], its timestamp. *)
let pop t at =
  if at <> t.clock then advance t at;
  t.dispatched <- t.dispatched + 1;
  Obj.obj (pop_bucket t at)

let next : 'a. 'a t -> (time * 'a) option =
 fun t ->
  if pending t = 0 then None
  else
    let at = earliest t in
    Some (at, pop t at)

let stop t = t.stopping <- true

(* Dispatch the earliest event to [handler] unless the engine is stopping,
   empty, or its earliest event lies beyond [limit]; [false] when it did
   not.  The drain loops below are loops over this: no option, pair or
   closure per event. *)
let dispatch_one t limit handler =
  if t.stopping || pending t = 0 then false
  else
    let at = earliest t in
    if at > limit then false
    else begin
      handler at (pop t at);
      true
    end

(* A dispatched event costs ~70ns, so timing each one individually
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

let dispatch_chunk t limit handler =
  let budget = ref profile_chunk in
  while !budget > 0 && dispatch_one t limit handler do
    decr budget
  done

(* Without [until] the limit is [max_int], which every event time is
   below.  Profiling is decided once per run; the disabled drain tests no
   flag per event. *)
let run t ?until handler =
  t.stopping <- false;
  let limit = match until with Some l -> l | None -> max_int in
  if Profile.is_enabled () then
    while (not t.stopping) && pending t > 0 && earliest t <= limit do
      Profile.time_probe dispatch_probe (fun () -> dispatch_chunk t limit handler)
    done
  else
    while dispatch_one t limit handler do
      ()
    done

let events_dispatched t = t.dispatched
