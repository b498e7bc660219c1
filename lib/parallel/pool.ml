(* Work-stealing domain pool.

   The PR 2 pool was a single [Queue.t] behind one mutex: every push and
   every pop of every task took the global pool lock, and BENCH_5/6 showed
   the result — negative scaling on sub-millisecond simulation tasks, the
   whole sweep serialized on the lock.  The rewrite gives every execution
   slot its own Chase–Lev deque ({!Deque}): owners push/pop lock-free at
   the bottom, idle slots steal from the top, and a batch enters the pool
   as ONE range task that splits itself in half until ranges are below a
   chunk threshold — submission is O(n/chunk) lock-free pushes instead of
   n mutex acquisitions, and thieves pick up half the outstanding work per
   steal.

   Blocking is kept off the hot path: a worker that finds every deque
   empty parks on a condition variable, and wake-ups go through an atomic
   epoch counter — a push bumps the epoch and only touches the mutex when
   the sleeper count (also an atomic) is non-zero, so a busy pool never
   takes a lock at all. *)

type task = unit -> unit

type t = {
  jobs : int;
  deques : task Deque.t array;  (* length [jobs]; index 0 = primary submitter *)
  inject : task Queue.t;  (* overflow for deque-less (secondary) submitters *)
  inject_size : int Atomic.t;
  inject_mutex : Mutex.t;
  lock : Mutex.t;  (* guards [wake] waits only *)
  wake : Condition.t;
  epoch : int Atomic.t;  (* bumped on every push; parking rechecks it *)
  sleepers : int Atomic.t;
  closed : bool Atomic.t;
  in_flight : int Atomic.t;  (* [map] calls currently executing *)
  submitter_free : bool Atomic.t;  (* ownership token for deque 0 *)
  mutable workers : unit Domain.t list;
}

(* ------------------------------------------------------------------ *)
(* Slot identity                                                       *)
(* ------------------------------------------------------------------ *)

(* Process-wide slot allocator.  Worker domains take a contiguous range at
   pool creation; any other domain (submitters, raw [Domain.spawn]s) lazily
   allocates its own slot on first use.  Every slot therefore has exactly
   one writing domain for its whole lifetime — the invariant the sharded
   observability state (Recflow_obs_core.Collect) builds on.  The previous
   scheme numbered every pool's workers 1..jobs-1, so two coexisting pools
   handed the same slot to two domains and sharded counters lost updates. *)
let next_slot = Atomic.make 1

let slot_key = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next_slot 1)

let slot () = Domain.DLS.get slot_key

let slot_limit () = Atomic.get next_slot

(* Which pool the current domain belongs to (and its deque index there):
   [Some (pool, i)] inside a worker or a token-holding submitter.  Nested
   submissions reuse the slot; foreign-pool submissions fall back to the
   injection queue. *)
let ctx_key : (t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let my_index t =
  match Domain.DLS.get ctx_key with Some (p, i) when p == t -> i | _ -> -1

(* ------------------------------------------------------------------ *)
(* Task discovery                                                      *)
(* ------------------------------------------------------------------ *)

let take_inject t =
  if Atomic.get t.inject_size = 0 then None
  else begin
    Mutex.lock t.inject_mutex;
    let r = Queue.take_opt t.inject in
    if r <> None then Atomic.decr t.inject_size;
    Mutex.unlock t.inject_mutex;
    r
  end

(* Own deque first (LIFO: freshest split, best locality), then the
   injection queue, then a stealing sweep over the other deques. *)
let find_task t my =
  let own = if my >= 0 then Deque.pop t.deques.(my) else None in
  match own with
  | Some _ -> own
  | None -> (
    match take_inject t with
    | Some _ as s -> s
    | None ->
      let j = t.jobs in
      let start = if my >= 0 then my + 1 else 0 in
      let rec scan k =
        if k = j then None
        else
          let v = (start + k) mod j in
          if v = my then scan (k + 1)
          else
            match Deque.steal t.deques.(v) with Some _ as s -> s | None -> scan (k + 1)
      in
      scan 0)

(* Push from whatever execution context is running: a worker (or the
   token-holding submitter) uses its own deque, anyone else the injection
   queue.  Parked workers are woken through the epoch/sleeper protocol;
   the mutex is only touched when somebody is actually asleep. *)
let push_current t task =
  (match my_index t with
  | i when i >= 0 -> Deque.push t.deques.(i) task
  | _ ->
    Mutex.lock t.inject_mutex;
    Queue.push task t.inject;
    Atomic.incr t.inject_size;
    Mutex.unlock t.inject_mutex);
  Atomic.incr t.epoch;
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  end

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* A worker may only exit once the pool is closed AND no [map] is in
   flight: exiting on [closed] alone would strand the splits of a batch
   that raced [shutdown] (its submitter, parked on the wake protocol,
   would then wait forever on work nobody runs).  [shutdown] sets [closed]
   first and then waits for [in_flight] to drain, so this condition is
   eventually stable. *)
let done_for_good t = Atomic.get t.closed && Atomic.get t.in_flight = 0

let worker t local =
  let rec loop () =
    (* Read the epoch before scanning: a push that lands mid-scan bumps
       it, and the recheck under the lock then skips the wait — the
       standard no-lost-wakeup dance without locking the push path. *)
    let e = Atomic.get t.epoch in
    match find_task t local with
    | Some task ->
      task ();
      loop ()
    | None ->
      if not (done_for_good t) then begin
        Mutex.lock t.lock;
        Atomic.incr t.sleepers;
        if Atomic.get t.epoch = e && not (done_for_good t) then Condition.wait t.wake t.lock;
        Atomic.decr t.sleepers;
        Mutex.unlock t.lock;
        loop ()
      end
  in
  loop ()

(* Minor-heap size of every spawned worker: 2^20 words, 8 MiB on 64-bit. *)
let worker_nursery_words = 1 lsl 20

let create ?jobs () =
  let jobs =
    match jobs with Some j -> j | None -> max 1 (Domain.recommended_domain_count ())
  in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      deques = Array.init jobs (fun _ -> Deque.create ());
      inject = Queue.create ();
      inject_size = Atomic.make 0;
      inject_mutex = Mutex.create ();
      lock = Mutex.create ();
      wake = Condition.create ();
      epoch = Atomic.make 0;
      sleepers = Atomic.make 0;
      closed = Atomic.make false;
      in_flight = Atomic.make 0;
      submitter_free = Atomic.make true;
      workers = [];
    }
  in
  let worker_base = if jobs > 1 then Atomic.fetch_and_add next_slot (jobs - 1) else 0 in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set slot_key (worker_base + i);
            Domain.DLS.set ctx_key (Some (t, i + 1));
            (* Allocation-heavy sub-millisecond tasks hit the stock 256k-word
               minor heap every few hundred microseconds, and each minor
               collection synchronizes every domain; a bigger nursery per
               worker trades memory for an order of magnitude fewer
               stop-the-world points.  Scoped to spawned workers so jobs=1
               runs are untouched. *)
            (try Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_nursery_words }
             with _ -> ());
            worker t (i + 1)));
  t

let jobs t = t.jobs

let shutdown t =
  if not (Atomic.exchange t.closed true) then begin
    (* Drain before tearing down: a [map] that was admitted before the
       [closed] flip (its [in_flight] increment and close-check are one
       atomic protocol, see [enter]) must run to completion with the
       workers still alive — the batch's final [leave] broadcasts [wake]
       under the same lock, so the wait below cannot miss it. *)
    Mutex.lock t.lock;
    while Atomic.get t.in_flight > 0 do
      Condition.wait t.wake t.lock
    done;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* ------------------------------------------------------------------ *)
(* Batch submission                                                    *)
(* ------------------------------------------------------------------ *)

(* Admission, paired with [shutdown]'s drain.  The increment goes first
   and the close-check second (the mirror image of shutdown's close-flip
   then in-flight-read, both seq_cst), so the two can never miss each
   other: either this map observes [closed] and backs out, or shutdown
   observes [in_flight > 0] and waits for [leave].  A plain
   check-then-increment was a TOCTOU hole — a map could slip in between
   shutdown's (or [set_default_jobs]'s) check and the teardown. *)
let leave t =
  if Atomic.fetch_and_add t.in_flight (-1) = 1 && Atomic.get t.closed then begin
    (* last in-flight map on a closing pool: wake shutdown's drain loop
       (and any worker parked waiting for permission to exit) *)
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock
  end

let enter t =
  Atomic.incr t.in_flight;
  if Atomic.get t.closed && my_index t < 0 then begin
    (* Refuse new top-level work on a closed pool — but a NESTED map
       (issued from inside an already-admitted batch, so the calling
       domain carries this pool's context) is still serviceable during
       the shutdown drain: the workers stay alive while [in_flight > 0],
       and the outer batch cannot settle until the nested one does, so
       admitting it cannot outlive the drain.  Refusing it would turn the
       outer batch's promised full result into an error. *)
    leave t;
    invalid_arg "Pool.map: pool has been shut down (use-after-shutdown)"
  end

let map (type b) t (f : _ -> b) xs =
  enter t;
  Fun.protect ~finally:(fun () -> leave t) @@ fun () ->
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.jobs = 1 ->
    (* Strictly sequential in submission order on the caller — the --jobs 1
       determinism oracle. *)
    List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results : b option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let remaining = Atomic.make n in
    (* Batches of long simulation tasks want chunk = 1 (perfect balance);
       huge micro-task batches want larger leaves so the per-range
       bookkeeping amortizes. *)
    let chunk = max 1 (n / (t.jobs * 16)) in
    let exec i =
      match f arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    (* Execute [lo, hi): split off the upper half (stealable) while the
       range is above the chunk threshold, run the leaf inline, and retire
       the leaf's element count from the batch in one atomic. *)
    let rec range lo hi () =
      if hi - lo > chunk then begin
        let mid = (lo + hi) / 2 in
        push_current t (range mid hi);
        range lo mid ()
      end
      else begin
        for i = lo to hi - 1 do
          exec i
        done;
        let len = hi - lo in
        if Atomic.fetch_and_add remaining (-len) = len then begin
          (* This leaf settled the batch: wake the (possibly parked)
             submitter through the same epoch/sleepers protocol pushes
             use — it parks on the pool-wide [wake], not a batch-local
             condvar, so this is the only signal it needs. *)
          Atomic.incr t.epoch;
          if Atomic.get t.sleepers > 0 then begin
            Mutex.lock t.lock;
            Condition.broadcast t.wake;
            Mutex.unlock t.lock
          end
        end
      end
    in
    (* Claim a deque for the duration when the calling domain has none:
       deque 0 belongs to at most one submitter at a time (owner operations
       are single-domain); a second concurrent submitter falls back to the
       injection queue. *)
    let my, release =
      match my_index t with
      | i when i >= 0 -> (i, fun () -> ())
      | _ ->
        if Atomic.compare_and_set t.submitter_free true false then begin
          (* Save and restore rather than erase: the caller may be a
             worker of ANOTHER pool submitting here, and clobbering its
             context would silently demote all its later pushes in its
             own pool to the mutexed injection queue. *)
          let saved = Domain.DLS.get ctx_key in
          Domain.DLS.set ctx_key (Some (t, 0));
          ( 0,
            fun () ->
              Domain.DLS.set ctx_key saved;
              Atomic.set t.submitter_free true )
        end
        else (-1, fun () -> ())
    in
    Fun.protect ~finally:release @@ fun () ->
    (* The submitter executes the root range itself; splits peel off to
       the deque as it descends, and workers steal them from the top. *)
    range 0 n ();
    let rec help () =
      if Atomic.get remaining > 0 then begin
        let e = Atomic.get t.epoch in
        match find_task t my with
        | Some task ->
          task ();
          help ()
        | None ->
          (* Nothing stealable *at this instant* — but a range task still
             running on a worker can push fresh splits at any moment, so
             "empty scan" is not "every leftover leaf is already running".
             Park on the pool-wide wake protocol (registered in
             [sleepers], epoch recheck under the lock): a new push or the
             settling leaf both bump the epoch and broadcast, so the
             submitter rejoins the moment stealable work (or the finish
             signal) appears instead of idling until settlement. *)
          Mutex.lock t.lock;
          Atomic.incr t.sleepers;
          if Atomic.get t.epoch = e && Atomic.get remaining > 0 then
            Condition.wait t.wake t.lock;
          Atomic.decr t.sleepers;
          Mutex.unlock t.lock;
          help ()
      end
    in
    help ();
    Array.iter
      (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
      errors;
    Array.to_list (Array.map Option.get results)

(* ------------------------------------------------------------------ *)
(* Shared default pool                                                 *)
(* ------------------------------------------------------------------ *)

let default_state : (int option * t option) ref = ref (None, None)

let default_mutex = Mutex.create ()

let () = at_exit (fun () -> match !default_state with _, Some p -> shutdown p | _ -> ())

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Mutex.lock default_mutex;
  let retired =
    match !default_state with
    | _, Some p ->
      (* Best-effort misuse detection: a map that enters concurrently with
         this check can still slip past it (the check and map's admission
         are not one atomic step).  That race is SAFE, not just unlikely —
         [shutdown] below drains every admitted map before joining the
         workers, and any map that loses the admission race against the
         close flip raises in [enter].  The refusal here exists to turn
         the blatant case (caller visibly mid-sweep) into an error instead
         of a silent blocking drain. *)
      if Atomic.get p.in_flight > 0 then begin
        Mutex.unlock default_mutex;
        invalid_arg
          "Pool.set_default_jobs: a map on the default pool is still in flight \
           (swapping now would tear the pool out from under its submitter)"
      end;
      Some p
    | _ -> None
  in
  default_state := (Some j, None);
  Mutex.unlock default_mutex;
  (* join outside the registry lock: a long drain must not block [default] *)
  Option.iter shutdown retired

let default () =
  Mutex.lock default_mutex;
  let pool =
    match !default_state with
    | _, Some p -> p
    | width, None ->
      let p = create ?jobs:width () in
      default_state := (width, Some p);
      p
  in
  Mutex.unlock default_mutex;
  pool

let default_jobs () =
  Mutex.lock default_mutex;
  let j =
    match !default_state with
    | _, Some p -> p.jobs
    | Some w, None -> w
    | None, None -> max 1 (Domain.recommended_domain_count ())
  in
  Mutex.unlock default_mutex;
  j
