(* Domain pool: one shared batch list under one lock.

   The pool's only traffic is experiment sweeps whose elements are whole
   simulations (milliseconds each), so scheduling cost is noise and the
   design optimises for being obviously correct.  A [map] appends its
   batch to [batches] under [lock]; every participant — each worker and
   the submitter itself — claims the next unclaimed element with one
   [Atomic.fetch_and_add] on the batch's cursor.  The submitter then
   waits on [cond] until the batch's unfinished count reaches 0.  Nested
   maps cannot deadlock: a submitter can run every element of its own
   batch, and it only ever waits on elements other domains are actively
   running. *)

type batch = {
  run : int -> unit;  (* evaluate element [i]; never raises *)
  size : int;
  next : int Atomic.t;  (* next unclaimed index *)
  unfinished : int Atomic.t;  (* elements not yet evaluated *)
}

type t = {
  jobs : int;
  lock : Mutex.t;
  cond : Condition.t;  (* new batch, batch settled, in-flight drained *)
  mutable batches : batch list;  (* batches with elements left to claim *)
  mutable closed : bool;
  mutable in_flight : int;  (* [map] calls admitted and not yet returned *)
  mutable workers : unit Domain.t list;
}

(* The pools the calling domain is currently running elements for: a
   worker carries its own pool for life, a submitter carries the pool for
   the span of its [map].  A nested map on one of these pools is still
   admitted while it drains on [shutdown]. *)
let running : t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(* Claim and run elements of [b] until none is left to claim; the last
   evaluated element wakes the batch's submitter. *)
let drain t b =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.size then begin
      b.run i;
      if Atomic.fetch_and_add b.unfinished (-1) = 1 then
        Mutex.protect t.lock (fun () -> Condition.broadcast t.cond);
      go ()
    end
    else Mutex.protect t.lock (fun () -> t.batches <- List.filter (fun b' -> b' != b) t.batches)
  in
  go ()

(* A worker exits only once the pool is closed AND no admitted [map] is
   left: [shutdown] drains in-flight maps with the workers still alive. *)
let rec worker t =
  let next =
    Mutex.protect t.lock (fun () ->
        let rec wait () =
          match t.batches with
          | b :: _ -> Some b
          | [] when t.closed && t.in_flight = 0 -> None
          | [] ->
            Condition.wait t.cond t.lock;
            wait ()
        in
        wait ())
  in
  match next with
  | Some b ->
    drain t b;
    worker t
  | None -> ()

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
      lock = Mutex.create ();
      cond = Condition.create ();
      batches = [];
      closed = false;
      in_flight = 0;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set running [ t ];
            (* An allocation-heavy simulation on the stock 256k-word minor
               heap collects every few hundred microseconds, and each minor
               collection synchronizes every domain; a bigger nursery per
               worker trades memory for far fewer stop-the-world points.
               Scoped to spawned workers so jobs=1 runs are untouched. *)
            (try Gc.set { (Gc.get ()) with Gc.minor_heap_size = worker_nursery_words }
             with _ -> ());
            worker t));
  t

let jobs t = t.jobs

let shutdown t =
  let first =
    Mutex.protect t.lock (fun () ->
        let first = not t.closed in
        t.closed <- true;
        if first then begin
          while t.in_flight > 0 do
            Condition.wait t.cond t.lock
          done;
          Condition.broadcast t.cond
        end;
        first)
  in
  if first then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

(* Admission and its paired release, both under [lock], so [shutdown]
   either sees this map in flight and waits for it, or this map sees the
   pool closed and backs out.  A nested map from a domain already running
   elements for this pool is admitted even while closing: the outer batch
   keeps [in_flight > 0] (and the workers alive) until the inner settles,
   and refusing it would turn the outer batch's promised full result into
   an error. *)
let enter t =
  Mutex.protect t.lock (fun () ->
      if t.closed && not (List.memq t (Domain.DLS.get running)) then
        invalid_arg "Pool.map: pool has been shut down (use-after-shutdown)";
      t.in_flight <- t.in_flight + 1)

let leave t =
  Mutex.protect t.lock (fun () ->
      t.in_flight <- t.in_flight - 1;
      if t.in_flight = 0 && t.closed then Condition.broadcast t.cond)

let map_batch (type b) t (f : _ -> b) xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let results : b option array = Array.make n None in
  let errors = Array.make n None in
  let run i =
    match f arr.(i) with
    | v -> results.(i) <- Some v
    | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
  in
  let b = { run; size = n; next = Atomic.make 0; unfinished = Atomic.make n } in
  Mutex.protect t.lock (fun () ->
      t.batches <- t.batches @ [ b ];
      Condition.broadcast t.cond);
  drain t b;
  Mutex.protect t.lock (fun () ->
      while Atomic.get b.unfinished > 0 do
        Condition.wait t.cond t.lock
      done);
  Array.iter
    (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    errors;
  Array.to_list (Array.map Option.get results)

let map t f xs =
  enter t;
  let saved = Domain.DLS.get running in
  Domain.DLS.set running (t :: saved);
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set running saved;
      leave t)
  @@ fun () ->
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.jobs = 1 ->
    (* Strictly sequential in submission order on the caller — the --jobs 1
       determinism oracle. *)
    List.map f xs
  | xs -> map_batch t f xs

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
         this check can still slip past it.  That race is SAFE, not just
         unlikely — [shutdown] below drains every admitted map before
         joining the workers, and any map that loses the admission race
         against the close raises in [enter].  The refusal here turns the
         blatant case (caller visibly mid-sweep) into an error instead of
         a silent blocking drain. *)
      if Mutex.protect p.lock (fun () -> p.in_flight > 0) then begin
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
