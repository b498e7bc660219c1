(* Tests for the simulation substrate: RNG, engine, trace. *)

module Rng = Recflow_sim.Rng
module Engine = Recflow_sim.Engine
module Trace = Recflow_sim.Trace
module Profile = Recflow_obs_core.Profile

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Rng ---------------- *)

let rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  check "different seeds diverge" true (Rng.next_int64 a <> Rng.next_int64 b)

let rng_copy_independent () =
  let a = Rng.create 3 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b);
  ignore (Rng.next_int64 a);
  (* b is now one draw behind and stays independent *)
  check "copies evolve separately" true (Rng.next_int64 a <> Rng.next_int64 b)

let rng_split_diverges () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 16 (fun _ -> Rng.next_int64 b) in
  check "split streams differ" true (xs <> ys)

let rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int stays in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let x = Rng.int t bound in
      x >= 0 && x < bound)

let rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int_in inclusive bounds" ~count:500
    QCheck.(triple small_int (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let t = Rng.create seed in
      let x = Rng.int_in t lo (lo + span) in
      x >= lo && x <= lo + span)

let rng_int_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float stays in [0, bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let x = Rng.float t bound in
      x >= 0.0 && x < bound)

let rng_exponential_positive () =
  let t = Rng.create 11 in
  for _ = 1 to 200 do
    check "exp >= 0" true (Rng.exponential t 5.0 >= 0.0)
  done

let rng_shuffle_permutation =
  QCheck.Test.make ~name:"Rng.shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 50) int))
    (fun (seed, xs) ->
      let t = Rng.create seed in
      let arr = Array.of_list xs in
      Rng.shuffle t arr;
      List.sort compare (Array.to_list arr) = List.sort compare xs)

let rng_pick_member () =
  let t = Rng.create 2 in
  let arr = [| 1; 5; 9 |] in
  for _ = 1 to 50 do
    let x = Rng.pick t arr in
    check "pick from array" true (Array.exists (fun y -> y = x) arr)
  done

let rng_int_unbiased_small_bound () =
  (* Rejection sampling: every residue of a small bound lands within a
     tight band of the expected frequency. *)
  let t = Rng.create 97 in
  let bound = 3 and draws = 30_000 in
  let buckets = Array.make bound 0 in
  for _ = 1 to draws do
    let x = Rng.int t bound in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i n ->
      check
        (Printf.sprintf "bucket %d near uniform (%d)" i n)
        true
        (abs (n - (draws / bound)) < draws / 20))
    buckets

let rng_int_huge_bound_in_range () =
  (* bound = max_int (2^62 - 1) is the worst case for the old modulo: the
     raw 62-bit draw is taken nearly verbatim, so any sign/wrap slip shows
     up immediately. *)
  let t = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int t max_int in
    check "in [0, max_int)" true (x >= 0 && x < max_int)
  done

let rng_int_stream_stable () =
  (* The fix must not disturb the accepted stream: for small bounds the
     draw is (virtually) never rejected, so the sequence is exactly the
     pre-fix [r mod bound] one.  Pinned so silent stream changes fail. *)
  let t = Rng.create 42 in
  let got = List.init 8 (fun _ -> Rng.int t 100) in
  let u = Rng.create 42 in
  let expected =
    List.init 8 (fun _ ->
        Int64.to_int (Int64.rem (Int64.shift_right_logical (Rng.next_int64 u) 2) 100L))
  in
  Alcotest.(check (list int)) "same stream as r mod bound" expected got

(* ---------------- Engine ---------------- *)

let engine_orders_by_time () =
  let e = Engine.create () in
  Engine.schedule e ~delay:30 "c";
  Engine.schedule e ~delay:10 "a";
  Engine.schedule e ~delay:20 "b";
  let order = ref [] in
  Engine.run e (fun _ ev -> order := ev :: !order);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order)

let engine_fifo_ties () =
  let e = Engine.create () in
  List.iter (fun s -> Engine.schedule e ~delay:5 s) [ "1"; "2"; "3"; "4" ];
  let order = ref [] in
  Engine.run e (fun _ ev -> order := ev :: !order);
  Alcotest.(check (list string)) "FIFO at equal time" [ "1"; "2"; "3"; "4" ] (List.rev !order)

let engine_clock_advances () =
  let e = Engine.create () in
  Engine.schedule e ~delay:42 ();
  (match Engine.next e with
  | Some (at, ()) -> check_int "timestamp" 42 at
  | None -> Alcotest.fail "missing event");
  check_int "clock" 42 (Engine.now e)

let engine_past_raises () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10 ();
  ignore (Engine.next e);
  check "scheduling in the past rejected" true
    (try
       Engine.schedule_at e ~time:5 ();
       false
     with Invalid_argument _ -> true)

let engine_negative_delay () =
  let e = Engine.create () in
  check "negative delay rejected" true
    (try
       Engine.schedule e ~delay:(-1) ();
       false
     with Invalid_argument _ -> true)

let engine_until_horizon () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10 "in";
  Engine.schedule e ~delay:100 "out";
  let seen = ref [] in
  Engine.run e ~until:50 (fun _ ev -> seen := ev :: !seen);
  Alcotest.(check (list string)) "horizon respected" [ "in" ] (List.rev !seen);
  check_int "event beyond horizon still queued" 1 (Engine.pending e)

let engine_stop () =
  let e = Engine.create () in
  for i = 1 to 5 do
    Engine.schedule e ~delay:i i
  done;
  let n = ref 0 in
  Engine.run e (fun _ _ ->
      incr n;
      if !n = 2 then Engine.stop e);
  check_int "stopped after two" 2 !n;
  check_int "rest pending" 3 (Engine.pending e)

let engine_dispatch_count () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    Engine.schedule e ~delay:1 ()
  done;
  Engine.run e (fun _ () -> ());
  check_int "dispatched" 7 (Engine.events_dispatched e)

let engine_handler_schedules () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1 3;
  let total = ref 0 in
  Engine.run e (fun _ n ->
      total := !total + n;
      if n > 1 then Engine.schedule e ~delay:1 (n - 1));
  check_int "cascade 3+2+1" 6 !total

(* [run] without [until] takes the drain fast path (no per-event horizon
   test): exercise it past the initial slab and across the wheel window, so
   slab growth and compaction, overflow migration and FIFO ties all happen
   inside one drain. *)
let engine_drain_fast_loop () =
  let e = Engine.create () in
  let n = 3000 in
  for i = 0 to n - 1 do
    (* Colliding timestamps: 10 events per instant, FIFO within each. *)
    Engine.schedule e ~delay:(i mod (n / 10)) (i mod (n / 10), i)
  done;
  let last_at = ref (-1) and last_seq = ref (-1) and count = ref 0 in
  Engine.run e (fun at (ev_at, seq) ->
      incr count;
      check_int "handler time matches scheduled time" ev_at at;
      check "times non-decreasing" true (at >= !last_at);
      if at = !last_at then check "FIFO among equal times" true (seq > !last_seq);
      last_at := at;
      last_seq := seq);
  check_int "all events drained" n !count;
  check_int "nothing pending" 0 (Engine.pending e);
  check_int "dispatch count" n (Engine.events_dispatched e)

(* The packed (time, seq) priority has explicit range guards rather than
   silent wraparound. *)
let engine_time_range_guard () =
  let e = Engine.create () in
  check "astronomic timestamp rejected" true
    (try
       Engine.schedule_at e ~time:max_int "too far";
       false
     with Invalid_argument _ -> true);
  (* A large-but-packable time still works (2^34 is the documented bound). *)
  Engine.schedule_at e ~time:((1 lsl 34) - 1) "far";
  match Engine.next e with
  | Some (at, "far") -> check_int "far event dispatched" ((1 lsl 34) - 1) at
  | _ -> Alcotest.fail "far event lost"

(* A vacated slot left pointing at its payload would pin the popped event
   until the slot was reused.  Payloads are boxed and watched through a
   [Weak] array; half of them are scheduled beyond the wheel window, so they
   pass through the overflow heap before their bucket.  Once drained — half
   through [next], half through [run] — and after a major GC they must all
   be collectable. *)
let engine_pop_releases () =
  let n = 32 in
  let weak = Weak.create n in
  let e = Engine.create () in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Engine.schedule e ~delay:(if i mod 2 = 0 then i else 300 + (i * 40)) payload
  done;
  for _ = 1 to n / 2 do
    ignore (Engine.next e)
  done;
  Engine.run e (fun _ _ -> ());
  Gc.full_major ();
  let retained = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr retained
  done;
  check_int "popped payloads collected" 0 !retained;
  (* Used after the collection so the engine itself is still live during it:
     a dead engine would release its store and hide a leak. *)
  check_int "engine drained" 0 (Engine.pending e)

(* The [Obj.t] payload store must never become a flat float array: float
   payloads stay boxed, survive a grow past the initial capacity, and
   drain in time order. *)
let engine_float_payloads () =
  let n = 300 in
  let e = Engine.create () in
  for at = n - 1 downto 0 do
    Engine.schedule_at e ~time:at (float_of_int at +. 0.5)
  done;
  (match Engine.next e with
  | Some (at, x) ->
    check_int "earliest first" 0 at;
    Alcotest.(check (float 0.0)) "first payload" 0.5 x
  | None -> Alcotest.fail "float event lost");
  let got = ref [] in
  Engine.run e (fun at x ->
      Alcotest.(check (float 0.0)) "payload matches its time" (float_of_int at +. 0.5) x;
      got := at :: !got);
  Alcotest.(check (list int)) "time order" (List.init (n - 1) (fun i -> i + 1)) (List.rev !got)

(* Interleaving around the compaction threshold must preserve time and
   FIFO order: the slab and the overflow heap grow well past their initial
   capacities, then halve repeatedly as they drain. *)
let engine_shrink_keeps_order () =
  let per_instant = 4 and instants = 512 in
  let n = per_instant * instants in
  let e = Engine.create () in
  let seq = ref 0 in
  for at = instants - 1 downto 0 do
    for _ = 1 to per_instant do
      Engine.schedule_at e ~time:at !seq;
      incr seq
    done
  done;
  let last = ref (-1, -1) in
  let step at s =
    let last_at, last_s = !last in
    check "times non-decreasing" true (at >= last_at);
    if at = last_at then check "FIFO among equal times" true (s > last_s);
    last := (at, s)
  in
  let tail = 11 in
  for _ = 1 to n - tail do
    match Engine.next e with Some (at, s) -> step at s | None -> Alcotest.fail "drained early"
  done;
  check_int "tail intact" tail (Engine.pending e);
  let rest = ref 0 in
  Engine.run e (fun at s ->
      incr rest;
      step at s);
  check_int "tail drained in order" tail !rest;
  check_int "last instant reached" (instants - 1) (fst !last)

(* An event scheduled while its instant lay beyond the wheel window waits in
   the overflow heap; one scheduled for the same instant after the window
   covers it goes straight to the bucket.  The first must still fire first,
   at either edge of the window. *)
let engine_overflow_before_direct () =
  let far = 1000 in
  List.iter
    (fun clock ->
      let e = Engine.create () in
      Engine.schedule_at e ~time:far "A";
      Engine.schedule_at e ~time:clock "tick";
      (match Engine.next e with
      | Some (at, "tick") -> check_int "clock advanced" clock at
      | _ -> Alcotest.fail "tick lost");
      Engine.schedule_at e ~time:far "B";
      let order = ref [] in
      Engine.run e (fun at ev ->
          check_int "fires at its instant" far at;
          order := ev :: !order);
      Alcotest.(check (list string))
        (Printf.sprintf "A before B with the clock at %d" clock)
        [ "A"; "B" ] (List.rev !order))
    [ far - 256; far - 255; far - 1 ]

(* A drained engine must give back its high-water storage: after a burst
   of 10,000 events, most of them through the wheel and the rest through
   the overflow heap, it may hold at most a few dozen words more than a
   fresh one. *)
let engine_drained_releases_storage () =
  let e = Engine.create () in
  for i = 0 to 9_999 do
    Engine.schedule e ~delay:(i * 7919 mod 600) i
  done;
  Engine.run e (fun _ _ -> ());
  check_int "drained" 0 (Engine.pending e);
  let fresh = Obj.reachable_words (Obj.repr (Engine.create () : int Engine.t)) in
  let drained = Obj.reachable_words (Obj.repr e) in
  if drained > fresh + 64 then
    Alcotest.failf "drained engine holds %d words, a fresh one %d" drained fresh

(* Differential check against a reference queue: a list kept sorted by
   (time, seq).  A random program mixes relative and absolute scheduling
   (about a quarter of the delays beyond the wheel window), follow-ups
   scheduled from inside the handler (delay 0 included), [next],
   [run ~until] and [run] cut short by [stop]; the engine and the model
   must dispatch the same events at the same times, and agree on the clock
   and the pending count after every step.  Each program runs with the
   profiler off and on, since [run] has a separate drain loop for each. *)
module Model = struct
  type 'a t = {
    mutable queue : (int * int * 'a) list;  (* sorted by (time, seq) *)
    mutable clock : int;
    mutable seq : int;
    mutable stopping : bool;
  }

  let create () = { queue = []; clock = 0; seq = 0; stopping = false }

  let schedule_at m ~time x =
    let key = (time, m.seq) in
    let rec insert = function
      | ((at, s, _) as ev) :: rest when (at, s) < key -> ev :: insert rest
      | l -> (time, m.seq, x) :: l
    in
    m.queue <- insert m.queue;
    m.seq <- m.seq + 1

  let next m =
    match m.queue with
    | [] -> None
    | (at, _, x) :: rest ->
      m.queue <- rest;
      m.clock <- at;
      Some (at, x)

  let run m ?until handler =
    m.stopping <- false;
    let rec loop () =
      if not m.stopping then
        match (m.queue, until) with
        | [], _ -> ()
        | (at, _, _) :: _, Some limit when at > limit -> ()
        | _ -> (
          match next m with
          | Some (at, x) ->
            handler at x;
            loop ()
          | None -> ())
    in
    loop ()
end

type engine_op =
  | Schedule of int * int list  (* delay, follow-up delays *)
  | Schedule_at of int * int list  (* time as an offset from now *)
  | Next
  | Run_until of int  (* horizon as an offset from now *)
  | Run_stop of int  (* stop after this many events *)

let engine_op_gen =
  let open QCheck.Gen in
  let delay = frequency [ (3, int_range 0 255); (1, int_range 256 1200) ] in
  let follow_ups = list_size (int_range 0 3) (frequency [ (1, return 0); (3, delay) ]) in
  frequency
    [
      (5, map2 (fun d f -> Schedule (d, f)) delay follow_ups);
      (2, map2 (fun d f -> Schedule_at (d, f)) delay follow_ups);
      (2, return Next);
      (1, map (fun d -> Run_until d) (int_range 0 600));
      (1, map (fun k -> Run_stop k) (int_range 1 40));
    ]

let print_engine_op = function
  | Schedule (d, f) ->
    Printf.sprintf "schedule %d [%s]" d (String.concat ";" (List.map string_of_int f))
  | Schedule_at (d, f) ->
    Printf.sprintf "schedule_at now+%d [%s]" d (String.concat ";" (List.map string_of_int f))
  | Next -> "next"
  | Run_until d -> Printf.sprintf "run ~until:(now+%d)" d
  | Run_stop k -> Printf.sprintf "run, stop after %d" k

(* One side of the comparison: the engine or the model behind the same
   closures.  A payload is (id, follow-up delays); follow-ups carry none. *)
type side = {
  schedule : delay:int -> int * int list -> unit;
  schedule_at : time:int -> int * int list -> unit;
  now : unit -> int;
  pending : unit -> int;
  next : unit -> (int * (int * int list)) option;
  run : ?until:int -> (int -> int * int list -> unit) -> unit;
  stop : unit -> unit;
}

let engine_side () =
  let e = Engine.create () in
  {
    schedule = (fun ~delay x -> Engine.schedule e ~delay x);
    schedule_at = (fun ~time x -> Engine.schedule_at e ~time x);
    now = (fun () -> Engine.now e);
    pending = (fun () -> Engine.pending e);
    next = (fun () -> Engine.next e);
    run = (fun ?until h -> Engine.run e ?until h);
    stop = (fun () -> Engine.stop e);
  }

let model_side () =
  let m = Model.create () in
  {
    schedule = (fun ~delay x -> Model.schedule_at m ~time:(m.Model.clock + delay) x);
    schedule_at = (fun ~time x -> Model.schedule_at m ~time x);
    now = (fun () -> m.Model.clock);
    pending = (fun () -> List.length m.Model.queue);
    next = (fun () -> Model.next m);
    run = (fun ?until h -> Model.run m ?until h);
    stop = (fun () -> m.Model.stopping <- true);
  }

(* Interpret [ops] on one side; the result lists every dispatch as
   (time, id, 0) and, after every step and at the end, (-1, now, pending). *)
let interpret side ops =
  let log = ref [] in
  let fire at (id, follow_ups) =
    log := (at, id, 0) :: !log;
    List.iteri (fun i d -> side.schedule ~delay:d ((id * 8) + i + 1, [])) follow_ups
  in
  List.iteri
    (fun k op ->
      let id = (k + 1) * 64 in
      (match op with
      | Schedule (d, f) -> side.schedule ~delay:d (id, f)
      | Schedule_at (d, f) -> side.schedule_at ~time:(side.now () + d) (id, f)
      | Next -> Option.iter (fun (at, x) -> fire at x) (side.next ())
      | Run_until d -> side.run ~until:(side.now () + d) fire
      | Run_stop n ->
        let count = ref 0 in
        side.run (fun at x ->
            fire at x;
            incr count;
            if !count = n then side.stop ()));
      log := (-1, side.now (), side.pending ()) :: !log)
    ops;
  side.run fire;
  List.rev ((-1, side.now (), side.pending ()) :: !log)

let engine_matches_model =
  QCheck.Test.make ~count:300 ~name:"engine dispatches like a sorted model"
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map print_engine_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 80) engine_op_gen))
    (fun ops ->
      let expected = interpret (model_side ()) ops in
      let plain = interpret (engine_side ()) ops in
      Profile.set_enabled true;
      let profiled =
        Fun.protect
          ~finally:(fun () ->
            Profile.set_enabled false;
            Profile.reset ())
          (fun () -> interpret (engine_side ()) ops)
      in
      plain = expected && profiled = expected)

(* ---------------- Trace ---------------- *)

let trace_basic () =
  let t = Trace.create ~capacity:10 () in
  Trace.log t ~time:1 ~level:Trace.Info ~tag:"a" "hello";
  Trace.logf t ~time:2 ~level:Trace.Warn ~tag:"b" "x=%d" 42;
  check_int "count" 2 (Trace.count t);
  match Trace.records t with
  | [ r1; r2 ] ->
    Alcotest.(check string) "msg 1" "hello" r1.Trace.message;
    Alcotest.(check string) "msg 2" "x=42" r2.Trace.message
  | _ -> Alcotest.fail "expected two records"

let trace_ring_eviction () =
  let t = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.log t ~time:i ~level:Trace.Debug ~tag:"t" (string_of_int i)
  done;
  check_int "total count includes evicted" 5 (Trace.count t);
  Alcotest.(check (list string)) "last three retained" [ "3"; "4"; "5" ]
    (List.map (fun r -> r.Trace.message) (Trace.records t))

let trace_find_by_tag () =
  let t = Trace.create () in
  Trace.log t ~time:1 ~level:Trace.Info ~tag:"x" "one";
  Trace.log t ~time:2 ~level:Trace.Info ~tag:"y" "two";
  Trace.log t ~time:3 ~level:Trace.Info ~tag:"x" "three";
  Alcotest.(check (list string)) "find x" [ "one"; "three" ]
    (List.map (fun r -> r.Trace.message) (Trace.find t ~tag:"x"))

let trace_clear () =
  let t = Trace.create () in
  Trace.log t ~time:1 ~level:Trace.Info ~tag:"x" "one";
  Trace.clear t;
  check_int "records dropped" 0 (List.length (Trace.records t))

let trace_capacity_invalid () =
  check "capacity 0 rejected" true
    (try
       ignore (Trace.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick rng_copy_independent;
        Alcotest.test_case "split" `Quick rng_split_diverges;
        Alcotest.test_case "int invalid" `Quick rng_int_invalid;
        Alcotest.test_case "exponential" `Quick rng_exponential_positive;
        Alcotest.test_case "pick" `Quick rng_pick_member;
        Alcotest.test_case "int unbiased" `Quick rng_int_unbiased_small_bound;
        Alcotest.test_case "int huge bound" `Quick rng_int_huge_bound_in_range;
        Alcotest.test_case "int stream stable" `Quick rng_int_stream_stable;
        qtest rng_int_bounds;
        qtest rng_int_in_bounds;
        qtest rng_float_bounds;
        qtest rng_shuffle_permutation;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "time order" `Quick engine_orders_by_time;
        Alcotest.test_case "FIFO ties" `Quick engine_fifo_ties;
        Alcotest.test_case "clock" `Quick engine_clock_advances;
        Alcotest.test_case "past rejected" `Quick engine_past_raises;
        Alcotest.test_case "negative delay" `Quick engine_negative_delay;
        Alcotest.test_case "horizon" `Quick engine_until_horizon;
        Alcotest.test_case "stop" `Quick engine_stop;
        Alcotest.test_case "dispatch count" `Quick engine_dispatch_count;
        Alcotest.test_case "handler schedules" `Quick engine_handler_schedules;
        Alcotest.test_case "drain fast loop" `Quick engine_drain_fast_loop;
        Alcotest.test_case "packed time range guard" `Quick engine_time_range_guard;
        Alcotest.test_case "pop releases" `Quick engine_pop_releases;
        Alcotest.test_case "float elements" `Quick engine_float_payloads;
        Alcotest.test_case "shrink keeps order" `Quick engine_shrink_keeps_order;
        Alcotest.test_case "overflow before direct" `Quick engine_overflow_before_direct;
        Alcotest.test_case "drained releases storage" `Quick engine_drained_releases_storage;
        qtest engine_matches_model;
      ] );
    ( "sim.trace",
      [
        Alcotest.test_case "basic" `Quick trace_basic;
        Alcotest.test_case "ring eviction" `Quick trace_ring_eviction;
        Alcotest.test_case "find by tag" `Quick trace_find_by_tag;
        Alcotest.test_case "clear" `Quick trace_clear;
        Alcotest.test_case "capacity invalid" `Quick trace_capacity_invalid;
      ] );
  ]
