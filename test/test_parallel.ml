(* Tests for the domain pool and the parallel experiment harness: ordering,
   exception propagation, and the determinism contract — identical results
   at any pool width. *)

module Pool = Recflow_parallel.Pool
module Harness = Recflow_experiments.Harness
module Report = Recflow_experiments.Report
module Workload = Recflow_workload.Workload
module Rng = Recflow_sim.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool ~jobs f =
  let p = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Run [f] with the default pool set to [jobs], restoring width 1 after so
   tests do not leak domains into each other. *)
let with_default_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

(* ---------------- Pool ---------------- *)

let pool_map_ordering () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun p ->
          let xs = List.init 100 Fun.id in
          let ys = Pool.map p (fun x -> x * x) xs in
          Alcotest.(check (list int))
            (Printf.sprintf "submission order at jobs=%d" jobs)
            (List.map (fun x -> x * x) xs)
            ys))
    [ 1; 2; 4 ]

let pool_map_empty_and_singleton () =
  with_pool ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "empty" [] (Pool.map p (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map p (fun x -> x + 1) [ 6 ]))

exception Boom of int

let pool_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun p ->
          check
            (Printf.sprintf "raises at jobs=%d" jobs)
            true
            (try
               ignore (Pool.map p (fun x -> if x = 3 then raise (Boom x) else x) [ 1; 2; 3; 4 ]);
               false
             with Boom 3 -> true)))
    [ 1; 4 ]

let pool_lowest_index_exception () =
  (* Several tasks fail; the batch must settle and re-raise the failure of
     the lowest submission index, not whichever finished first. *)
  with_pool ~jobs:4 (fun p ->
      check "lowest index wins" true
        (try
           ignore
             (Pool.map p
                (fun x -> if x mod 2 = 0 then raise (Boom x) else x)
                [ 1; 2; 3; 4; 5; 6 ]);
           false
         with Boom 2 -> true))

let pool_survives_exception () =
  (* A failed batch must not poison the pool for later batches. *)
  with_pool ~jobs:2 (fun p ->
      (try ignore (Pool.map p (fun _ -> raise (Boom 0)) [ 1; 2 ]) with Boom _ -> ());
      Alcotest.(check (list int)) "next batch fine" [ 2; 4 ] (Pool.map p (fun x -> 2 * x) [ 1; 2 ]))

let pool_nested_map () =
  (* Nested submissions (an outer task fanning out an inner sweep, as
     exp_salvage does) must not deadlock even when the pool is narrower
     than the outer batch. *)
  with_pool ~jobs:2 (fun p ->
      let got =
        Pool.map p (fun i -> List.fold_left ( + ) 0 (Pool.map p (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested sums" [ 36; 66; 96; 126 ] got)

let pool_jobs_clamped () =
  with_pool ~jobs:1 (fun p -> check_int "jobs 1" 1 (Pool.jobs p));
  check "jobs 0 rejected" true
    (try
       ignore (Pool.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true)

let pool_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* A map on a shut-down pool used to fall back to running submitter-only,
     silently masquerading as a parallel sweep; it must refuse instead. *)
  check "map after shutdown refused" true
    (try
       ignore (Pool.map p (fun x -> x * x) [ 1; 2; 3 ]);
       false
     with Invalid_argument _ -> true)

let pool_shutdown_drains_in_flight_map () =
  (* Regression: workers used to exit the moment [closed] was set, without
     draining — a shutdown racing an in-flight map could strand its queued
     splits and deadlock the submitter.  Now shutdown must wait for the
     admitted batch: the submitter gets its complete result and shutdown
     returns only after.  Task 0 parks until the main domain has started
     the shutdown, guaranteeing the close flip lands mid-batch. *)
  let p = Pool.create ~jobs:3 () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let n = 64 in
  let submitter =
    Domain.spawn (fun () ->
        Pool.map p
          (fun i ->
            if i = 0 then begin
              Atomic.set started true;
              while not (Atomic.get release) do
                Domain.cpu_relax ()
              done
            end;
            i * i)
          (List.init n Fun.id))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let closer = Domain.spawn (fun () -> Pool.shutdown p) in
  (* give the shutdown a moment to flip [closed] while task 0 still parks *)
  for _ = 1 to 10_000 do
    Domain.cpu_relax ()
  done;
  Atomic.set release true;
  Alcotest.(check (list int))
    "racing map completed in full" (List.init n (fun i -> i * i)) (Domain.join submitter);
  Domain.join closer;
  check "map after the drained shutdown refused" true
    (try
       ignore (Pool.map p (fun x -> x) [ 1; 2 ]);
       false
     with Invalid_argument _ -> true)

let cross_pool_nested_map () =
  (* A worker of pool A submitting a batch to pool B becomes B's
     submitter for the span of that map and must come back as A's worker
     afterwards.  Exercised for correctness here: repeated rounds of
     A-tasks each fanning out through B, with enough elements per round
     that A still has elements to hand out after the inner maps return. *)
  with_pool ~jobs:2 (fun a ->
      with_pool ~jobs:2 (fun b ->
          for _round = 1 to 3 do
            let got =
              Pool.map a
                (fun i ->
                  let inner = Pool.map b (fun j -> (100 * i) + j) [ 1; 2; 3 ] in
                  List.fold_left ( + ) 0 inner)
                (List.init 40 Fun.id)
            in
            let expect = List.init 40 (fun i -> (300 * i) + 6) in
            Alcotest.(check (list int)) "cross-pool nested sums" expect got
          done))

let set_default_jobs_refused_in_flight () =
  (* Swapping the default pool while a map is running on it would tear the
     pool out from under its submitter.  A raw domain drives a map through
     the default pool and parks inside a task until the main domain has
     observed the refusal. *)
  with_default_jobs 2 (fun () ->
      let started = Atomic.make false in
      let release = Atomic.make false in
      let submitter =
        Domain.spawn (fun () ->
            Pool.map (Pool.default ())
              (fun i ->
                if i = 0 then begin
                  Atomic.set started true;
                  while not (Atomic.get release) do
                    Domain.cpu_relax ()
                  done
                end;
                i)
              [ 0; 1; 2; 3 ])
      in
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      let refused =
        try
          Pool.set_default_jobs 3;
          false
        with Invalid_argument _ -> true
      in
      Atomic.set release true;
      Alcotest.(check (list int)) "gated map finished" [ 0; 1; 2; 3 ] (Domain.join submitter);
      check "swap refused while map in flight" true refused;
      (* once the batch has settled the swap must go through *)
      Pool.set_default_jobs 3;
      check_int "swap succeeds after the batch" 3 (Pool.default_jobs ()))

let shutdown_admits_nested_map_during_drain () =
  (* An element of an admitted batch issues a nested map on the same pool
     after shutdown has closed it.  The outer batch keeps the pool draining,
     so the nested map must be admitted and return in full, the outer map
     must complete, and shutdown must return.  The main domain learns that
     the pool is closed by probing it with its own maps until one is
     refused, so the nested map is certain to run against a closed pool. *)
  let p = Pool.create ~jobs:3 () in
  let started = Atomic.make false in
  let release = Atomic.make false in
  let submitter =
    Domain.spawn (fun () ->
        Pool.map p
          (fun i ->
            if i = 0 then begin
              Atomic.set started true;
              while not (Atomic.get release) do
                Domain.cpu_relax ()
              done;
              List.fold_left ( + ) 0 (Pool.map p (fun j -> j * j) (List.init 10 Fun.id))
            end
            else i)
          (List.init 8 Fun.id))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let closer = Domain.spawn (fun () -> Pool.shutdown p) in
  let rec await_close () =
    match Pool.map p Fun.id [ 1; 2 ] with
    | _ ->
      Domain.cpu_relax ();
      await_close ()
    | exception Invalid_argument _ -> ()
  in
  await_close ();
  Atomic.set release true;
  Alcotest.(check (list int))
    "outer map completed with the nested result" (285 :: List.init 7 succ) (Domain.join submitter);
  Domain.join closer;
  check "map after the drained shutdown refused" true
    (try
       ignore (Pool.map p (fun x -> x) [ 1; 2 ]);
       false
     with Invalid_argument _ -> true)

(* ---------------- Harness determinism across pool widths ---------------- *)

(* The acceptance bar of the runner: a full experiment report rendered at
   --jobs 1 and at --jobs 4 must be byte-identical. Exercised here on the
   quick overhead sweep (the widest fan-out of the quick set). *)
let report_identical_across_widths () =
  let render () = Report.to_markdown (Recflow_experiments.Exp_overhead.run ~quick:true ()) in
  let seq = with_default_jobs 1 render in
  let par = with_default_jobs 4 render in
  Alcotest.(check string) "jobs=1 and jobs=4 markdown identical" seq par

let run_many_matches_list_map () =
  with_default_jobs 4 (fun () ->
      let xs = List.init 50 Fun.id in
      Alcotest.(check (list int)) "run_many = List.map" (List.map succ xs)
        (Harness.run_many succ xs))

let run_many_seeded_deterministic () =
  (* Element i's stream depends only on (seed, i): same at any width, and
     stable when the list grows a tail. *)
  let f ~rng x = (x, Rng.int rng 1_000_000) in
  let narrow = with_default_jobs 1 (fun () -> Harness.run_many_seeded ~seed:11 f [ 1; 2; 3; 4 ]) in
  let wide = with_default_jobs 4 (fun () -> Harness.run_many_seeded ~seed:11 f [ 1; 2; 3; 4 ]) in
  Alcotest.(check (list (pair int int))) "width-independent" narrow wide;
  let longer = with_default_jobs 2 (fun () -> Harness.run_many_seeded ~seed:11 f [ 1; 2; 3; 4; 5 ]) in
  Alcotest.(check (list (pair int int)))
    "prefix stable when the sweep grows" narrow
    (List.filteri (fun i _ -> i < 4) longer);
  let reseeded = with_default_jobs 2 (fun () -> Harness.run_many_seeded ~seed:12 f [ 1; 2; 3; 4 ]) in
  check "seed matters" true (narrow <> reseeded)

let obs_hook_complete_under_parallel_runs () =
  (* Every harness run must fire the hook exactly once even when runs
     execute on pool domains; the mutex in the harness serializes the hook
     body, so a plain counter and list suffice. *)
  let calls = ref 0 in
  let names = ref [] in
  Harness.set_obs_hook
    (Some
       (fun info run ->
         incr calls;
         names := info.Harness.workload_name :: !names;
         check "hook sees a finished run" true run.Harness.correct));
  Fun.protect
    ~finally:(fun () -> Harness.set_obs_hook None)
    (fun () ->
      with_default_jobs 4 (fun () ->
          let cfg seed = { (Harness.Config.default ~nodes:4) with Harness.Config.seed } in
          let runs =
            Harness.run_many
              (fun seed -> Harness.probe (cfg seed) Workload.fib Workload.Tiny)
              [ 1; 2; 3; 4; 5; 6 ]
          in
          check_int "all runs returned" 6 (List.length runs);
          check_int "hook fired once per run" 6 !calls;
          check "hook saw the workload" true (List.for_all (( = ) "fib") !names)))

let suites =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "map ordering" `Quick pool_map_ordering;
        Alcotest.test_case "empty and singleton" `Quick pool_map_empty_and_singleton;
        Alcotest.test_case "exception propagates" `Quick pool_exception_propagates;
        Alcotest.test_case "lowest-index exception" `Quick pool_lowest_index_exception;
        Alcotest.test_case "survives exception" `Quick pool_survives_exception;
        Alcotest.test_case "nested map" `Quick pool_nested_map;
        Alcotest.test_case "jobs validation" `Quick pool_jobs_clamped;
        Alcotest.test_case "shutdown idempotent" `Quick pool_shutdown_idempotent;
        Alcotest.test_case "shutdown drains in-flight map" `Quick
          pool_shutdown_drains_in_flight_map;
        Alcotest.test_case "cross-pool nested map" `Quick cross_pool_nested_map;
        Alcotest.test_case "set_default_jobs refused in flight" `Quick
          set_default_jobs_refused_in_flight;
        Alcotest.test_case "nested map during shutdown drain" `Quick
          shutdown_admits_nested_map_during_drain;
      ] );
    ( "parallel.harness",
      [
        Alcotest.test_case "report identical across widths" `Quick report_identical_across_widths;
        Alcotest.test_case "run_many = List.map" `Quick run_many_matches_list_map;
        Alcotest.test_case "run_many_seeded deterministic" `Quick run_many_seeded_deterministic;
        Alcotest.test_case "obs hook complete under jobs=4" `Quick obs_hook_complete_under_parallel_runs;
      ] );
  ]
