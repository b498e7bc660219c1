(* Tests for the event-sink abstraction and the ring-backed trace buffer. *)

module Trace = Recflow_sim.Trace
module Sink = Recflow_obs_core.Sink
module Json = Recflow_obs_core.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Sink.Ring ---------------- *)

let ring_basic () =
  let r = Sink.Ring.create ~capacity:4 in
  check_int "empty length" 0 (Sink.Ring.length r);
  check_int "empty total" 0 (Sink.Ring.total r);
  List.iter (Sink.Ring.push r) [ 1; 2; 3 ];
  check "order is oldest first" true (Sink.Ring.to_list r = [ 1; 2; 3 ]);
  check_int "capacity" 4 (Sink.Ring.capacity r)

let ring_eviction_wraparound () =
  let r = Sink.Ring.create ~capacity:3 in
  for i = 1 to 10 do
    Sink.Ring.push r i
  done;
  check_int "total counts evicted values" 10 (Sink.Ring.total r);
  check_int "length capped at capacity" 3 (Sink.Ring.length r);
  check "retains the newest, oldest first" true (Sink.Ring.to_list r = [ 8; 9; 10 ]);
  (* keep wrapping: the window slides *)
  Sink.Ring.push r 11;
  check "window slides" true (Sink.Ring.to_list r = [ 9; 10; 11 ])

let ring_clear_keeps_total () =
  let r = Sink.Ring.create ~capacity:2 in
  List.iter (Sink.Ring.push r) [ 1; 2; 3 ];
  Sink.Ring.clear r;
  check_int "cleared" 0 (Sink.Ring.length r);
  check_int "total is monotone" 3 (Sink.Ring.total r);
  Sink.Ring.push r 4;
  check "usable after clear" true (Sink.Ring.to_list r = [ 4 ]);
  check_int "total keeps counting" 4 (Sink.Ring.total r)

let ring_invalid_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Sink.Ring.create: capacity must be positive") (fun () ->
      ignore (Sink.Ring.create ~capacity:0))

let ring_as_sink () =
  let r = Sink.Ring.create ~capacity:8 in
  let s = Sink.Ring.sink r in
  List.iter (Sink.emit s) [ "a"; "b" ];
  check "sink pushes into the ring" true (Sink.Ring.to_list r = [ "a"; "b" ]);
  check_int "emitted" 2 (Sink.emitted s)

(* The ring against a list model: after every push (and across a clear),
   the retained window, its length, the monotone total and the sink's
   eviction count agree with the newest-[cap] suffix of a plain list. *)
let ring_matches_list_model () =
  List.iter
    (fun cap ->
      let r = Sink.Ring.create ~capacity:cap in
      let s = Sink.Ring.sink r in
      let model = ref [] (* retained, oldest first *) and total = ref 0 and evicted = ref 0 in
      let agree what =
        let label = Printf.sprintf "cap %d, %s" cap what in
        Alcotest.(check (list int)) (label ^ ": to_list") !model (Sink.Ring.to_list r);
        check_int (label ^ ": length") (List.length !model) (Sink.Ring.length r);
        check_int (label ^ ": total") !total (Sink.Ring.total r);
        check_int (label ^ ": dropped") !evicted (Sink.dropped s)
      in
      let push x =
        Sink.emit s x;
        incr total;
        model := !model @ [ x ];
        if List.length !model > cap then begin
          model := List.tl !model;
          incr evicted
        end;
        agree (Printf.sprintf "after push %d" x)
      in
      agree "empty";
      for i = 1 to 3 * cap do
        push i
      done;
      Sink.Ring.clear r;
      model := [];
      agree "cleared";
      for i = 1 to cap + 1 do
        push (100 + i)
      done)
    [ 1; 2; 3; 16 ]

(* The buffer grows with what the ring holds: one record in the trace
   ring's full 64k-slot window costs a few words, not the window. *)
let ring_grows_on_demand () =
  let r = Sink.Ring.create ~capacity:65_536 in
  Sink.Ring.push r 7;
  let words = Obj.reachable_words (Obj.repr r) in
  if words > 32 then Alcotest.failf "a ring holding one record costs %d words (> 32)" words

(* ---------------- Sink variants ---------------- *)

let sink_null () =
  let s = Sink.null () in
  List.iter (Sink.emit s) [ 1; 2; 3 ];
  check_int "null still counts" 3 (Sink.emitted s);
  Sink.flush s;
  Sink.close s

let sink_of_fun_and_close () =
  let got = ref [] in
  let closed = ref 0 in
  let s = Sink.of_fun ~close:(fun () -> incr closed) (fun x -> got := x :: !got) in
  List.iter (Sink.emit s) [ 1; 2 ];
  Sink.close s;
  Sink.close s;
  (* closed sinks swallow emits silently *)
  Sink.emit s 3;
  check "values delivered in order" true (List.rev !got = [ 1; 2 ]);
  check_int "close is idempotent" 1 !closed;
  check_int "emit after close is a no-op" 2 (Sink.emitted s)

let sink_tee () =
  let a = ref [] and b = ref [] in
  let s = Sink.tee (Sink.of_fun (fun x -> a := x :: !a)) (Sink.of_fun (fun x -> b := x :: !b)) in
  List.iter (Sink.emit s) [ 1; 2; 3 ];
  check "both sides see everything" true (List.rev !a = [ 1; 2; 3 ] && List.rev !b = [ 1; 2; 3 ])

let sink_file_jsonl () =
  let path = Filename.temp_file "recflow_sink" ".jsonl" in
  let s = Sink.file ~render:string_of_int path in
  List.iter (Sink.emit s) [ 10; 20; 30 ];
  Sink.close s;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  check "one line per value" true (lines = [ "10"; "20"; "30" ])

(* ---------------- Trace on top of the ring ---------------- *)

let log t time msg = Trace.log t ~time ~level:Trace.Info ~tag:"test" msg

let trace_count_vs_records () =
  let t = Trace.create ~capacity:5 () in
  for i = 1 to 12 do
    log t i (Printf.sprintf "r%d" i)
  done;
  check_int "count includes evicted records" 12 (Trace.count t);
  check_int "records is capped at capacity" 5 (List.length (Trace.records t));
  check "newest retained, oldest first" true
    (List.map (fun (r : Trace.record) -> r.Trace.message) (Trace.records t)
    = [ "r8"; "r9"; "r10"; "r11"; "r12" ])

let trace_find_after_eviction () =
  let t = Trace.create ~capacity:3 () in
  Trace.log t ~time:1 ~level:Trace.Info ~tag:"wanted" "early";
  for i = 2 to 5 do
    log t i "filler"
  done;
  Trace.log t ~time:6 ~level:Trace.Warn ~tag:"wanted" "late";
  check "evicted records are not found" true
    (List.map (fun (r : Trace.record) -> r.Trace.message) (Trace.find t ~tag:"wanted")
    = [ "late" ]);
  Trace.clear t;
  check_int "find after clear" 0 (List.length (Trace.find t ~tag:"wanted"));
  check_int "count survives clear" 6 (Trace.count t)

let trace_attach_sink () =
  let t = Trace.create ~capacity:2 () in
  let seen = ref [] in
  Trace.attach_sink t (Sink.of_fun (fun (r : Trace.record) -> seen := r.Trace.message :: !seen));
  let seen2 = ref 0 in
  (* a second attach tees rather than replacing *)
  Trace.attach_sink t (Sink.of_fun (fun _ -> incr seen2));
  for i = 1 to 4 do
    log t i (Printf.sprintf "m%d" i)
  done;
  check "sink saw every record, even evicted ones" true
    (List.rev !seen = [ "m1"; "m2"; "m3"; "m4" ]);
  check_int "teed sink too" 4 !seen2;
  check_int "ring still capped" 2 (List.length (Trace.records t))

let trace_json_line () =
  let t = Trace.create () in
  Trace.log t ~time:42 ~level:Trace.Error ~tag:"node" "bad \"thing\"";
  let r = List.hd (Trace.records t) in
  match Json.parse (Trace.to_json_line r) with
  | Error e -> Alcotest.failf "unparsable line: %s" e
  | Ok j ->
    let field name = Json.member name j in
    check "ts" true (Option.bind (field "ts") Json.int = Some 42);
    check "level" true (Option.bind (field "level") Json.str = Some "ERROR");
    check "msg round-trips escaping" true
      (Option.bind (field "msg") Json.str = Some "bad \"thing\"")

let suites =
  [
    ( "obs.ring",
      [
        Alcotest.test_case "basics" `Quick ring_basic;
        Alcotest.test_case "eviction wraparound" `Quick ring_eviction_wraparound;
        Alcotest.test_case "clear keeps total" `Quick ring_clear_keeps_total;
        Alcotest.test_case "invalid capacity" `Quick ring_invalid_capacity;
        Alcotest.test_case "as sink" `Quick ring_as_sink;
        Alcotest.test_case "list model" `Quick ring_matches_list_model;
        Alcotest.test_case "grows on demand" `Quick ring_grows_on_demand;
      ] );
    ( "obs.sink",
      [
        Alcotest.test_case "null" `Quick sink_null;
        Alcotest.test_case "of_fun + close" `Quick sink_of_fun_and_close;
        Alcotest.test_case "tee" `Quick sink_tee;
        Alcotest.test_case "file jsonl" `Quick sink_file_jsonl;
      ] );
    ( "sim.trace_ring",
      [
        Alcotest.test_case "count vs records" `Quick trace_count_vs_records;
        Alcotest.test_case "find after eviction" `Quick trace_find_after_eviction;
        Alcotest.test_case "attach sink" `Quick trace_attach_sink;
        Alcotest.test_case "json line" `Quick trace_json_line;
      ] );
  ]
