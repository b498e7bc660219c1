module Config = Recflow_machine.Config
module Table = Recflow_stats.Table

type point = { failures : int; delta : int; makespan : int; correct : bool }

(* Spread [n] failures evenly across (20%, 80%) of the probe makespan,
   choosing at each instant the busiest processor not yet doomed and not
   hosting the root. *)
let plan_for probe n =
  let span = probe.Harness.makespan in
  let rec build i chosen plan =
    if i >= n then List.rev plan
    else begin
      let time = (span / 5) + (i * (3 * span / 5) / max 1 n) in
      match Harness.busiest_victim ~exclude:chosen probe ~time with
      | Ok victim -> build (i + 1) (victim :: chosen) ((time, victim) :: plan)
      | Error _ -> List.rev plan
    end
  in
  build 0 [] []

let sweep cfg w size counts =
  let probe = Harness.probe cfg w size in
  ( probe,
    Harness.run_many
      (fun n ->
        let plan = plan_for probe n in
        let r = Harness.run cfg w size ~failures:plan in
        {
          failures = List.length plan;
          delta = r.Harness.makespan - probe.Harness.makespan;
          makespan = r.Harness.makespan;
          correct = r.Harness.correct;
        })
      counts )

let run ?(quick = false) () =
  let w, size, inline_depth = Harness.synthetic_setup ~quick in
  let counts = if quick then [ 0; 2; 4 ] else [ 0; 1; 2; 3; 4; 5; 6 ] in
  let mk recovery =
    {
      (Config.default ~nodes:16) with
      Config.inline_depth;
      recovery;
      policy = Recflow_balance.Policy.Random;
    }
  in
  let roll_probe, roll = sweep (mk Config.Rollback) w size counts in
  let _, splice = sweep (mk Config.Splice) w size counts in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Completion under sustained failures (16 processors, fault-free makespan %d)"
           roll_probe.Harness.makespan)
      ~columns:[ "processors lost"; "scheme"; "makespan"; "degradation"; "answer ok" ]
  in
  List.iter2
    (fun (r : point) (s : point) ->
      let row scheme (p : point) =
        Table.add_row table
          [
            Harness.c_int p.failures;
            scheme;
            Harness.c_int p.makespan;
            Printf.sprintf "%+.0f%%"
              (100.0 *. float_of_int p.delta /. float_of_int roll_probe.Harness.makespan);
            Harness.c_bool p.correct;
          ]
      in
      row "rollback" r;
      row "splice" s)
    roll splice;
  let max_pt pts = List.nth pts (List.length pts - 1) in
  let degradation_bounded pts =
    (* losing k of 16 processors should not cost more than ~(2 + k)x *)
    List.for_all
      (fun p -> p.makespan <= roll_probe.Harness.makespan * (2 + p.failures))
      pts
  in
  let monotone_trend pts =
    (max_pt pts).delta >= (List.hd pts).delta
  in
  let checks =
    [
      ("every run, up to 6 lost processors, yields the serial answer",
       List.for_all (fun p -> p.correct) (roll @ splice));
      ("degradation is gradual (bounded by a small multiple per lost node)",
       degradation_bounded roll && degradation_bounded splice);
      ("cost grows with the number of failures", monotone_trend roll && monotone_trend splice);
    ]
  in
  Report.make ~id:"X1" ~title:"Fail-soft degradation under sustained failures"
    ~paper_source:"§1 (\"ability to sustain partial system failures\"), §5.2"
    ~notes:
      [
        "Victims are spread over the middle 60% of the run, each chosen as the busiest \
         processor still standing; the root's host is spared so the super-root path (tested \
         elsewhere) does not dominate the measurement.";
      ]
    ~checks [ table ]
