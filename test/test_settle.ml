(* The request ledger against a list model.  Random programs open service
   requests in uid order (now and then hundreds at once, so uids pass a
   byte and the window slides and grows), hold, release and adjust stamps
   at depth 0, 1 and below, retire task uids, answer, force, and walk the
   open requests while the walk's callback runs more of the same.  After
   every step the ledger must agree with the model: the walk visits the
   open uids in order, every stamp finds its owner, a request settles
   exactly when its holds are 0 and its answer is in, and a message names
   a reclaimed request exactly when its request was settled or forced. *)

module Settle = Recflow_machine.Settle
module Message = Recflow_machine.Message
module Stamp = Recflow_recovery.Stamp

let qtest = QCheck_alcotest.to_alcotest

let procs = 4

type op =
  | Open of int  (* this many fresh service requests *)
  | Hold of int * int  (* request pick, stamp depth *)
  | Release of int * int
  | Adjust of int * int * int  (* request pick, stamp depth, holds *)
  | Retire of int * int * int  (* request pick, processor, task uid *)
  | Answer of int
  | Answer_all  (* every open request not answered yet *)
  | Force of int
  | Walk of (int * op) list  (* run [op] at the [n]-th request the walk visits *)

type case = { batch : bool; ops : op list }

let rec op_to_string = function
  | Open n -> Printf.sprintf "open %d" n
  | Hold (p, d) -> Printf.sprintf "hold %d@%d" p d
  | Release (p, d) -> Printf.sprintf "release %d@%d" p d
  | Adjust (p, d, n) -> Printf.sprintf "adjust %d@%d %+d" p d n
  | Retire (p, proc, uid) -> Printf.sprintf "retire %d %d/%d" p proc uid
  | Answer p -> Printf.sprintf "answer %d" p
  | Answer_all -> "answer all"
  | Force p -> Printf.sprintf "force %d" p
  | Walk acts ->
    Printf.sprintf "walk [%s]"
      (String.concat "; "
         (List.map (fun (n, op) -> Printf.sprintf "%d: %s" n (op_to_string op)) acts))

let case_to_string c =
  Printf.sprintf "%s: %s" (if c.batch then "batch" else "service")
    (String.concat ", " (List.map op_to_string c.ops))

(* ---------------- the model ---------------- *)

type mreq = {
  m_uid : int;
  mutable m_holds : int;
  mutable m_answered : bool;
  mutable m_forced : bool;
  mutable m_closed : bool;
  mutable m_retired : (int * int) list;
}

type model = {
  index : (int, mreq) Hashtbl.t;  (* the records the ledger keeps *)
  mutable order : mreq list;  (* them by uid, and some settled since [live] *)
  mutable issued : int;
  mutable m_settled : int list;  (* service uids in settle order, newest first *)
  mutable n_settled : int;
  mutable m_reclaimed : (int * int) list;  (* (processor, task uid) *)
  mutable sweeps : int;  (* batch reclaim-all sweeps *)
}

let find m uid = Hashtbl.find_opt m.index uid

let live m =
  m.order <- List.filter (fun r -> Hashtbl.mem m.index r.m_uid) m.order;
  m.order

let fresh uid =
  { m_uid = uid; m_holds = 0; m_answered = false; m_forced = false; m_closed = false;
    m_retired = [] }

(* The request a stamp of [uid] at [depth] names, whatever it holds. *)
let owner_uid ~batch uid depth = if batch then Some (-1) else if depth = 0 then None else Some uid

let reclaim ~batch m r =
  if batch then m.sweeps <- m.sweeps + 1
  else begin
    m.m_reclaimed <- r.m_retired @ m.m_reclaimed;
    r.m_retired <- []
  end

let settle ~batch m r =
  if not r.m_closed then begin
    r.m_closed <- true;
    m.n_settled <- m.n_settled + 1;
    reclaim ~batch m r;
    if r.m_uid >= 0 then begin
      Hashtbl.remove m.index r.m_uid;
      m.m_settled <- r.m_uid :: m.m_settled
    end
  end

(* ---------------- one structure driven through both ---------------- *)

type run = {
  case : case;
  ledger : Settle.t;
  model : model;
  settled_log : int list ref;  (* what [on_settle] saw, newest first *)
  reclaim_log : (int * int) list ref;
  sweeps : int ref;
}

let sweep_yield = 5

let create case =
  let settled_log = ref [] and reclaim_log = ref [] and sweeps = ref 0 in
  let ledger =
    Settle.create ~procs
      ~reclaim:(fun ~proc uid ->
        reclaim_log := (proc, uid) :: !reclaim_log;
        1)
      ~reclaim_all:(fun () ->
        incr sweeps;
        sweep_yield)
      ~on_settle:(fun r -> settled_log := r.Settle.uid :: !settled_log)
  in
  let model =
    { index = Hashtbl.create 64; order = []; issued = 0; m_settled = []; n_settled = 0;
      m_reclaimed = []; sweeps = 0 }
  in
  let r = { case; ledger; model; settled_log; reclaim_log; sweeps } in
  if case.batch then begin
    ignore
      (Settle.open_request ledger ~uid:(-1) ~time:0 ~fname:"f" ~args:[||] ~avoid:[]
         ~on_answer:ignore ~on_disturbed:ignore);
    let root = fresh (-1) in
    Hashtbl.replace model.index (-1) root;
    model.order <- [ root ]
  end;
  r

(* A stamp of request [uid] at [depth]: depth 0 is the root, depth 1 the
   request's own root, deeper ones call sites below it.  A batch run's
   request digit is arbitrary. *)
let stamp ~batch uid depth =
  let digit = if batch then 7 else uid in
  let rec below s d = if d = 0 then s else below (Stamp.child s (3 + d)) (d - 1) in
  if depth = 0 then Stamp.root else below (Stamp.child Stamp.root digit) (depth - 1)

(* A pick names an issued uid, or one or two past the last; a batch run
   has one request. *)
let uid_of t pick = if t.case.batch then -1 else pick mod (t.model.issued + 2)

let fail fmt = Printf.ksprintf failwith fmt

let rec apply t op =
  let batch = t.case.batch and m = t.model in
  (* [hold] and [release] are [adjust] by one, as the model has them *)
  let adjust pick depth d ledger_op =
    let uid = uid_of t pick in
    ledger_op (stamp ~batch uid depth);
    match Option.bind (owner_uid ~batch uid depth) (find m) with
    | Some r ->
      r.m_holds <- r.m_holds + d;
      if r.m_holds = 0 && r.m_answered then settle ~batch m r
    | None -> ()
  in
  match op with
  | Open n ->
    if not batch then
      m.order <-
        m.order
        @ List.init n (fun _ ->
              let uid = m.issued in
              ignore
                (Settle.open_request t.ledger ~uid ~time:uid ~fname:"f" ~args:[||] ~avoid:[]
                   ~on_answer:ignore ~on_disturbed:ignore);
              m.issued <- uid + 1;
              let r = fresh uid in
              Hashtbl.replace m.index uid r;
              r)
  | Hold (pick, depth) -> adjust pick depth 1 (Settle.hold t.ledger)
  | Release (pick, depth) -> adjust pick depth (-1) (Settle.release t.ledger)
  | Adjust (pick, depth, d) -> adjust pick depth d (fun s -> Settle.adjust t.ledger s d)
  | Retire (pick, proc, task) ->
    let uid = uid_of t pick in
    let depth = task mod 4 in
    Settle.retired t.ledger (stamp ~batch uid depth) ~proc task;
    if not batch then
      Option.iter
        (fun r -> r.m_retired <- (proc, task) :: r.m_retired)
        (Option.bind (owner_uid ~batch uid depth) (find m))
  | Answer pick -> answer t (uid_of t pick)
  | Answer_all -> List.iter (fun r -> answer t r.m_uid) (live m)
  | Force pick -> (
    match (Settle.find t.ledger (uid_of t pick), find m (uid_of t pick)) with
    | Some r, Some mr ->
      Settle.force t.ledger r;
      reclaim ~batch m mr;
      if not mr.m_closed then mr.m_forced <- true
    | None, None -> ()
    | _ -> fail "force: the ledger and the model disagree on request %d" (uid_of t pick))
  | Walk acts -> walk t acts

(* As the super-root answers: once, and only an open request. *)
and answer t uid =
  match (Settle.find t.ledger uid, find t.model uid) with
  | Some r, Some mr ->
    if not mr.m_answered then begin
      Settle.answered t.ledger r ~time:0;
      mr.m_answered <- true;
      if mr.m_holds = 0 then settle ~batch:t.case.batch t.model mr
    end
  | None, None -> ()
  | _ -> fail "answer: the ledger and the model disagree on request %d" uid

(* The walk must visit, in uid order, each request open when it began
   that is still open when the walk gets to it. *)
and walk t acts =
  let due = ref (List.map (fun r -> r.m_uid) (live t.model)) in
  let last = ref min_int and visits = ref 0 in
  let rec next_due () =
    match !due with
    | uid :: rest when uid <= !last || Option.is_none (find t.model uid) ->
      due := rest;
      next_due ()
    | uid :: _ -> Some uid
    | [] -> None
  in
  Settle.iter t.ledger (fun r ->
      (match next_due () with
      | Some uid when uid = r.Settle.uid -> ()
      | Some uid -> fail "walk visited %d, %d was due" r.Settle.uid uid
      | None -> fail "walk visited %d, none was due" r.Settle.uid);
      last := r.Settle.uid;
      incr visits;
      List.iter (fun (n, op) -> if n = !visits then apply t op) acts);
  match next_due () with Some uid -> fail "walk skipped %d" uid | None -> ()

(* ---------------- agreement ---------------- *)

let names_reclaimed t uid depth =
  match owner_uid ~batch:t.case.batch uid depth with
  | None -> false
  | Some o -> (
    match find t.model o with
    | Some r -> r.m_forced || r.m_closed
    | None -> o >= 0 && o < t.model.issued)

let agree t =
  let batch = t.case.batch and m = t.model in
  let walked = ref [] in
  Settle.iter t.ledger (fun r -> walked := r.Settle.uid :: !walked);
  let open_uids = List.map (fun r -> r.m_uid) (live m) in
  if List.rev !walked <> open_uids then
    fail "walk [%s], model [%s]"
      (String.concat " " (List.map string_of_int (List.rev !walked)))
      (String.concat " " (List.map string_of_int open_uids));
  (* the oldest and newest open uids, the latest settled, uids about a
     byte and about the last one issued *)
  let ends l = List.filteri (fun i _ -> i < 6) l in
  let uids =
    List.sort_uniq compare
      ((-1 :: 0 :: 1 :: 255 :: 256 :: ends open_uids) @ ends (List.rev open_uids) @ ends m.m_settled
      @ List.init 4 (fun i -> m.issued - 2 + i))
  in
  List.iter
    (fun uid ->
      let expected = Option.is_some (find m uid) in
      (match Settle.find t.ledger uid with
      | Some r when r.Settle.uid <> uid -> fail "find %d gave request %d" uid r.Settle.uid
      | Some _ when not expected -> fail "find %d: a record the model lacks" uid
      | None when expected -> fail "find %d: no record" uid
      | _ -> ());
      for depth = 0 to if batch || uid >= 0 then 3 else -1 do
        let s = stamp ~batch uid depth in
        let want = Option.bind (owner_uid ~batch uid depth) (find m) in
        (match (Settle.owner t.ledger s, want) with
        | Some r, Some w when r.Settle.uid = w.m_uid -> ()
        | None, None -> ()
        | got, _ ->
          fail "owner of %s: %s" (Stamp.to_string s)
            (match got with Some r -> string_of_int r.Settle.uid | None -> "none"));
        let msg = Message.Abort { task = 0; stamp = s } in
        if Settle.msg_names_reclaimed t.ledger msg <> names_reclaimed t uid depth then
          fail "msg_names_reclaimed %s: %b" (Stamp.to_string s)
            (Settle.msg_names_reclaimed t.ledger msg)
      done)
    uids;
  List.iter
    (fun mr ->
      match Settle.find t.ledger mr.m_uid with
      | Some r when r.Settle.holds <> mr.m_holds ->
        fail "request %d holds %d, model %d" mr.m_uid r.Settle.holds mr.m_holds
      | _ -> ())
    (live m);
  if Settle.settled t.ledger <> m.n_settled then
    fail "settled %d, model %d" (Settle.settled t.ledger) m.n_settled;
  if !(t.settled_log) <> m.m_settled then fail "on_settle order differs from the model's";
  if List.sort compare !(t.reclaim_log) <> List.sort compare m.m_reclaimed then
    fail "reclaimed uids differ from the model's";
  if !(t.sweeps) <> m.sweeps then fail "%d sweeps, model %d" !(t.sweeps) m.sweeps;
  if Settle.reclaimed t.ledger <> List.length m.m_reclaimed + (sweep_yield * m.sweeps) then
    fail "reclaimed %d" (Settle.reclaimed t.ledger);
  if Settle.issued t.ledger <> m.issued then
    fail "issued %d, model %d" (Settle.issued t.ledger) m.issued

let run_case case =
  let t = create case in
  List.iter
    (fun op ->
      apply t op;
      agree t)
    case.ops;
  true

(* ---------------- generators ---------------- *)

let gen_leaf =
  QCheck.Gen.(
    let pick = int_bound 1000 and depth = int_bound 3 in
    frequency
      [
        (2, map (fun n -> Open n) (frequency [ (3, int_range 1 3); (1, int_range 40 300) ]));
        (6, map2 (fun p d -> Hold (p, d)) pick depth);
        (6, map2 (fun p d -> Release (p, d)) pick depth);
        (2, map3 (fun p d n -> Adjust (p, d, n)) pick depth (int_range (-2) 2));
        ( 3,
          map3
            (fun p proc uid -> Retire (p, proc, uid))
            pick (int_bound (procs - 1)) (int_bound 999) );
        (4, map (fun p -> Answer p) pick);
        (1, return Answer_all);
        (1, map (fun p -> Force p) pick);
      ])

(* Inside a walk, opening many requests after answering the open ones
   is what slides the window under it. *)
let gen_act =
  QCheck.Gen.(
    frequency
      [ (3, gen_leaf); (1, return Answer_all); (1, map (fun n -> Open n) (int_range 60 300)) ])

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (12, gen_leaf);
        (3, map (fun acts -> Walk acts) (list_size (int_bound 4) (pair (int_range 1 6) gen_act)));
      ])

let gen_case =
  QCheck.Gen.(
    map2 (fun batch ops -> { batch; ops }) (frequency [ (1, return true); (5, return false) ])
      (list_size (int_range 1 40) gen_op))

let arb_case =
  QCheck.make ~print:case_to_string
    ~shrink:(fun c yield -> QCheck.Shrink.list c.ops (fun ops -> yield { c with ops }))
    gen_case

let prop_ledger =
  QCheck.Test.make ~count:300 ~name:"ledger = list model on random programs" arb_case run_case

(* Programs the random ones reach only by luck: a walk whose callback
   answers the request after the one it visits (it settles unvisited) and
   opens enough requests to slide the window past the settled ones and
   grow it. *)
let walk_moves_window () =
  let ops =
    [
      Open 70; Answer_all; Open 40; Hold (75, 1); Hold (90, 2); Hold (109, 1);
      Walk [ (1, Answer 76); (1, Open 100); (2, Open 200); (3, Answer_all); (4, Release (75, 1)) ];
      Open 300; Release (90, 2); Release (109, 1);
    ]
  in
  Alcotest.(check bool) "agrees with the model" true (run_case { batch = false; ops })

let suites =
  [
    ( "machine.settle",
      [ qtest prop_ledger; Alcotest.test_case "walk moves the window" `Quick walk_moves_window ] );
  ]
