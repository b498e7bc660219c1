(* Benchmark-owned spans around calls into the program's public functions.
   Spans live in memory while a traced iteration runs and are written out
   as one JSON file when the benchmark ends.  When tracing is off, [time]
   is just the call. *)

module Json = Recflow_obs_core.Json

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  sim : int;  (** the simulation (or request stream) the span belongs to *)
  name : string;
  start : float;
  stop : float;
  count : int;  (** operations the span covers (replays cover many) *)
}

let enabled = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_sim = ref 0

let now = Unix.gettimeofday

let time ?(count = 1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        let s = { id; parent; sim = !current_sim; name; start; stop = now (); count } in
        recorded := s :: !recorded)
      f
  end

let new_sim () = incr current_sim

(* The spans recorded since the last call, oldest first. *)
let take () =
  let s = List.rev !recorded in
  recorded := [];
  s

(* Exclusive time per span name: each span's duration minus the time its
   direct children cover.  Returns (name, (calls, operations, self_s)). *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) +. (s.stop -. s.start)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let children = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let self = s.stop -. s.start -. children in
      let calls, ops, t = Option.value ~default:(0, 0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (calls + 1, ops + s.count, t +. self))
    spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let to_json spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  Json.Obj
    [
      ("schema", Json.Str "perfbench.spans/1");
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("parent", Json.Int s.parent);
                   ("sim", Json.Int s.sim);
                   ("name", Json.Str s.name);
                   ("start_s", Json.Float (s.start -. t0));
                   ("dur_s", Json.Float (s.stop -. s.start));
                   ("count", Json.Int s.count);
                 ])
             spans) );
    ]
