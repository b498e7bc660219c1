(* Phase profiler: scoped wall-clock timers and minor-word counts with
   self attribution.

   State is sharded per domain through DLS — a domain only ever touches its
   own tally table and span stack, so instrumented hot paths (engine
   dispatch, checkpoint record, recovery splice) take no lock.  The one
   mutex below guards only the registry of per-domain states and is hit
   once per domain lifetime, at first use.  When disabled (the default)
   [time] is a single flag test.

   An enabled span allocates nothing itself: the clock and the minor-word
   counter are read through unboxed externals, a tally's sums live in a
   flat float array, and the span stack is a set of parallel arrays
   indexed by depth.  A span's words are therefore exactly what the
   wrapped code allocated (including the closure it was handed, which the
   caller built before the span opened and so charges to the enclosing
   span), and self words subtract nested spans like self time. *)

external clock : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

external minor_words : unit -> (float[@unboxed])
  = "caml_gc_minor_words" "caml_gc_minor_words_unboxed"

(* Indices into a tally's [sums] and into a frame's block of [marks]. *)
let total_s = 0

let self_s = 1

let total_w = 2

let self_w = 3

type tally = { mutable count : int; sums : float array (* total/self seconds and words *) }

(* Open span [i] is [frames.(i)]; [marks] holds four floats per depth:
   start time, time of closed children, start words, words of closed
   children. *)
type dstate = {
  tallies : (string, tally) Hashtbl.t;
  mutable frames : tally array;
  mutable marks : float array;
  mutable depth : int;
}

let fresh_tally () = { count = 0; sums = Array.make 4 0.0 }

let enabled = ref false

let registry : dstate list ref = ref []

let registry_mutex = Mutex.create ()

let dkey =
  Domain.DLS.new_key (fun () ->
      let s =
        { tallies = Hashtbl.create 16; frames = Array.make 8 (fresh_tally ());
          marks = Array.make 32 0.0; depth = 0 }
      in
      Mutex.lock registry_mutex;
      registry := s :: !registry;
      Mutex.unlock registry_mutex;
      s)

let set_enabled b = enabled := b

let is_enabled () = !enabled

(* Zero tallies in place rather than [Hashtbl.reset]: {!probe} handles
   cache the tally object per domain, so its identity must survive a
   reset. *)
let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun _ (t : tally) ->
          t.count <- 0;
          Array.fill t.sums 0 4 0.0)
        s.tallies;
      s.depth <- 0)
    !registry;
  Mutex.unlock registry_mutex

let tally_of tallies name =
  match Hashtbl.find_opt tallies name with
  | Some t -> t
  | None ->
    let t = fresh_tally () in
    Hashtbl.add tallies name t;
    t

let push s t =
  let d = s.depth in
  if d = Array.length s.frames then begin
    let frames = Array.make (2 * d) t and marks = Array.make (8 * d) 0.0 in
    Array.blit s.frames 0 frames 0 d;
    Array.blit s.marks 0 marks 0 (4 * d);
    s.frames <- frames;
    s.marks <- marks
  end;
  s.frames.(d) <- t;
  s.depth <- d + 1;
  let m = s.marks and b = 4 * d in
  m.(b + 1) <- 0.0;
  m.(b + 3) <- 0.0;
  m.(b) <- clock ();
  m.(b + 2) <- minor_words ()

(* Words are read before the clock, and both before any bookkeeping, so
   neither the profiler nor the clock read lands in a span's words.  A
   span still open across a [reset] closes without a frame and is
   dropped. *)
let pop s =
  let w = minor_words () in
  let now = clock () in
  let d = s.depth - 1 in
  if d >= 0 then begin
    s.depth <- d;
    let m = s.marks and b = 4 * d in
    let dt = now -. m.(b) and dw = w -. m.(b + 2) in
    let t = s.frames.(d) in
    t.count <- t.count + 1;
    let sums = t.sums in
    sums.(total_s) <- sums.(total_s) +. dt;
    sums.(self_s) <- sums.(self_s) +. (dt -. m.(b + 1));
    sums.(total_w) <- sums.(total_w) +. dw;
    sums.(self_w) <- sums.(self_w) +. (dw -. m.(b + 3));
    if d > 0 then begin
      let p = b - 4 in
      m.(p + 1) <- m.(p + 1) +. dt;
      m.(p + 3) <- m.(p + 3) +. dw
    end
  end

let span s t f =
  push s t;
  match f () with
  | v ->
    pop s;
    v
  | exception e ->
    pop s;
    raise e

let time name f =
  if not !enabled then f ()
  else begin
    let s = Domain.DLS.get dkey in
    span s (tally_of s.tallies name) f
  end

(* A probe caches its tally per domain so the hot path skips the string
   hash and [find_opt] of {!time} — each span is then just the two clock
   and two word-counter reads plus the frame push.  The cached tally lives
   in the domain's ordinary tally table (and {!reset} zeroes tallies in
   place), so snapshot/reset see probe spans exactly like named ones. *)
type nonrec probe = tally Domain.DLS.key

let probe name =
  Domain.DLS.new_key (fun () -> tally_of (Domain.DLS.get dkey).tallies name)

let time_probe p f =
  if not !enabled then f ()
  else begin
    let s = Domain.DLS.get dkey in
    span s (Domain.DLS.get p) f
  end

type entry = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  total_words : float;
  self_words : float;
}

let snapshot () =
  let merged : (string, tally) Hashtbl.t = Hashtbl.create 16 in
  Mutex.lock registry_mutex;
  let states = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun name (t : tally) ->
          let m = tally_of merged name in
          m.count <- m.count + t.count;
          Array.iteri (fun i v -> m.sums.(i) <- m.sums.(i) +. v) t.sums)
        s.tallies)
    states;
  Hashtbl.fold
    (fun name (t : tally) acc ->
      (* [reset] zeroes tallies in place (probe handles cache them), so a
         phase not entered since the last reset shows up here as an
         all-zero tally — omit it. *)
      if t.count = 0 then acc
      else
        {
          name;
          count = t.count;
          total_s = t.sums.(total_s);
          self_s = t.sums.(self_s);
          total_words = t.sums.(total_w);
          self_words = t.sums.(self_w);
        }
        :: acc)
    merged []
  |> List.sort (fun a b -> String.compare a.name b.name)

let schema = "recflow.profile/1"

let to_json ?wall_s ?(meta = []) () =
  let phases =
    List.map
      (fun e ->
        ( e.name,
          Json.Obj
            [
              ("count", Json.Int e.count);
              ("total_s", Json.Float e.total_s);
              ("self_s", Json.Float e.self_s);
              ("total_words", Json.Float e.total_words);
              ("self_words", Json.Float e.self_words);
            ] ))
      (snapshot ())
  in
  Json.Obj
    (("schema", Json.Str schema)
     :: (match wall_s with Some w -> [ ("wall_s", Json.Float w) ] | None -> [])
    @ (match meta with [] -> [] | m -> [ ("meta", Json.Obj m) ])
    @ [ ("phases", Json.Obj phases) ])

let pp_report ppf () =
  let entries = snapshot () in
  if entries = [] then Format.fprintf ppf "profile: no phases recorded@."
  else begin
    let entries = List.sort (fun a b -> compare b.self_s a.self_s) entries in
    let total_self = List.fold_left (fun acc e -> acc +. e.self_s) 0.0 entries in
    Format.fprintf ppf "== phase profile ==@.";
    Format.fprintf ppf "%-28s %10s %12s %12s %7s %12s %10s@." "phase" "count" "total(ms)"
      "self(ms)" "self%" "self(kw)" "words/call";
    List.iter
      (fun e ->
        let pct = if total_self > 0.0 then 100.0 *. e.self_s /. total_self else 0.0 in
        Format.fprintf ppf "%-28s %10d %12.2f %12.2f %6.1f%% %12.1f %10.1f@." e.name e.count
          (1000.0 *. e.total_s) (1000.0 *. e.self_s) pct (e.self_words /. 1000.0)
          (e.self_words /. float_of_int e.count))
      entries
  end
