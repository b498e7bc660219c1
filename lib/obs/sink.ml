type 'a t = {
  mutable emitted : int;
  mutable dropped : int;
  emit_fn : 'a t -> 'a -> unit;
  flush_fn : unit -> unit;
  close_fn : unit -> unit;
  mutable closed : bool;
}

let make ?(flush = ignore) ?(close = ignore) emit_fn =
  {
    emitted = 0;
    dropped = 0;
    emit_fn = (fun _ x -> emit_fn x);
    flush_fn = flush;
    close_fn = close;
    closed = false;
  }

(* Internal: combinators that decide per-value whether to forward need to
   bump their own drop tally, so their emit body receives the sink. *)
let make_self ?(flush = ignore) ?(close = ignore) emit_fn =
  { emitted = 0; dropped = 0; emit_fn; flush_fn = flush; close_fn = close; closed = false }

let emit t x =
  if t.closed then
    (* Counting drop policy: a closed sink swallows the value, but never
       silently — the producer can audit [dropped] afterwards. *)
    t.dropped <- t.dropped + 1
  else begin
    t.emitted <- t.emitted + 1;
    t.emit_fn t x
  end

let flush t = if not t.closed then t.flush_fn ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close_fn ()
  end

let emitted t = t.emitted

let dropped t = t.dropped

let null () = make ignore

let of_fun ?flush ?close f = make ?flush ?close f

let tee a b =
  make
    ~flush:(fun () -> flush a; flush b)
    ~close:(fun () -> close a; close b)
    (fun x -> emit a x; emit b x)

let sample ~every inner =
  if every <= 0 then invalid_arg "Sink.sample: every must be positive";
  let seen = ref 0 in
  make_self
    ~flush:(fun () -> flush inner)
    ~close:(fun () -> close inner)
    (fun self x ->
      let k = !seen in
      seen := k + 1;
      if k mod every = 0 then emit inner x else self.dropped <- self.dropped + 1)

let line_writer ~render oc x =
  output_string oc (render x);
  output_char oc '\n'

let file ~render path =
  let oc = open_out path in
  make ~flush:(fun () -> Stdlib.flush oc) ~close:(fun () -> close_out oc) (line_writer ~render oc)

module Ring = struct
  (* [buf] grows geometrically up to [cap] while the ring fills, so a run
     that pushes a handful of records never pays for the whole window.
     Values only wrap (and [start] only moves) once [buf] is full-size, so
     a growing buffer always holds its values at [0, len). *)
  type 'a ring = {
    cap : int;
    mutable buf : 'a array;
    mutable start : int;  (* index of oldest value *)
    mutable len : int;
    mutable pushed : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Sink.Ring.create: capacity must be positive";
    { cap = capacity; buf = [||]; start = 0; len = 0; pushed = 0 }

  let push r x =
    if r.len = Array.length r.buf && r.len < r.cap then begin
      let grown = Array.make (min r.cap (max 8 (2 * r.len))) x in
      Array.blit r.buf 0 grown 0 r.len;
      r.buf <- grown
    end;
    if r.len < r.cap then begin
      r.buf.(r.len) <- x;
      r.len <- r.len + 1
    end
    else begin
      r.buf.(r.start) <- x;
      r.start <- (r.start + 1) mod r.cap
    end;
    r.pushed <- r.pushed + 1

  let to_list r =
    let rec collect i acc =
      if i < 0 then acc else collect (i - 1) (r.buf.((r.start + i) mod r.cap) :: acc)
    in
    collect (r.len - 1) []

  let total r = r.pushed

  let length r = r.len

  let capacity r = r.cap

  let clear r =
    r.start <- 0;
    r.len <- 0

  let sink r =
    make_self (fun self x ->
        if r.len = r.cap then self.dropped <- self.dropped + 1;
        push r x)
end
