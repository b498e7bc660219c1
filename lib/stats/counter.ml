(* A set maps names to cells.  A handle is a name with a process-wide
   index; each set caches the cell of every handle it has bumped in an
   array at that index, so a bump through a handle is an array read and an
   increment — no string hash, no option.  The first bump resolves the
   handle through the name table, creating the cell exactly as [incr] by
   name would, so a handle never bumped leaves no name behind and a handle
   and its name always share one cell. *)

type handle = { id : int; name : string }

type set = { cells : (string, int ref) Hashtbl.t; mutable resolved : int ref array }

let next_id = Atomic.make 0

let handle name = { id = Atomic.fetch_and_add next_id 1; name }

let handle_name h = h.name

(* The "not resolved yet" cell of every cache slot; never bumped. *)
let unresolved = ref 0

let create_set () =
  { cells = Hashtbl.create 32; resolved = Array.make (Atomic.get next_id) unresolved }

let cell set name =
  match Hashtbl.find_opt set.cells name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add set.cells name r;
    r

let resolve set h =
  let r = cell set h.name in
  let n = Array.length set.resolved in
  if h.id >= n then begin
    let a = Array.make (max (h.id + 1) (Atomic.get next_id)) unresolved in
    Array.blit set.resolved 0 a 0 n;
    set.resolved <- a
  end;
  set.resolved.(h.id) <- r;
  r

let handle_cell set h =
  let a = set.resolved in
  let r = if h.id < Array.length a then Array.unsafe_get a h.id else unresolved in
  if r != unresolved then r else resolve set h

let bump set h = Stdlib.incr (handle_cell set h)

let bump_by set h n =
  let r = handle_cell set h in
  r := !r + n

let incr set name = Stdlib.incr (cell set name)

let add set name n =
  let r = cell set name in
  r := !r + n

let get set name = match Hashtbl.find_opt set.cells name with Some r -> !r | None -> 0

let names set =
  Hashtbl.fold (fun k _ acc -> k :: acc) set.cells [] |> List.sort String.compare

let to_alist set = List.map (fun k -> (k, get set k)) (names set)

let merge a b =
  let out = create_set () in
  let blend set = Hashtbl.iter (fun k r -> add out k !r) set.cells in
  blend a;
  blend b;
  out

let reset set = Hashtbl.iter (fun _ r -> r := 0) set.cells

let pp ppf set =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %d@." k v) (to_alist set)
