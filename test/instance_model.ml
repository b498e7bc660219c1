(* Reference model for lang.instance-model: the graph instance as it was
   when every node kept a node word and one waiter slot per static use,
   and Called words chained the spawns.  The code below is that
   instance.ml unchanged, except that the waiter-slot offsets it read from
   the template ([Graph.woff] and [Graph.wtotal] of that layout) are
   computed here by [old_layout], the counting loop of that
   [Graph.make], and kept in the record as [woff]; and it opens the
   library it lived in. *)

open Recflow_lang

(* One instance is two flat arrays over its template's nodes.

   [words.(id)] is node [id]'s packed word: bits 0-2 hold the state code,
   bits 3-22 an aux field whose meaning depends on the state, bits 23-42
   the number of waiters registered on the node.  [Graph.make] bounds every
   value that goes into a field by [Graph.max_packed].

     state        aux
     Idle         -            not demanded
     Queued       next + 1     in the ready queue; successor, 0 at the tail
     Called       prev + 1     spawn emitted; the call spawned before it
     Done         (kept)       [values.(id)] holds the value
     Pending      n            demanded, waiting on n dependency completions
     Branch_wait  branch       If: condition decided, waiting on [branch]

   The ready queue is a FIFO list threaded through the Queued words from
   [head] to [tail].  Called words link every spawn to the one before it
   from [last_spawn]; a call keeps its link once Done, so the chain always
   reaches back to the first spawn.  After the node words come the waiter
   slots: node [id] owns [graph.woff.(id)] onwards, one per static use, and
   its waiters are the first (count) of them in registration order,
   notified newest first. *)

type action =
  | Work of { cost : int }
  | Spawn of { slot : Graph.node_id; fname : string; args : Value.t array }
  | Blocked
  | Finished of Value.t
  | Failed of string

type t = {
  graph : Graph.t;
  woff : int array;  (* per node, its first waiter slot in [words] *)
  params : Value.t array;
  words : int array;  (* node words, then waiter slots *)
  values : Value.t array;
  mutable head : int;  (* ready queue, -1 when empty *)
  mutable tail : int;
  mutable last_spawn : int;  (* -1 before the first spawn *)
  mutable outstanding : int;
  mutable fired : int;
  mutable failure : string option;
}

let idle = 0
let queued = 1
let called = 2
let done_ = 3
let pending = 4
let branch_wait = 5

let aux_shift = 3
let count_shift = 23
let aux_mask = Graph.max_packed lsl aux_shift
let count_unit = 1 lsl count_shift

let state t id = t.words.(id) land 7
let aux t id = (t.words.(id) lsr aux_shift) land Graph.max_packed

(* Set state and aux, keeping the waiter count. *)
let set t id code a =
  t.words.(id) <- (t.words.(id) lsr count_shift) lsl count_shift lor (a lsl aux_shift) lor code

let work1 = Work { cost = 1 }
let vtrue = Value.Bool true
let vfalse = Value.Bool false

let value_exn t id =
  if state t id = done_ then t.values.(id) else invalid_arg "Instance: dependency not ready"

exception Program_error of string

let enqueue t id =
  set t id queued 0;
  if t.tail < 0 then t.head <- id
  else t.words.(t.tail) <- t.words.(t.tail) land lnot aux_mask lor ((id + 1) lsl aux_shift);
  t.tail <- id

(* Register [w] to be notified when [d] completes. *)
let add_waiter t d w =
  let word = t.words.(d) in
  t.words.(t.woff.(d) + (word lsr count_shift)) <- w;
  t.words.(d) <- word + count_unit

(* Mark [id] complete with [v] and propagate readiness to its waiters,
   newest registration first. *)
let rec complete t id v =
  let word = t.words.(id) in
  t.values.(id) <- v;
  t.words.(id) <- word land aux_mask lor done_;
  let base = t.woff.(id) in
  for i = (word lsr count_shift) - 1 downto 0 do
    dep_ready t t.words.(base + i)
  done

(* One dependency of [w] became ready. *)
and dep_ready t w =
  let s = state t w in
  if s = pending then
    match t.graph.Graph.nodes.(w) with
    | Graph.If { cond; then_; else_ } -> branch_decide t w cond then_ else_
    | Graph.Prim _ | Graph.Call _ ->
      let n = aux t w in
      if n <= 1 then enqueue t w else set t w pending (n - 1)
    | Graph.Const _ | Graph.Param _ -> invalid_arg "Instance: leaf node cannot be pending"
  else if s = branch_wait then enqueue t w
  else invalid_arg "Instance: unexpected dep notification"

(* The If node [w]'s condition is ready: demand the chosen branch. *)
and branch_decide t w cond then_ else_ =
  match value_exn t cond with
  | Value.Bool b ->
    let branch = if b then then_ else else_ in
    demand t branch;
    if state t branch = done_ then enqueue t w
    else begin
      set t w branch_wait branch;
      add_waiter t branch w
    end
  | v -> raise (Program_error (Type_error.if_condition (Value.type_name v)))

(* Demand-driven activation: idempotent. *)
and demand t id =
  if state t id = idle then
    match t.graph.Graph.nodes.(id) with
    | Graph.Const v -> complete t id v
    | Graph.Param i -> complete t id t.params.(i)
    | Graph.Prim (_, deps) | Graph.Call { args = deps; _ } ->
      set t id pending (Array.length deps);
      let missing = ref 0 in
      for k = 0 to Array.length deps - 1 do
        let d = deps.(k) in
        demand t d;
        if state t d <> done_ then begin
          incr missing;
          add_waiter t d id
        end
      done;
      if !missing = 0 then enqueue t id else set t id pending !missing
    | Graph.If { cond; then_; else_ } ->
      set t id pending 1;
      demand t cond;
      if state t cond = done_ then branch_decide t id cond then_ else_ else add_waiter t cond id

(* Waiter slots follow the node words: node [i] owns one per static use
   from [woff.(i)] on; returns [(woff, wtotal)]. *)
let old_layout nodes =
  let n = Array.length nodes in
  let woff = Array.make n 0 in
  let use d = woff.(d) <- woff.(d) + 1 in
  Array.iter
    (function
      | Graph.Const _ | Graph.Param _ -> ()
      | Graph.Prim (_, deps) | Graph.Call { args = deps; _ } -> Array.iter use deps
      | Graph.If { cond; then_; else_ } ->
        use cond;
        use then_;
        use else_)
    nodes;
  let next = ref n in
  for i = 0 to n - 1 do
    let uses = woff.(i) in
    woff.(i) <- !next;
    next := !next + uses
  done;
  (woff, !next - n)

let create graph params =
  if Array.length params <> graph.Graph.arity then
    invalid_arg
      (Printf.sprintf "Instance.create: %s expects %d arguments, got %d" graph.Graph.fname
         graph.Graph.arity (Array.length params));
  let n = Array.length graph.Graph.nodes in
  let woff, wtotal = old_layout graph.Graph.nodes in
  let t =
    {
      graph;
      woff;
      params;
      words = Array.make (n + wtotal) idle;
      values = Array.make n Value.Nil;
      head = -1;
      tail = -1;
      last_spawn = -1;
      outstanding = 0;
      fired = 0;
      failure = None;
    }
  in
  (try demand t graph.Graph.result with Program_error msg -> t.failure <- Some msg);
  t

let result t =
  let r = t.graph.Graph.result in
  if state t r = done_ then Some t.values.(r) else None

let fail t msg =
  t.failure <- Some msg;
  Failed msg

(* Fire a node that produced [v]: complete it and report [w]. *)
let fire t id v w =
  t.fired <- t.fired + 1;
  match complete t id v with () -> w | exception Program_error msg -> fail t msg

let fire_prim t id p v =
  let c = Builtins.cost p in
  fire t id v (if c = 1 then work1 else Work { cost = c })

let fire_bool t id p c = fire_prim t id p (if c then vtrue else vfalse)

let prim_general t id p deps =
  match Builtins.apply p (Array.map (value_exn t) deps) with
  | Ok v -> fire_prim t id p v
  | Error msg -> fail t msg

(* Binary integer arithmetic and comparisons inline; everything else, and
   every error, through [Builtins.apply] so values and messages match. *)
let prim t id p deps =
  if Array.length deps <> 2 then prim_general t id p deps
  else
    match (value_exn t deps.(0), value_exn t deps.(1)) with
    | Value.Int a, Value.Int b -> (
      match p with
      | Ast.Add -> fire_prim t id p (Value.Int (a + b))
      | Ast.Sub -> fire_prim t id p (Value.Int (a - b))
      | Ast.Mul -> fire_prim t id p (Value.Int (a * b))
      | Ast.Lt -> fire_bool t id p (a < b)
      | Ast.Le -> fire_bool t id p (a <= b)
      | Ast.Gt -> fire_bool t id p (a > b)
      | Ast.Ge -> fire_bool t id p (a >= b)
      | Ast.Eq -> fire_bool t id p (a = b)
      | Ast.Ne -> fire_bool t id p (a <> b)
      | _ -> prim_general t id p deps)
    | _ -> prim_general t id p deps

let step t =
  match t.failure with
  | Some msg -> Failed msg
  | None ->
    let r = t.graph.Graph.result in
    if state t r = done_ then Finished t.values.(r)
    else
      let id = t.head in
      if id < 0 then
        if t.outstanding > 0 then Blocked
        else Failed "internal: evaluation stuck with no outstanding calls"
      else begin
        t.head <- aux t id - 1;
        if t.head < 0 then t.tail <- -1;
        match t.graph.Graph.nodes.(id) with
        | Graph.Prim (p, deps) -> prim t id p deps
        | Graph.If { cond; then_; else_ } ->
          (* The chosen branch is ready; the If yields its value.  The
             condition is necessarily Done, so recomputing the choice here
             is safe and avoids storing it through the Queued state. *)
          let branch =
            match value_exn t cond with
            | Value.Bool b -> if b then then_ else else_
            | _ -> invalid_arg "Instance: non-boolean condition slipped through"
          in
          fire t id (value_exn t branch) work1
        | Graph.Call { fname; args } ->
          set t id called (t.last_spawn + 1);
          t.last_spawn <- id;
          t.outstanding <- t.outstanding + 1;
          let vals = Array.make (Array.length args) Value.Nil in
          for k = 0 to Array.length args - 1 do
            vals.(k) <- value_exn t args.(k)
          done;
          Spawn { slot = id; fname; args = vals }
        | Graph.Const _ | Graph.Param _ -> invalid_arg "Instance: leaf node in ready queue"
      end

let supply t slot v =
  (* the bound keeps a bad slot from reading a waiter slot as a node word *)
  let s = if slot >= 0 && slot < Array.length t.values then state t slot else idle in
  if s = called then begin
    t.outstanding <- t.outstanding - 1;
    try complete t slot v with Program_error msg -> t.failure <- Some msg
  end
  else if s = done_ then ()
    (* duplicate answer: identical by determinacy; ignore (§4.1 case 6/7) *)
  else invalid_arg "Instance.supply: slot is not an outstanding call"

let outstanding_calls t = t.outstanding

let outstanding_slots t =
  let rec walk id acc =
    if id < 0 then acc else walk (aux t id - 1) (if state t id = called then id :: acc else acc)
  in
  walk t.last_spawn []

let graph t = t.graph

let fname t = t.graph.Graph.fname

let args t = t.params

let fired_nodes t = t.fired
