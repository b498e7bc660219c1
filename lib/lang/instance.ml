(* An instance holds state only for what its evaluation can still change.

   A leaf (a constant or a parameter) is complete from the start: it never
   enters the ready queue and never waits, so it has no storage; it reads
   as Done, with its value from the template or from [params].  Every
   other node has a dense index [k] ([Graph.woff], in node-id order), a
   packed word [words.(k)] and, once Done, its value in [values.(k)].

   [words.(k)]: bits 0-2 hold the state code, bits 3-22 an aux field whose
   meaning depends on the state, bits 23-42 the number of waiters
   registered on the node.  [Graph.make] bounds every value that goes into
   a field by [Graph.max_packed].

     state        aux
     Idle         -            not demanded
     Queued       next + 1     in the ready queue; successor, 0 at the tail
     Called       -            spawn emitted, answer outstanding
     Done         -            [values.(k)] holds the value
     Pending      n            demanded, waiting on n dependency completions
     Branch_wait  branch       If: condition decided, waiting on [branch]

   The ready queue is a FIFO list of node ids threaded through the Queued
   words from [head] to [tail].  A node registers as a waiter on an
   operand at most once per static use, so a node with one use has at
   most one waiter, the user the template names, and keeps none.  A node
   with two or more uses owns one waiter slot per use after the node
   words; its waiters are the first (count) of them in registration order,
   notified newest first. *)

type action =
  | Work of { cost : int }
  | Spawn of { slot : Graph.node_id; fname : string; args : Value.t array }
  | Blocked
  | Finished of Value.t
  | Failed of string

type t = {
  graph : Graph.t;
  params : Value.t array;
  words : int array;  (* node words of the non-leaf nodes, then waiter slots *)
  values : Value.t array;
  mutable head : int;  (* ready queue, -1 when empty *)
  mutable tail : int;
  mutable outstanding : int;
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

(* [at] below is a node's [Graph.woff] entry: negative for a leaf,
   otherwise its index [at land max_packed] and who can wait on it. *)
let index t id = t.graph.Graph.woff.(id) land Graph.max_packed

let state t id =
  let at = t.graph.Graph.woff.(id) in
  if at < 0 then done_ else t.words.(at land Graph.max_packed) land 7

let aux t k = (t.words.(k) lsr aux_shift) land Graph.max_packed

(* Set the state and aux of the node at index [k], keeping its waiter
   count. *)
let set t k code a =
  t.words.(k) <- (t.words.(k) lsr count_shift) lsl count_shift lor (a lsl aux_shift) lor code

let work1 = Work { cost = 1 }
let vtrue = Value.Bool true
let vfalse = Value.Bool false

let value_exn t id =
  let at = t.graph.Graph.woff.(id) in
  if at < 0 then
    match t.graph.Graph.nodes.(id) with
    | Graph.Const v -> v
    | Graph.Param i -> t.params.(i)
    | Graph.Prim _ | Graph.If _ | Graph.Call _ -> invalid_arg "Instance: node has no state"
  else
    let k = at land Graph.max_packed in
    if t.words.(k) land 7 = done_ then t.values.(k)
    else invalid_arg "Instance: dependency not ready"

exception Program_error of string

let enqueue t id k =
  set t k queued 0;
  if t.tail < 0 then t.head <- id
  else begin
    let j = index t t.tail in
    t.words.(j) <- t.words.(j) land lnot aux_mask lor ((id + 1) lsl aux_shift)
  end;
  t.tail <- id

(* Register [w] to be notified when the non-leaf node at [at] completes. *)
let add_waiter t at w =
  let k = at land Graph.max_packed in
  let word = t.words.(k) in
  if at land Graph.slots_flag <> 0 then
    t.words.((at lsr Graph.place_shift) + (word lsr count_shift)) <- w;
  t.words.(k) <- word + count_unit

(* Mark the non-leaf node at [at] complete with [v] and propagate
   readiness to its waiters, newest registration first. *)
let rec complete t at v =
  let k = at land Graph.max_packed in
  let waiters = t.words.(k) lsr count_shift in
  t.values.(k) <- v;
  t.words.(k) <- done_;
  if waiters > 0 then
    if at land Graph.slots_flag = 0 then dep_ready t (at lsr Graph.place_shift)
    else
      let base = at lsr Graph.place_shift in
      for i = waiters - 1 downto 0 do
        dep_ready t t.words.(base + i)
      done

(* One dependency of [w] became ready. *)
and dep_ready t w =
  let k = index t w in
  let s = t.words.(k) land 7 in
  if s = pending then
    match t.graph.Graph.nodes.(w) with
    | Graph.If { cond; then_; else_ } -> branch_decide t w k cond then_ else_
    | Graph.Prim _ | Graph.Call _ ->
      let n = aux t k in
      if n <= 1 then enqueue t w k else set t k pending (n - 1)
    | Graph.Const _ | Graph.Param _ -> invalid_arg "Instance: leaf node cannot be pending"
  else if s = branch_wait then enqueue t w k
  else invalid_arg "Instance: unexpected dep notification"

(* The If node [w] (index [k])'s condition is ready: demand the chosen
   branch. *)
and branch_decide t w k cond then_ else_ =
  match value_exn t cond with
  | Value.Bool b ->
    let branch = if b then then_ else else_ in
    let at = t.graph.Graph.woff.(branch) in
    if at < 0 then enqueue t w k
    else begin
      demand t branch at;
      if t.words.(at land Graph.max_packed) land 7 = done_ then enqueue t w k
      else begin
        set t k branch_wait branch;
        add_waiter t at w
      end
    end
  | v -> raise (Program_error (Type_error.if_condition (Value.type_name v)))

(* Demand-driven activation of the non-leaf [id] at [at]: idempotent.  A
   leaf needs none: it is Done from the start. *)
and demand t id at =
  let k = at land Graph.max_packed in
  if t.words.(k) land 7 = idle then
    match t.graph.Graph.nodes.(id) with
    | Graph.Prim (_, deps) | Graph.Call { args = deps; _ } ->
      set t k pending (Array.length deps);
      let woff = t.graph.Graph.woff and missing = ref 0 in
      for j = 0 to Array.length deps - 1 do
        let d = deps.(j) in
        let at_d = woff.(d) in
        if at_d >= 0 then begin
          demand t d at_d;
          if t.words.(at_d land Graph.max_packed) land 7 <> done_ then begin
            incr missing;
            add_waiter t at_d id
          end
        end
      done;
      if !missing = 0 then enqueue t id k else set t k pending !missing
    | Graph.If { cond; then_; else_ } ->
      set t k pending 1;
      let at_c = t.graph.Graph.woff.(cond) in
      if at_c < 0 then branch_decide t id k cond then_ else_
      else begin
        demand t cond at_c;
        if t.words.(at_c land Graph.max_packed) land 7 = done_ then
          branch_decide t id k cond then_ else_
        else add_waiter t at_c id
      end
    | Graph.Const _ | Graph.Param _ -> ()

let create graph params =
  if Array.length params <> graph.Graph.arity then
    invalid_arg
      (Printf.sprintf "Instance.create: %s expects %d arguments, got %d" graph.Graph.fname
         graph.Graph.arity (Array.length params));
  let inner = Graph.inner_nodes graph in
  let t =
    {
      graph;
      params;
      words = Array.make (inner + Graph.waiter_slots graph) idle;
      values = Array.make inner Value.Nil;
      head = -1;
      tail = -1;
      outstanding = 0;
      failure = None;
    }
  in
  let r = graph.Graph.result in
  let at = graph.Graph.woff.(r) in
  (if at >= 0 then try demand t r at with Program_error msg -> t.failure <- Some msg);
  t

let fail t msg =
  t.failure <- Some msg;
  Failed msg

(* Fire the node at [at], which produced [v]: complete it and report
   [w]. *)
let fire t at v w = match complete t at v with () -> w | exception Program_error msg -> fail t msg

let fire_prim t at p v =
  let c = Builtins.cost p in
  fire t at v (if c = 1 then work1 else Work { cost = c })

let fire_bool t at p c = fire_prim t at p (if c then vtrue else vfalse)

let prim_general t at p deps =
  match Builtins.apply p (Array.map (value_exn t) deps) with
  | Ok v -> fire_prim t at p v
  | Error msg -> fail t msg

(* Binary integer arithmetic and comparisons inline; everything else, and
   every error, through [Builtins.apply] so values and messages match. *)
let prim t at p deps =
  if Array.length deps <> 2 then prim_general t at p deps
  else
    match (value_exn t deps.(0), value_exn t deps.(1)) with
    | Value.Int a, Value.Int b -> (
      match p with
      | Ast.Add -> fire_prim t at p (Value.Int (a + b))
      | Ast.Sub -> fire_prim t at p (Value.Int (a - b))
      | Ast.Mul -> fire_prim t at p (Value.Int (a * b))
      | Ast.Lt -> fire_bool t at p (a < b)
      | Ast.Le -> fire_bool t at p (a <= b)
      | Ast.Gt -> fire_bool t at p (a > b)
      | Ast.Ge -> fire_bool t at p (a >= b)
      | Ast.Eq -> fire_bool t at p (a = b)
      | Ast.Ne -> fire_bool t at p (a <> b)
      | _ -> prim_general t at p deps)
    | _ -> prim_general t at p deps

let step t =
  match t.failure with
  | Some msg -> Failed msg
  | None ->
    let r = t.graph.Graph.result in
    if state t r = done_ then Finished (value_exn t r)
    else
      let id = t.head in
      if id < 0 then
        if t.outstanding > 0 then Blocked
        else Failed "internal: evaluation stuck with no outstanding calls"
      else begin
        let at = t.graph.Graph.woff.(id) in
        let k = at land Graph.max_packed in
        t.head <- aux t k - 1;
        if t.head < 0 then t.tail <- -1;
        match t.graph.Graph.nodes.(id) with
        | Graph.Prim (p, deps) -> prim t at p deps
        | Graph.If { cond; then_; else_ } ->
          (* The chosen branch is ready; the If yields its value.  The
             condition is necessarily Done, so recomputing the choice here
             is safe and avoids storing it through the Queued state. *)
          let branch =
            match value_exn t cond with
            | Value.Bool b -> if b then then_ else else_
            | _ -> invalid_arg "Instance: non-boolean condition slipped through"
          in
          fire t at (value_exn t branch) work1
        | Graph.Call { fname; args } ->
          set t k called 0;
          t.outstanding <- t.outstanding + 1;
          let vals = Array.make (Array.length args) Value.Nil in
          for j = 0 to Array.length args - 1 do
            vals.(j) <- value_exn t args.(j)
          done;
          Spawn { slot = id; fname; args = vals }
        | Graph.Const _ | Graph.Param _ -> invalid_arg "Instance: leaf node in ready queue"
      end

let supply t slot v =
  let nodes = t.graph.Graph.nodes in
  let s =
    if slot >= 0 && slot < Array.length nodes then
      match nodes.(slot) with
      | Graph.Call _ -> state t slot
      | Graph.Const _ | Graph.Param _ | Graph.Prim _ | Graph.If _ -> idle
    else idle
  in
  if s = called then begin
    t.outstanding <- t.outstanding - 1;
    try complete t t.graph.Graph.woff.(slot) v with Program_error msg -> t.failure <- Some msg
  end
  else if s = done_ then ()
    (* duplicate answer: identical by determinacy; ignore (§4.1 case 6/7) *)
  else invalid_arg "Instance.supply: slot is not an outstanding call"

let outstanding_calls t = t.outstanding

let outstanding_slots t =
  let acc = ref [] in
  for id = Array.length t.graph.Graph.nodes - 1 downto 0 do
    if state t id = called then acc := id :: !acc
  done;
  !acc

let graph t = t.graph
