open Recflow_lang

(* ------------------------------------------------------------------ *)
(* Affine forms over parameter indices                                 *)
(* ------------------------------------------------------------------ *)

(* The abstract "size" of a value: an int is its own size, a list its
   length, a bool 0.  Every bound the pass manipulates is an affine form
   c + sum(k_i * p_i) over the enclosing function's parameter sizes. *)
module Aff = struct
  type t = { c : int; ks : (int * int) list }  (* sorted index -> nonzero coeff *)

  let const c = { c; ks = [] }

  let param i = { c = 0; ks = [ (i, 1) ] }

  let coeff a i = match List.assoc_opt i a.ks with Some k -> k | None -> 0

  let norm ks = List.filter (fun (_, k) -> k <> 0) (List.sort compare ks)

  let add a b =
    let idxs =
      List.sort_uniq compare (List.map fst a.ks @ List.map fst b.ks)
    in
    { c = a.c + b.c; ks = norm (List.map (fun i -> (i, coeff a i + coeff b i)) idxs) }

  let scale k a =
    if k = 0 then const 0 else { c = k * a.c; ks = norm (List.map (fun (i, v) -> (i, k * v)) a.ks) }

  let neg = scale (-1)

  let sub a b = add a (neg b)

  let add_const d a = { a with c = a.c + d }

  let equal a b = a.c = b.c && a.ks = b.ks

  let is_const a = a.ks = []

  let sum affs = List.fold_left add (const 0) affs
end

(* Bounds on one expression: affine lower and upper forms, [None] for
   unbounded on that side. *)
type bounds = { lo : Aff.t option; hi : Aff.t option }

let top = { lo = None; hi = None }

let exact a = { lo = Some a; hi = Some a }

let of_const c = exact (Aff.const c)

let opt2 f a b = match (a, b) with Some x, Some y -> Some (f x y) | _ -> None

let b_add a b = { lo = opt2 Aff.add a.lo b.lo; hi = opt2 Aff.add a.hi b.hi }

let b_neg a = { lo = Option.map Aff.neg a.hi; hi = Option.map Aff.neg a.lo }

let b_sub a b = b_add a (b_neg b)

let b_scale k a =
  if k >= 0 then { lo = Option.map (Aff.scale k) a.lo; hi = Option.map (Aff.scale k) a.hi }
  else { lo = Option.map (Aff.scale k) a.hi; hi = Option.map (Aff.scale k) a.lo }

let const_of b =
  match (b.lo, b.hi) with
  | Some x, Some y when Aff.equal x y && Aff.is_const x -> Some x.Aff.c
  | _ -> None

(* Syntactic max/min of two affine forms: defined only when the forms
   share coefficients, so the comparison is valid for every argument. *)
let aff_max a b =
  if a.Aff.ks = b.Aff.ks then Some (if a.Aff.c >= b.Aff.c then a else b) else None

let aff_min a b =
  if a.Aff.ks = b.Aff.ks then Some (if a.Aff.c <= b.Aff.c then a else b) else None

let join a b =
  {
    lo = (match (a.lo, b.lo) with Some x, Some y -> aff_min x y | _ -> None);
    hi = (match (a.hi, b.hi) with Some x, Some y -> aff_max x y | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Result-size summaries                                               *)
(* ------------------------------------------------------------------ *)

(* Upper/lower affine bound on a function's result size, over its own
   parameter sizes.  Recursive summaries are guessed from a small
   candidate family and verified branch-wise by induction on the
   evaluation derivation (sound for partial correctness: a divergent or
   aborting call returns nothing to bound). *)
type summary = bounds

(* Instantiate an affine form over callee parameters with bounds on the
   actual arguments (expressed over the caller's parameters). *)
let inst_hi (a : Aff.t) (args : bounds list) =
  List.fold_left
    (fun acc (i, k) ->
      match acc with
      | None -> None
      | Some acc -> (
        let arg = try List.nth args i with _ -> top in
        let side = if k >= 0 then arg.hi else arg.lo in
        match side with Some s -> Some (Aff.add acc (Aff.scale k s)) | None -> None))
    (Some (Aff.const a.Aff.c))
    a.Aff.ks

let inst_lo (a : Aff.t) (args : bounds list) =
  List.fold_left
    (fun acc (i, k) ->
      match acc with
      | None -> None
      | Some acc -> (
        let arg = try List.nth args i with _ -> top in
        let side = if k >= 0 then arg.lo else arg.hi in
        match side with Some s -> Some (Aff.add acc (Aff.scale k s)) | None -> None))
    (Some (Aff.const a.Aff.c))
    a.Aff.ks

let instantiate (s : summary) (args : bounds list) =
  {
    hi = (match s.hi with Some a -> inst_hi a args | None -> None);
    lo = (match s.lo with Some a -> inst_lo a args | None -> None);
  }

(* ------------------------------------------------------------------ *)
(* Expression bounds                                                   *)
(* ------------------------------------------------------------------ *)

let rec eval (summaries : (string * summary) list) env (e : Ast.expr) : bounds =
  match e with
  | Ast.Int n -> of_const n
  | Ast.Bool _ -> of_const 0
  | Ast.Nil -> of_const 0
  | Ast.Var v -> ( match List.assoc_opt v env with Some b -> b | None -> top)
  | Ast.If (_, a, b) -> join (eval summaries env a) (eval summaries env b)
  | Ast.And _ | Ast.Or _ -> of_const 0
  | Ast.Let (v, e1, e2) -> eval summaries ((v, eval summaries env e1) :: env) e2
  | Ast.Call (g, es) -> (
    let args = List.map (eval summaries env) es in
    match List.assoc_opt g summaries with Some s -> instantiate s args | None -> top)
  | Ast.Prim (p, es) -> (
    let bs = List.map (eval summaries env) es in
    match (p, bs) with
    | Ast.Add, [ a; b ] -> b_add a b
    | Ast.Sub, [ a; b ] -> b_sub a b
    | Ast.Neg, [ a ] -> b_neg a
    | Ast.Mul, [ a; b ] -> (
      match (const_of a, const_of b) with
      | Some k, _ -> b_scale k b
      | _, Some k -> b_scale k a
      | _ -> top)
    | Ast.Div, [ a; b ] -> (
      match (const_of a, const_of b) with
      | Some n, Some k when k <> 0 -> of_const (n / k)
      | _ -> top)
    | Ast.Mod, [ _; b ] -> (
      match const_of b with
      | Some k when k > 0 -> { lo = Some (Aff.const 0); hi = Some (Aff.const (k - 1)) }
      | _ -> top)
    | Ast.Min, [ a; b ] ->
      {
        lo = (match (a.lo, b.lo) with Some x, Some y -> aff_min x y | _ -> None);
        hi =
          (match (a.hi, b.hi) with
          | Some x, Some y -> ( match aff_min x y with Some m -> Some m | None -> Some x)
          | Some x, None -> Some x
          | None, Some y -> Some y
          | None, None -> None);
      }
    | Ast.Max, [ a; b ] ->
      {
        lo =
          (match (a.lo, b.lo) with
          | Some x, Some y -> ( match aff_max x y with Some m -> Some m | None -> Some x)
          | Some x, None -> Some x
          | None, Some y -> Some y
          | None, None -> None);
        hi = (match (a.hi, b.hi) with Some x, Some y -> aff_max x y | _ -> None);
      }
    | Ast.Cons, [ _; t ] -> b_add (of_const 1) t
    | Ast.Tail, [ l ] -> b_sub l (of_const 1)
    | Ast.Head, _ -> top
    | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne | Ast.Not | Ast.Is_nil), _ ->
      of_const 0
    | _ -> top)

(* ------------------------------------------------------------------ *)
(* Guard facts and entailment                                          *)
(* ------------------------------------------------------------------ *)

(* [ge0]: affine forms known >= 0 on the current path.  [ne0]: affine
   forms known <> 0 (from negated equality guards), used only for the
   exact-unit-step floor rule. *)
type facts = { ge0 : Aff.t list; ne0 : Aff.t list }

let no_facts = { ge0 = []; ne0 = [] }

let facts_union a b = { ge0 = a.ge0 @ b.ge0; ne0 = a.ne0 @ b.ne0 }

(* (facts when the condition is true, facts when it is false) *)
let rec cond_facts summaries env (c : Ast.expr) : facts * facts =
  let ex e =
    let b = eval summaries env e in
    match (b.lo, b.hi) with Some x, Some y when Aff.equal x y -> Some x | _ -> None
  in
  let cmp a b ~t ~f =
    match (ex a, ex b) with
    | Some x, Some y -> ({ no_facts with ge0 = t x y }, { no_facts with ge0 = f x y })
    | _ -> (no_facts, no_facts)
  in
  match c with
  | Ast.Prim (Ast.Lt, [ a; b ]) ->
    cmp a b
      ~t:(fun x y -> [ Aff.add_const (-1) (Aff.sub y x) ])
      ~f:(fun x y -> [ Aff.sub x y ])
  | Ast.Prim (Ast.Le, [ a; b ]) ->
    cmp a b ~t:(fun x y -> [ Aff.sub y x ]) ~f:(fun x y -> [ Aff.add_const (-1) (Aff.sub x y) ])
  | Ast.Prim (Ast.Gt, [ a; b ]) -> cond_facts summaries env (Ast.Prim (Ast.Lt, [ b; a ]))
  | Ast.Prim (Ast.Ge, [ a; b ]) -> cond_facts summaries env (Ast.Prim (Ast.Le, [ b; a ]))
  | Ast.Prim (Ast.Eq, [ a; b ]) -> (
    match (ex a, ex b) with
    | Some x, Some y ->
      ( { no_facts with ge0 = [ Aff.sub x y; Aff.sub y x ] },
        { no_facts with ne0 = [ Aff.sub x y ] } )
    | _ -> (no_facts, no_facts))
  | Ast.Prim (Ast.Ne, [ a; b ]) -> (
    match (ex a, ex b) with
    | Some x, Some y ->
      ( { no_facts with ne0 = [ Aff.sub x y ] },
        { no_facts with ge0 = [ Aff.sub x y; Aff.sub y x ] } )
    | _ -> (no_facts, no_facts))
  | Ast.Prim (Ast.Is_nil, [ l ]) -> (
    match ex l with
    | Some x -> ({ no_facts with ge0 = [ Aff.neg x ] }, { no_facts with ge0 = [ Aff.add_const (-1) x ] })
    | None -> (no_facts, no_facts))
  | Ast.Prim (Ast.Not, [ c ]) ->
    let t, f = cond_facts summaries env c in
    (f, t)
  | Ast.And (a, b) ->
    let ta, _ = cond_facts summaries env a in
    let tb, _ = cond_facts summaries env b in
    (facts_union ta tb, no_facts)
  | Ast.Or (a, b) ->
    let _, fa = cond_facts summaries env a in
    let _, fb = cond_facts summaries env b in
    (no_facts, facts_union fa fb)
  | _ -> (no_facts, no_facts)

(* [nonneg] holds the parameter indices whose size is intrinsically
   nonnegative (list-typed parameters).  A target is entailed when it is
   trivially nonnegative or dominated by the sum of at most two facts —
   a tiny, always-sound fragment of Farkas' lemma that covers every
   guard shape the workloads use. *)
let trivially_nonneg ~nonneg (a : Aff.t) =
  a.Aff.c >= 0 && List.for_all (fun (i, k) -> k >= 0 && List.mem i nonneg) a.Aff.ks

let entails ~nonneg (facts : facts) (target : Aff.t) =
  trivially_nonneg ~nonneg target
  || List.exists (fun f -> trivially_nonneg ~nonneg (Aff.sub target f)) facts.ge0
  || List.exists
       (fun f1 ->
         List.exists
           (fun f2 -> trivially_nonneg ~nonneg (Aff.sub (Aff.sub target f1) f2))
           facts.ge0)
       facts.ge0

(* ------------------------------------------------------------------ *)
(* Call sites with path-sensitive facts                                *)
(* ------------------------------------------------------------------ *)

type site = { callee : string; args : bounds list; sfacts : facts }

let collect_sites summaries (d : Ast.def) : site list =
  let sites = ref [] in
  let rec go env facts (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Bool _ | Ast.Nil | Ast.Var _ -> ()
    | Ast.If (c, a, b) ->
      go env facts c;
      let t, f = cond_facts summaries env c in
      go env (facts_union facts t) a;
      go env (facts_union facts f) b
    | Ast.And (a, b) ->
      go env facts a;
      let t, _ = cond_facts summaries env a in
      go env (facts_union facts t) b
    | Ast.Or (a, b) ->
      go env facts a;
      let _, f = cond_facts summaries env a in
      go env (facts_union facts f) b
    | Ast.Let (v, e1, e2) ->
      go env facts e1;
      go ((v, eval summaries env e1) :: env) facts e2
    | Ast.Prim (_, es) -> List.iter (go env facts) es
    | Ast.Call (g, es) ->
      List.iter (go env facts) es;
      sites := { callee = g; args = List.map (eval summaries env) es; sfacts = facts } :: !sites
  in
  let env = List.mapi (fun i p -> (p, exact (Aff.param i))) d.Ast.params in
  go env no_facts d.Ast.body;
  List.rev !sites

(* Max / min number of calls into [scc] one activation can issue.  Max
   mirrors the machine's spawn counting (short-circuit arms may both
   run in the worst case); min takes the cheapest path — if even the
   cheapest path re-enters the cycle for every member, the cycle can
   never be left once entered. *)
let rec count_calls ~mode ~in_scc (e : Ast.expr) =
  let c = count_calls ~mode ~in_scc in
  match e with
  | Ast.Int _ | Ast.Bool _ | Ast.Nil | Ast.Var _ -> 0
  | Ast.Prim (_, es) -> List.fold_left (fun acc e -> acc + c e) 0 es
  | Ast.Call (g, es) ->
    List.fold_left (fun acc e -> acc + c e) (if in_scc g then 1 else 0) es
  | Ast.If (cnd, a, b) ->
    c cnd + (match mode with `Max -> max (c a) (c b) | `Min -> min (c a) (c b))
  | Ast.And (a, b) | Ast.Or (a, b) -> (
    c a + match mode with `Max -> c b | `Min -> 0)
  | Ast.Let (_, a, b) -> c a + c b

(* ------------------------------------------------------------------ *)
(* Parameter kinds                                                     *)
(* ------------------------------------------------------------------ *)

type kind = KInt | KSize | KOther

let kinds_of_scheme (s : Infer.fn_scheme) =
  List.map
    (fun ty ->
      match Ty.repr ty with Ty.Int -> KInt | Ty.List _ -> KSize | _ -> KOther)
    s.Infer.param_tys

(* ------------------------------------------------------------------ *)
(* Public result types                                                 *)
(* ------------------------------------------------------------------ *)

type growth = Constant | Polynomial of int | Exponential | Unknown_growth | Unbounded

let growth_string = function
  | Constant -> "constant"
  | Polynomial 1 -> "linear"
  | Polynomial d -> Printf.sprintf "polynomial:%d" d
  | Exponential -> "exponential"
  | Unknown_growth -> "unknown"
  | Unbounded -> "unbounded"

type floor = { at_least : int; requires_start_ge : int option }

type verdict =
  | Not_recursive
  | Bounded of { measure : string; floor : floor option }
  | Quiet
  | Divergent of { reason : string }

type fn_cost = {
  fn : string;
  verdict : verdict;
  rec_fanout : int;
  growth : growth;
  work_per_activation : int;
}

(* ------------------------------------------------------------------ *)
(* Measures                                                            *)
(* ------------------------------------------------------------------ *)

(* A candidate ranking measure.  Per-parameter and pairwise-difference
   measures are local to one member (comparable on its self-edges only);
   the sums are defined for every member, so they can decrease across a
   mutual cycle (tak-style). *)
type measure =
  | M_param of string * int
  | M_diff of string * int * int
  | M_sum_ints
  | M_sum_sizes
  | M_neg of measure
      (** negation: an increasing counter bounded above by a guard
          ceiling; only usable when it yields a floored bound *)

let rec measure_at_raw ~kinds fn (m : measure) : Aff.t option =
  let ks () = match List.assoc_opt fn kinds with Some a -> a | None -> [||] in
  match m with
  | M_param (f, i) -> if String.equal f fn then Some (Aff.param i) else None
  | M_diff (f, i, j) ->
    if String.equal f fn then Some (Aff.sub (Aff.param i) (Aff.param j)) else None
  | M_neg m -> Option.map Aff.neg (measure_at_raw ~kinds fn m)
  | M_sum_ints ->
    let a = ks () in
    Some
      (Aff.sum
         (List.filter_map
            (fun i -> if a.(i) = KInt then Some (Aff.param i) else None)
            (List.init (Array.length a) Fun.id)))
  | M_sum_sizes ->
    let a = ks () in
    Some
      (Aff.sum
         (List.filter_map
            (fun i -> if a.(i) = KSize then Some (Aff.param i) else None)
            (List.init (Array.length a) Fun.id)))

(* A measure that degenerates to a constant (e.g. sum-of-list-sizes in a
   function with no list parameters) ranks nothing: treat it as
   inapplicable rather than letting it read as "stationary". *)
let measure_at ~kinds fn m =
  match measure_at_raw ~kinds fn m with
  | Some a when Aff.is_const a -> None
  | r -> r

let measure_desc ~params ~kinds_arr (m : measure) =
  let pname f i =
    match List.assoc_opt f params with
    | Some ps when i < List.length ps -> List.nth ps i
    | _ -> Printf.sprintf "p%d" i
  in
  let render f i =
    let sized =
      match List.assoc_opt f kinds_arr with
      | Some a when i < Array.length a && a.(i) = KSize -> true
      | _ -> false
    in
    if sized then Printf.sprintf "size(%s)" (pname f i) else pname f i
  in
  let rec go = function
    | M_param (f, i) -> render f i
    | M_diff (f, i, j) -> Printf.sprintf "%s - %s" (render f i) (render f j)
    | M_sum_ints -> "sum(int params)"
    | M_sum_sizes -> "sum(list sizes)"
    | M_neg m -> Printf.sprintf "-(%s)" (go m)
  in
  go m

(* ------------------------------------------------------------------ *)
(* Whole-program analysis                                              *)
(* ------------------------------------------------------------------ *)

type scc_info = {
  members : string list;  (* sorted *)
  si_verdict : verdict;
  si_measure : measure option;
  r_max : int;  (* max SCC-internal calls per activation, over members *)
  ext_callees : string list;  (* sorted distinct callees outside the SCC *)
  si_growth : growth;  (* composed over the condensation *)
}

type t = {
  program : Program.t;
  shape : Shape.t;
  graph : Callgraph.t;
  entries : string list;
  kinds : (string * kind array) list;
  summaries : (string * summary) list;
  sites : (string * site list) list;  (* per function, with final summaries *)
  scc_of : (string, int) Hashtbl.t;
  infos : (int * scc_info) list;  (* topological order, callees first *)
  costs : fn_cost list;
}

(* Topologically order the SCCs, callees first, deterministically. *)
let topo_sccs (graph : Callgraph.t) (sccs : string list list) =
  let scc_of = Hashtbl.create 16 in
  List.iteri (fun id ms -> List.iter (fun f -> Hashtbl.replace scc_of f id) ms) sccs;
  let arr = Array.of_list sccs in
  let n = Array.length arr in
  let deps = Array.make n [] in
  (* deps.(i) = scc ids i's members call into (excluding i) *)
  Array.iteri
    (fun i ms ->
      let ds =
        List.concat_map
          (fun f ->
            List.filter_map
              (fun g ->
                match Hashtbl.find_opt scc_of g with
                | Some j when j <> i -> Some j
                | _ -> None)
              (Callgraph.callees graph f))
          ms
        |> List.sort_uniq compare
      in
      deps.(i) <- ds)
    arr;
  let state = Array.make n 0 in
  let order = ref [] in
  let rec visit i =
    if state.(i) = 0 then begin
      state.(i) <- 1;
      List.iter visit deps.(i);
      state.(i) <- 2;
      order := i :: !order
    end
  in
  Array.iteri (fun i _ -> visit i) arr;
  (scc_of, arr, List.rev !order)

let nonneg_of kinds_arr fn =
  match List.assoc_opt fn kinds_arr with
  | Some a ->
    List.filter (fun i -> a.(i) = KSize) (List.init (Array.length a) Fun.id)
  | None -> []

(* Branch-wise verification of a candidate summary assignment for one
   SCC: every tail position's upper bound must be entailed <= the
   member's candidate under the path guards.  Sound by induction on the
   evaluation derivation (the candidate is assumed for recursive calls,
   which have strictly smaller derivations). *)
let verify_candidates ~kinds summaries (defs : Ast.def list) (cands : (string * Aff.t) list) =
  let summaries' =
    List.map (fun (f, cand) -> (f, { lo = None; hi = Some cand })) cands @ summaries
  in
  List.for_all
    (fun (d : Ast.def) ->
      let cand = List.assoc d.Ast.name cands in
      let nonneg = nonneg_of kinds d.Ast.name in
      let rec check env facts (e : Ast.expr) =
        match e with
        | Ast.If (c, a, b) ->
          let t, f = cond_facts summaries' env c in
          check env (facts_union facts t) a && check env (facts_union facts f) b
        | Ast.Let (v, e1, e2) ->
          check ((v, eval summaries' env e1) :: env) facts e2
        | _ -> (
          match (eval summaries' env e).hi with
          | Some h -> entails ~nonneg facts (Aff.sub cand h)
          | None -> false)
      in
      let env = List.mapi (fun i p -> (p, exact (Aff.param i))) d.Ast.params in
      check env no_facts d.Ast.body)
    defs

(* Candidate result-size bounds for one recursive SCC.  Singleton SCCs
   try each compatible parameter and the parameter sum; mutual SCCs try
   the uniform parameter-sum strategy only. *)
let candidate_assignments ~kinds (defs : Ast.def list) =
  let sum_cand (d : Ast.def) extra =
    let a = match List.assoc_opt d.Ast.name kinds with Some a -> a | None -> [||] in
    Aff.add_const extra
      (Aff.sum
         (List.filter_map
            (fun i -> if a.(i) <> KOther then Some (Aff.param i) else None)
            (List.init (Array.length a) Fun.id)))
  in
  match defs with
  | [ d ] ->
    let a = match List.assoc_opt d.Ast.name kinds with Some a -> a | None -> [||] in
    let singles =
      List.concat_map
        (fun i ->
          if a.(i) <> KOther then
            [ Aff.param i; Aff.add_const 1 (Aff.param i) ]
          else [])
        (List.init (Array.length a) Fun.id)
    in
    List.map (fun c -> [ (d.Ast.name, c) ]) (singles @ [ sum_cand d 0; sum_cand d 1 ])
  | ds ->
    List.map (fun extra -> List.map (fun d -> (d.Ast.name, sum_cand d extra)) ds) [ 0; 1 ]

(* Probe the largest k with facts |- measure >= k (the guard floor). *)
let probe_floor ~nonneg facts (m_caller : Aff.t) =
  let rec go k = if k < -16 then None else if entails ~nonneg facts (Aff.add_const (-k) m_caller) then Some k else go (k - 1) in
  go 64

let ne_floor facts (m_caller : Aff.t) =
  (* a fact aff <> 0 matches when aff = m_caller - k for some k *)
  List.filter_map
    (fun a ->
      if a.Aff.ks = m_caller.Aff.ks then Some (m_caller.Aff.c - a.Aff.c)
      else
        let n = Aff.neg a in
        if n.Aff.ks = m_caller.Aff.ks then Some (m_caller.Aff.c - n.Aff.c) else None)
    facts.ne0

let of_program ?(entries = []) ?schemes program =
  let graph = Callgraph.of_program program in
  let shape = Shape.of_program program in
  let entries =
    match List.filter (fun e -> List.mem e graph.Callgraph.functions) entries with
    | [] -> Callgraph.roots graph
    | es -> es
  in
  let schemes =
    match schemes with Some s -> s | None -> (Infer.infer_program program).Infer.schemes
  in
  let kinds =
    List.map
      (fun (d : Ast.def) ->
        ( d.Ast.name,
          match List.assoc_opt d.Ast.name schemes with
          | Some s -> Array.of_list (kinds_of_scheme s)
          | None -> Array.make (List.length d.Ast.params) KOther ))
      (Program.defs program)
  in
  let params = List.map (fun (d : Ast.def) -> (d.Ast.name, d.Ast.params)) (Program.defs program) in
  let recursive = Callgraph.recursive_functions graph in
  let scc_of, scc_arr, topo = topo_sccs graph (Callgraph.sccs graph) in
  (* -------- summaries, SCCs in dependency order -------- *)
  let summaries = ref [] in
  List.iter
    (fun id ->
      let members = scc_arr.(id) in
      let defs = List.map (Program.find_exn program) members in
      let is_rec = List.exists (fun f -> List.mem f recursive) members in
      if not is_rec then
        (* evaluate the body directly; callee summaries are already known *)
        List.iter
          (fun (d : Ast.def) ->
            let env = List.mapi (fun i p -> (p, exact (Aff.param i))) d.Ast.params in
            summaries := (d.Ast.name, eval !summaries env d.Ast.body) :: !summaries)
          defs
      else begin
        let chosen =
          List.find_opt
            (fun cands -> verify_candidates ~kinds !summaries defs cands)
            (candidate_assignments ~kinds defs)
        in
        List.iter
          (fun (d : Ast.def) ->
            let s =
              match chosen with
              | Some cands -> { lo = None; hi = Some (List.assoc d.Ast.name cands) }
              | None -> top
            in
            summaries := (d.Ast.name, s) :: !summaries)
          defs
      end)
    topo;
  let summaries = !summaries in
  let sites =
    List.map
      (fun (d : Ast.def) -> (d.Ast.name, collect_sites summaries d))
      (Program.defs program)
  in
  (* -------- per-SCC termination verdict -------- *)
  let classify id =
    let members = scc_arr.(id) in
    let is_rec = List.exists (fun f -> List.mem f recursive) members in
    let in_scc g = List.mem g members in
    let internal =
      List.concat_map
        (fun f ->
          List.filter_map
            (fun s -> if in_scc s.callee then Some (f, s) else None)
            (List.assoc f sites))
        members
    in
    let r_of f =
      count_calls ~mode:`Max ~in_scc (Program.find_exn program f).Ast.body
    in
    let r_max = List.fold_left (fun acc f -> max acc (r_of f)) 0 members in
    let ext_callees =
      List.concat_map
        (fun f -> List.filter (fun g -> not (in_scc g)) (Callgraph.callees graph f))
        members
      |> List.sort_uniq String.compare
    in
    if not is_rec then (Not_recursive, None, r_max, ext_callees)
    else begin
      let base_candidates =
        List.concat_map
          (fun f ->
            let a = match List.assoc_opt f kinds with Some a -> a | None -> [||] in
            let idx = List.init (Array.length a) Fun.id in
            let singles =
              List.filter_map (fun i -> if a.(i) <> KOther then Some (M_param (f, i)) else None) idx
            in
            let diffs =
              List.concat_map
                (fun i ->
                  List.filter_map
                    (fun j ->
                      if i <> j && a.(i) = KInt && a.(j) = KInt then Some (M_diff (f, i, j))
                      else None)
                    idx)
                idx
            in
            singles @ diffs)
          members
        @ [ M_sum_ints; M_sum_sizes ]
      in
      (* edge status.  [`Dec]: provably decreases by >= 1.  [`Same]:
         provably stationary.  [`Inc]: provably does not decrease (and
         not stationary) — the only status that counts as divergence
         evidence, since a measure merely standing still on one edge may
         be compensated by another measure on another edge.  [`Unknown]:
         not comparable. *)
      let edge_status m (f, s) =
        match measure_at ~kinds f m with
        | None -> `Unknown
        | Some m_caller -> (
          match measure_at ~kinds s.callee m with
          | None -> `Unknown
          | Some m_callee ->
            let nonneg = nonneg_of kinds f in
            let hi = inst_hi m_callee s.args and lo = inst_lo m_callee s.args in
            let same =
              match (hi, lo) with
              | Some h, Some l -> Aff.equal h l && Aff.equal h m_caller
              | _ -> false
            in
            let dec =
              match hi with
              | Some h -> entails ~nonneg s.sfacts (Aff.sub (Aff.add_const (-1) m_caller) h)
              | None -> false
            in
            if same then `Same
            else if dec then `Dec
            else
              let nondec =
                match lo with
                | Some l -> entails ~nonneg s.sfacts (Aff.sub l m_caller)
                | None -> false
              in
              if nondec then `Inc else `Unknown)
      in
      let statuses m = List.map (edge_status m) internal in
      let base = List.map (fun m -> (m, statuses m)) base_candidates in
      let negated = List.map (fun m -> (M_neg m, statuses (M_neg m))) base_candidates in
      let non_vacuous =
        List.filter (fun (_, sts) -> List.exists (fun s -> s <> `Unknown) sts) base
      in
      let dec_all_of = List.filter (fun (_, sts) -> List.for_all (fun s -> s = `Dec) sts) in
      let dec_all = dec_all_of base in
      let dec_all_neg = dec_all_of negated in
      let exact_unit m (f, s) =
        match (measure_at ~kinds f m, measure_at ~kinds s.callee m) with
        | Some m_caller, Some m_callee -> (
          match (inst_hi m_callee s.args, inst_lo m_callee s.args) with
          | Some h, Some l -> Aff.equal h l && Aff.equal h (Aff.add_const (-1) m_caller)
          | _ -> false)
        | _ -> false
      in
      (* floor for one decreasing measure, combined over internal sites *)
      let floor_of m =
        let unit_ok = List.for_all (exact_unit m) internal in
        let site_floor (f, s) =
          match measure_at ~kinds f m with
          | None -> None
          | Some m_caller -> (
            let nonneg = nonneg_of kinds f in
            match probe_floor ~nonneg s.sfacts m_caller with
            | Some k -> Some (k, None)
            | None -> (
              if not unit_ok then None
              else
                match ne_floor s.sfacts m_caller with
                | k :: _ -> Some (k + 1, Some k)
                | [] -> None))
        in
        let fls = List.map site_floor internal in
        if List.exists Option.is_none fls then None
        else
          let fls = List.filter_map Fun.id fls in
          let at_least = List.fold_left (fun acc (k, _) -> min acc k) max_int fls in
          let requires =
            List.fold_left
              (fun acc (_, r) ->
                match (acc, r) with
                | None, r -> r
                | Some a, Some b -> Some (max a b)
                | Some a, None -> Some a)
              None fls
          in
          Some { at_least; requires_start_ge = requires }
      in
      (* Negated candidates model increasing counters climbing toward a
         guard ceiling (e.g. [if n < 5 then f(n + 1)]): [-n] decreases and
         the guard floors it at [-4].  They only count when they come with
         a floor — an unfloored decreasing [-n] proves nothing and must
         not rescue [f(n) = f(n + 1)] from RF301. *)
      let with_floor =
        List.filter_map
          (fun (m, _) -> match floor_of m with Some fl -> Some (m, fl) | None -> None)
          (dec_all @ dec_all_neg)
      in
      let all_paths_recurse =
        members <> []
        && List.for_all
             (fun f -> count_calls ~mode:`Min ~in_scc (Program.find_exn program f).Ast.body >= 1)
             members
      in
      let desc m = measure_desc ~params ~kinds_arr:kinds m in
      match with_floor with
      | (m, fl) :: _ ->
        (Bounded { measure = desc m; floor = Some fl }, Some m, r_max, ext_callees)
      | [] ->
        if all_paths_recurse then
          ( Divergent { reason = "every evaluation path re-enters the cycle" },
            None, r_max, ext_callees )
        else (
          match dec_all with
          | (m, _) :: _ -> (Bounded { measure = desc m; floor = None }, Some m, r_max, ext_callees)
          | [] ->
            if
              non_vacuous <> []
              && List.for_all (fun (_, sts) -> List.exists (fun s -> s = `Inc) sts) non_vacuous
            then
              ( Divergent { reason = "every candidate measure is provably non-decreasing" },
                None, r_max, ext_callees )
            else (Quiet, None, r_max, ext_callees))
    end
  in
  (* -------- growth composition over the condensation -------- *)
  let infos = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let verdict, m, r_max, ext_callees = classify id in
      let local =
        match verdict with
        | Not_recursive -> Constant
        | Bounded { floor = Some _; _ } -> if r_max >= 2 then Exponential else Polynomial 1
        | Bounded { floor = None; _ } | Quiet -> Unknown_growth
        | Divergent _ -> Unbounded
      in
      let ext_growth =
        List.fold_left
          (fun acc g ->
            let gid = Hashtbl.find scc_of g in
            let gi = Hashtbl.find infos gid in
            match (acc, gi.si_growth) with
            | Unbounded, _ | _, Unbounded -> Unbounded
            | Unknown_growth, _ | _, Unknown_growth -> Unknown_growth
            | Exponential, _ | _, Exponential -> Exponential
            | Polynomial a, Polynomial b -> Polynomial (max a b)
            | Polynomial a, Constant | Constant, Polynomial a -> Polynomial a
            | Constant, Constant -> Constant)
          Constant ext_callees
      in
      let composed =
        match (local, ext_growth) with
        | Unbounded, _ | _, Unbounded -> Unbounded
        | Unknown_growth, _ | _, Unknown_growth -> Unknown_growth
        | Exponential, _ | _, Exponential -> Exponential
        | Polynomial a, Polynomial b -> Polynomial (a + b)
        | Polynomial a, Constant | Constant, Polynomial a -> Polynomial a
        | Constant, Constant -> Constant
      in
      Hashtbl.replace infos id
        {
          members = scc_arr.(id);
          si_verdict = verdict;
          si_measure = m;
          r_max;
          ext_callees;
          si_growth = composed;
        })
    topo;
  let infos_list = List.map (fun id -> (id, Hashtbl.find infos id)) topo in
  let costs =
    List.map
      (fun (d : Ast.def) ->
        let id = Hashtbl.find scc_of d.Ast.name in
        let info = Hashtbl.find infos id in
        let in_scc g = List.mem g info.members in
        {
          fn = d.Ast.name;
          verdict = info.si_verdict;
          rec_fanout = count_calls ~mode:`Max ~in_scc d.Ast.body;
          growth = info.si_growth;
          work_per_activation = Ast.size d.Ast.body;
        })
      (Program.defs program)
  in
  { program; shape; graph; entries; kinds; summaries; sites; scc_of; infos = infos_list; costs }

let find t fn = List.find_opt (fun c -> String.equal c.fn fn) t.costs

(* ------------------------------------------------------------------ *)
(* RF3xx lints                                                         *)
(* ------------------------------------------------------------------ *)

(* Mirror of the RF203 detection in [Lints]: a self-call passing every
   parameter through unchanged.  When a divergent SCC contains one, RF203
   already pinpoints the offending call — a stacked RF3xx on the same
   cycle would be noise, so [lint] stays silent for that SCC. *)
let has_identity_self_call (d : Ast.def) =
  let found = ref false in
  let rec go rebound = function
    | Ast.Int _ | Ast.Bool _ | Ast.Nil | Ast.Var _ -> ()
    | Ast.Prim (_, args) -> List.iter (go rebound) args
    | Ast.If (c, a, b) ->
      go rebound c;
      go rebound a;
      go rebound b
    | Ast.And (a, b) | Ast.Or (a, b) ->
      go rebound a;
      go rebound b
    | Ast.Let (x, bound, body) ->
      go rebound bound;
      go (x :: rebound) body
    | Ast.Call (f, args) ->
      (if f = d.Ast.name && List.length args = List.length d.Ast.params then
         let identical =
           List.for_all2
             (fun arg param ->
               match arg with
               | Ast.Var v -> v = param && not (List.mem v rebound)
               | _ -> false)
             args d.Ast.params
         in
         if identical then found := true);
      List.iter (go rebound) args
  in
  go [] d.Ast.body;
  !found

let lint t =
  let reachable = Callgraph.reachable t.graph ~entries:t.entries in
  List.filter_map
    (fun (_, info) ->
      match info.si_verdict with
      | Divergent { reason }
        when List.exists (fun f -> List.mem f reachable) info.members
             && not
                  (List.exists
                     (fun f -> has_identity_self_call (Program.find_exn t.program f))
                     info.members) ->
        let fn = List.hd info.members in
        let cycle = String.concat " <-> " info.members in
        let d =
          if info.r_max >= 2 then
            Diagnostic.make ~fn Diagnostic.Exponential_spawn
              (Printf.sprintf
                 "recursive cycle %s re-enters itself %d times per activation with no \
                  decreasing measure (%s); task count grows exponentially"
                 cycle info.r_max reason)
          else if info.ext_callees <> [] then
            Diagnostic.make ~fn Diagnostic.Spawn_in_nondec_cycle
              (Printf.sprintf
                 "recursive cycle %s spawns %s on every trip around a non-decreasing cycle \
                  (%s); total spawned work is statically unbounded"
                 cycle
                 (String.concat ", " info.ext_callees)
                 reason)
          else
            Diagnostic.make ~fn Diagnostic.Unbounded_recursion
              (Printf.sprintf
                 "recursive cycle %s admits no decreasing argument measure (%s); recursion \
                  depth is statically unbounded"
                 cycle reason)
        in
        Some d
      | _ -> None)
    t.infos
  |> List.sort Diagnostic.compare

let fn_cost_to_string c =
  let v =
    match c.verdict with
    | Not_recursive -> "not recursive"
    | Bounded { measure; floor = Some fl } ->
      Printf.sprintf "depth bounded by %s (floor %d)" measure fl.at_least
    | Bounded { measure; floor = None } -> Printf.sprintf "decreasing %s, no floor" measure
    | Quiet -> "depth unknown"
    | Divergent { reason } -> "divergent: " ^ reason
  in
  Printf.sprintf "%s: %s, rec fan-out %d, growth %s, work/activation %d" c.fn v c.rec_fanout
    (growth_string c.growth) c.work_per_activation

(* ------------------------------------------------------------------ *)
(* Concrete entry bounds                                               *)
(* ------------------------------------------------------------------ *)

type entry_bounds = { depth : int option; fanout : int }

(* concrete interval, [None] = unbounded on that side *)
type iv = { ilo : int option; ihi : int option }

let iv_exact n = { ilo = Some n; ihi = Some n }

let value_size (v : Value.t) =
  match v with
  | Value.Int n -> n
  | Value.Bool _ -> 0
  | Value.Nil | Value.Cons _ ->
    let rec len acc = function Value.Cons (_, t) -> len (acc + 1) t | _ -> acc in
    len 0 v

let inst_iv_hi (a : Aff.t) (ivs : iv array) =
  List.fold_left
    (fun acc (i, k) ->
      match acc with
      | None -> None
      | Some acc -> (
        let p = if i < Array.length ivs then ivs.(i) else { ilo = None; ihi = None } in
        match if k >= 0 then p.ihi else p.ilo with
        | Some v -> Some (acc + (k * v))
        | None -> None))
    (Some a.Aff.c) a.Aff.ks

let inst_iv_lo (a : Aff.t) (ivs : iv array) =
  List.fold_left
    (fun acc (i, k) ->
      match acc with
      | None -> None
      | Some acc -> (
        let p = if i < Array.length ivs then ivs.(i) else { ilo = None; ihi = None } in
        match if k >= 0 then p.ilo else p.ihi with
        | Some v -> Some (acc + (k * v))
        | None -> None))
    (Some a.Aff.c) a.Aff.ks

let bounds_iv (b : bounds) (ivs : iv array) =
  {
    ilo = (match b.lo with Some a -> inst_iv_lo a ivs | None -> None);
    ihi = (match b.hi with Some a -> inst_iv_hi a ivs | None -> None);
  }

type fn_state = { mutable ext : iv array option; mutable full : iv array option }

let sat_add a b =
  match (a, b) with
  | Some x, Some y -> if x > max_int - y then None else Some (x + y)
  | _ -> None

let entry_bounds t ~entry ~args =
  let fanout = Shape.program_fanout_bound ~entries:[ entry ] t.shape t.program in
  match Program.find t.program entry with
  | None -> { depth = None; fanout }
  | Some edef ->
    let arity = List.length edef.Ast.params in
    let states : (string, fn_state) Hashtbl.t = Hashtbl.create 16 in
    let widens : (string * int * [ `Lo | `Hi ] * [ `Ext | `Full ], int) Hashtbl.t =
      Hashtbl.create 64
    in
    let state fn =
      match Hashtbl.find_opt states fn with
      | Some s -> s
      | None ->
        let s = { ext = None; full = None } in
        Hashtbl.replace states fn s;
        s
    in
    (* join [nw] into the [which] map of [fn]; true when anything changed *)
    let join_into fn which (nw : iv array) =
      let s = state fn in
      let cur = match which with `Ext -> s.ext | `Full -> s.full in
      match cur with
      | None ->
        (match which with `Ext -> s.ext <- Some (Array.copy nw) | `Full -> s.full <- Some (Array.copy nw));
        true
      | Some cur ->
        let changed = ref false in
        Array.iteri
          (fun i nv ->
            let widen side =
              let key = (fn, i, side, which) in
              let n = match Hashtbl.find_opt widens key with Some n -> n | None -> 0 in
              Hashtbl.replace widens key (n + 1);
              n + 1 > 3
            in
            let lo' =
              match (cur.(i).ilo, nv.ilo) with
              | None, _ | _, None -> None
              | Some a, Some b ->
                if b < a then if widen `Lo then None else Some b else Some a
            in
            let hi' =
              match (cur.(i).ihi, nv.ihi) with
              | None, _ | _, None -> None
              | Some a, Some b ->
                if b > a then if widen `Hi then None else Some b else Some a
            in
            if lo' <> cur.(i).ilo || hi' <> cur.(i).ihi then begin
              changed := true;
              cur.(i) <- { ilo = lo'; ihi = hi' }
            end)
          nw;
        !changed
    in
    let converged = ref true in
    if List.length args = arity then begin
      let seed = Array.of_list (List.map (fun v -> iv_exact (value_size v)) args) in
      ignore (join_into entry `Ext seed);
      ignore (join_into entry `Full seed);
      let work = Queue.create () in
      Queue.push entry work;
      (* widening bounds the number of state changes, so this terminates
         without the guard; the cap is a pure safety net *)
      let guard = ref 0 in
      while (not (Queue.is_empty work)) && !guard < 1_000_000 do
        incr guard;
        let f = Queue.pop work in
        match (state f).full with
        | None -> ()
        | Some ivs ->
          let my_scc = Hashtbl.find_opt t.scc_of f in
          List.iter
            (fun s ->
              let nw = Array.of_list (List.map (fun b -> bounds_iv b ivs) s.args) in
              let cross = Hashtbl.find_opt t.scc_of s.callee <> my_scc in
              let ch_full = join_into s.callee `Full nw in
              let ch_ext = if cross then join_into s.callee `Ext nw else false in
              if ch_full || ch_ext then Queue.push s.callee work)
            (match List.assoc_opt f t.sites with Some ss -> ss | None -> [])
      done;
      if not (Queue.is_empty work) then converged := false
    end
    else converged := false;
    (* depth over the condensation, memoized per SCC *)
    let memo : (int, int option) Hashtbl.t = Hashtbl.create 16 in
    let info_of id = List.assoc id t.infos in
    let rec sd id =
      match Hashtbl.find_opt memo id with
      | Some d -> d
      | None ->
        Hashtbl.replace memo id (Some 0) (* provisional; condensation is acyclic *);
        let info = info_of id in
        let ext_depth () =
          List.fold_left
            (fun acc g ->
              let d = sat_add (Some 1) (sd (Hashtbl.find t.scc_of g)) in
              match (acc, d) with
              | None, _ | _, None -> None
              | Some a, Some b -> Some (max a b))
            (Some 0) info.ext_callees
        in
        let d =
          match info.si_verdict with
          | Not_recursive -> ext_depth ()
          | Bounded { floor = Some fl; _ } -> (
            match info.si_measure with
            | None -> None
            | Some m ->
              (* measure at SCC entry, over externally-reached members *)
              let entries =
                List.filter_map
                  (fun f ->
                    match (state f).ext with
                    | Some ivs -> (
                      match measure_at ~kinds:t.kinds f m with
                      | Some a -> Some (inst_iv_hi a ivs, inst_iv_lo a ivs)
                      | None -> None)
                    | None -> None)
                  info.members
              in
              if entries = [] then ext_depth () (* SCC never actually entered *)
              else
                let m0_hi =
                  List.fold_left
                    (fun acc (hi, _) ->
                      match (acc, hi) with Some a, Some b -> Some (max a b) | _ -> None)
                    (Some min_int) entries
                in
                let m0_lo =
                  List.fold_left
                    (fun acc (_, lo) ->
                      match (acc, lo) with Some a, Some b -> Some (min a b) | _ -> None)
                    (Some max_int) entries
                in
                let start_ok =
                  match fl.requires_start_ge with
                  | None -> true
                  | Some k -> ( match m0_lo with Some l -> l >= k | None -> false)
                in
                if not start_ok then None
                else (
                  match m0_hi with
                  | None -> None
                  | Some m0 ->
                    let e = max 0 (m0 - fl.at_least + 1) in
                    sat_add (Some e) (ext_depth ()))
            )
          | _ -> None
        in
        Hashtbl.replace memo id d;
        d
    in
    let depth =
      if not !converged then None
      else match Hashtbl.find_opt t.scc_of entry with Some id -> sd id | None -> None
    in
    { depth; fanout }

let subtree_bound eb ~depth =
  match eb.depth with
  | None -> None
  | Some d ->
    let r = max 0 (d - depth) in
    let b = eb.fanout in
    if b <= 1 then Some (r + 1)
    else
      (* 1 + b + ... + b^r, saturating *)
      let rec go i acc pow =
        if i > r then Some acc
        else if pow > (max_int - acc) / b then None
        else
          let pow = pow * b in
          go (i + 1) (acc + pow) pow
      in
      (match go 1 1 1 with Some n -> Some n | None -> Some max_int)

let activation_bound eb = subtree_bound eb ~depth:0
