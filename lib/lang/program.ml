type t = (string, Ast.def) Hashtbl.t

type error =
  | Duplicate_definition of string
  | Duplicate_parameter of string * string
  | Unbound_variable of string * string
  | Unknown_function of string * string
  | Arity_mismatch of { caller : string; callee : string; expected : int; got : int }
  | Prim_arity of { caller : string; prim : string; expected : int; got : int }
  | Too_many_call_sites of { fname : string; sites : int }

(* A child's level stamp ends with its call site's number, which must fit
   the byte [Stamp] keeps for every digit below depth 1. *)
let max_call_sites = 256

let error_to_string = function
  | Duplicate_definition f -> Printf.sprintf "duplicate definition of %s" f
  | Duplicate_parameter (f, p) -> Printf.sprintf "%s: duplicate parameter %s" f p
  | Unbound_variable (f, v) -> Printf.sprintf "%s: unbound variable %s" f v
  | Unknown_function (f, g) -> Printf.sprintf "%s: call to unknown function %s" f g
  | Arity_mismatch { caller; callee; expected; got } ->
    Printf.sprintf "%s: %s expects %d arguments, got %d" caller callee expected got
  | Prim_arity { caller; prim; expected; got } ->
    Printf.sprintf "%s: primitive %s expects %d arguments, got %d" caller prim expected got
  | Too_many_call_sites { fname; sites } ->
    Printf.sprintf "%s: %d call sites, more than the %d a level-stamp digit can number" fname
      sites max_call_sites

exception Check of error

(* Checks [expr] and counts its call sites into [sites]. *)
let check_expr table fname sites bound expr =
  let rec go bound expr =
    match expr with
    | Ast.Int _ | Ast.Bool _ | Ast.Nil -> ()
    | Ast.Var x -> if not (List.mem x bound) then raise (Check (Unbound_variable (fname, x)))
    | Ast.Prim (p, args) ->
      let expected = Ast.prim_arity p and got = List.length args in
      if expected <> got then
        raise (Check (Prim_arity { caller = fname; prim = Ast.prim_name p; expected; got }));
      List.iter (go bound) args
    | Ast.If (c, th, el) ->
      go bound c;
      go bound th;
      go bound el
    | Ast.And (a, b) | Ast.Or (a, b) ->
      go bound a;
      go bound b
    | Ast.Let (x, b, k) ->
      go bound b;
      go (x :: bound) k
    | Ast.Call (g, args) -> (
      incr sites;
      match Hashtbl.find_opt table g with
      | None -> raise (Check (Unknown_function (fname, g)))
      | Some (def : Ast.def) ->
        let expected = List.length def.params and got = List.length args in
        if expected <> got then
          raise (Check (Arity_mismatch { caller = fname; callee = g; expected; got }));
        List.iter (go bound) args)
  in
  go bound expr

let rec first_duplicate = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else first_duplicate rest

let of_defs defs =
  let table = Hashtbl.create 16 in
  try
    List.iter
      (fun (def : Ast.def) ->
        if Hashtbl.mem table def.name then raise (Check (Duplicate_definition def.name));
        (match first_duplicate def.params with
        | Some p -> raise (Check (Duplicate_parameter (def.name, p)))
        | None -> ());
        Hashtbl.add table def.name def)
      defs;
    List.iter
      (fun (def : Ast.def) ->
        let sites = ref 0 in
        check_expr table def.name sites def.params def.body;
        if !sites > max_call_sites then
          raise (Check (Too_many_call_sites { fname = def.name; sites = !sites })))
      defs;
    Ok table
  with Check e -> Error e

let of_defs_exn defs =
  match of_defs defs with
  | Ok t -> t
  | Error e -> invalid_arg ("Program.of_defs_exn: " ^ error_to_string e)

let find t name = Hashtbl.find_opt t name

let find_exn t name =
  match find t name with Some d -> d | None -> raise Not_found

let arity t name = Option.map (fun (d : Ast.def) -> List.length d.params) (find t name)

let defs t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t []
  |> List.sort (fun (a : Ast.def) b -> String.compare a.name b.name)

let names t = List.map (fun (d : Ast.def) -> d.name) (defs t)

let union a b = of_defs (defs a @ defs b)
