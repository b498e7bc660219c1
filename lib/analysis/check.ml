open Recflow_lang

type report = {
  diagnostics : Diagnostic.t list;  (** sorted by [Diagnostic.compare] *)
  program : Program.t option;  (** [None] when structurally invalid *)
  shape : Shape.t option;
  cost : Cost.t option;
  schemes : (string * Infer.fn_scheme) list;
  entries : string list;  (** resolved entry points *)
}

let schema = "recflow.check/2"

let errors r = List.filter (fun d -> Diagnostic.severity d = Diagnostic.Error) r.diagnostics

let warnings r = List.filter (fun d -> Diagnostic.severity d = Diagnostic.Warning) r.diagnostics

let ok ?(werror = false) r =
  errors r = [] && ((not werror) || warnings r = [])

let resolve_entries ~requested program =
  let graph = Callgraph.of_program program in
  match List.filter (fun e -> List.mem e graph.Callgraph.functions) requested with
  | [] -> Callgraph.roots graph
  | es -> es

let of_program_error (e : Program.error) : Diagnostic.t =
  match e with
  | Program.Duplicate_definition fn ->
    Diagnostic.make ~fn Diagnostic.Duplicate_definition
      (Printf.sprintf "function %s is defined more than once" fn)
  | Program.Duplicate_parameter (fn, p) ->
    Diagnostic.make ~fn Diagnostic.Duplicate_parameter
      (Printf.sprintf "parameter %s appears more than once" p)
  | Program.Unbound_variable (fn, v) ->
    Diagnostic.make ~fn Diagnostic.Unbound_variable (Printf.sprintf "unbound variable %s" v)
  | Program.Unknown_function (caller, callee) ->
    Diagnostic.make ~fn:caller Diagnostic.Unknown_function
      (Printf.sprintf "call to undefined function %s" callee)
  | Program.Arity_mismatch { caller; callee; expected; got } ->
    Diagnostic.make ~fn:caller Diagnostic.Arity_mismatch
      (Printf.sprintf "%s expects %d argument%s, got %d" callee expected
         (if expected = 1 then "" else "s")
         got)
  | Program.Prim_arity { caller; prim; expected; got } ->
    Diagnostic.make ~fn:caller Diagnostic.Prim_arity
      (Printf.sprintf "%s expects %d argument%s, got %d" prim expected
         (if expected = 1 then "" else "s")
         got)
  | Program.Too_many_call_sites { fname; sites } ->
    Diagnostic.make ~fn:fname Diagnostic.Too_many_call_sites
      (Printf.sprintf "%d call sites, more than the %d a level-stamp digit can number" sites
         Program.max_call_sites)

(* Function-level diagnostics (validation errors, lints) carry no
   intrinsic position; when the source spans are available, give each one
   the position of its function's [def] so every line of a report points
   somewhere useful. *)
let attach_def_locs (spans : Parser.def_spans list) diags =
  let def_loc fn =
    List.find_map
      (fun (s : Parser.def_spans) ->
        if s.def_name = fn then Some (Loc.of_span s.def_span) else None)
      spans
  in
  List.map
    (fun (d : Diagnostic.t) ->
      match (d.loc, d.fn) with
      | None, Some fn -> (
        match def_loc fn with Some loc -> { d with loc = Some loc } | None -> d)
      | _ -> d)
    diags

let invalid_report diag =
  {
    diagnostics = [ diag ];
    program = None;
    shape = None;
    cost = None;
    schemes = [];
    entries = [];
  }

let check_defs ?(spans : Parser.def_spans list = []) ?(entries = []) defs =
  match Program.of_defs defs with
  | Error e ->
    let diags = attach_def_locs spans [ of_program_error e ] in
    { (invalid_report (List.hd diags)) with diagnostics = diags }
  | Ok program ->
    let entries = resolve_entries ~requested:entries program in
    let inferred = Infer.infer_program ~spans program in
    let lint_diags = Lints.lint_program ~spans ~entries program in
    let cost = Cost.of_program ~entries ~schemes:inferred.Infer.schemes program in
    let diagnostics =
      attach_def_locs spans (inferred.Infer.diagnostics @ lint_diags @ Cost.lint cost)
      |> List.sort Diagnostic.compare
    in
    {
      diagnostics;
      program = Some program;
      shape = Some (Shape.of_program program);
      cost = Some cost;
      schemes = inferred.Infer.schemes;
      entries;
    }

let check_source ?entries src =
  match Parser.parse_defs_spanned src with
  | Error (e : Parser.error) ->
    invalid_report
      (Diagnostic.make
         ~loc:(Loc.make ~line:e.line ~column:e.column)
         Diagnostic.Parse_error e.message)
  | Ok (defs, spans) -> check_defs ~spans ?entries defs

let summary_line r =
  let ne = List.length (errors r) and nw = List.length (warnings r) in
  if ne = 0 && nw = 0 then "check passed: no diagnostics"
  else
    Printf.sprintf "check %s: %d error%s, %d warning%s"
      (if ne > 0 then "failed" else "passed")
      ne
      (if ne = 1 then "" else "s")
      nw
      (if nw = 1 then "" else "s")

let render_human r =
  let diag_lines = List.map Diagnostic.to_string r.diagnostics in
  let fn_lines =
    match (r.program, r.shape) with
    | Some program, Some shape ->
      List.map
        (fun (d : Ast.def) ->
          let ty =
            match List.assoc_opt d.name r.schemes with
            | Some s -> Infer.scheme_to_string s
            | None -> "?"
          in
          let shape_part =
            match Shape.find shape d.name with
            | Some s ->
              Printf.sprintf "fan-out <= %d, %s" s.Shape.fanout
                (Shape.recursion_class_string s.Shape.recursion)
            | None -> ""
          in
          let cost_part =
            match Option.map (fun c -> Cost.find c d.name) r.cost |> Option.join with
            | Some (fc : Cost.fn_cost) ->
              let depth =
                match fc.Cost.verdict with
                | Cost.Not_recursive -> "depth 0"
                | Cost.Bounded { measure; floor = Some fl } ->
                  Printf.sprintf "depth ~ %s (floor %d)" measure fl.Cost.at_least
                | Cost.Bounded { measure; floor = None } ->
                  Printf.sprintf "decreasing %s, no floor" measure
                | Cost.Quiet -> "depth ?"
                | Cost.Divergent _ -> "depth unbounded"
              in
              Printf.sprintf "; %s, growth %s, work %d" depth
                (Cost.growth_string fc.Cost.growth)
                fc.Cost.work_per_activation
            | None -> ""
          in
          Printf.sprintf "  %s : %s  [%s%s]" d.name ty shape_part cost_part)
        (Program.defs program)
    | _ -> []
  in
  String.concat "\n" (diag_lines @ fn_lines @ [ summary_line r ])

let render_json r =
  let open Diagnostic in
  let diags = "[" ^ String.concat "," (List.map to_json r.diagnostics) ^ "]" in
  let functions =
    match (r.program, r.shape) with
    | Some program, Some shape ->
      let objs =
        List.map
          (fun (d : Ast.def) ->
            let fields =
              [
                Some ("name", json_string d.name);
                Option.map
                  (fun s -> ("type", json_string (Infer.scheme_to_string s)))
                  (List.assoc_opt d.name r.schemes);
                Option.map
                  (fun (s : Shape.fn_shape) -> ("fanout_bound", string_of_int s.Shape.fanout))
                  (Shape.find shape d.name);
                Option.map
                  (fun (s : Shape.fn_shape) ->
                    ("recursion", json_string (Shape.recursion_class_string s.Shape.recursion)))
                  (Shape.find shape d.name);
                Option.map
                  (fun (fc : Cost.fn_cost) ->
                    let verdict, measure, floor =
                      match fc.Cost.verdict with
                      | Cost.Not_recursive -> ("not-recursive", None, None)
                      | Cost.Bounded { measure; floor = Some fl } ->
                        ("bounded", Some measure, Some fl.Cost.at_least)
                      | Cost.Bounded { measure; floor = None } ->
                        ("decreasing", Some measure, None)
                      | Cost.Quiet -> ("unknown", None, None)
                      | Cost.Divergent _ -> ("divergent", None, None)
                    in
                    let fields =
                      [
                        Some ("verdict", json_string verdict);
                        Option.map (fun m -> ("measure", json_string m)) measure;
                        Option.map (fun k -> ("floor", string_of_int k)) floor;
                        Some ("rec_fanout", string_of_int fc.Cost.rec_fanout);
                        Some ("growth", json_string (Cost.growth_string fc.Cost.growth));
                        Some ("work", string_of_int fc.Cost.work_per_activation);
                      ]
                      |> List.filter_map Fun.id
                    in
                    ( "cost",
                      "{"
                      ^ String.concat ","
                          (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
                      ^ "}" ))
                  (Option.map (fun c -> Cost.find c d.name) r.cost |> Option.join);
              ]
              |> List.filter_map Fun.id
            in
            "{"
            ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
            ^ "}")
          (Program.defs program)
      in
      "[" ^ String.concat "," objs ^ "]"
    | _ -> "[]"
  in
  let entries = "[" ^ String.concat "," (List.map json_string r.entries) ^ "]" in
  Printf.sprintf
    {|{"schema":%s,"errors":%d,"warnings":%d,"entries":%s,"diagnostics":%s,"functions":%s}|}
    (json_string schema)
    (List.length (errors r))
    (List.length (warnings r))
    entries diags functions
