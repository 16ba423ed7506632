open Foc_logic
open Foc_local

type kernel = {
  description : string;
  anchored : bool;
  width : int;
  route : route;
}

and route =
  | Localized of { radius : int; patterns : int; basic_terms : int }
  | Fallback of string

type t = {
  kernels : kernel list;
  materialisations : int;
  strictly_localized : bool;
}

let pattern_count k = 1 lsl (k * (k - 1) / 2)

let kernel (k : Engine.kernel) =
  let anchored = Option.is_some k.anchor in
  let width = List.length k.ys + if anchored then 1 else 0 in
  {
    description = Pp.term_to_string (Ast.Count (k.ys, k.body));
    anchored;
    width;
    route =
      (match k.route with
      | Ok (radius, cl) ->
          let basic_terms = Clterm.basic_count cl in
          Localized { radius; patterns = pattern_count width; basic_terms }
      | Error why -> Fallback why);
  }

(* The engine's compiled tree, flattened in run order (innermost first):
   kernels accumulate in reverse, next to the count of steps. *)
let rec term acc (c : Engine.term) =
  match c with
  | Const _ -> acc
  | Sum (s, u) | Prod (s, u) -> term (term acc s) u
  | Count (ss, k) -> add (steps acc ss) k

and steps acc ss =
  List.fold_left
    (fun acc (s : Engine.step) ->
      let ks, m = List.fold_left term acc s.args in
      (ks, m + 1))
    acc ss

and add (ks, m) k = (kernel k :: ks, m)

let rec shell acc (s : Engine.shell) =
  match s with
  | Truth _ | Rel0 _ -> acc
  | Not s -> shell acc s
  | Both (s, u) | Either (s, u) -> shell (shell acc s) u
  | Exists k -> add acc k

let body acc (b : Engine.body) =
  match b with
  | Sentence (ss, s) -> shell (steps acc ss) s
  | Unary (ss, k) -> add (steps acc ss) k
  | Wide -> acc

let finish (ks, materialisations) =
  let kernels = List.rev ks in
  {
    kernels;
    materialisations;
    strictly_localized =
      List.for_all
        (fun k -> match k.route with Localized _ -> true | Fallback _ -> false)
        kernels;
  }

let fallback description width why =
  { description; anchored = false; width; route = Fallback why }

(* Compile on a fresh engine of this configuration. An expression the
   engine refuses outright — over two or more free variables, or with a
   numerical predicate over two or more — is a one-kernel plan saying
   why. *)
let plan config description free compile =
  let refuse width why = finish ([ fallback description width why ], 0) in
  match Var.Set.elements free with
  | ([] | [ _ ]) as x -> (
      let config = { config with Engine.trace_file = None } in
      match compile (Engine.create ~config ()) (List.nth_opt x 0) with
      | acc -> finish acc
      | exception Engine.Outside_fragment why -> refuse 0 why)
  | vars -> refuse (List.length vars) "two or more free variables (not FOC1)"

let term_plan ?(config = Engine.default_config) t =
  plan config (Pp.term_to_string t) (Ast.free_term t) (fun eng x ->
      term ([], 0) (Engine.compile_term eng x t))

let formula_plan ?(config = Engine.default_config) phi =
  plan config (Pp.formula_to_string phi) (Ast.free_formula phi) (fun eng x ->
      body ([], 0) (Engine.compile_formula eng x phi))

let query_plan ?(config = Engine.default_config) (q : Query.t) =
  let description = Format.asprintf "%a" Query.pp q in
  plan config description Var.Set.empty (fun eng _ ->
      let c = Engine.compile_query eng q in
      let acc =
        match c.body with
        | Wide ->
            ( [ fallback description (List.length q.head_vars)
                  "query head with two or more variables (enumerated via \
                   the baseline body table)" ],
              0 )
        | b -> body ([], 0) b
      in
      List.fold_left
        (fun acc h -> Option.fold ~none:acc ~some:(term acc) h)
        acc c.heads)

let pp ppf (plan : t) =
  Format.fprintf ppf "@[<v>plan: %d kernel(s), %d materialisation(s), %s@,"
    (List.length plan.kernels)
    plan.materialisations
    (if plan.strictly_localized then "fully localized"
     else "uses baseline fallbacks");
  List.iteri
    (fun i k ->
      Format.fprintf ppf "  [%d] %s %s (width %d)@,      -> %s@," i
        (if k.anchored then "per-element" else "ground")
        k.description k.width
        (match k.route with
        | Localized { radius; patterns; basic_terms } ->
            Printf.sprintf
              "localized: radius %d, %d patterns, %d basic cl-terms" radius
              patterns basic_terms
        | Fallback why -> "fallback: " ^ why))
    plan.kernels;
  Format.fprintf ppf "@]"
