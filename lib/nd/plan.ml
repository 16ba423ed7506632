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

(* Planning state: a counter for placeholder relation names and the
   accumulated kernels, innermost first. This mirrors Engine.elim_preds /
   eval_*_term; keep the two in sync. *)
type state = {
  mutable fresh : int;
  mutable kernels : kernel list;
  mutable materialisations : int;
  config : Engine.config;
}

let fresh_atom st free =
  st.fresh <- st.fresh + 1;
  let name = Printf.sprintf "$plan%d" st.fresh in
  match free with
  | [] -> Ast.Rel (name, [||])
  | [ x ] -> Ast.Rel (name, [| x |])
  | _ -> assert false

let describe vars body =
  Format.asprintf "#(%s). %s"
    (String.concat ", " vars)
    (Pp.formula_to_string body)

let pattern_count k = 1 lsl (k * (k - 1) / 2)

let rec plan_formula st (phi : Ast.formula) : Ast.formula =
  match phi with
  | Ast.True | Ast.False | Ast.Eq _ | Ast.Rel _ | Ast.Dist _ -> phi
  | Ast.Neg f -> Ast.Neg (plan_formula st f)
  | Ast.Or (f, g) -> Ast.Or (plan_formula st f, plan_formula st g)
  | Ast.And (f, g) -> Ast.And (plan_formula st f, plan_formula st g)
  | Ast.Exists (y, f) -> Ast.Exists (y, plan_formula st f)
  | Ast.Forall (y, f) -> Ast.Forall (y, plan_formula st f)
  | Ast.Pred (_, ts) -> begin
      let free =
        List.fold_left
          (fun acc u -> Var.Set.union acc (Ast.free_term u))
          Var.Set.empty ts
      in
      match Var.Set.elements free with
      | ([] | [ _ ]) as fv ->
          List.iter (fun u -> plan_term st u) ts;
          st.materialisations <- st.materialisations + 1;
          fresh_atom st fv
      | _ ->
          (* non-FOC1: the engine raises/falls back wholesale *)
          st.kernels <-
            {
              description = Pp.formula_to_string phi;
              anchored = false;
              width = Var.Set.cardinal free;
              route =
                Fallback "predicate with two or more free variables (not FOC1)";
            }
            :: st.kernels;
          phi
    end

and plan_term st (term : Ast.term) : unit =
  match term with
  | Ast.Int _ -> ()
  | Ast.Add (s, u) | Ast.Mul (s, u) ->
      plan_term st s;
      plan_term st u
  | Ast.Count (ys, theta) -> begin
      let theta' = plan_formula st theta in
      let free_rest =
        Var.Set.elements (Var.Set.diff (Ast.free_formula theta') (Var.Set.of_list ys))
      in
      match free_rest with
      | [] -> record_kernel st ~anchored:false ~vars:ys theta'
      | [ x ] -> record_kernel st ~anchored:true ~vars:(x :: ys) theta'
      | _ ->
          st.kernels <-
            {
              description = describe ys theta';
              anchored = false;
              width = List.length ys;
              route = Fallback "counting term with two or more free variables";
            }
            :: st.kernels
    end

and record_kernel st ~anchored ~vars theta =
  let width = List.length vars in
  let route =
    match
      Decompose.localize ~max_blocks:st.config.Engine.max_blocks
        ~max_width:st.config.Engine.max_width ~anchored ~vars theta
    with
    | Ok (radius, cl) ->
        Localized
          {
            radius;
            patterns = pattern_count width;
            basic_terms = Clterm.basic_count cl;
          }
    | Error why -> Fallback why
  in
  st.kernels <-
    {
      description =
        describe (if anchored then List.tl vars else vars) theta;
      anchored;
      width;
      route;
    }
    :: st.kernels

(* sentence/unary-formula shells, mirroring Engine.model_check/holds_unary *)
let rec plan_shell st (phi : Ast.formula) : unit =
  match phi with
  | Ast.True | Ast.False -> ()
  | Ast.Rel (_, [||]) -> ()
  | Ast.Neg f -> plan_shell st f
  | Ast.And (f, g) | Ast.Or (f, g) ->
      plan_shell st f;
      plan_shell st g
  | Ast.Forall (y, f) -> plan_shell st (Ast.Exists (y, Ast.neg f))
  | Ast.Exists _ ->
      let rec peel acc = function
        | Ast.Exists (y, f) -> peel (y :: acc) f
        | f -> (List.rev acc, f)
      in
      let ys, body = peel [] phi in
      let body' = plan_formula st body in
      record_kernel st ~anchored:false ~vars:ys body'
  | Ast.Eq _ | Ast.Rel _ | Ast.Dist _ | Ast.Pred _ ->
      ignore (plan_formula st phi)

let finish st =
  let kernels = List.rev st.kernels in
  {
    kernels;
    materialisations = st.materialisations;
    strictly_localized =
      List.for_all
        (fun k -> match k.route with Localized _ -> true | Fallback _ -> false)
        kernels;
  }

let new_state config =
  { fresh = 0; kernels = []; materialisations = 0; config }

let term_plan ?(config = Engine.default_config) term =
  let st = new_state config in
  plan_term st term;
  finish st

let formula_plan ?(config = Engine.default_config) phi =
  let st = new_state config in
  let free = Var.Set.elements (Ast.free_formula phi) in
  (match free with
  | [] -> plan_shell st phi
  | [ x ] ->
      (* holds_unary evaluates the 0-counted unary indicator *)
      let phi' = plan_formula st phi in
      record_kernel st ~anchored:true ~vars:[ x ] phi'
  | _ ->
      st.kernels <-
        {
          description = Pp.formula_to_string phi;
          anchored = false;
          width = List.length free;
          route = Fallback "formula with two or more free variables";
        }
        :: st.kernels);
  finish st

let query_plan ?(config = Engine.default_config) (q : Query.t) =
  let st = new_state config in
  (match q.Query.head_vars with
  | [] | [ _ ] -> begin
      match q.Query.head_vars with
      | [] -> plan_shell st q.Query.body
      | _ ->
          let body' = plan_formula st q.Query.body in
          record_kernel st ~anchored:true
            ~vars:q.Query.head_vars body'
    end
  | _ ->
      st.kernels <-
        {
          description = Format.asprintf "%a" Query.pp q;
          anchored = false;
          width = List.length q.Query.head_vars;
          route =
            Fallback
              "query head with two or more variables (enumerated via the \
               baseline body table)";
        }
        :: st.kernels);
  List.iter (fun u -> plan_term st u) q.Query.head_terms;
  finish st

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
