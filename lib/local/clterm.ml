open Foc_logic

type basic = {
  pattern : Foc_graph.Pattern.t;
  radius : int;
  vars : Var.t list;
  body : Ast.formula;
}

let basic ~pattern ~radius ~vars ~body =
  if not (Foc_graph.Pattern.connected pattern) then
    invalid_arg "Clterm.basic: pattern not connected";
  if Foc_graph.Pattern.k pattern <> List.length vars then
    invalid_arg "Clterm.basic: variable/pattern arity mismatch";
  if radius < 0 then invalid_arg "Clterm.basic: negative radius";
  let var_set = Var.Set.of_list vars in
  if not (Var.Set.subset (Ast.free_formula body) var_set) then
    invalid_arg "Clterm.basic: body with stray free variable";
  { pattern; radius; vars; body }

type t =
  | Const of int
  | Ground of basic
  | Unary of basic
  | Add of t * t
  | Mul of t * t

let basics t =
  let rec go acc = function
    | Const _ -> acc
    | Ground b | Unary b -> b :: acc
    | Add (s, u) | Mul (s, u) -> go (go acc u) s
  in
  go [] t

let basic_count t = List.length (basics t)

let width t =
  List.fold_left (fun w b -> max w (Foc_graph.Pattern.k b.pattern)) 0 (basics t)

type sweep = {
  preds : Pred.collection;
  structure : Foc_data.Structure.t;
  anchors : int;
  per_anchor : basic -> int array;
  ground : basic -> int;
}

let sweep ?anchors ?ground preds structure per_anchor =
  let anchors =
    Option.value anchors ~default:(Foc_data.Structure.order structure)
  and ground =
    Option.value ground ~default:(fun b ->
        Array.fold_left ( + ) 0 (per_anchor b))
  in
  { preds; structure; anchors; per_anchor; ground }

let direct ?jobs ctx =
  sweep (Pattern_count.preds ctx) (Pattern_count.structure ctx) (fun b ->
      Pattern_count.per_anchor ?jobs ctx ~pattern:b.pattern ~vars:b.vars
        ~body:b.body)

(* A width-0 ground basic is a sentence: no back-end sweeps it, it is
   decided once on the sweep's structure (raising on an empty universe,
   as {!Foc_eval.Naive} does). *)
let ground_leaf s b =
  if Foc_graph.Pattern.k b.pattern = 0 then
    if Local_eval.sentence s.preds s.structure b.body then 1 else 0
  else s.ground b

let rec eval_ground s = function
  | Const i -> i
  | Ground b -> ground_leaf s b
  | Unary _ -> invalid_arg "Clterm.eval_ground: unary leaf"
  | Add (t, u) -> eval_ground s t + eval_ground s u
  | Mul (t, u) -> eval_ground s t * eval_ground s u

let rec eval_unary s = function
  | Const i -> Array.make s.anchors i
  | Ground b -> Array.make s.anchors (ground_leaf s b)
  | Unary b -> s.per_anchor b
  | Add (t, u) -> Array.map2 ( + ) (eval_unary s t) (eval_unary s u)
  | Mul (t, u) -> Array.map2 ( * ) (eval_unary s t) (eval_unary s u)

let rec pp ppf = function
  | Const i -> Format.pp_print_int ppf i
  | Ground b ->
      Format.fprintf ppf "g[%a; r=%d; %a]" Foc_graph.Pattern.pp b.pattern
        b.radius Pp.formula b.body
  | Unary b ->
      Format.fprintf ppf "u(%s)[%a; r=%d; %a]"
        (match b.vars with v :: _ -> v | [] -> "?")
        Foc_graph.Pattern.pp b.pattern b.radius Pp.formula b.body
  | Add (s, t) -> Format.fprintf ppf "(%a + %a)" pp s pp t
  | Mul (s, t) -> Format.fprintf ppf "(%a * %a)" pp s pp t
