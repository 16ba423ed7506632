open Foc_local
module Structure = Foc_data.Structure

let type_radius (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.Clterm.pattern in
  max 1 (k * ((2 * b.Clterm.radius) + 1))

let basic_vector ?(jobs = 1) ?cache_bytes ~classes_for preds a
    (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.Clterm.pattern in
  if k = 0 then begin
    let v =
      if Local_eval.holds preds a Foc_logic.Var.Map.empty b.Clterm.body then 1
      else 0
    in
    Array.make (Structure.order a) v
  end
  else begin
    (* one representative per class, evaluated with a per-domain context
       and evaluation plan (hoisted out of the per-class calls); at
       [jobs = 1] this is the sequential loop *)
    if jobs > 1 then Structure.prepare a;
    let cls = Array.of_list (classes_for ~r:(type_radius b)) in
    let values =
      Foc_par.tabulate_ctx ~jobs ~label:"sweep.types"
        ~make_ctx:(fun () ->
          let ctx =
            Pattern_count.make_ctx ?cache_bytes preds a ~r:b.Clterm.radius
          in
          let plan =
            Pattern_count.make_plan ctx ~pattern:b.Clterm.pattern
              ~vars:b.Clterm.vars ~body:b.Clterm.body
          in
          (ctx, plan))
        (Array.length cls)
        (fun (ctx, plan) i ->
          match snd cls.(i) with
          | [] -> 0
          | rep :: _ ->
              Pattern_count.at ~plan ctx ~pattern:b.Clterm.pattern
                ~vars:b.Clterm.vars ~body:b.Clterm.body ~anchor:rep)
    in
    let out = Array.make (Structure.order a) 0 in
    Array.iteri
      (fun i (_, members) -> List.iter (fun v -> out.(v) <- values.(i)) members)
      cls;
    out
  end

let rec eval_unary ?jobs ?cache_bytes ~classes_for preds a = function
  | Clterm.Const i -> Array.make (Structure.order a) i
  | Clterm.Unary b -> basic_vector ?jobs ?cache_bytes ~classes_for preds a b
  | Clterm.Ground b ->
      let per = basic_vector ?jobs ?cache_bytes ~classes_for preds a b in
      let total =
        if Foc_graph.Pattern.k b.Clterm.pattern = 0 then
          if Structure.order a > 0 && per.(0) > 0 then 1 else 0
        else Array.fold_left ( + ) 0 per
      in
      Array.make (Structure.order a) total
  | Clterm.Add (s, t) ->
      Array.map2 ( + )
        (eval_unary ?jobs ?cache_bytes ~classes_for preds a s)
        (eval_unary ?jobs ?cache_bytes ~classes_for preds a t)
  | Clterm.Mul (s, t) ->
      Array.map2 ( * )
        (eval_unary ?jobs ?cache_bytes ~classes_for preds a s)
        (eval_unary ?jobs ?cache_bytes ~classes_for preds a t)

let rec eval_ground ?jobs ?cache_bytes ~classes_for preds a = function
  | Clterm.Const i -> i
  | Clterm.Unary _ -> invalid_arg "Hanf_backend.eval_ground: unary leaf"
  | Clterm.Ground b ->
      if Foc_graph.Pattern.k b.Clterm.pattern = 0 then
        if
          Structure.order a > 0
          && Local_eval.holds preds a Foc_logic.Var.Map.empty b.Clterm.body
        then 1
        else 0
      else
        Array.fold_left ( + ) 0
          (basic_vector ?jobs ?cache_bytes ~classes_for preds a b)
  | Clterm.Add (s, t) ->
      eval_ground ?jobs ?cache_bytes ~classes_for preds a s
      + eval_ground ?jobs ?cache_bytes ~classes_for preds a t
  | Clterm.Mul (s, t) ->
      eval_ground ?jobs ?cache_bytes ~classes_for preds a s
      * eval_ground ?jobs ?cache_bytes ~classes_for preds a t
