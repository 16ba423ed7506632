open Foc_logic

let basic_cover_radius (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.pattern in
  k * ((2 * b.radius) + 1)

let rec required_cover_radius = function
  | Clterm.Const _ -> 0
  | Clterm.Ground b | Clterm.Unary b -> basic_cover_radius b
  | Clterm.Add (s, t) | Clterm.Mul (s, t) ->
      max (required_cover_radius s) (required_cover_radius t)

(* Per-element counts of one basic term via the cluster sweep. Every element
   is evaluated exactly once, inside the cluster its kernel assignment points
   to; ball arguments above show the count computed in A[X] equals the count
   in A. *)
let basic_vector ?(jobs = 1) ?cache_bytes preds a cover (b : Clterm.basic) =
  let n = Foc_data.Structure.order a in
  let out = Array.make n 0 in
  let k = Foc_graph.Pattern.k b.pattern in
  if k = 0 then begin
    (* a sentence: same value everywhere *)
    let v =
      if Local_eval.holds preds a Var.Map.empty b.body then 1 else 0
    in
    Array.fill out 0 n v;
    out
  end
  else begin
    (* clusters are independent: each sweep builds its own induced
       substructure and context, and the kernels partition the universe, so
       parallel cluster tasks write disjoint slots of [out] *)
    let eval_cluster i =
      let kernel = Foc_graph.Cover.kernel cover i in
      if Array.length kernel > 0 then begin
        let members = Array.to_list (Foc_graph.Cover.cluster cover i) in
        let sub, old_of_new = Foc_data.Structure.induced a members in
        let new_of_old = Hashtbl.create (Array.length old_of_new) in
        Array.iteri (fun nw od -> Hashtbl.replace new_of_old od nw) old_of_new;
        let ctx = Pattern_count.make_ctx ?cache_bytes preds sub ~r:b.radius in
        let plan =
          Pattern_count.make_plan ctx ~pattern:b.pattern ~vars:b.vars
            ~body:b.body
        in
        Array.iter
          (fun old_elt ->
            let anchor = Hashtbl.find new_of_old old_elt in
            out.(old_elt) <-
              Pattern_count.at ~plan ctx ~pattern:b.pattern ~vars:b.vars
                ~body:b.body ~anchor)
          kernel
      end
    in
    Foc_par.parallel_for ~jobs ~label:"sweep.clusters"
      (Foc_graph.Cover.cluster_count cover)
      eval_cluster;
    out
  end

let check_radius cover t =
  let needed = required_cover_radius t in
  if Foc_graph.Cover.radius_param cover < needed then
    invalid_arg
      (Printf.sprintf
         "Cover_term: cover parameter %d smaller than required %d"
         (Foc_graph.Cover.radius_param cover)
         needed)

let rec eval_vector ?jobs ?cache_bytes preds a cover = function
  | Clterm.Const i -> Array.make (Foc_data.Structure.order a) i
  | Clterm.Unary b -> basic_vector ?jobs ?cache_bytes preds a cover b
  | Clterm.Ground b ->
      let per = basic_vector ?jobs ?cache_bytes preds a cover b in
      let total =
        if Foc_graph.Pattern.k b.pattern = 0 then if per.(0) > 0 then 1 else 0
        else Array.fold_left ( + ) 0 per
      in
      Array.make (Foc_data.Structure.order a) total
  | Clterm.Add (s, t) ->
      Array.map2 ( + )
        (eval_vector ?jobs ?cache_bytes preds a cover s)
        (eval_vector ?jobs ?cache_bytes preds a cover t)
  | Clterm.Mul (s, t) ->
      Array.map2 ( * )
        (eval_vector ?jobs ?cache_bytes preds a cover s)
        (eval_vector ?jobs ?cache_bytes preds a cover t)

let eval_unary ?jobs ?cache_bytes preds a cover t =
  check_radius cover t;
  if Foc_data.Structure.order a = 0 then [||]
  else eval_vector ?jobs ?cache_bytes preds a cover t

let rec eval_ground_aux ?jobs ?cache_bytes preds a cover = function
  | Clterm.Const i -> i
  | Clterm.Unary _ -> invalid_arg "Cover_term.eval_ground: unary leaf"
  | Clterm.Ground b ->
      if Foc_graph.Pattern.k b.pattern = 0 then
        if Local_eval.holds preds a Var.Map.empty b.body then 1 else 0
      else begin
        let per = basic_vector ?jobs ?cache_bytes preds a cover b in
        Array.fold_left ( + ) 0 per
      end
  | Clterm.Add (s, t) ->
      eval_ground_aux ?jobs ?cache_bytes preds a cover s
      + eval_ground_aux ?jobs ?cache_bytes preds a cover t
  | Clterm.Mul (s, t) ->
      eval_ground_aux ?jobs ?cache_bytes preds a cover s
      * eval_ground_aux ?jobs ?cache_bytes preds a cover t

let eval_ground ?jobs ?cache_bytes preds a cover t =
  check_radius cover t;
  eval_ground_aux ?jobs ?cache_bytes preds a cover t
