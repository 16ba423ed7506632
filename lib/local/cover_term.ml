let basic_cover_radius (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.pattern in
  k * ((2 * b.radius) + 1)

let required_cover_radius t =
  List.fold_left (fun s b -> max s (basic_cover_radius b)) 0 (Clterm.basics t)

(* Per-element counts of one basic term via the cluster sweep. Every element
   is evaluated exactly once, inside the cluster its kernel assignment points
   to; ball arguments above show the count computed in A[X] equals the count
   in A. *)
let basic_vector ?(jobs = 1) ?cache_bytes preds a cover (b : Clterm.basic) =
  let out = Array.make (Foc_data.Structure.order a) 0 in
  (* clusters are independent: each sweep builds its own induced
     substructure and context, and the kernels partition the universe, so
     parallel cluster tasks write disjoint slots of [out] *)
  let eval_cluster i =
    let kernel = Foc_graph.Cover.kernel cover i in
    if Array.length kernel > 0 then begin
      let members = Array.to_list (Foc_graph.Cover.cluster cover i) in
      let sub, old_of_new = Foc_data.Structure.induced a members in
      let ctx = Pattern_count.make_ctx ?cache_bytes preds sub ~r:b.radius in
      let plan =
        Pattern_count.make_plan ctx ~pattern:b.pattern ~vars:b.vars
          ~body:b.body
      in
      Array.iter
        (fun old_elt ->
          let anchor = Foc_data.Structure.new_of_old old_of_new old_elt in
          out.(old_elt) <-
            Pattern_count.at ~sweep_plan:plan ctx ~pattern:b.pattern
              ~vars:b.vars ~body:b.body ~anchor)
        kernel
    end
  in
  (* induced reads the incidence indexes: build them before the fork *)
  Foc_data.Structure.prepare a;
  Foc_par.parallel_for ~jobs ~label:"sweep.clusters"
    (Foc_graph.Cover.cluster_count cover)
    eval_cluster;
  out

let check_radius cover t =
  let needed = required_cover_radius t in
  if Foc_graph.Cover.radius_param cover < needed then
    invalid_arg
      (Printf.sprintf
         "Cover_term: cover parameter %d smaller than required %d"
         (Foc_graph.Cover.radius_param cover)
         needed)

let sweep ?jobs ?cache_bytes preds a cover t =
  check_radius cover t;
  Clterm.sweep preds a (basic_vector ?jobs ?cache_bytes preds a cover)
