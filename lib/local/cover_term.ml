let basic_cover_radius (b : Clterm.basic) =
  let k = Foc_graph.Pattern.k b.pattern in
  k * ((2 * b.radius) + 1)

let required_cover_radius t =
  List.fold_left (fun s b -> max s (basic_cover_radius b)) 0 (Clterm.basics t)

let check_radius cover t =
  let needed = required_cover_radius t in
  if Foc_graph.Cover.radius_param cover < needed then
    invalid_arg
      (Printf.sprintf
         "Cover_term: cover parameter %d smaller than required %d"
         (Foc_graph.Cover.radius_param cover)
         needed)

(* One pass over the kernel-bearing clusters for every width >= 1 basic
   term: each cluster is induced once, one context per radius (in practice
   the cl-term's one radius) lets the terms share its ball cache, and each
   term's count at every kernel element goes to that term's vector. Every
   element is evaluated exactly once per term, inside the cluster its kernel
   assignment points to; the ball arguments above show the count computed
   in A[X] equals the count in A. Width-0 basics are sentences, decided by
   {!Clterm}, and never swept. *)
let sweep ?(jobs = 1) ?cache_bytes preds a cover t =
  check_radius cover t;
  let n = Foc_data.Structure.order a in
  let vectors =
    List.fold_left
      (fun acc (b : Clterm.basic) ->
        if Foc_graph.Pattern.k b.pattern = 0 || List.mem_assq b acc then acc
        else (b, Array.make n 0) :: acc)
      [] (Clterm.basics t)
  in
  let radii =
    List.sort_uniq Int.compare
      (List.map (fun ((b : Clterm.basic), _) -> b.radius) vectors)
  in
  (* clusters are independent: each builds its own induced substructure
     and contexts, and the kernels partition the universe, so parallel
     cluster tasks write disjoint slots of every vector *)
  let eval_cluster i =
    let kernel = Foc_graph.Cover.kernel cover i in
    if Array.length kernel > 0 then begin
      let sub, old_of_new =
        Foc_obs.span ~name:"induce" (fun () ->
            Foc_data.Structure.induced a
              (Array.to_list (Foc_graph.Cover.cluster cover i)))
      in
      let ctxs =
        List.map
          (fun r -> (r, Pattern_count.make_ctx ?cache_bytes preds sub ~r))
          radii
      in
      let anchors = Array.map (Foc_data.Structure.new_of_old old_of_new) kernel in
      List.iter
        (fun ((b : Clterm.basic), out) ->
          let ctx = List.assoc b.radius ctxs in
          let plan =
            Pattern_count.make_plan ctx ~pattern:b.pattern ~vars:b.vars
              ~body:b.body
          in
          Array.iteri
            (fun j old_elt -> out.(old_elt) <- Pattern_count.at ctx plan anchors.(j))
            kernel)
        vectors
    end
  in
  if vectors <> [] then begin
    (* induced reads the incidence indexes: build them before the fork *)
    Foc_data.Structure.prepare a;
    Foc_par.parallel_for ~jobs ~label:"sweep.clusters"
      (Foc_graph.Cover.cluster_count cover)
      eval_cluster
  end;
  Clterm.sweep preds a (fun b ->
      match List.assq_opt b vectors with
      | Some v -> v
      | None -> invalid_arg "Cover_term.sweep: basic term outside the cl-term")
