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

(* The one cluster sweep: the positions of [wanted] are bucketed by their
   assigned cluster (a counting sort, so each bucket ascends), each
   cluster holding some is induced once, and [eval] runs on it. Clusters
   are independent: each task owns its induced substructure, and a wanted
   element has one assigned cluster, so tasks write disjoint slots. *)
let sweep ?(jobs = 1) a cover ~wanted eval =
  let count = Foc_graph.Cover.cluster_count cover in
  let start = Array.make (count + 1) 0 in
  let cluster_of = Array.map (Foc_graph.Cover.assigned cover) wanted in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) cluster_of;
  for c = 1 to count do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let fill = Array.sub start 0 count in
  let by_cluster = Array.make (Array.length wanted) 0 in
  Array.iteri
    (fun p c ->
      by_cluster.(fill.(c)) <- p;
      fill.(c) <- fill.(c) + 1)
    cluster_of;
  let busy =
    Array.of_seq
      (Seq.filter (fun c -> start.(c + 1) > start.(c)) (Seq.init count Fun.id))
  in
  if busy <> [||] then begin
    (* induced reads the incidence indexes: build them before the fork *)
    Foc_data.Structure.prepare a;
    Foc_par.parallel_for ~jobs ~label:"sweep.clusters" (Array.length busy)
      (fun i ->
        let c = busy.(i) in
        let positions =
          Array.sub by_cluster start.(c) (start.(c + 1) - start.(c))
        in
        let sub, old_of_new =
          Foc_obs.span ~name:"induce" (fun () ->
              Foc_data.Structure.induced a
                (Array.to_list (Foc_graph.Cover.cluster cover c)))
        in
        let anchors =
          Array.map
            (fun p -> Foc_data.Structure.new_of_old old_of_new wanted.(p))
            positions
        in
        eval sub ~positions ~anchors)
  end

(* Cover's evaluator: one context per radius (in practice the cl-term's
   one radius) lets the basic terms share a cluster's ball cache, and each
   term's count at every kernel element goes to that term's vector. Every
   element is evaluated exactly once per term, inside the cluster its
   kernel assignment points to; the ball arguments above show the count
   computed in A[X] equals the count in A. Width-0 basics are sentences,
   decided by {!Clterm}, and never swept. *)
let pattern_sweep ?jobs ?cache_bytes preds a cover t =
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
  if vectors <> [] then
    sweep ?jobs a cover ~wanted:(Array.init n Fun.id)
      (fun sub ~positions ~anchors ->
        let ctxs =
          List.map
            (fun r -> (r, Pattern_count.make_ctx ?cache_bytes preds sub ~r))
            radii
        in
        List.iter
          (fun ((b : Clterm.basic), out) ->
            let ctx = List.assoc b.radius ctxs in
            let plan =
              Pattern_count.make_plan ctx ~pattern:b.pattern ~vars:b.vars
                ~body:b.body
            in
            Array.iteri
              (fun j p -> out.(p) <- Pattern_count.at ctx plan anchors.(j))
              positions)
          vectors);
  Clterm.sweep preds a (fun b ->
      match List.assq_opt b vectors with
      | Some v -> v
      | None ->
          invalid_arg
            "Cover_term.pattern_sweep: basic term outside the cl-term")
