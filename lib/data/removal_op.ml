let tilde_name r positions =
  r ^ "~" ^ String.concat "," (List.map string_of_int positions)

let sphere_name i = "$S" ^ string_of_int i

let subsets_of_positions k =
  Foc_util.Combi.subsets (Foc_util.Combi.range 1 (k + 1))
  |> List.map (List.sort compare)
  |> List.sort compare

let tilde_signature sign =
  List.fold_left
    (fun acc (name, k) ->
      List.fold_left
        (fun acc positions ->
          Signature.add acc (tilde_name name positions)
            (k - List.length positions))
        acc (subsets_of_positions k))
    Signature.empty (Signature.to_list sign)

let signature_r sign r =
  let base = tilde_signature sign in
  List.fold_left
    (fun acc i -> Signature.add acc (sphere_name i) 1)
    base
    (Foc_util.Combi.range 1 (r + 1))

let rename ~d x =
  if x = d then invalid_arg "Removal_op.rename: the removed element"
  else if x < d then x
  else x - 1

let unrename ~d x' = if x' < d then x' else x' + 1

let apply a ~r ~d =
  let n = Structure.order a in
  if n < 2 then invalid_arg "Removal_op.apply: order must be >= 2";
  if d < 0 || d >= n then invalid_arg "Removal_op.apply: element out of range";
  let ren x = if x < d then x else x - 1 in
  (* One pass over each sorted core, routing row t to R̃_I by its
     d-positions I (a bitmask). The rows of one R̃_I agree on the I
     columns, so their projections keep the core's strict order, and
     [ren] is monotone: every R̃_I is sealed without a sort. *)
  let tildes =
    List.concat_map
      (fun (name, k) ->
        let ({ Tuple.Set.nrows; data; _ } : Tuple.Set.t) =
          Structure.rel a name
        in
        let positions mask =
          List.filter (fun c -> mask land (1 lsl (c - 1)) <> 0)
            (Foc_util.Combi.range 1 (k + 1))
        in
        let builders =
          Array.init (1 lsl k) (fun mask ->
              let hint = if mask = 0 then nrows else 1 in
              Tuple.Set.Builder.create ~hint (k - List.length (positions mask)))
        in
        let row = Array.make k 0 in
        for i = 0 to nrows - 1 do
          let mask = ref 0 and w = ref 0 in
          for c = 0 to k - 1 do
            let x = data.((i * k) + c) in
            if x = d then mask := !mask lor (1 lsl c)
            else begin
              row.(!w) <- ren x;
              incr w
            end
          done;
          Tuple.Set.Builder.add builders.(!mask) row
        done;
        List.init (1 lsl k) (fun mask ->
            ( tilde_name name (positions mask),
              Tuple.Set.Builder.build_sorted builders.(mask) )))
      (Signature.to_list (Structure.signature a))
  in
  (* S_i from one BFS around d in the original structure *)
  let g = Structure.gaifman a in
  let near =
    Hashtbl.fold
      (fun v dv acc -> if v <> d then (ren v, dv) :: acc else acc)
      (Foc_graph.Bfs.ball_tbl g ~centres:[ d ] ~radius:r)
      []
    |> List.sort compare
  in
  let spheres =
    List.map
      (fun i ->
        let b = Tuple.Set.Builder.create ~hint:(List.length near) 1 in
        List.iter
          (fun (v, dv) -> if dv <= i then Tuple.Set.Builder.add b [| v |])
          near;
        (sphere_name i, Tuple.Set.Builder.build_sorted b))
      (Foc_util.Combi.range 1 (r + 1))
  in
  let b =
    Structure.of_rels
      (signature_r (Structure.signature a) r)
      ~order:(n - 1) (tildes @ spheres)
  in
  (* R̃_I keeps every co-occurrence of two survivors and S_i is unary, so
     the Gaifman graph of A *_r d is G_A − d, renamed *)
  Structure.set_gaifman b (fst (Foc_graph.Graph.remove_vertex g d));
  b
