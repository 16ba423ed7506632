open Foc_logic

exception Give_up

(* Count tuples realising [pattern] exactly and satisfying [body];
   [anchored] fixes position 0 (unary) instead of counting it. Mirrors the
   induction of Lemma 6.4 on the number of connected components. *)
let rec pattern_term ~max_blocks ~anchored ~r ~vars ~pattern ~body : Clterm.t =
  if Foc_graph.Pattern.connected pattern then begin
    let b = Clterm.basic ~pattern ~radius:r ~vars ~body in
    if anchored then Clterm.Unary b else Clterm.Ground b
  end
  else begin
    let var_arr = Array.of_list vars in
    let v' = Foc_graph.Pattern.component_of pattern 0 in
    let v'' =
      List.filter (fun i -> not (List.mem i v'))
        (List.init (Foc_graph.Pattern.k pattern) (fun i -> i))
    in
    let side_of x =
      let rec index i = if Var.equal var_arr.(i) x then i else index (i + 1) in
      if List.mem (index 0) v' then Split.L else Split.R
    in
    let blocks =
      match Split.split ~max_blocks ~r ~side_of body with
      | Some bs -> bs
      | None -> raise Give_up
    in
    let sub_vars positions = List.map (fun i -> var_arr.(i)) positions in
    let pattern' = Foc_graph.Pattern.induced pattern v' in
    let pattern'' = Foc_graph.Pattern.induced pattern v'' in
    let merges = Foc_graph.Pattern.merges pattern (v', v'') in
    let block_term (lambda, rho) =
      let left =
        pattern_term ~max_blocks ~anchored ~r ~vars:(sub_vars v')
          ~pattern:pattern' ~body:lambda
      in
      let right =
        pattern_term ~max_blocks ~anchored:false ~r ~vars:(sub_vars v'')
          ~pattern:pattern'' ~body:rho
      in
      let product = Clterm.Mul (left, right) in
      List.fold_left
        (fun acc h ->
          let t_h =
            pattern_term ~max_blocks ~anchored ~r ~vars ~pattern:h
              ~body:(Ast.and_ lambda rho)
          in
          Clterm.Add (acc, Clterm.Mul (Clterm.Const (-1), t_h)))
        product merges
    in
    match blocks with
    | [] -> Clterm.Const 0
    | b :: rest ->
        List.fold_left
          (fun acc blk -> Clterm.Add (acc, block_term blk))
          (block_term b) rest
  end

let over_patterns ~max_blocks ~anchored ~r ~vars ~body =
  let k = List.length vars in
  let var_set = Var.Set.of_list vars in
  if not (Var.Set.subset (Ast.free_formula body) var_set) then None
  else begin
    try
      let terms =
        List.map
          (fun pattern ->
            pattern_term ~max_blocks ~anchored ~r ~vars ~pattern ~body)
          (Foc_graph.Pattern.enumerate k)
      in
      match terms with
      | [] -> Some (Clterm.Const 0)
      | t :: rest ->
          Some (List.fold_left (fun acc t' -> Clterm.Add (acc, t')) t rest)
    with Give_up -> None
  end

let ground_count ?(max_blocks = 4096) ~r ~vars body =
  over_patterns ~max_blocks ~anchored:false ~r ~vars ~body

let unary_count ?(max_blocks = 4096) ~r ~vars body =
  match vars with
  | [] -> None
  | _ -> over_patterns ~max_blocks ~anchored:true ~r ~vars ~body

let localize ?max_blocks ~max_width ~anchored ~vars theta =
  let width = List.length vars in
  if width > max_width then
    Error
      (Printf.sprintf "width %d exceeds the configured maximum %d" width
         max_width)
  else
    match
      Foc_obs.span ~name:"locality" (fun () -> Locality.formula_radius theta)
    with
    | Locality.Nonlocal why -> Error why
    | Locality.Local r -> (
        let decompose = if anchored then unary_count else ground_count in
        match
          Foc_obs.span ~name:"decompose" (fun () ->
              decompose ?max_blocks ~r ~vars theta)
        with
        | Some cl -> Ok (r, cl)
        | None -> Error "component factorisation exceeded its budget")
