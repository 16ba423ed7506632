open Foc_logic
open Foc_local
module Structure = Foc_data.Structure

(* The recursion base: #(tl vars).θ at each wanted element, compiled once
   (complete — unguarded positions scan, so this is always correct). *)
let direct preds a vars theta wanted =
  match vars with
  | [] -> invalid_arg "Splitter_backend.direct"
  | _ when Array.length wanted = 0 -> [||]
  | x :: counted ->
      let t =
        Local_eval.compile_term preds a ~vars:[ x ] (Ast.Count (counted, theta))
      in
      let s = Local_eval.scratch a in
      let env = Array.make (Local_eval.term_width t) 0 in
      Array.map
        (fun elt ->
          env.(0) <- elt;
          Local_eval.value t s env)
        wanted

(* Splitter's heuristic answer inside a cluster: the max-degree vertex. *)
let splitter_move g =
  let best = ref 0 in
  for v = 1 to Foc_graph.Graph.order g - 1 do
    if Foc_graph.Graph.degree g v > Foc_graph.Graph.degree g !best then
      best := v
  done;
  !best

(* the recursion stops on small pieces and after the last round *)
let base a ~rounds ~small =
  let n = Structure.order a in
  n <= small || rounds <= 0 || n < 2

let everyone a = Array.init (Structure.order a) Fun.id

(* The splitter sweep of [a] at the [wanted] anchors: a unary basic term
   yields its values at [wanted] (in that order); a ground one sums over
   the whole universe. *)
let rec sweep_at preds a ~rounds ~small wanted =
  let per_anchor = basic_vector preds a ~rounds ~small in
  Clterm.sweep ~anchors:(Array.length wanted)
    ~ground:(fun b -> Array.fold_left ( + ) 0 (per_anchor b (everyone a)))
    preds a
    (fun b -> per_anchor b wanted)

(* [count_vector preds a ~rounds ~small ~vars theta wanted]: the value of
   #(tl vars).θ at each wanted element. Re-enters the full pipeline
   (locality certification + Lemma 6.4 decomposition) on the current
   structure, as the paper's recursion does. *)
and count_vector preds a ~rounds ~small ~vars theta wanted =
  if base a ~rounds ~small then direct preds a vars theta wanted
  else
    match Decompose.localize ~max_width:4 ~anchored:true ~vars theta with
    | Error _ -> direct preds a vars theta wanted
    | Ok (_, cl) -> Clterm.eval_unary (sweep_at preds a ~rounds ~small wanted) cl

and count_ground preds a ~rounds ~small ~vars theta =
  match vars with
  | [] ->
      (* a sentence part: decided as a width-0 leaf by the cl-term walker *)
      let sentence =
        Clterm.basic ~pattern:(Foc_graph.Pattern.make 0 []) ~radius:0 ~vars
          ~body:theta
      in
      Clterm.eval_ground
        (sweep_at preds a ~rounds ~small [||])
        (Clterm.Ground sentence)
  | _ ->
      Array.fold_left ( + ) 0
        (count_vector preds a ~rounds ~small ~vars theta (everyone a))

(* The heart of Section 8.2, step 5: sweep the clusters of a neighbourhood
   cover; in each cluster play one splitter round — remove the chosen
   vertex via the Removal Lemma and recurse on the kernels over B_X *_r d. *)
and basic_vector preds a ~rounds ~small (b : Clterm.basic) wanted =
  let theta =
    Ast.and_
      (Dist_formula.delta
         ~r:((2 * b.Clterm.radius) + 1)
         b.Clterm.pattern b.Clterm.vars)
      b.Clterm.body
  in
  let vars = b.Clterm.vars in
  if base a ~rounds ~small then direct preds a vars theta wanted
  else begin
    let k = Foc_graph.Pattern.k b.Clterm.pattern in
    let rc = max 1 (k * ((2 * b.Clterm.radius) + 1)) in
    let cover =
      Foc_obs.span ~name:"cover" (fun () ->
          Foc_graph.Cover.make (Structure.gaifman a) ~r:rc)
    in
    Foc_obs.Metrics.(Counter.inc (counter (current ()) "engine.covers_built"));
    (* positions of the wanted elements, grouped by assigned cluster *)
    let by_cluster = Hashtbl.create 16 in
    Array.iteri
      (fun i e ->
        let c = Foc_graph.Cover.assigned cover e in
        Hashtbl.replace by_cluster c
          (i :: Option.value ~default:[] (Hashtbl.find_opt by_cluster c)))
      wanted;
    let out = Array.make (Array.length wanted) 0 in
    Hashtbl.iter
      (fun cluster_id positions ->
        let positions = Array.of_list positions in
        let members =
          Array.to_list (Foc_graph.Cover.cluster cover cluster_id)
        in
        let sub, old_of_new =
          Foc_obs.span ~name:"induce" (fun () -> Structure.induced a members)
        in
        let values =
          in_cluster preds sub ~rounds ~small ~vars theta
            (Array.map
               (fun i -> Structure.new_of_old old_of_new wanted.(i))
               positions)
        in
        Array.iteri (fun j i -> out.(i) <- values.(j)) positions)
      by_cluster;
    out
  end

and in_cluster preds sub ~rounds ~small ~vars theta wanted =
  if base sub ~rounds ~small then direct preds sub vars theta wanted
  else begin
    let d = splitter_move (Structure.gaifman sub) in
    let r_rm = max 1 (Measure.max_dist_atom theta) in
    match Removal.unary_parts ~r:r_rm ~vars theta with
    | exception Removal.Unsupported _ -> direct preds sub vars theta wanted
    | `At_removed gparts, `Elsewhere uparts ->
        Foc_obs.Metrics.(Counter.inc (counter (current ()) "engine.removals"));
        Foc_obs.span ~name:"splitter.recurse" (fun () ->
            let sub' = Foc_data.Removal_op.apply sub ~r:r_rm ~d in
            let rounds = rounds - 1 in
            let survivors =
              Array.of_list
                (List.filter_map
                   (fun e ->
                     if e = d then None
                     else Some (Foc_data.Removal_op.rename ~d e))
                   (Array.to_list wanted))
            in
            let totals = Array.make (Array.length survivors) 0 in
            if survivors <> [||] then
              List.iter
                (fun (vars', theta') ->
                  let vals =
                    count_vector preds sub' ~rounds ~small ~vars:vars' theta'
                      survivors
                  in
                  Array.iteri (fun i v -> totals.(i) <- totals.(i) + v) vals)
                uparts;
            let at_d () =
              Foc_util.Combi.sum
                (fun (vars', theta') ->
                  count_ground preds sub' ~rounds ~small ~vars:vars' theta')
                gparts
            in
            let next = ref 0 in
            Array.map
              (fun e ->
                if e = d then at_d ()
                else begin
                  incr next;
                  totals.(!next - 1)
                end)
              wanted)
  end

let sweep preds a ~max_rounds ~small =
  sweep_at preds a ~rounds:max_rounds ~small (everyone a)
