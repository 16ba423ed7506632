open Foc_logic
open Foc_local
module Structure = Foc_data.Structure

(* The recursion base: #(tl vars).θ at one element by guarded enumeration
   (complete — unguarded positions scan, so this is always correct). *)
let direct_at preds a vars theta elt =
  match vars with
  | [] -> invalid_arg "Splitter_backend.direct_at"
  | x :: counted ->
      let env = Var.Map.singleton x elt in
      Local_eval.term preds a env (Ast.Count (counted, theta))

(* Splitter's heuristic answer inside a cluster: the max-degree vertex. *)
let splitter_move g =
  let best = ref 0 in
  for v = 1 to Foc_graph.Graph.order g - 1 do
    if Foc_graph.Graph.degree g v > Foc_graph.Graph.degree g !best then
      best := v
  done;
  !best

let tbl_of_direct preds a vars theta wanted =
  let out = Hashtbl.create (List.length wanted) in
  List.iter
    (fun e -> Hashtbl.replace out e (direct_at preds a vars theta e))
    wanted;
  out

let combine op t1 t2 =
  let out = Hashtbl.create (Hashtbl.length t1) in
  Hashtbl.iter
    (fun e v1 -> Hashtbl.replace out e (op v1 (Hashtbl.find t2 e)))
    t1;
  out

let const_tbl wanted v =
  let out = Hashtbl.create (List.length wanted) in
  List.iter (fun e -> Hashtbl.replace out e v) wanted;
  out

(* [count_vector preds a ~rounds ~small ~vars theta wanted]: the value of
   #(tl vars).θ at each wanted element. Re-enters the full pipeline
   (locality certification + Lemma 6.4 decomposition) on the current
   structure, as the paper's recursion does. *)
let rec count_vector preds a ~rounds ~small ~vars theta wanted :
    (int, int) Hashtbl.t =
  let n = Structure.order a in
  if n <= small || rounds <= 0 || n < 2 then
    tbl_of_direct preds a vars theta wanted
  else begin
    let localized =
      if List.length vars > 4 then None
      else
        match Locality.formula_radius theta with
        | Locality.Local r -> begin
            match Decompose.unary_count ~r ~vars theta with
            | Some cl -> Some (r, cl)
            | None -> None
          end
        | Locality.Nonlocal _ -> None
    in
    match localized with
    | None -> tbl_of_direct preds a vars theta wanted
    | Some (_r, cl) -> eval_cl_at preds a ~rounds ~small cl wanted
  end

and count_ground preds a ~rounds ~small ~vars theta =
  match vars with
  | [] ->
      if Structure.order a = 0 then 0
      else if Local_eval.holds preds a Var.Map.empty theta then 1
      else 0
  | _ ->
      let everyone = List.init (Structure.order a) (fun i -> i) in
      let tbl = count_vector preds a ~rounds ~small ~vars theta everyone in
      Hashtbl.fold (fun _ v acc -> acc + v) tbl 0

and eval_cl_at preds a ~rounds ~small cl wanted =
  match cl with
  | Clterm.Const i -> const_tbl wanted i
  | Clterm.Ground b ->
      let total = eval_basic_ground preds a ~rounds ~small b in
      const_tbl wanted total
  | Clterm.Unary b -> eval_basic_unary preds a ~rounds ~small b wanted
  | Clterm.Add (s, t) ->
      combine ( + )
        (eval_cl_at preds a ~rounds ~small s wanted)
        (eval_cl_at preds a ~rounds ~small t wanted)
  | Clterm.Mul (s, t) ->
      combine ( * )
        (eval_cl_at preds a ~rounds ~small s wanted)
        (eval_cl_at preds a ~rounds ~small t wanted)

and eval_basic_ground preds a ~rounds ~small (b : Clterm.basic) =
  if Foc_graph.Pattern.k b.Clterm.pattern = 0 then begin
    if Structure.order a = 0 then 0
    else if Local_eval.holds preds a Var.Map.empty b.Clterm.body then 1
    else 0
  end
  else begin
    let everyone = List.init (Structure.order a) (fun i -> i) in
    let tbl = eval_basic_unary preds a ~rounds ~small b everyone in
    Hashtbl.fold (fun _ v acc -> acc + v) tbl 0
  end

(* The heart of Section 8.2, step 5: sweep the clusters of a neighbourhood
   cover; in each cluster play one splitter round — remove the chosen
   vertex via the Removal Lemma and recurse on the kernels over B_X *_r d. *)
and eval_basic_unary preds a ~rounds ~small (b : Clterm.basic) wanted =
  let theta =
    Ast.and_
      (Dist_formula.delta
         ~r:((2 * b.Clterm.radius) + 1)
         b.Clterm.pattern b.Clterm.vars)
      b.Clterm.body
  in
  let vars = b.Clterm.vars in
  let n = Structure.order a in
  if n <= small || rounds <= 0 || n < 2 then
    tbl_of_direct preds a vars theta wanted
  else begin
    let k = Foc_graph.Pattern.k b.Clterm.pattern in
    let rc = max 1 (k * ((2 * b.Clterm.radius) + 1)) in
    let cover =
      Foc_obs.span ~name:"cover" (fun () ->
          Foc_graph.Cover.make (Structure.gaifman a) ~r:rc)
    in
    let by_cluster = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let c = Foc_graph.Cover.assigned cover e in
        Hashtbl.replace by_cluster c
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_cluster c)))
      wanted;
    let out = Hashtbl.create (List.length wanted) in
    Hashtbl.iter
      (fun cluster_id elems ->
        let members =
          Array.to_list (Foc_graph.Cover.cluster cover cluster_id)
        in
        let sub, old_of_new = Structure.induced a members in
        let new_of_old = Hashtbl.create (List.length members) in
        Array.iteri (fun nw od -> Hashtbl.replace new_of_old od nw) old_of_new;
        let local_wanted = List.map (Hashtbl.find new_of_old) elems in
        let values =
          in_cluster preds sub ~rounds ~small ~vars theta local_wanted
        in
        List.iter2
          (fun e le -> Hashtbl.replace out e (Hashtbl.find values le))
          elems local_wanted)
      by_cluster;
    out
  end

and in_cluster preds sub ~rounds ~small ~vars theta local_wanted =
  let n = Structure.order sub in
  if n <= small || rounds <= 0 || n < 2 then
    tbl_of_direct preds sub vars theta local_wanted
  else begin
    let d = splitter_move (Structure.gaifman sub) in
    let r_rm = max 1 (Measure.max_dist_atom theta) in
    match Removal.unary_parts ~r:r_rm ~vars theta with
    | exception Removal.Unsupported _ ->
        tbl_of_direct preds sub vars theta local_wanted
    | `At_removed gparts, `Elsewhere uparts ->
        Foc_obs.Metrics.(Counter.inc (counter (current ()) "engine.removals"));
        Foc_obs.span ~name:"splitter.recurse" (fun () ->
        let sub' = Foc_data.Removal_op.apply sub ~r:r_rm ~d in
        let out = Hashtbl.create (List.length local_wanted) in
        let survivors = List.filter (fun e -> e <> d) local_wanted in
        if survivors <> [] then begin
          let renamed =
            List.map (fun e -> Foc_data.Removal_op.rename ~d e) survivors
          in
          let totals = Hashtbl.create (List.length survivors) in
          List.iter (fun e' -> Hashtbl.replace totals e' 0) renamed;
          List.iter
            (fun (vars', theta') ->
              let vals =
                count_vector preds sub' ~rounds:(rounds - 1) ~small
                  ~vars:vars' theta' renamed
              in
              Hashtbl.iter
                (fun e' v ->
                  Hashtbl.replace totals e' (v + Hashtbl.find totals e'))
                vals)
            uparts;
          List.iter2
            (fun e e' -> Hashtbl.replace out e (Hashtbl.find totals e'))
            survivors renamed
        end;
        if List.mem d local_wanted then begin
          let v =
            Foc_util.Combi.sum
              (fun (vars', theta') ->
                count_ground preds sub' ~rounds:(rounds - 1) ~small
                  ~vars:vars' theta')
              gparts
          in
          Hashtbl.replace out d v
        end;
        out)
  end

(* ---------------- public polynomial evaluation ---------------- *)

let rec eval_unary preds a ~max_rounds ~small = function
  | Clterm.Const i -> Array.make (Structure.order a) i
  | Clterm.Unary b ->
      let wanted = List.init (Structure.order a) (fun i -> i) in
      let tbl =
        eval_basic_unary preds a ~rounds:max_rounds ~small b wanted
      in
      Array.init (Structure.order a) (fun e -> Hashtbl.find tbl e)
  | Clterm.Ground b ->
      Array.make (Structure.order a)
        (eval_basic_ground preds a ~rounds:max_rounds ~small b)
  | Clterm.Add (s, t) ->
      Array.map2 ( + )
        (eval_unary preds a ~max_rounds ~small s)
        (eval_unary preds a ~max_rounds ~small t)
  | Clterm.Mul (s, t) ->
      Array.map2 ( * )
        (eval_unary preds a ~max_rounds ~small s)
        (eval_unary preds a ~max_rounds ~small t)

let rec eval_ground preds a ~max_rounds ~small = function
  | Clterm.Const i -> i
  | Clterm.Unary _ -> invalid_arg "Splitter_backend.eval_ground: unary leaf"
  | Clterm.Ground b -> eval_basic_ground preds a ~rounds:max_rounds ~small b
  | Clterm.Add (s, t) ->
      eval_ground preds a ~max_rounds ~small s
      + eval_ground preds a ~max_rounds ~small t
  | Clterm.Mul (s, t) ->
      eval_ground preds a ~max_rounds ~small s
      * eval_ground preds a ~max_rounds ~small t

