open Foc_logic
open Ast

type stats = {
  mutable unguarded_scans : int;
      (* quantifier/count positions where no guard was available and the
         evaluator fell back to scanning the whole universe *)
  mutable candidates_tried : int;
}

let create_stats () = { unguarded_scans = 0; candidates_tried = 0 }

(* small sorted-unique candidate sets *)
module Bucket = struct
  type t = int list (* sorted, duplicate-free *)

  let of_list l = List.sort_uniq compare l
  let size = List.length
  let to_list t = t

  let union a b =
    List.sort_uniq compare (List.rev_append a b)
end

let anchor_values env anchors =
  Var.Set.fold
    (fun x acc ->
      match Var.Map.find_opt x env with Some v -> v :: acc | None -> acc)
    anchors []

(* Candidates from a positive relational atom R(…, y, …) with at least one
   position already bound: the y-entries of the matching tuples, via the
   structure's incidence index — time proportional to the matching
   tuples, the key to DB-shaped (hub-heavy) Gaifman graphs. Returns [None]
   when no such atom is semantically entailed. *)
let rec atom_candidates a env (phi : Ast.formula) y : Bucket.t option =
  match phi with
  | Rel (r, args) -> begin
      let y_pos = ref (-1) and bound = ref [] in
      Array.iteri
        (fun i v ->
          if Var.equal v y then y_pos := i
          else
            match Var.Map.find_opt v env with
            | Some value -> bound := (i, value) :: !bound
            | None -> ())
        args;
      match (!y_pos, !bound) with
      | -1, _ | _, [] -> None
      | _, bindings ->
          (* fetch via the most selective bound position, then filter the
             tuples against all the other bindings (full semi-join) *)
          let matching (pos, value) f =
            Foc_data.Structure.tuples_with a r ~pos ~value f
          in
          let size b =
            let n = ref 0 in
            matching b (fun _ -> incr n);
            !n
          in
          let best =
            List.fold_left
              (fun (b, bn) b' ->
                let n = size b' in
                if n < bn then (b', n) else (b, bn))
              (List.hd bindings, max_int) bindings
          in
          let rows = Foc_data.Structure.rel a r and values = ref [] in
          matching (fst best) (fun i ->
              if
                List.for_all
                  (fun (p, v) -> Foc_data.Tuple.Set.cell rows i p = v)
                  bindings
              then values := Foc_data.Tuple.Set.cell rows i !y_pos :: !values);
          Some (Bucket.of_list !values)
    end
  | And (f, g) -> begin
      (* either conjunct alone gives a sound candidate set; prefer smaller *)
      match (atom_candidates a env f y, atom_candidates a env g y) with
      | Some s1, Some s2 ->
          Some (if Bucket.size s1 <= Bucket.size s2 then s1 else s2)
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None
    end
  | Or (f, g) -> begin
      match (atom_candidates a env f y, atom_candidates a env g y) with
      | Some s1, Some s2 -> Some (Bucket.union s1 s2)
      | _ -> None
    end
  | Exists (z, f) | Forall (z, f) ->
      (* ∀: sound for the ∃-style use below only through [Neg]; the callers
         only ask on formulas used positively *)
      if Var.equal z y then None else atom_candidates a env f y
  | Eq (u, v) ->
      let other = if Var.equal u y then Some v else if Var.equal v y then Some u else None in
      begin
        match other with
        | Some o -> begin
            match Var.Map.find_opt o env with
            | Some value -> Some (Bucket.of_list [ value ])
            | None -> None
          end
        | None -> None
      end
  | True | False | Dist _ | Neg _ | Pred _ -> None

let candidate_values a env phi y =
  Option.map Bucket.to_list (atom_candidates a env phi y)

(* Candidate elements for a quantified variable: first a positive-atom index
   lookup, then the δ-ball around the anchor values, else the whole
   universe. *)
let candidates ?stats a env guard_phi y =
  match atom_candidates a env guard_phi y with
  | Some bucket -> Some (Bucket.to_list bucket)
  | None -> begin
      let anchors = Var.Set.remove y (free_formula guard_phi) in
      let bound_anchors =
        Var.Set.filter (fun x -> Var.Map.mem x env) anchors
      in
      let delta =
        if Var.Set.is_empty bound_anchors then None
        else Locality.quantifier_guard guard_phi y ~anchors:bound_anchors
      in
      match delta with
      | Some d ->
          let centres = anchor_values env bound_anchors in
          if centres = [] then None
          else Some (Foc_data.Structure.ball a ~centres ~radius:d)
      | None ->
          Option.iter
            (fun s -> s.unguarded_scans <- s.unguarded_scans + 1)
            stats;
          None
    end

let rec holds ?stats preds a env (phi : Ast.formula) =
  let n = Foc_data.Structure.order a in
  if n = 0 then invalid_arg "Local_eval.holds: empty universe";
  match phi with
  | True -> true
  | False -> false
  | Eq (x, y) -> Foc_eval.Naive.lookup_exn env x = Foc_eval.Naive.lookup_exn env y
  | Rel (r, xs) ->
      Foc_data.Structure.mem a r (Array.map (Foc_eval.Naive.lookup_exn env) xs)
  | Dist (x, y, d) ->
      Foc_data.Structure.dist_le a (Foc_eval.Naive.lookup_exn env x)
        (Foc_eval.Naive.lookup_exn env y) d
  | Neg f -> not (holds ?stats preds a env f)
  | Or (f, g) -> holds ?stats preds a env f || holds ?stats preds a env g
  | And (f, g) -> holds ?stats preds a env f && holds ?stats preds a env g
  | Exists (y, f) -> begin
      let try_value v =
        Option.iter
          (fun s -> s.candidates_tried <- s.candidates_tried + 1)
          stats;
        holds ?stats preds a (Var.Map.add y v env) f
      in
      match candidates ?stats a env f y with
      | Some ball -> List.exists try_value ball
      | None ->
          let rec from v = v < n && (try_value v || from (v + 1)) in
          from 0
    end
  | Forall (y, f) -> begin
      (* far values must satisfy f vacuously: guard against ¬f *)
      let try_value v =
        Option.iter
          (fun s -> s.candidates_tried <- s.candidates_tried + 1)
          stats;
        holds ?stats preds a (Var.Map.add y v env) f
      in
      match candidates ?stats a env (Ast.Neg f) y with
      | Some ball -> List.for_all try_value ball
      | None ->
          let rec from v = v >= n || (try_value v && from (v + 1)) in
          from 0
    end
  | Pred (p, ts) ->
      Pred.holds preds p
        (Array.of_list (List.map (term ?stats preds a env) ts))

and term ?stats preds a env (t : Ast.term) =
  match t with
  | Int i -> i
  | Add (s, t') -> term ?stats preds a env s + term ?stats preds a env t'
  | Mul (s, t') -> term ?stats preds a env s * term ?stats preds a env t'
  | Count (ys, f) -> count_tuples ?stats preds a env ys f

(* Enumerate the counted tuple one variable at a time, always extending by a
   variable that is guarded by the already-known values when possible. *)
and count_tuples ?stats preds a env ys f =
  let n = Foc_data.Structure.order a in
  match ys with
  | [] -> if holds ?stats preds a env f then 1 else 0
  | _ ->
      (* choose the next variable: prefer one guarded w.r.t. bound vars *)
      let bound_anchors =
        Var.Set.filter
          (fun x -> Var.Map.mem x env)
          (free_formula f)
      in
      (* prefer a variable with an indexed atom candidate set, then one with
         a distance guard, else scan *)
      let indexed =
        List.filter_map
          (fun y ->
            match atom_candidates a env f y with
            | Some b -> Some (y, Bucket.to_list b)
            | None -> None)
          ys
      in
      let y, rest, domain =
        match indexed with
        | (y, dom) :: _ ->
            (y, List.filter (fun z -> not (Var.equal z y)) ys, dom)
        | [] -> begin
            let pick =
              List.find_opt
                (fun y ->
                  (not (Var.Set.is_empty bound_anchors))
                  && Locality.quantifier_guard f y ~anchors:bound_anchors
                     <> None)
                ys
            in
            match pick with
            | Some y ->
                let delta =
                  Option.get
                    (Locality.quantifier_guard f y ~anchors:bound_anchors)
                in
                let centres = anchor_values env bound_anchors in
                ( y,
                  List.filter (fun z -> not (Var.equal z y)) ys,
                  Foc_data.Structure.ball a ~centres ~radius:delta )
            | None ->
                Option.iter
                  (fun s -> s.unguarded_scans <- s.unguarded_scans + 1)
                  stats;
                let y = List.hd ys in
                (y, List.tl ys, List.init n (fun i -> i))
          end
      in
      Foc_util.Combi.sum
        (fun v ->
          Option.iter
            (fun s -> s.candidates_tried <- s.candidates_tried + 1)
            stats;
          count_tuples ?stats preds a (Var.Map.add y v env) rest f)
        domain
