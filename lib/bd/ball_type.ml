module Structure = Foc_data.Structure
module Signature = Foc_data.Signature

let extract a ~centre ~r =
  let ball = Structure.ball a ~centres:[ centre ] ~radius:r in
  let sub, old_of_new = Structure.induced a ball in
  (sub, Structure.new_of_old old_of_new centre)

(* ------------------------------------------------------------------ *)
(* Colour refinement. An element's signature is its current colour plus,
   for every tuple it occurs in, the relation name, its position, and the
   colours of the other entries. Signatures are ranked canonically (sorted
   order), so the refinement is isomorphism-invariant. *)

type sig_item = string * int * int list

(* Reusable canonicalization scratch. A Hanf sweep canonicalises one ball
   per element; the serialization buffer and colour-ranking table keep
   their backing storage across calls ([Buffer.clear] / [Hashtbl.reset] do
   not shrink), so the sweep stops re-growing them n times. One scratch
   per domain — never share across concurrent canonicalizations. *)
type scratch = {
  buf : Buffer.t;
  rank : (int * sig_item list, int) Hashtbl.t;
}

let scratch () = { buf = Buffer.create 1024; rank = Hashtbl.create 64 }

let refine ?scratch a (colors : int array) : int array =
  let n = Array.length colors in
  let sigs : (int * sig_item list) array =
    Array.init n (fun v -> (colors.(v), []))
  in
  let add v item =
    let c, items = sigs.(v) in
    sigs.(v) <- (c, item :: items)
  in
  List.iter
    (fun (name, _) ->
      Foc_data.Tuple.Set.iter
        (fun tup ->
          Array.iteri
            (fun i v ->
              let others =
                Array.to_list (Array.map (fun u -> colors.(u)) tup)
              in
              add v (name, i, others))
            tup)
        (Structure.rel a name))
    (Signature.to_list (Structure.signature a));
  let keys =
    Array.map (fun (c, items) -> (c, List.sort compare items)) sigs
  in
  let distinct = List.sort_uniq compare (Array.to_list keys) in
  let rank =
    match scratch with
    | Some s ->
        Hashtbl.reset s.rank;
        s.rank
    | None -> Hashtbl.create 16
  in
  List.iteri (fun i k -> Hashtbl.replace rank k i) distinct;
  Array.map (fun k -> Hashtbl.find rank k) keys

let rec refine_fix ?scratch a colors =
  let colors' = refine ?scratch a colors in
  if colors' = colors then colors else refine_fix ?scratch a colors'

(* ------------------------------------------------------------------ *)

let serialize ?scratch a order_of =
  (* order_of.(v) = canonical index of element v; serialization of the
     relabelled structure, total once order_of is a bijection *)
  let buf =
    match scratch with
    | Some s ->
        Buffer.clear s.buf;
        s.buf
    | None -> Buffer.create 256
  in
  Buffer.add_string buf (Printf.sprintf "n=%d;" (Structure.order a));
  List.iter
    (fun (name, _) ->
      Buffer.add_string buf (name ^ "{");
      Foc_data.Tuple.Set.iter
        (fun t ->
          Array.iter (fun x -> Buffer.add_string buf (string_of_int x ^ ",")) t;
          Buffer.add_char buf '|')
        (Foc_data.Tuple.Set.map (fun v -> order_of.(v)) (Structure.rel a name));
      Buffer.add_string buf "};")
    (Signature.to_list (Structure.signature a));
  Buffer.contents buf

let order_from_colors colors =
  (* valid only when colours are pairwise distinct *)
  let n = Array.length colors in
  let order_of = Array.make n (-1) in
  let by_color =
    List.sort
      (fun (c1, _) (c2, _) -> compare c1 c2)
      (List.init n (fun v -> (colors.(v), v)))
  in
  List.iteri (fun i (_, v) -> order_of.(v) <- i) by_color;
  order_of

let all_distinct colors =
  let n = Array.length colors in
  let seen = Hashtbl.create n in
  let ok = ref true in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen c then ok := false else Hashtbl.replace seen c ())
    colors;
  !ok

let smallest_ambiguous_class colors =
  (* members of the non-singleton class with the least colour *)
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun v c ->
      Hashtbl.replace tbl c (v :: Option.value ~default:[] (Hashtbl.find_opt tbl c)))
    colors;
  Hashtbl.fold
    (fun c members best ->
      if List.length members < 2 then best
      else
        match best with
        | Some (c', _) when c' <= c -> best
        | _ -> Some (c, List.sort compare members))
    tbl None

(* Individualization branching is capped: when colour refinement leaves an
   ambiguous class, only the first [branch_limit] members are tried. If the
   class is an automorphism orbit — always the case when refinement
   identifies orbits, e.g. on every forest (1-WL is complete on trees), and
   hence on the tree-like balls of sparse structures — any member gives the
   same key, so the cap loses nothing. On refinement-blind inputs the cap
   may split one isomorphism type into several keys, which for Hanf
   grouping merely costs extra evaluations; it never merges distinct types
   (equal keys always certify an isomorphism via the serialisation). An
   uncapped search is exponential on large orbits (a hub's leaves). *)
let canonical_key ?scratch a ~centre =
  let n = Structure.order a in
  if n = 0 then "empty"
  else begin
    let init =
      Array.init n (fun v -> if v = centre then 0 else 1)
    in
    (* work budget: while it lasts, try up to 3 members per ambiguous class
       (robustness against mildly refinement-blind classes); once spent,
       individualize a single member — linear work, and still exact
       whenever stable classes are orbits (true on all forests, hence on
       the tree-like balls of sparse structures) *)
    let budget = ref 60 in
    let rec canon colors =
      decr budget;
      let colors = refine_fix ?scratch a colors in
      if all_distinct colors then serialize ?scratch a (order_from_colors colors)
      else begin
        match smallest_ambiguous_class colors with
        | None -> assert false
        | Some (_, members) ->
            let limit = if !budget > 0 then 3 else 1 in
            let members = List.filteri (fun i _ -> i < limit) members in
            List.fold_left
              (fun best m ->
                let colors' = Array.map (fun c -> 2 * c) colors in
                colors'.(m) <- colors'.(m) - 1;
                let key = canon colors' in
                match best with
                | Some b when b <= key -> Some b
                | _ -> Some key)
              None members
            |> Option.get
      end
    in
    canon init
  end

let ball_key ?scratch a ~centre ~r =
  let sub, c = extract a ~centre ~r in
  canonical_key ?scratch sub ~centre:c

(* ------------------------------------------------------------------ *)
(* Hash-consing of canonical keys. A sweep over a large structure produces
   n key strings but only few distinct ones (that is the point of Hanf
   grouping); interning maps each string to a small int id so that all
   downstream grouping and deduplication compares ints. Ids are assigned
   in first-intern order, so grouping by id is deterministic. *)

type interner = { ids : (string, int) Hashtbl.t; mutable next : int }

let interner () = { ids = Hashtbl.create 256; next = 0 }

let intern it key =
  match Hashtbl.find_opt it.ids key with
  | Some id -> id
  | None ->
      let id = it.next in
      it.next <- id + 1;
      Hashtbl.replace it.ids key id;
      id

let interned_count it = it.next
