open Foc_logic
open Foc_local
module Structure = Foc_data.Structure
module Removal_op = Foc_data.Removal_op

(* A counting kernel owed by a recursion node: the value of #(tl vars).θ
   at each [wanted] element ([vars <> []]). *)
type kernel = { vars : Var.t list; theta : Ast.formula; wanted : int array }

type env = { preds : Pred.collection; small : int; jobs : int }

let count name n =
  Foc_obs.Metrics.(Counter.add (counter (current ()) name) n)

(* the positions of [xs] whose entry satisfies [p], and the entries at
   given positions *)
let indices p xs =
  Array.of_seq
    (Seq.filter (fun j -> p xs.(j)) (Seq.init (Array.length xs) Fun.id))

let pick xs js = Array.map (fun j -> xs.(j)) js
let everyone a = Array.init (Structure.order a) Fun.id

(* [grouped key f xs]: [f k group] for each group of [xs] sharing the key
   [k], the answers handed back in the order of [xs] *)
let grouped key f xs =
  let keyed = List.mapi (fun i x -> (key x, i, x)) xs in
  let out = Array.make (List.length xs) None in
  List.iter
    (fun k ->
      let group = List.filter (fun (k', _, _) -> k' = k) keyed in
      List.iter2
        (fun (_, i, _) y -> out.(i) <- Some y)
        group
        (f k (List.map (fun (_, _, x) -> x) group)))
    (List.sort_uniq compare (List.map (fun (k, _, _) -> k) keyed));
  List.map Option.get (Array.to_list out)

(* a batch's answers, handed back in the order they were asked for *)
let reader values =
  let rest = ref values in
  fun () ->
    match !rest with
    | v :: tl ->
        rest := tl;
        v
    | [] -> invalid_arg "Splitter_backend: batch answered too few kernels"

(* The recursion base: the kernel at each wanted element, compiled once
   (complete — unguarded positions scan, so this is always correct). The
   compiled program is shared, the scratch is per domain. *)
let direct env a k =
  match k.vars with
  | [] -> invalid_arg "Splitter_backend.direct"
  | _ when Array.length k.wanted = 0 -> [||]
  | x :: counted ->
      let t =
        Local_eval.compile_term env.preds a ~vars:[ x ]
          (Ast.Count (counted, k.theta))
      in
      (* evaluation reads the lazily built indexes: build them before a fork *)
      if env.jobs > 1 then Structure.prepare a;
      Foc_par.tabulate_ctx ~jobs:env.jobs
        ~make_ctx:(fun () ->
          (Local_eval.scratch a, Array.make (Local_eval.term_width t) 0))
        (Array.length k.wanted)
        (fun (s, slots) i ->
          slots.(0) <- k.wanted.(i);
          Local_eval.value t s slots)

(* Splitter's heuristic answer inside a cluster: the max-degree vertex. *)
let splitter_move g =
  let best = ref 0 in
  for v = 1 to Foc_graph.Graph.order g - 1 do
    if Foc_graph.Graph.degree g v > Foc_graph.Graph.degree g !best then
      best := v
  done;
  !best

(* the recursion stops on small pieces and after the last round *)
let base env a ~rounds =
  let n = Structure.order a in
  n <= env.small || rounds <= 0 || n < 2

(* the distinct unary leaves and ground leaves of width >= 1 of [cl] *)
let leaves cl =
  let add b l = if List.memq b l then l else l @ [ b ] in
  let rec go (us, gs) = function
    | Clterm.Const _ -> (us, gs)
    | Clterm.Ground b when Foc_graph.Pattern.k b.Clterm.pattern = 0 -> (us, gs)
    | Ground b -> (us, add b gs)
    | Unary b -> (add b us, gs)
    | Add (s, t) | Mul (s, t) -> go (go (us, gs) s) t
  in
  go ([], []) cl

(* [basics env a ~rounds ~cover_for reqs]: each basic term (width >= 1)
   of [reqs] at its wanted elements, as the kernel #(tl vars).(δ ∧ body).
   One cover per distinct cover radius, and one cluster sweep over it for
   every kernel of that radius. *)
let rec basics env a ~rounds ~cover_for reqs =
  let kernels =
    List.map
      (fun ((b : Clterm.basic), wanted) ->
        ( Cover_term.basic_cover_radius b,
          {
            vars = b.vars;
            theta =
              Ast.and_
                (Dist_formula.delta ~r:((2 * b.radius) + 1) b.pattern b.vars)
                b.body;
            wanted;
          } ))
      reqs
  in
  if base env a ~rounds then List.map (fun (_, k) -> direct env a k) kernels
  else
    grouped fst
      (fun rc group ->
        clusters env a ~rounds (cover_for ~rc)
          (Array.of_list (List.map snd group)))
      kernels

(* One cluster sweep over [cover] for the kernels [ks]: each cluster gets
   the kernels that want one of its assigned elements, restricted to
   those elements, and plays one round for all of them. A cluster of at
   most [small] elements is the recursion base: by Lemma 7.6 the count in
   A[X] is the count in A, so its elements are counted in place, with one
   compiled kernel per node instead of one induction and compilation per
   cluster. *)
and clusters env a ~rounds cover ks =
  let in_place =
    let base_cluster =
      Array.init (Foc_graph.Cover.cluster_count cover) (fun c ->
          Array.length (Foc_graph.Cover.cluster cover c) <= env.small)
    in
    fun e -> base_cluster.(Foc_graph.Cover.assigned cover e)
  in
  let out =
    Array.map
      (fun k ->
        let values = Array.make (Array.length k.wanted) 0 in
        let js = indices in_place k.wanted in
        Array.iteri
          (fun x v -> values.(js.(x)) <- v)
          (direct env a { k with wanted = pick k.wanted js });
        values)
      ks
  in
  (* the swept positions, kernel after kernel: position p is the
     element wanted at slot.(p) by kernel owner.(p) *)
  let swept =
    Array.map (fun k -> indices (fun e -> not (in_place e)) k.wanted) ks
  in
  let owner =
    Array.concat
      (Array.to_list (Array.mapi (fun i js -> Array.map (fun _ -> i) js) swept))
  and slot = Array.concat (Array.to_list swept) in
  Cover_term.sweep ~jobs:env.jobs a cover
    ~wanted:(Array.map2 (fun i j -> ks.(i).wanted.(j)) owner slot)
    (fun sub ~positions ~anchors ->
      (* the indices into [positions] grouped by owner, owners ascending,
         in one stable sort *)
      let runs =
        let own j = owner.(positions.(j)) in
        let js = Array.init (Array.length positions) Fun.id in
        Array.stable_sort (fun x y -> Int.compare (own x) (own y)) js;
        let rec split lo acc =
          if lo = Array.length js then List.rev acc
          else begin
            let hi = ref lo in
            while !hi < Array.length js && own js.(!hi) = own js.(lo) do
              incr hi
            done;
            split !hi ((own js.(lo), Array.sub js lo (!hi - lo)) :: acc)
          end
        in
        split 0 []
      in
      List.iter2
        (fun (i, js) values ->
          Array.iteri
            (fun x j -> out.(i).(slot.(positions.(j))) <- values.(x))
            js)
        runs
        (round env sub ~rounds
           (List.map
              (fun (i, js) -> { (ks.(i)) with wanted = pick anchors js })
              runs)));
  Array.to_list out

(* The heart of Section 8.2, step 5, batched: one splitter round in the
   cluster [sub] for all the kernels it owes. Splitter answers with one
   vertex d; each kernel splits by the Removal Lemma (7.9) into parts over
   A *_r d, one structure per distinct removal radius r, and the node
   below takes every part at once. *)
and round env sub ~rounds ks =
  Foc_obs.span ~name:"splitter.round" (fun () ->
      count "splitter.rounds" 1;
      count "splitter.kernels" (List.length ks);
      if base env sub ~rounds then List.map (direct env sub) ks
      else begin
        let d = splitter_move (Structure.gaifman sub) in
        grouped
          (fun (_, parts) -> Option.map (fun (r, _, _) -> r) parts)
          (fun r group ->
            match r with
            | None -> List.map (fun (k, _) -> direct env sub k) group
            | Some r ->
                removal env sub ~rounds ~r ~d
                  (List.map (fun (k, parts) -> (k, Option.get parts)) group))
          (List.map
             (fun k ->
               let r = max 1 (Measure.max_dist_atom k.theta) in
               match Removal.unary_parts ~r ~vars:k.vars k.theta with
               | exception Removal.Unsupported _ -> (k, None)
               | `At_removed at_d, `Elsewhere rest -> (k, Some (r, at_d, rest)))
             ks)
      end)

(* One removal [sub *_r d] for the kernels [mine] of removal radius [r]:
   a kernel's Elsewhere parts are wanted at its surviving elements and,
   when d is one of its elements, its At_removed parts are summed over
   the whole of [sub']; width-0 parts are sentences, decided in [sub'].
   Every part goes to the node below in one batch. *)
and removal env sub ~rounds ~r ~d mine =
  count "engine.removals" 1;
  let sub' =
    Foc_obs.span ~name:"remove" (fun () -> Removal_op.apply sub ~r ~d)
  in
  let plans =
    List.map
      (fun (k, (_, at_d, rest)) ->
        let js = indices (fun e -> e <> d) k.wanted in
        let survivors = Array.map (Removal_op.rename ~d) (pick k.wanted js) in
        let elsewhere =
          if js = [||] then []
          else
            List.map
              (fun (vars, theta) -> { vars; theta; wanted = survivors })
              rest
        in
        let sentences, removed =
          List.partition
            (fun (vars, _) -> vars = [])
            (if Array.mem d k.wanted then at_d else [])
        in
        ( k,
          js,
          elsewhere,
          List.map
            (fun (vars, theta) -> { vars; theta; wanted = everyone sub' })
            removed,
          Foc_util.Combi.sum
            (fun (_, theta) ->
              Bool.to_int (Local_eval.sentence env.preds sub' theta))
            sentences ))
      mine
  in
  let take =
    reader
      (kernels env sub' ~rounds:(rounds - 1)
         (List.concat_map (fun (_, _, e, rm, _) -> e @ rm) plans))
  in
  List.map
    (fun (k, js, elsewhere, removed, sentences) ->
      let totals = Array.make (Array.length js) 0 in
      List.iter
        (fun _ ->
          Array.iteri (fun x v -> totals.(x) <- totals.(x) + v) (take ()))
        elsewhere;
      (* d's value everywhere, then the survivors' over it *)
      let values =
        Array.make (Array.length k.wanted)
          (List.fold_left
             (fun acc _ -> acc + Array.fold_left ( + ) 0 (take ()))
             sentences removed)
      in
      Array.iteri (fun x j -> values.(j) <- totals.(x)) js;
      values)
    plans

(* [kernels env a ~rounds ks]: the node below a removal. Each kernel is
   re-localized and re-decomposed (as the paper's recursion does), and the
   basic terms of all the cl-terms are evaluated in one batch: a unary
   leaf at its kernel's elements, a ground leaf (width >= 1) everywhere. *)
and kernels env a ~rounds ks =
  if ks = [] then []
  else if base env a ~rounds then List.map (direct env a) ks
  else begin
    let decomposed =
      List.map
        (fun k ->
          match
            Decompose.localize ~max_width:4 ~anchored:true ~vars:k.vars k.theta
          with
          | Ok (_, cl) -> (k, Some (cl, leaves cl))
          | Error _ -> (k, None))
        ks
    in
    (* a round's covers are built, never stored: its structures live for
       one round *)
    let take =
      reader
        (basics env a ~rounds ~cover_for:(Artifact_store.build_cover a)
           (List.concat_map
              (fun (k, parts) ->
                match parts with
                | None -> []
                | Some (_, (us, gs)) ->
                    List.map (fun b -> (b, k.wanted)) us
                    @ List.map (fun b -> (b, everyone a)) gs)
              decomposed))
    in
    List.map
      (fun (k, parts) ->
        match parts with
        | None -> direct env a k
        | Some (cl, (us, gs)) ->
            let uv = List.map (fun b -> (b, take ())) us in
            let gv = List.map (fun b -> (b, take ())) gs in
            Clterm.eval_unary
              (Clterm.sweep ~anchors:(Array.length k.wanted)
                 ~ground:(fun b -> Array.fold_left ( + ) 0 (List.assq b gv))
                 env.preds a
                 (fun b -> List.assq b uv))
              cl)
      decomposed
  end

let sweep ?(jobs = 1) ~cover_for preds a ~max_rounds ~small cl =
  let env = { preds; small; jobs } in
  let us, gs = leaves cl in
  let bs = us @ List.filter (fun b -> not (List.memq b us)) gs in
  let vectors =
    List.combine bs
      (basics env a ~rounds:max_rounds ~cover_for
         (List.map (fun b -> (b, everyone a)) bs))
  in
  Clterm.sweep preds a (fun b ->
      match List.assq_opt b vectors with
      | Some v -> v
      | None ->
          invalid_arg "Splitter_backend.sweep: basic term outside the cl-term")
