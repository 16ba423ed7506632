(* Conjunction-planning helpers for the relational baseline: flattening of
   And-chains into conjunct lists (with the negation push-downs that expose
   anti-join opportunities) and a greedy join ordering on estimated output
   cardinalities. Pure syntax/arithmetic — the tables live in Foc_eval.

   Cardinality model. Each input carries its variable set, its row count
   and (optionally) per-column statistics ({!Foc_stats.Summary}). A join
   appending input [i] to the accumulated prefix multiplies the cards by a
   per-shared-variable selectivity:

     - both sides have histograms      ->  Σ_v f1(v)·f2(v) / (r1·r2)
     - at least one distinct count     ->  1 / max(d1, d2)
     - nothing known                   ->  1 / n   (the PR-4 uniform model)

   All accumulation is in floats — intermediate cardinality estimates at
   high width overflow 63-bit ints long before they stop being useful as
   ranks. *)

module Summary = Foc_stats.Summary

let rec conjuncts (phi : Ast.formula) =
  match phi with
  | Ast.And (f, g) -> conjuncts f @ conjuncts g
  | Ast.True -> []
  | Ast.Neg (Ast.Neg f) -> conjuncts f
  | Ast.Neg (Ast.Or (f, g)) ->
      (* De Morgan: ¬(f ∨ g) ≡ ¬f ∧ ¬g — two independent anti-joins
         instead of one wider complement *)
      conjuncts (Ast.Neg f) @ conjuncts (Ast.Neg g)
  | Ast.Neg Ast.True -> [ Ast.False ]
  | Ast.Neg Ast.False -> []
  | f -> [ f ]

(* |t1 ⋈ t2| estimate under independence: |t1|·|t2| / n^#shared. Computed
   in floats to dodge overflow; only used to rank alternatives. *)
let join_estimate ~n (v1, c1) (v2, c2) =
  let shared = Var.Set.cardinal (Var.Set.inter v1 v2) in
  let sel = float_of_int n ** float_of_int shared in
  float_of_int c1 *. float_of_int c2 /. sel

(* ------------------------------------------------------------------ *)
(* statistics-aware inputs and plans *)

type input = {
  in_vars : Var.Set.t;
  in_card : int;
  in_cols : (Var.t * Summary.t) list;
}

let input ?(cols = []) vars card =
  { in_vars = vars; in_card = card; in_cols = cols }

type plan = { order : int list; step_sel : float array; est : float array }

(* what the accumulator knows about one of its columns *)
type acc_col = { ad : float; asumm : Summary.t option }

let col_of_input ~nf inp v =
  match List.assoc_opt v inp.in_cols with
  | Some s ->
      { ad = float_of_int (max 1 s.Summary.distinct); asumm = Some s }
  | None -> { ad = nf; asumm = None }

let var_sel (a : acc_col) (b : acc_col) =
  match (a.asumm, b.asumm) with
  | Some s1, Some s2
    when Array.length s1.Summary.hist > 0 && Array.length s2.Summary.hist > 0
    ->
      Float.max (Summary.eq_sel s1 s2) 1e-12
  | _ ->
      let d = Float.max (Float.max a.ad b.ad) 1. in
      1. /. d

(* predicted selectivity of joining [inp] onto an accumulator described by
   [acc_cols] (independence across shared variables) *)
let join_sel ~nf acc_cols inp =
  Var.Set.fold
    (fun v acc ->
      match Var.Map.find_opt v acc_cols with
      | Some ac -> acc *. var_sel ac (col_of_input ~nf inp v)
      | None -> acc)
    inp.in_vars 1.

let semijoin_sel ~n acc tg =
  let nf = float_of_int (max 1 n) in
  let shared = Var.Set.inter acc.in_vars tg.in_vars in
  if Var.Set.is_empty shared then
    if tg.in_card > 0 then 1. else 0.
  else begin
    (* P(acc row has a match in tg on the shared columns) ≈
       |π_shared tg| / Π_v dom_acc(v), both capped sensibly *)
    let dom_acc =
      Var.Set.fold
        (fun v acc_d -> acc_d *. (col_of_input ~nf acc v).ad)
        shared 1.
    in
    let dom_tg =
      Var.Set.fold
        (fun v acc_d -> acc_d *. (col_of_input ~nf tg v).ad)
        shared 1.
    in
    let proj = Float.min (float_of_int tg.in_card) dom_tg in
    Float.min 1. (proj /. Float.max dom_acc 1.)
  end

let plan_joins ~n ?correct (inputs : input array) =
  let m = Array.length inputs in
  if m = 0 then { order = []; step_sel = [||]; est = [||] }
  else begin
    let nf = float_of_int (max 1 n) in
    let used = Array.make m false in
    (* seed with the smallest input *)
    let first = ref 0 in
    for i = 1 to m - 1 do
      if inputs.(i).in_card < inputs.(!first).in_card then first := i
    done;
    used.(!first) <- true;
    let acc_vars = ref inputs.(!first).in_vars
    and acc_card = ref (float_of_int inputs.(!first).in_card)
    and acc_cols =
      ref
        (Var.Set.fold
           (fun v acc ->
             Var.Map.add v (col_of_input ~nf inputs.(!first) v) acc)
           inputs.(!first).in_vars Var.Map.empty)
    and order = ref [ !first ]
    and sels = ref [ 1. ]
    and ests = ref [ float_of_int inputs.(!first).in_card ] in
    for _ = 2 to m do
      let best = ref (-1)
      and best_est = ref infinity
      and best_sel = ref 1.
      and best_conn = ref false in
      for i = 0 to m - 1 do
        if not used.(i) then begin
          let inp = inputs.(i) in
          let conn = not (Var.Set.disjoint !acc_vars inp.in_vars) in
          let sel =
            match correct with
            | Some f -> (
                match f ~joined:(List.sort compare !order) ~next:i with
                | Some s -> s
                | None -> join_sel ~nf !acc_cols inp)
            | None -> join_sel ~nf !acc_cols inp
          in
          let est = !acc_card *. float_of_int inp.in_card *. sel in
          (* connected joins beat cross products regardless of estimate *)
          let better =
            !best < 0
            || (conn && not !best_conn)
            || (conn = !best_conn && est < !best_est)
          in
          if better then begin
            best := i;
            best_est := est;
            best_sel := sel;
            best_conn := conn
          end
        end
      done;
      let inp = inputs.(!best) in
      used.(!best) <- true;
      acc_card := Float.max !best_est 0.;
      (* merged column knowledge: a shared column keeps the smaller
         distinct count (containment); distinct never exceeds the rows *)
      let cap d = Float.min d (Float.max !acc_card 1.) in
      acc_cols :=
        Var.Set.fold
          (fun v acc ->
            let c = col_of_input ~nf inp v in
            match Var.Map.find_opt v acc with
            | Some old ->
                let keep = if c.ad < old.ad then c else old in
                Var.Map.add v { keep with ad = cap keep.ad } acc
            | None -> Var.Map.add v { c with ad = cap c.ad } acc)
          inp.in_vars !acc_cols;
      acc_vars := Var.Set.union !acc_vars inp.in_vars;
      order := !best :: !order;
      sels := !best_sel :: !sels;
      ests := !acc_card :: !ests
    done;
    {
      order = List.rev !order;
      step_sel = Array.of_list (List.rev !sels);
      est = Array.of_list (List.rev !ests);
    }
  end
