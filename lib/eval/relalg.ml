open Foc_logic
module TS = Foc_data.Tuple.Set
module Summary = Foc_stats.Summary
module Stats = Foc_stats.Stats

(* ------------------------------------------------------------------ *)
(* Planning context: base-relation statistics, histogram resolution, and
   the adaptive feedback state. A ctx is a mutable single-domain object
   meant to live as long as an engine or a session, so per-plan
   observations survive across queries. *)

type feedback_entry = {
  (* observed selectivity of appending input [next] to the joined prefix
     set (sorted indices) — recorded when a run's worst per-step error
     exceeded [replan_ratio], consumed by the next planning of the same
     conjunct list *)
  mutable corrections : ((int list * int) * float) list;
  mutable last_order : int list;
}

type ctx = {
  stats_for : Foc_data.Structure.t -> Stats.t;
  buckets : int;
  feedback : (Ast.formula list, feedback_entry) Hashtbl.t;
}

(* worst per-step estimate error beyond which a plan's observed
   selectivities are recorded for re-planning *)
let replan_ratio = 8.

(* Without a provider, a two-entry physical-identity memo amortises one
   [Stats.collect] per structure across a query's sub-evaluations (an
   induced substructure alternates with its base). The per-atom row-count
   guard in [conjunct_input] falls back to scanning whenever an entry went
   stale, so a mutated structure can cost plan quality, never
   correctness. *)
let make_ctx ?stats_for ?(buckets = Stats.default_buckets) () =
  let stats_for =
    match stats_for with
    | Some f -> f
    | None ->
        let memo = ref [] in
        fun a ->
          match List.assq_opt a !memo with
          | Some s -> s
          | None ->
              let s = Stats.collect ~buckets a in
              memo := (a, s) :: (match !memo with e :: _ -> [ e ] | [] -> []);
              s
  in
  { stats_for; buckets; feedback = Hashtbl.create 16 }

(* column summaries for one materialised conjunct table: O(1) from the
   relation statistics for a plain [Rel] atom, otherwise one O(rows) scan
   of the (already materialised) table — skipped above a size cap where
   the scan would no longer be noise next to the joins it informs *)
let scan_cap = 1_000_000

let conjunct_input ctx a form table =
  let vars = Var.Set.of_list (Array.to_list (Table.vars table)) in
  let card = Table.cardinal table in
  let cols =
    if ctx.buckets <= 0 then []
    else begin
      let from_stats =
        match form with
        | Ast.Rel (r, xs) when Array.length xs = Var.Set.cardinal vars ->
            let st = ctx.stats_for a in
            if Stats.row_count st r = card then
              Some
                (Array.to_list (Array.mapi (fun i x -> (x, Stats.summary st r i)) xs))
            else None (* stale stats: fall through to the scan *)
        | _ -> None
      in
      match from_stats with
      | Some cols -> cols
      | None ->
          if card > scan_cap then []
          else
            List.map
              (fun x ->
                (x, Summary.of_counts ~buckets:ctx.buckets (Table.column_counts table x)))
              (Var.Set.elements vars)
    end
  in
  Planner.input ~cols vars card

let table_input t =
  Planner.input
    (Var.Set.of_list (Array.to_list (Table.vars t)))
    (Table.cardinal t)

let error_ratio ~est ~actual =
  let e = Float.max est 0. +. 1. and a = float_of_int actual +. 1. in
  Float.max (e /. a) (a /. e)

let check_universe a =
  if Foc_data.Structure.order a = 0 then
    invalid_arg "Relalg: empty universe"

let all_elements_table a x =
  let n = Foc_data.Structure.order a in
  Table.full n [| x |]

(* the n-row identity table {(v, v)} over two distinct columns *)
let eq_table n x y =
  let b = TS.Builder.create ~hint:n 2 in
  let row = Array.make 2 0 in
  for v = 0 to n - 1 do
    row.(0) <- v;
    row.(1) <- v;
    TS.Builder.add b row
  done;
  Table.of_core [| x; y |] (TS.Builder.build_sorted b)

(* Relation atoms may repeat variables, e.g. E(x,x): keep the tuples that
   are constant on the repeated positions and project to the distinct
   variables in first-occurrence order. The representative index of every
   position is computed once, not per tuple. *)
let rel_table a name xs =
  let k = Array.length xs in
  let rep =
    Array.init k (fun i ->
        let rec first j = if Var.equal xs.(j) xs.(i) then j else first (j + 1) in
        first 0)
  in
  let positions =
    Array.of_list
      (List.filter (fun i -> rep.(i) = i) (List.init k (fun i -> i)))
  in
  let distinct = Array.map (fun p -> xs.(p)) positions in
  let kd = Array.length positions in
  let tuples = Foc_data.Structure.rel a name in
  if kd = k then Table.of_core distinct tuples
  else begin
    (* a qualifying row's first difference from another lies at a kept
       position (a repeat equals its earlier occurrence), so the filtered
       rows stay sorted and distinct *)
    let b = TS.Builder.create ~hint:tuples.nrows kd in
    let scratch = Array.make kd 0 in
    for r = 0 to tuples.nrows - 1 do
      let ok = ref true in
      for i = 0 to k - 1 do
        if TS.cell tuples r i <> TS.cell tuples r rep.(i) then ok := false
      done;
      if !ok then begin
        for i = 0 to kd - 1 do
          scratch.(i) <- TS.cell tuples r positions.(i)
        done;
        TS.Builder.add b scratch
      end
    done;
    Table.of_core distinct (TS.Builder.build_sorted b)
  end

(* one arena BFS per centre instead of a fresh hash table each *)
let dist_table a x y d =
  let n = Foc_data.Structure.order a in
  if Var.equal x y then all_elements_table a x
  else begin
    let g = Foc_data.Structure.gaifman a in
    let s = Foc_graph.Bfs.searcher g in
    let b = TS.Builder.create ~hint:n 2 in
    let row = Array.make 2 0 in
    for u = 0 to n - 1 do
      let cnt = Foc_graph.Bfs.run s ~centres:[ u ] ~radius:d in
      row.(0) <- u;
      for i = 0 to cnt - 1 do
        row.(1) <- Foc_graph.Bfs.visited s i;
        TS.Builder.add b row
      done
    done;
    Table.of_core [| x; y |] (TS.Builder.build b)
  end

let rec ft ~ctx preds a (phi : Ast.formula) =
  check_universe a;
  let n = Foc_data.Structure.order a in
  match phi with
  | True -> Table.unit
  | False -> Table.zero
  | Eq (x, y) ->
      if Var.equal x y then all_elements_table a x else eq_table n x y
  | Rel (r, xs) -> rel_table a r xs
  | Dist (x, y, d) -> dist_table a x y d
  | Neg (Neg f) -> ft ~ctx preds a f
  | Neg (Or _) ->
      (* ¬(f ∨ g) ≡ ¬f ∧ ¬g: route through the conjunction planner so each
         negation becomes an anti-join rather than one wide complement *)
      conjunction ~ctx preds a phi
  | Neg f -> Table.complement (ft ~ctx preds a f) n
  | Or (f, g) ->
      let tf = ft ~ctx preds a f and tg = ft ~ctx preds a g in
      let missing_of t other =
        Array.to_list (Table.vars other)
        |> List.filter (fun x -> not (Table.has_column t x))
        |> Array.of_list
      in
      let tf = Table.extend_full tf n (missing_of tf tg) in
      let tg = Table.extend_full tg n (missing_of tg tf) in
      Table.union tf tg
  | And _ -> conjunction ~ctx preds a phi
  | Exists (y, f) ->
      let t = ft ~ctx preds a f in
      if Table.has_column t y then begin
        let target =
          Array.to_list (Table.vars t)
          |> List.filter (fun x -> not (Var.equal x y))
          |> Array.of_list
        in
        Table.project t target
      end
      else t
  | Forall (y, f) ->
      (* relational division: one group-count pass instead of the
         double-negation complement pair *)
      let t = ft ~ctx preds a f in
      if Table.has_column t y then Table.divide t y n else t
  | Pred (p, ts) ->
      let counts = List.map (tc ~ctx preds a) ts in
      let free =
        List.fold_left
          (fun acc c -> Var.Set.union acc (Counts.vars c))
          Var.Set.empty counts
      in
      let vars = Array.of_list (Var.Set.elements free) in
      (* readers compiled once against the column order; the tuple and
         values arrays are reused across all n^k candidate rows *)
      let readers =
        Array.of_list (List.map (fun c -> Counts.row c vars) counts)
      in
      let values = Array.make (Array.length readers) 0 in
      let b = TS.Builder.create (Array.length vars) in
      Foc_util.Combi.iter_tuples n (Array.length vars) (fun tup ->
          for i = 0 to Array.length readers - 1 do
            values.(i) <- readers.(i) tup
          done;
          if Pred.holds preds p values then TS.Builder.add b tup);
      Table.of_core vars (TS.Builder.build_sorted b)

(* a conjunction's table: its planned search, drained *)
and conjunction ~ctx preds a phi =
  let order, next = plan_and ~ctx preds a (Planner.conjuncts phi) in
  Table.of_search order next

(* Evaluate a flattened conjunction as a search: materialise the positive
   conjuncts, join them greedily by estimated output size (settling Eq
   atoms as selections and negated conjuncts as anti-joins the moment the
   current table covers their variables), and leave the last join of the
   plan unexecuted. It is returned as a lazy {!Leapfrog.search} over its
   two inputs, with the negations still pending as negated atoms and the
   variables no table covers ranging over the domain. The column order is
   [head] when given (it must contain every conjunct variable), else the
   prefix's columns, the last input's fresh ones, then the pending
   negations'. An Eq atom still pending at the last join is a step the
   search cannot express: that join is then drained here, the Eq settled,
   and the result is the search's one positive atom. The last step's
   cardinality, the plan record and the re-planning feedback are noted
   when a search that started at the beginning is exhausted. *)
and plan_and ~ctx ?head ?after preds a cs =
  let n = Foc_data.Structure.order a in
  let eqs = ref [] and neg_fs = ref [] and pos = ref [] in
  List.iter
    (fun (c : Ast.formula) ->
      match c with
      | Eq (x, y) when not (Var.equal x y) -> eqs := (x, y) :: !eqs
      | Neg f -> neg_fs := f :: !neg_fs
      | f -> pos := f :: !pos)
    cs;
  let negs = ref (List.rev_map (fun f -> ft ~ctx preds a f) !neg_fs) in
  (* rows over [vars] (predicted [card]) conjoined with [¬tg]: the
     columns [vars] then those of [tg] it lacks (ranging over the domain),
     predicted [card·n^missing·(1 - semijoin sel)] *)
  let neg_card (vars, card) tg =
    let missing =
      Array.to_list (Table.vars tg)
      |> List.filter (fun x -> not (List.mem x vars))
    in
    let card = card *. (float_of_int n ** float_of_int (List.length missing)) in
    let vars = vars @ missing in
    let sel =
      Planner.semijoin_sel ~n
        (Planner.input (Var.Set.of_list vars)
           (int_of_float (Float.min card 1e18)))
        (table_input tg)
    in
    (vars, card *. (1. -. sel))
  in
  let apply_neg cur tg =
    let vars = Array.to_list (Table.vars cur) in
    let _, est = neg_card (vars, float_of_int (Table.cardinal cur)) tg in
    let out = Table.antijoin ~n cur tg in
    Eval_obs.note_op_card ~est ~actual:(Table.cardinal out);
    Eval_obs.note_complement_avoided ();
    out
  in
  let cur = ref Table.unit in
  let settle () =
    let changed = ref true in
    while !changed do
      changed := false;
      eqs :=
        List.filter
          (fun (x, y) ->
            let hx = Table.has_column !cur x
            and hy = Table.has_column !cur y in
            if hx || hy then begin
              (if hx && hy then cur := Table.select_eq !cur x y
               else if hx then cur := Table.duplicate_column !cur ~src:x ~dst:y
               else cur := Table.duplicate_column !cur ~src:y ~dst:x);
              Eval_obs.note_selection_pushed ();
              changed := true;
              false
            end
            else true)
          !eqs;
      negs :=
        List.filter
          (fun tg ->
            if Array.for_all (Table.has_column !cur) (Table.vars tg) then begin
              cur := apply_neg !cur tg;
              changed := true;
              false
            end
            else true)
          !negs
    done
  in
  let pos_forms = Array.of_list (List.rev !pos) in
  let tables = Array.map (fun f -> ft ~ctx preds a f) pos_forms in
  (* column summaries only matter when there is an order to choose *)
  let inputs =
    if Array.length tables < 2 then Array.map table_input tables
    else
      Foc_obs.Scope.cue Foc_obs.Scope.Plan (fun () ->
          Array.mapi (fun i t -> conjunct_input ctx a pos_forms.(i) t) tables)
  in
  (* Re-planning: once a previous run of this conjunct list recorded
     observed selectivities (because its estimates were off by more than
     [replan_ratio]), plan with them — and count an actual order change. *)
  let fb = Hashtbl.find_opt ctx.feedback cs in
  let correct =
    match fb with
    | Some e when e.corrections <> [] ->
        Some (fun ~joined ~next -> List.assoc_opt (joined, next) e.corrections)
    | _ -> None
  in
  let jplan =
    Foc_obs.Scope.cue Foc_obs.Scope.Plan (fun () ->
        Planner.plan_joins ~n ?correct inputs)
  in
  let replanned = ref false in
  (match (fb, correct) with
  | Some e, Some _ ->
      if e.last_order <> [] && e.last_order <> jplan.Planner.order then begin
        Eval_obs.note_replan ();
        replanned := true
      end;
      e.last_order <- jplan.Planner.order
  | Some e, None -> e.last_order <- jplan.Planner.order
  | None, _ -> ());
  (* execute the order, comparing each join's predicted cardinality with
     the observed one; observations feed the per-plan feedback entry *)
  let observed = ref [] and max_err = ref 1. and steps = ref [] in
  let prefix = ref [] in
  let step_est k i =
    float_of_int (Table.cardinal !cur)
    *. float_of_int (Table.cardinal tables.(i))
    *. jplan.Planner.step_sel.(k + 1)
  in
  let note_step ~est ~actual ~pairs i =
    Eval_obs.note_op_card ~est ~actual;
    steps := (est, actual) :: !steps;
    max_err := Float.max !max_err (error_ratio ~est ~actual);
    if pairs > 0 then
      observed :=
        ( (List.sort compare !prefix, i),
          float_of_int actual /. float_of_int pairs )
        :: !observed;
    prefix := i :: !prefix
  in
  let join_now k i =
    let est = step_est k i in
    let pairs = Table.cardinal !cur * Table.cardinal tables.(i) in
    cur := Table.join !cur tables.(i);
    note_step ~est ~actual:(Table.cardinal !cur) ~pairs i;
    settle ()
  in
  (* the last join stays lazy unless an Eq selection is still pending *)
  let rec run k = function
    | [] -> None
    | [ i ] when !eqs = [] -> Some (k, i)
    | i :: rest ->
        join_now k i;
        run (k + 1) rest
  in
  let last =
    match jplan.Planner.order with
    | [] -> None
    | i0 :: rest ->
        cur := tables.(i0);
        prefix := [ i0 ];
        settle ();
        run 0 rest
  in
  (* Eq atoms with neither side bound: seed them from the identity table *)
  let rec drain_eqs () =
    match !eqs with
    | [] -> ()
    | (x, y) :: rest ->
        eqs := rest;
        cur := Table.join !cur (eq_table n x y);
        settle ();
        drain_eqs ()
  in
  drain_eqs ();
  let finish_plan () =
    Eval_obs.note_plan_exec ~order:jplan.Planner.order ~steps:(List.rev !steps)
      ~replanned:!replanned;
    if List.length jplan.Planner.order > 1 then begin
      Eval_obs.note_plan_error ~ratio:!max_err;
      if !max_err > replan_ratio && !observed <> [] then begin
        if Hashtbl.length ctx.feedback > 512 then Hashtbl.reset ctx.feedback;
        let e =
          match Hashtbl.find_opt ctx.feedback cs with
          | Some e -> e
          | None ->
              let e = { corrections = []; last_order = jplan.Planner.order } in
              Hashtbl.replace ctx.feedback cs e;
              e
        in
        e.last_order <- jplan.Planner.order;
        e.corrections <-
          !observed
          @ List.filter
              (fun (key, _) -> not (List.mem_assoc key !observed))
              e.corrections
      end
    end
  in
  (* the search: [cur] and the last input, the pending negations *)
  let positives =
    match last with Some (_, i) -> [ !cur; tables.(i) ] | None -> [ !cur ]
  in
  let natural =
    List.fold_left
      (fun acc t ->
        acc
        @ List.filter (fun x -> not (List.mem x acc)) (Array.to_list (Table.vars t)))
      [] (positives @ !negs)
  in
  let order =
    match head with
    | None -> Array.of_list natural
    | Some h ->
        if not (List.for_all (fun x -> Array.exists (Var.equal x) h) natural) then
          invalid_arg "Relalg: body variable outside the head";
        h
  in
  let pos_vars =
    List.filter
      (fun x -> List.exists (fun t -> Table.has_column t x) positives)
      natural
  in
  let est =
    let base =
      match last with
      | Some (k, i) -> step_est k i
      | None -> float_of_int (Table.cardinal !cur)
    in
    let _, est = List.fold_left neg_card (pos_vars, base) !negs in
    let uncovered = Array.length order - List.length natural in
    est *. (float_of_int n ** float_of_int uncovered)
  in
  (* the step's observed selectivity is recorded only when the search
     yields exactly the join's rows *)
  let pure = !negs = [] && Array.length order = List.length pos_vars in
  (match last with
  | Some _ -> Eval_obs.note_join ~probe:(Table.cardinal !cur)
  | None -> ());
  List.iter
    (fun _ ->
      Eval_obs.note_antijoin ~probe:(Table.cardinal !cur);
      Eval_obs.note_complement_avoided ())
    !negs;
  let finish actual =
    (match last with
    | Some (_, i) ->
        let pairs =
          if pure then Table.cardinal !cur * Table.cardinal tables.(i) else 0
        in
        note_step ~est ~actual ~pairs i
    | None -> if not pure then Eval_obs.note_op_card ~est ~actual);
    finish_plan ()
  in
  let next =
    Leapfrog.search ?after ~n ~width:(Array.length order)
      (List.map (Table.atom ~order) positives
      @ List.map (Table.atom ~neg:true ~order) !negs)
  in
  let rows = ref 0 and recording = ref (after = None) in
  ( order,
    fun () ->
      match next () with
      | Some _ as r ->
          incr rows;
          r
      | None ->
          if !recording then begin
            recording := false;
            finish !rows
          end;
          None )

and tc ~ctx preds a (t : Ast.term) =
  check_universe a;
  let n = Foc_data.Structure.order a in
  match t with
  | Int i -> Counts.const i
  | Add (s, t') -> Counts.add (tc ~ctx preds a s) (tc ~ctx preds a t')
  | Mul (s, t') -> Counts.mul (tc ~ctx preds a s) (tc ~ctx preds a t')
  | Count (ys, f) ->
      let tf = ft ~ctx preds a f in
      let keep =
        Array.to_list (Table.vars tf)
        |> List.filter (fun x -> not (List.mem x ys))
        |> Array.of_list
      in
      let counted =
        Array.to_list (Table.vars tf) |> List.filter (fun x -> List.mem x ys)
      in
      (* bound variables that f does not mention multiply the count by n *)
      let silent = List.length ys - List.length counted in
      let multiplier =
        let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
        pow 1 silent
      in
      let keys, cnts = Table.group_count tf keep in
      Counts.of_sorted_groups ~vars:keep ~multiplier keys cnts

(* an omitted ctx is a fresh uniform one: no statistics are collected and
   no feedback is carried over from earlier calls *)
let ctx_of = function Some c -> c | None -> make_ctx ~buckets:0 ()
let formula_table ?ctx preds a phi = ft ~ctx:(ctx_of ctx) preds a phi
let term_counts ?ctx preds a t = tc ~ctx:(ctx_of ctx) preds a t

let check_covered fn binding free =
  if not (Var.Set.for_all (fun x -> List.mem_assoc x binding) free) then
    invalid_arg (fn ^ ": binding does not cover the free variables")

let holds ?ctx preds a binding phi =
  check_covered "Relalg.holds" binding (Ast.free_formula phi);
  not (Table.is_empty (Table.bind (formula_table ?ctx preds a phi) binding))

let term_value ?ctx preds a binding t =
  check_covered "Relalg.term_value" binding (Ast.free_term t);
  Counts.get (term_counts ?ctx preds a t) (Naive.env_of_list binding)

let count ?ctx preds a vars phi =
  let t = formula_table ?ctx preds a phi in
  Array.iter
    (fun x ->
      if not (List.mem x vars) then
        invalid_arg "Relalg.count: free variable not listed")
    (Table.vars t);
  let n = Foc_data.Structure.order a in
  let missing = List.filter (fun x -> not (Table.has_column t x)) vars in
  let rec pow acc i = if i = 0 then acc else pow (acc * n) (i - 1) in
  Table.cardinal t * pow 1 (List.length missing)

(* every body, conjunctive or not, is planned as a conjunction: a single
   conjunct is the search's one positive (or negated) atom *)
let head_search ?ctx ?after preds a head body =
  check_universe a;
  snd (plan_and ~ctx:(ctx_of ctx) ~head ?after preds a (Planner.conjuncts body))

let head_table ?ctx preds a head body =
  Table.of_search head (head_search ?ctx preds a head body)

let query ?ctx preds a (q : Query.t) =
  let ctx = ctx_of ctx in
  let head = Array.of_list q.head_vars in
  let next = head_search ~ctx preds a head q.body in
  (* head-term readers are compiled once against the head column order *)
  let readers =
    Array.of_list
      (List.map (fun t -> Counts.row (tc ~ctx preds a t) head) q.head_terms)
  in
  (* the search runs in ascending lexicographic = Tuple.compare order *)
  let rec go acc =
    match next () with
    | None -> List.rev acc
    | Some row -> go ((Array.copy row, Array.map (fun rd -> rd row) readers) :: acc)
  in
  go []
