(** The relational-algebra evaluator: the polynomial-time baseline engine.

    Formulas are evaluated bottom-up into {!Table}s of satisfying
    assignments (the classical FO evaluation algorithm, [n^O(width)] time and
    space); counting terms into {!Counts} valuations by grouping. This is
    the engine a "textbook database system" would use; the paper's
    contribution (implemented in [foc_nd.Engine]) beats it on sparse
    structures, which experiment E3 demonstrates.

    With [?plan] left at its default ([true]) conjunctions go through the
    {!Foc_logic.Planner}: [And]-chains are flattened, joins ordered
    greedily by estimated output cardinality, [Eq] atoms pushed down as
    selections, negated conjuncts compiled into anti-joins (the full
    [n^k] complement remains only as the escape hatch for top-level
    negation), and [Forall] becomes relational division. [~plan:false]
    reproduces the historical left-to-right, complement-based strategy —
    the "unplanned" side of experiment E13. Both modes return the same
    tables; {!Eval_obs} counts what the planner did.

    A {!ctx} upgrades the planner from the uniform-domain cardinality
    model to real statistics and closes the adaptive loop:

    - join orders use per-column distinct counts and equi-depth
      histograms ({!Foc_stats}) — from the supplied per-structure
      statistics for relation atoms in O(1), from one linear scan for
      other materialised conjuncts;
    - uncovered negated conjuncts get a cost-based choice between
      padding the current table ([|cur|·n^missing]) and materialising
      the [n^arity] complement, instead of always padding;
    - after every planned conjunction the predicted per-step
      cardinalities are compared against the actual join outputs
      ({!Eval_obs} [planner.est_rows]/[planner.actual_rows]); when the
      worst step is off by more than [replan_ratio], the observed
      selectivities are recorded against the conjunct list and the next
      evaluation of the same conjunction re-plans with them
      ([planner.replans] counts actual order changes).

    Everything a ctx changes is {e result-neutral}: for every ctx, plans
    flag and structure, the returned tables are bit-identical to the
    default ones.

    All functions raise [Invalid_argument] on an empty universe. *)

open Foc_logic

(** Planning context: optional per-structure statistics provider,
    histogram resolution, and the adaptive feedback state (mutable,
    single-domain; meant to live as long as an engine or session). *)
type ctx

(** [make_ctx ?stats_for ?buckets ?adaptive ?replan_ratio ()].
    [stats_for] maps a structure to its (cached) statistics — e.g.
    [Foc_stats.Stats.collect] or a session's per-version cache; omitted,
    conjunct tables are still scanned for summaries. [buckets] (default
    64) is the histogram resolution, [<= 0] disables summaries entirely.
    [adaptive] (default [true]) enables the estimate-vs-actual feedback
    loop; [replan_ratio] (default 8.) is the worst-step error ratio
    beyond which observed selectivities are recorded for re-planning. *)
val make_ctx :
  ?stats_for:(Foc_data.Structure.t -> Foc_stats.Stats.t) ->
  ?buckets:int ->
  ?adaptive:bool ->
  ?replan_ratio:float ->
  unit ->
  ctx

(** [formula_table preds a φ] — the table of satisfying assignments over
    exactly [free φ] (column order unspecified). *)
val formula_table :
  ?plan:bool ->
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Ast.formula ->
  Table.t

(** [term_counts preds a t] — the valuation of a counting term. *)
val term_counts :
  ?plan:bool ->
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Ast.term ->
  Counts.t

(** [holds preds a binding φ] — truth under the given assignment (which must
    cover [free φ]). *)
val holds :
  ?plan:bool ->
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  (Var.t * int) list ->
  Ast.formula ->
  bool

(** [term_value preds a binding t]. *)
val term_value :
  ?plan:bool ->
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  (Var.t * int) list ->
  Ast.term ->
  int

(** [count preds a vars φ] is [|{ā ∈ A^|vars| : A ⊨ φ(ā)}|] — the counting
    problem of Corollary 5.6. [vars] must contain [free φ]. *)
val count :
  ?plan:bool ->
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Var.t list ->
  Ast.formula ->
  int

(** [head_table preds a head φ] — the table of [φ] over exactly the
    [head] columns, in head order; head variables [φ] leaves free range
    over the whole domain. [free φ] must be within [head]. *)
val head_table :
  ?plan:bool ->
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Var.t array ->
  Ast.formula ->
  Table.t

(** [query preds a q] evaluates a Definition 5.2 query; rows in lexicographic
    order of the head tuple. *)
val query :
  ?plan:bool ->
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Query.t ->
  (int array * int array) list
