(** The relational-algebra evaluator: the polynomial-time baseline engine.

    Formulas are evaluated bottom-up into {!Table}s of satisfying
    assignments (the classical FO evaluation algorithm, [n^O(width)] time and
    space); counting terms into {!Counts} valuations by grouping. This is
    the engine a "textbook database system" would use; the paper's
    contribution (implemented in [foc_nd.Engine]) beats it on sparse
    structures, which experiment E3 demonstrates.

    Conjunctions go through the {!Foc_logic.Planner}: [And]-chains are
    flattened, joins ordered greedily by estimated output cardinality,
    [Eq] atoms pushed down as selections, negated conjuncts compiled into
    anti-joins (the full [n^k] complement remains only as the escape hatch
    for top-level negation), and [Forall] becomes relational division. A
    negated conjunct over variables no positive conjunct binds is one
    {!Leapfrog} search that ranges those variables over the domain, with
    no padded intermediate. The last join of a plan is left as a lazy
    search ({!head_search}); {!formula_table} drains it. {!Eval_obs}
    counts what the planner did.

    Planning runs under a {!ctx}, which supplies real statistics and
    closes the adaptive loop:

    - join orders use per-column distinct counts and equi-depth
      histograms ({!Foc_stats}) — from the per-structure statistics for
      relation atoms in O(1), from one linear scan for other materialised
      conjuncts;
    - after every planned conjunction the predicted per-step
      cardinalities are compared against the actual join outputs
      ({!Eval_obs} [planner.est_rows]/[planner.actual_rows]); when the
      worst step is off by more than 8x, the observed selectivities are
      recorded against the conjunct list and the next evaluation of the
      same conjunction re-plans with them ([planner.replans] counts
      actual order changes).

    Everything a ctx changes is {e result-neutral}: for every ctx and
    structure, the returned tables are bit-identical. An omitted [?ctx]
    is a fresh [make_ctx ~buckets:0 ()]: uniform estimates, no
    statistics collected, and nothing learnt across such calls.

    All functions raise [Invalid_argument] on an empty universe. *)

open Foc_logic

(** Planning context: the per-structure statistics provider, histogram
    resolution, and the adaptive feedback state (mutable, single-domain;
    meant to live as long as an engine or session). *)
type ctx

(** [make_ctx ?stats_for ?buckets ()]. [stats_for] maps a structure to
    its (cached) statistics — e.g. a session's per-version cache; omitted,
    the ctx collects them itself ({!Foc_stats.Stats.collect}), memoised
    per structure. [buckets] (default {!Foc_stats.Stats.default_buckets})
    is the histogram resolution; [<= 0] disables summaries entirely, which
    leaves the uniform-domain cardinality model. *)
val make_ctx :
  ?stats_for:(Foc_data.Structure.t -> Foc_stats.Stats.t) ->
  ?buckets:int ->
  unit ->
  ctx

(** [formula_table preds a φ] — the table of satisfying assignments over
    exactly [free φ] (column order unspecified). *)
val formula_table :
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Ast.formula ->
  Table.t

(** [term_counts preds a t] — the valuation of a counting term. *)
val term_counts :
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Ast.term ->
  Counts.t

(** [holds preds a binding φ] — truth under the given assignment. Raises
    [Invalid_argument] unless [binding] covers [free φ]. *)
val holds :
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  (Var.t * int) list ->
  Ast.formula ->
  bool

(** [term_value preds a binding t]. Raises [Invalid_argument] unless
    [binding] covers [free t]. *)
val term_value :
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  (Var.t * int) list ->
  Ast.term ->
  int

(** [count preds a vars φ] is [|{ā ∈ A^|vars| : A ⊨ φ(ā)}|] — the counting
    problem of Corollary 5.6. [vars] must contain [free φ]. *)
val count :
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Var.t list ->
  Ast.formula ->
  int

(** [head_search preds a head φ] — the answers of [φ] over exactly the
    [head] columns as a lazy {!Leapfrog} search in head order (ascending
    lexicographic): each call of the returned function yields the next
    binding (the kernel's buffer — copy it to retain), [None] once
    exhausted. [φ] is planned as a conjunction (a non-conjunctive body is
    one conjunct). The plan's prefix is materialised before the function
    is returned; its last join is not: the two inputs of that join are the
    search's positive atoms, the negations still pending its negated
    atoms, and head variables no table covers range over the whole
    domain. A pending Eq selection the search cannot express drains that
    join first. The last step's observed cardinality and the re-planning
    feedback are recorded when a search without [?after] is exhausted.
    [?after] (a head tuple) resumes strictly after it, by seeking. Raises
    [Invalid_argument] unless [free φ] is within [head]. *)
val head_search :
  ?ctx:ctx ->
  ?after:int array ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Var.t array ->
  Ast.formula ->
  unit ->
  int array option

(** [head_table preds a head φ] — the drain of {!head_search}: the table
    of [φ] over exactly the [head] columns, in head order. *)
val head_table :
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Var.t array ->
  Ast.formula ->
  Table.t

(** [query preds a q] evaluates a Definition 5.2 query by draining
    {!head_search}; rows in lexicographic order of the head tuple. *)
val query :
  ?ctx:ctx ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Query.t ->
  (int array * int array) list
