(** Conjunction-planning helpers for the relational baseline evaluator
    ({!Foc_eval.Relalg}): syntactic flattening of conjunctions and a greedy
    join order over a statistics-aware cardinality model
    ({!Foc_stats.Summary}). Lives next to {!Simplify} because it is pure
    formula/arithmetic manipulation — no tables, no structures. *)

(** [conjuncts phi] flattens [phi] into a list whose conjunction is
    equivalent to [phi]: [And] chains are flattened, [True] conjuncts
    dropped, [¬¬f] collapsed, and [¬(f ∨ g)] split by De Morgan into
    [¬f] and [¬g] — exposing each negation to the anti-join compilation
    instead of hiding it behind a wider complement. Never returns an empty
    list for unsatisfiable inputs — [Neg True] becomes [False]. *)
val conjuncts : Ast.formula -> Ast.formula list

(** [join_estimate ~n (v1,c1) (v2,c2)] — the classical uniform-domain
    independence estimate [c1·c2 / n^#shared], computed entirely in floats
    (intermediate cardinalities at high width overflow 63-bit ints). *)
val join_estimate : n:int -> Var.Set.t * int -> Var.Set.t * int -> float

(** One join input: its variable set, cardinality, and optionally a
    per-column summary for the variables that have one. Missing columns
    degrade the estimate to the uniform [1/n] model, so a plan over inputs
    without statistics is exactly the PR-4 plan. *)
type input = {
  in_vars : Var.Set.t;
  in_card : int;
  in_cols : (Var.t * Foc_stats.Summary.t) list;
}

val input : ?cols:(Var.t * Foc_stats.Summary.t) list -> Var.Set.t -> int -> input

(** A join plan: the order (a permutation of the input indices), the
    predicted per-step selectivity ([step_sel.(0) = 1.] for the seed) and
    the predicted accumulated cardinality after each step (floats; the
    seed's [est.(0)] is its exact cardinality). [step_sel.(k)] is the
    predicted probability that a row pair of (prefix, appended input)
    agrees on all shared variables — the number the adaptive feedback
    loop compares against observed output rows. *)
type plan = { order : int list; step_sel : float array; est : float array }

(** [plan_joins ~n ?correct inputs] — greedy join ordering: seed with the
    smallest input, then repeatedly append the input minimising the
    estimated intermediate cardinality, preferring variable-connected
    joins over cross products. [correct ~joined ~next] (the re-planning
    hook) may override the predicted selectivity of appending input
    [next] to the already-joined index set [joined] (sorted) with an
    {e observed} one from a previous run of the same plan. *)
val plan_joins :
  n:int ->
  ?correct:(joined:int list -> next:int -> float option) ->
  input array ->
  plan

(** [semijoin_sel ~n acc tg] — predicted fraction of [acc] rows with at
    least one match in [tg] on their shared variables ([1] when [tg] is
    nonempty and shares nothing — the cross-product guard). Feeds the
    anti-join output estimate [|acc|·(1 - sel)] and the cost-based
    complement-vs-antijoin decision. *)
val semijoin_sel : n:int -> input -> input -> float
