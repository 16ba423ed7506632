(** Cover-based evaluation of cl-terms — the operational form of the
    cover-cl-terms of Definitions 7.4/7.5 and Lemma 7.6, and of step 5 of
    the main algorithm (Section 8.2).

    A basic cl-term of radius r and width k anchored at [a] only inspects
    [N_{(k−1)(2r+1)+r}(a)]; given an [s]-neighbourhood cover with
    [s ≥ k(2r+1)], that ball is contained in the cluster [X(a)], so the
    count can be computed *inside the induced substructure* [A\[X(a)\]] —
    the cover-cl-term semantics "evaluate in some (hence every) cluster that
    r-covers the tuple". The sweep visits each cluster once and evaluates
    at the cluster's kernel elements; total work is the sum of cluster
    sizes, i.e. [n · Δ(X)] — the paper's [n^{1+ε}] on nowhere dense
    classes.

    This module supplies only that basic-term sweep; {!Clterm} evaluates
    the polynomial around it. *)

open Foc_logic

(** [required_cover_radius t] — the least cover parameter [s] (to pass as
    [Cover.make ~r:s]) that makes cluster-local evaluation of every basic
    term in [t] sound: [max over basics of k(2r+1)]. *)
val required_cover_radius : Clterm.t -> int

(** [sweep preds a cover t] — the cluster sweep of the cl-term [t], for
    {!Clterm.eval_ground}/{!Clterm.eval_unary}. One pass over the clusters
    with a non-empty kernel serves every basic term of width ≥ 1: each
    cluster is induced once, one {!Pattern_count} context per cluster and
    radius (a decomposition gives all its basic terms one radius) lets the
    terms share its ball cache, and
    each term is counted at the kernel elements inside [A\[X\]] into its
    own vector, which the returned sweep hands back. Width-0 basic terms
    (sentences) are never swept: {!Clterm} decides them. Raises
    [Invalid_argument] if the cover's parameter is smaller than
    {!required_cover_radius}[ t]; the sweep answers only for basic terms
    of [t].

    [jobs > 1] evaluates clusters in parallel ({!Foc_par}): each cluster
    task owns its induced substructure and contexts, and the kernels
    partition the universe, so the tasks write disjoint slots of every
    vector and the sweep is bit-identical to [jobs = 1]. Each induction
    runs under an [induce] span ({!Foc_obs.span}).

    [cache_bytes] bounds each cluster context's ball cache (see
    {!Pattern_count.make_ctx}); the cluster contexts record their ball
    counters into the {!Foc_obs.Metrics.current} registry. *)
val sweep :
  ?jobs:int ->
  ?cache_bytes:int ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Foc_graph.Cover.t ->
  Clterm.t ->
  Clterm.sweep
