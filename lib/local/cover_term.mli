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

    This module supplies that cluster sweep — to Cover, whose evaluator
    counts patterns, and to Splitter, whose evaluator plays a splitter
    round — and {!Clterm} evaluates the polynomial around it. *)

open Foc_logic

(** [required_cover_radius t] — the least cover parameter [s] (to pass as
    [Cover.make ~r:s]) that makes cluster-local evaluation of every basic
    term in [t] sound: [max over basics of k(2r+1)]. *)
val required_cover_radius : Clterm.t -> int

(** [basic_cover_radius b] — the cover parameter [k(2r+1)] that makes
    cluster-local evaluation of the basic term [b] sound. *)
val basic_cover_radius : Clterm.basic -> int

(** [sweep a cover ~wanted eval] — the one cluster sweep. The positions
    of [wanted] (elements of [a], possibly repeated) are grouped by
    assigned cluster
    ({!Foc_graph.Cover.assigned}); each cluster holding at least one is
    induced once, under an [induce] span ({!Foc_obs.span}), and
    [eval sub ~positions ~anchors] runs on its induced substructure
    [sub]: [positions] are the indices into [wanted] of the cluster's
    wanted elements, ascending, and [anchors.(j)] is the id in [sub] of
    [wanted.(positions.(j))]. The per-cluster evaluator is the back-end:
    {!Pattern_count} for Cover ({!pattern_sweep}), one batched splitter
    round for Splitter ({!Foc_nd.Splitter_backend}).

    [jobs > 1] runs the clusters in parallel ({!Foc_par}, label
    [sweep.clusters]). Each task owns its induced substructure and a
    wanted element lies in one assigned cluster, so an [eval] that writes
    only the slots of its [positions] makes the sweep bit-identical to
    [jobs = 1]. *)
val sweep :
  ?jobs:int ->
  Foc_data.Structure.t ->
  Foc_graph.Cover.t ->
  wanted:int array ->
  (Foc_data.Structure.t -> positions:int array -> anchors:int array -> unit) ->
  unit

(** [pattern_sweep preds a cover t] — Cover's basic-term sweep of the
    cl-term [t], for {!Clterm.eval_ground}/{!Clterm.eval_unary}: {!sweep}
    over every element of [a] with {!Pattern_count} as the evaluator. Each
    cluster gets one {!Pattern_count} context per radius (a decomposition
    gives all its basic terms one radius), so the terms share its ball
    cache, and each term is counted at the cluster's kernel elements
    inside [A\[X\]] into its own vector, which the returned sweep hands
    back. Width-0 basic terms (sentences) are never swept: {!Clterm}
    decides them. Raises [Invalid_argument] if the cover's parameter is
    smaller than {!required_cover_radius}[ t]; the sweep answers only for
    basic terms of [t]. [jobs] is {!sweep}'s: the vectors are
    bit-identical for every setting.

    [cache_bytes] bounds each cluster context's ball cache (see
    {!Pattern_count.make_ctx}); the cluster contexts record their ball
    counters into the {!Foc_obs.Metrics.current} registry. *)
val pattern_sweep :
  ?jobs:int ->
  ?cache_bytes:int ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Foc_graph.Cover.t ->
  Clterm.t ->
  Clterm.sweep
