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
    classes. *)

open Foc_logic

(** [required_cover_radius t] — the least cover parameter [s] (to pass as
    [Cover.make ~r:s]) that makes cluster-local evaluation of every basic
    term in [t] sound: [max over basics of k(2r+1)]. *)
val required_cover_radius : Clterm.t -> int

(** [eval_unary preds a cover t] — the per-element value vector of a cl-term
    (mixing unary and ground leaves). Raises [Invalid_argument] if the
    cover's parameter is smaller than {!required_cover_radius}.

    [jobs > 1] evaluates clusters in parallel ({!Foc_par}): each cluster
    task owns its induced substructure and context, and the kernels
    partition the universe, so the sweep is race-free and bit-identical to
    [jobs = 1].

    [cache_bytes] bounds each cluster context's ball cache (see
    {!Pattern_count.make_ctx}); the cluster contexts record their ball
    counters into the {!Foc_obs.Metrics.current} registry. *)
val eval_unary :
  ?jobs:int ->
  ?cache_bytes:int ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Foc_graph.Cover.t ->
  Clterm.t ->
  int array

(** [eval_ground preds a cover t] — ground cl-terms only. [jobs] and
    [cache_bytes] as in {!eval_unary}. *)
val eval_ground :
  ?jobs:int ->
  ?cache_bytes:int ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Foc_graph.Cover.t ->
  Clterm.t ->
  int
