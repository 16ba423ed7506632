(** The splitter-game back-end: steps 5a–e of the main algorithm
    (Section 8.2 of the paper), as a batched basic-term sweep
    ({!Foc_local.Clterm.sweep}).

    A recursion node owes a batch of counting kernels [(vars, θ, wanted)]:
    at the top, every basic term of the cl-term over the whole universe;
    below a removal, every part the Removal Lemma (7.9) produced above it.
    The node re-localizes and re-decomposes each kernel (as the paper's
    recursion does) and sweeps the basic terms of all the cl-terms at
    once, through the one cluster sweep {!Foc_local.Cover_term.sweep}: one
    neighbourhood cover per distinct cover radius, each cluster induced
    once. A cluster of at most [small] elements is the recursion base and
    is not induced: by Lemma 7.6 a basic term counts the same in [A\[X\]]
    as in [A], so its elements are counted in place. In each larger
    cluster [B_X] the node plays one batched round of the
    splitter game for every kernel that wants one of the cluster's
    assigned elements: Splitter answers with one vertex [d], each kernel
    splits into its [Elsewhere] parts (wanted at the surviving elements)
    and, when [d] is one of its elements, its [At_removed] parts (summed
    over [B_X *_r d]); one [B_X *_r d] is built per distinct removal
    radius, and the node below takes the union of the parts. Width-0
    parts are sentences, decided by {!Foc_local.Local_eval.sentence}. The
    recursion stops when a piece has at most [small] elements or
    [max_rounds] rounds have been played; the base case evaluates each
    kernel directly with the compiled evaluator.

    On a nowhere dense class, λ(2kr) rounds always suffice (that is the
    definition via the splitter game), which is what bounds the recursion
    depth in the paper's analysis. Here Splitter's move is the greedy
    max-degree heuristic — exact for stars and shallow trees, merely
    heuristic in general, as discussed in DESIGN.md §2.3.

    This back-end exists to demonstrate and test the full Section 7–8
    machinery end-to-end; the [Direct] and [Cover] back-ends are the fast
    paths. *)

open Foc_logic

(** [sweep ~cover_for preds a ~max_rounds ~small cl] — the splitter
    sweep of every basic term of the cl-term [cl] over every element of
    [a], for {!Foc_local.Clterm.eval_ground} and
    {!Foc_local.Clterm.eval_unary}; it answers only for basic terms of
    [cl].

    [cover_for ~rc] supplies the top-level covers; the engine passes its
    {!Artifact_store}. Covers inside the recursion are built per round
    by {!Artifact_store.build_cover} and never kept.

    [jobs > 1] runs the clusters of the top-level sweep, and the elements
    counted in place, in parallel ({!Foc_par}; nested sweeps inside a
    task run sequentially). Each task owns the structures it induces and
    removes, so answers and counters are bit-identical to [jobs = 1].

    Into the {!Foc_obs.Metrics.current} registry it counts
    [engine.removals] (one per [A *_r d] built), [engine.covers_built]
    (the covers built inside the recursion; [cover_for] counts its own),
    [splitter.rounds] (cluster rounds) and [splitter.kernels] (kernels
    evaluated per round, summed over the rounds); each round
    runs under a [splitter.round] span and each removal under a [remove]
    span. *)
val sweep :
  ?jobs:int ->
  cover_for:(rc:int -> Foc_graph.Cover.t) ->
  Pred.collection ->
  Foc_data.Structure.t ->
  max_rounds:int ->
  small:int ->
  Foc_local.Clterm.t ->
  Foc_local.Clterm.sweep
