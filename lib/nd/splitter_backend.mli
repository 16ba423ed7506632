(** The splitter-game back-end: steps 5a–e of the main algorithm
    (Section 8.2 of the paper).

    Basic cl-terms are evaluated cluster by cluster over a neighbourhood
    cover; inside each cluster [B_X] the algorithm plays one round of the
    splitter game — it removes the vertex Splitter would answer to the
    cluster centre — and continues on [B_X *_r d] with the counting kernels
    produced by the Removal Lemma (7.9), recursing until the piece is
    smaller than [small] or [max_rounds] rounds have been played; the base
    case evaluates directly by guarded neighbourhood exploration.

    On a nowhere dense class, λ(2kr) rounds always suffice (that is the
    definition via the splitter game), which is what bounds the recursion
    depth in the paper's analysis. Here Splitter's move is the greedy
    max-degree heuristic — exact for stars and shallow trees, merely
    heuristic in general, as discussed in DESIGN.md §2.3.

    This back-end exists to demonstrate and test the full Section 7–8
    machinery end-to-end; the [Direct] and [Cover] back-ends are the fast
    paths. *)

open Foc_logic

(** [eval_ground preds a ~max_rounds ~small t] — ground cl-terms. Each
    removal step increments [engine.removals] in the
    {!Foc_obs.Metrics.current} registry. *)
val eval_ground :
  Pred.collection ->
  Foc_data.Structure.t ->
  max_rounds:int ->
  small:int ->
  Foc_local.Clterm.t ->
  int

(** [eval_unary preds a ~max_rounds ~small t] — per-element values. *)
val eval_unary :
  Pred.collection ->
  Foc_data.Structure.t ->
  max_rounds:int ->
  small:int ->
  Foc_local.Clterm.t ->
  int array
