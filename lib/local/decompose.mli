(** The decomposition of counting terms into cl-terms — Lemma 6.4 (and its
    Boolean-combination refinement, Lemma 6.5) of the paper.

    Given an r-local body ψ(ȳ), the count [#ȳ.ψ] splits over connectivity
    patterns [G ∈ G_k]: tuples realising a *connected* pattern are counted
    by a basic cl-term directly; for a disconnected pattern the component of
    the first position is split off, ψ is factorised across the split with
    {!Split} (the Feferman–Vaught step), and the paper's
    inclusion–exclusion

    [|S| = |S′| · |S″| − Σ_{H ∈ 𝓗} |T_H|]

    recurses on the merge patterns H, which have strictly fewer connected
    components.

    Returns [None] when the body falls outside the supported guarded
    fragment (then the engine falls back to the baseline) — see DESIGN.md
    §2.2 for the exact boundary. *)

open Foc_logic

(** [ground_count ~r ~vars body] — a ground cl-term equivalent to
    [#vars.body], where [body] is r-local around [vars]. *)
val ground_count :
  ?max_blocks:int -> r:int -> vars:Var.t list -> Ast.formula -> Clterm.t option

(** [unary_count ~r ~vars body] — a unary cl-term (anchored at the first
    variable of [vars]) equivalent to [#(vars \ first).body]: the value at
    [a] is the number of extensions of [first ↦ a] satisfying [body]. *)
val unary_count :
  ?max_blocks:int -> r:int -> vars:Var.t list -> Ast.formula -> Clterm.t option

(** [localize ~max_width ~anchored ~vars θ] — the engine's localize step for
    the counting kernel [#vars.θ] ([anchored]: the first of [vars] stays
    free, as in {!unary_count}; otherwise {!ground_count}): the width cap
    [|vars| <= max_width], locality certification
    ({!Locality.formula_radius}, span [locality]) and the decomposition
    (span [decompose]). [Ok (r, cl)] carries the certified radius;
    [Error why] is the reason the baseline must answer instead. Evaluation
    and [explain] both go through it, so they cannot disagree. *)
val localize :
  ?max_blocks:int ->
  max_width:int ->
  anchored:bool ->
  vars:Var.t list ->
  Ast.formula ->
  (int * Clterm.t, string) result
