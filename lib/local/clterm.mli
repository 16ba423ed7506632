(** Connected local terms — cl-terms (Definition 6.2 of the paper).

    A basic cl-term is a counting term
    [#ȳ.(ψ(ȳ) ∧ δ_{G,2r+1}(ȳ))] for a *connected* pattern G and an r-local
    body ψ; it is either ground (all positions counted) or unary (position 0
    free). A cl-term is a polynomial over basic cl-terms — exactly the shape
    produced by the decomposition of Lemma 6.4, and exactly what the engine
    can evaluate by neighbourhood exploration (Remark 6.3).

    This module is the one evaluator of that polynomial: each back-end
    only supplies a {!sweep} of one basic term. *)

open Foc_logic

type basic = private {
  pattern : Foc_graph.Pattern.t;  (** connected *)
  radius : int;  (** r; the pattern threshold is 2r+1 *)
  vars : Var.t list;  (** one per pattern position; position 0 first *)
  body : Ast.formula;  (** r-local around [vars] *)
}

(** [basic ~pattern ~radius ~vars ~body] — checks connectivity, arity and
    that [free body ⊆ vars]. *)
val basic :
  pattern:Foc_graph.Pattern.t ->
  radius:int ->
  vars:Var.t list ->
  body:Ast.formula ->
  basic

type t =
  | Const of int
  | Ground of basic  (** all positions counted: a ground cl-term *)
  | Unary of basic  (** position 0 free: a unary cl-term *)
  | Add of t * t
  | Mul of t * t

(** The basic-term leaves, left to right (a leaf occurring twice is listed
    twice). *)
val basics : t -> basic list

(** Number of basic cl-terms in the polynomial. *)
val basic_count : t -> int

(** Largest pattern width. *)
val width : t -> int

(** {1 Evaluation}

    Every back-end evaluates the same polynomial; they differ only in how
    they sweep one basic term of width [k >= 1] — per element (Direct),
    per cover cluster (Cover), by splitter-game removals (Splitter) or per
    ball type (Hanf). A back-end therefore supplies a {!sweep}, and
    {!eval_ground}/{!eval_unary} do the rest in one place: constants,
    sums and products, ground leaves inside unary terms, and width-0
    ground leaves (sentences), which are decided by {!Local_eval.sentence} on
    the sweep's structure and so raise [Invalid_argument] on an empty
    universe, as {!Foc_eval.Naive} does. *)

(** A back-end's basic-term sweep. *)
type sweep

(** [sweep preds a per_anchor] — [per_anchor b] is the value vector of the
    unary basic term [b] (width >= 1) over the anchors; [anchors] (default
    [order a]) is the vector length. [ground b] is the value of the ground
    basic term [b] (width >= 1) and defaults to the sum of [per_anchor b];
    a back-end whose anchors are not the whole universe supplies its own.
    Sentence leaves are decided in [a] under [preds]. *)
val sweep :
  ?anchors:int ->
  ?ground:(basic -> int) ->
  Pred.collection ->
  Foc_data.Structure.t ->
  (basic -> int array) ->
  sweep

(** [direct ctx] — the per-element sweep ({!Pattern_count.per_anchor})
    over the context's structure (Remark 6.3). The context must have been
    created with the radius of the basic terms. [jobs > 1] parallelises
    each sweep; results are bit-identical to [jobs = 1]. *)
val direct : ?jobs:int -> Pattern_count.ctx -> sweep

(** [eval_ground s t] evaluates a ground cl-term. Raises
    [Invalid_argument] on [Unary] leaves. *)
val eval_ground : sweep -> t -> int

(** [eval_unary s t] evaluates a (possibly mixed ground/unary) cl-term at
    every anchor of [s] simultaneously, returning the vector of values. *)
val eval_unary : sweep -> t -> int array

val pp : Format.formatter -> t -> unit
