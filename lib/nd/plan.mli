(** Query plans: an inspectable account of how the engine evaluates an
    expression — the EXPLAIN of this system.

    A plan is the engine's compiled tree ({!Engine.compile_term},
    {!Engine.compile_formula}, {!Engine.compile_query}), flattened: no
    structure is needed, and the plan cannot drift from the evaluation.
    It lists the counting kernels in the order the run reaches them
    (innermost first), each with its route — localized with which radius,
    how many patterns and basic cl-terms, or the baseline fallback and
    why — and counts the materialisation steps of the stratification
    (Theorem 6.10). The engine counts a fallback when it runs such a
    kernel, so on a term (no short-circuit) the plan's fallback kernels
    are the run's [engine.fallbacks]. An expression the engine refuses
    outright ({!Engine.Outside_fragment} while compiling, or two or more
    free variables) is a one-kernel plan giving the reason.

    Use it to understand performance before running, and in tests to pin
    down which inputs are inside the guarded fragment. *)

open Foc_logic

(** How one counting kernel will be evaluated. *)
type kernel = {
  description : string;  (** rendered [#ȳ.θ] *)
  anchored : bool;  (** unary (per-element) vs ground *)
  width : int;  (** number of tuple positions incl. anchor *)
  route : route;
}

and route =
  | Localized of {
      radius : int;  (** certified locality radius of the body *)
      patterns : int;  (** |G_k| enumerated *)
      basic_terms : int;  (** basic cl-terms in the polynomial *)
    }
  | Fallback of string  (** reason the kernel leaves the fragment *)

(** A plan: the kernels in evaluation (innermost-first) order, plus counts
    of materialisation steps. *)
type t = {
  kernels : kernel list;
  materialisations : int;
      (** fresh unary/0-ary relations Theorem 6.10 will introduce *)
  strictly_localized : bool;  (** no kernel falls back *)
}

(** [term_plan ?config t] — plan for evaluating a counting term (ground or
    unary). *)
val term_plan : ?config:Engine.config -> Ast.term -> t

(** [formula_plan ?config φ] — plan for a sentence or unary formula. *)
val formula_plan : ?config:Engine.config -> Ast.formula -> t

(** [query_plan ?config q] — plan covering the body and every head term of
    a Definition 5.2 query. *)
val query_plan : ?config:Engine.config -> Query.t -> t

val pp : Format.formatter -> t -> unit
