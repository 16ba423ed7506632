(** The compiled local evaluator of guarded formulas and counting terms.

    A formula or term is compiled once, against one structure, into
    closures over an [int array] environment with one slot per variable:
    the listed parameters take slots [0 .. k-1], each binder the next slot
    by depth. Semantically identical to {!Foc_eval.Naive} (the Definition
    3.1 semantics), but:

    - a relational atom reads its key from the slots, with no map and no
      tuple per test: a unary atom is O(1), one look at the relation's CSR
      incidence index ({!Foc_data.Structure.incidence}); a binary atom
      scans the shorter incidence row of its two arguments, O(min
      degree); a wider atom binary-searches the core. Each atom and each
      seek resolves its index at its first evaluation and keeps it, so
      compiling builds no index;
    - the variables of an ∃-chain or a counting term are placed one per
      level in an order fixed at compile time, each from a candidate source
      fixed at compile time: an indexed atom (a seek on the CSR incidence
      index, {!Foc_data.Structure.incidence}), else the δ-ball the
      {!Locality} guard calculus certifies around the bound variables, else
      a scan of the universe;
    - each conjunct of the body is tested at the first level where all its
      variables are bound.

    On certified-local expressions every position is indexed or guarded,
    so the cost is proportional to ball sizes (Remark 6.3, Section 8.2),
    not to ‖A‖. Unguarded positions scan — still correct — and are counted
    statically ({!unguarded}).

    A compiled program may be shared across domains once its structure is
    prepared ({!Foc_data.Structure.prepare}); its mutable working space is
    a {!scratch}, one per domain. Its only other write is each atom's and
    seek's index memo, filled at first evaluation: after [prepare] every
    domain writes the same memoised index, so the race is benign. *)

open Foc_logic

(** Per-domain working space over one structure: a BFS arena (guard balls,
    distance atoms), dedup marks and candidate buffers. *)
type scratch

val scratch : Foc_data.Structure.t -> scratch

(** The scratch's BFS arena over the structure's Gaifman graph (built on
    first use). A caller that runs it reads the result before the next
    evaluation on the same scratch. *)
val searcher : scratch -> Foc_graph.Bfs.searcher

(** {1 Formulas and terms} *)

type formula

(** [compile preds a ~vars φ] — [free φ ⊆ vars] (raises
    [Invalid_argument] otherwise); [vars] take slots [0 .. k-1]. *)
val compile :
  Pred.collection -> Foc_data.Structure.t -> vars:Var.t list -> Ast.formula -> formula

(** Slots the environment must have. *)
val width : formula -> int

(** Quantifier/count positions compiled to a scan of the universe. *)
val unguarded : formula -> int

(** [holds f s env] — truth under the parameters in [env]'s first slots
    ([env] has at least [width f] slots; the others are overwritten).
    Raises [Invalid_argument] on an empty universe, as
    {!Foc_eval.Naive.formula} does. *)
val holds : formula -> scratch -> int array -> bool

(** [sentence preds a φ] — compile and decide a sentence. *)
val sentence : Pred.collection -> Foc_data.Structure.t -> Ast.formula -> bool

type term

val compile_term :
  Pred.collection -> Foc_data.Structure.t -> vars:Var.t list -> Ast.term -> term

val term_width : term -> int

(** [value t s env] — the term's value, as {!holds}. *)
val value : term -> scratch -> int array -> int

(** {1 Staged bodies}

    The pattern sweep ({!Pattern_count}) places its variables in its own
    order, from its own balls; it uses the body split by level. *)

(** A test over the scratch and the environment. *)
type test = scratch -> int array -> bool

type stage

(** [stage preds a ~vars ~order body] — [order] is a permutation of the
    positions of [vars] (slots [0 .. k-1]), the placement order. *)
val stage :
  Pred.collection ->
  Foc_data.Structure.t ->
  vars:Var.t list ->
  order:int array ->
  Ast.formula ->
  stage

(** [check st l] — the conjuncts of the body whose variables are all placed
    once level [l] is (level 0 also takes the variable-free conjuncts). *)
val check : stage -> int -> test

(** An indexed candidate source. *)
type seek

(** [seek st l] — an indexed source for the variable placed at level [l]
    from the positive atoms of the body over the variables placed before
    it; [None] at level 0 or when no atom qualifies. *)
val seek : stage -> int -> seek option

val stage_width : stage -> int

(** An upper bound on the candidates of the seek under [env]. *)
val seek_estimate : seek -> int array -> int

(** [fill sk s env] — push a buffer onto [s]'s buffer stack holding the
    candidates of the seek under [env], each once, and return their
    number. Read them with {!buffer} and pop the buffer with {!release};
    evaluations in between (deeper levels) push and pop their own. *)
val fill : seek -> scratch -> int array -> int

(** The buffer on top of the stack: its first [fill]-many values are the
    candidates. It stays put while deeper levels fill theirs. *)
val buffer : scratch -> int array

(** Pop the buffer on top of the stack. *)
val release : scratch -> unit
