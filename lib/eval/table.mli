(** Tables of satisfying assignments: the substrate of the relational-algebra
    baseline evaluator {!Relalg}.

    A table is a column list (distinct variables) over the packed relation
    core {!Foc_data.Tuple.Set} that also stores every structure relation:
    rows in one flat [int array] ([width] ints per row), sorted
    lexicographically and deduplicated — so membership is binary search,
    union is a linear merge, and natural join, semijoin and anti-join
    drain the {!Leapfrog} kernel, whose output comes out sorted with no
    re-sort. An atom over distinct variables wraps its relation's core
    without copying. The algebra is the classical one — natural join,
    projection, union after column alignment, complement against the full
    product — extended with the planner-facing kernels (semijoin,
    anti-join, division, group-count) that let {!Relalg} avoid [n^k]
    materialisations. This engine is the "textbook" poly-time baseline the
    paper's almost-linear algorithm is compared against in experiments E3
    and E13. *)

open Foc_logic

type t

(** Columns, in order. *)
val vars : t -> Var.t array

(** [of_rows vars row_list] — columns must be distinct, rows of matching
    arity. *)
val of_rows : Var.t array -> int array list -> t

(** [of_core vars core] names the columns of a packed core (no copy);
    [Array.length vars] must equal its width. *)
val of_core : Var.t array -> Foc_data.Tuple.Set.t -> t

(** The 0-column table with one (empty) row — "true". *)
val unit : t

(** The 0-column table with no rows — "false". *)
val zero : t

val cardinal : t -> int
val is_empty : t -> bool

(** [full n vars] is the [n^k]-row product table over [vars]. *)
val full : int -> Var.t array -> t

(** [iter t f] calls [f] on every row in lexicographic order. The argument
    array is a scratch buffer reused between calls — [Array.copy] it to
    retain. *)
val iter : t -> (int array -> unit) -> unit

(** [project t target] keeps the [target] columns (a subset of [vars t],
    any order), deduplicating rows. *)
val project : t -> Var.t array -> t

(** [join t1 t2] — natural join on the shared columns; result columns are
    [vars t1] followed by the fresh columns of [t2]. A {!Leapfrog} search
    in that column order: [t1] drives, and [t2] is re-sorted into the
    order only when its columns are not already in it. *)
val join : t -> t -> t

(** [semijoin t1 t2] keeps the rows of [t1] with at least one match in
    [t2] on the shared columns. Columns are [vars t1]. A {!Leapfrog}
    search over [t1] and the shared-column projection of [t2]. *)
val semijoin : t -> t -> t

(** [antijoin ~n t t2] is [t ∧ ¬t2] without materialising a complement:
    the rows of [t] with {e no} match in [t2] on the shared columns when
    [t] covers [vars t2]; otherwise its columns are [vars t] followed by
    the columns of [t2] that [t] lacks (in [t2]'s order), which range over
    [0..n-1] — the rows of [extend_full t n missing] with no match in
    [t2]. One {!Leapfrog} search with [t2] as a negated atom, so the
    padded product is never built. *)
val antijoin : n:int -> t -> t -> t

(** [atom ~order t] — [t] as a {!Leapfrog} atom under the variable order
    [order]: its projection onto the columns [order] mentions, re-sorted
    into [order] only when they are out of it (counted as
    {!Eval_obs.join_build_rows}). [?neg] marks it negated. *)
val atom : ?neg:bool -> order:Var.t array -> t -> Leapfrog.atom

(** [of_search vars next] drains a {!Leapfrog.search} over the variable
    order [vars] into a table with those columns. *)
val of_search : Var.t array -> (unit -> int array option) -> t

(** [align t target] reorders columns to [target]; [target] must be a
    permutation of [vars t]. *)
val align : t -> Var.t array -> t

(** [extend_full t n extra] adds the [extra] columns (disjoint from
    [vars t]) carrying all values [0..n-1] (cross product). *)
val extend_full : t -> int -> Var.t array -> t

(** [union t1 t2] — same column sets, aligned automatically. Linear
    sorted merge. *)
val union : t -> t -> t

(** [complement t n] is [full n (vars t)] minus [t] — the [n^k] escape
    hatch the planner exists to avoid (counted by {!Eval_obs}). *)
val complement : t -> int -> t

(** [select_eq t x y] keeps the rows where columns [x] and [y] agree. *)
val select_eq : t -> Var.t -> Var.t -> t

(** [duplicate_column t ~src ~dst] appends a column [dst] (must be fresh)
    that copies [src] — how the planner applies an [Eq (x, y)] atom when
    only one side is bound. *)
val duplicate_column : t -> src:Var.t -> dst:Var.t -> t

(** [divide t y n] — relational division by the full domain: the
    projections of [t] onto [vars t ∖ {y}] whose group contains all [n]
    values of [y]. Compiles [Forall y] in one group-count pass. *)
val divide : t -> Var.t -> int -> t

(** [group_count t target] projects onto [target] and counts the rows of
    [t] behind each distinct key. Returns [(keys, counts)]: [keys] is
    row-major ([Array.length target] ints per group, lexicographically
    sorted) and [counts.(i)] the multiplicity of group [i]. *)
val group_count : t -> Var.t array -> int array * int array

(** [bind t binding] selects the rows matching the (variable, value) pairs
    (variables not among the columns are ignored; the others must be
    distinct) and then projects those columns away. *)
val bind : t -> (Var.t * int) list -> t

(** [column_index t x] — position of column [x], or raises [Not_found]. *)
val column_index : t -> Var.t -> int

val has_column : t -> Var.t -> bool

(** [column_counts t x] — the distinct values of column [x] with their row
    counts, sorted by value: the input {!Foc_stats.Summary.of_counts}
    expects. One O(rows) scan. *)
val column_counts : t -> Var.t -> (int * int) array

val equal : t -> t -> bool
(** Same column set and same rows (after alignment). *)

val pp : Format.formatter -> t -> unit
