(** Finite relational σ-structures (Section 2 of the paper) — the databases
    being queried.

    The universe is always [0 .. order-1]. Each relation is one packed
    core ({!Tuple.Set}: sorted, deduplicated flat rows of the symbol's
    arity) plus a CSR incidence index listing, for every element, the rows
    that contain it. Structures are immutable; the Gaifman graph and the
    incidence indexes are computed on demand and cached. *)

type t

(** [create sign ~order rels] builds a structure. Every listed relation name
    must be in [sign] with matching tuple arities; unlisted symbols get the
    empty relation. Tuple entries must lie in [0..order-1]. The paper
    requires non-empty universes; we allow [order = 0] for convenience but
    the evaluators treat it like the paper treats order 1 structures where
    relevant. *)
val create : Signature.t -> order:int -> (string * int array list) list -> t

(** [of_rels sign ~order rels] is {!create} over packed cores (adopted,
    not copied), with widths and universe bounds checked in O(size). *)
val of_rels : Signature.t -> order:int -> (string * Tuple.Set.t) list -> t

val signature : t -> Signature.t

(** |A|: number of elements. *)
val order : t -> int

(** ‖A‖ = |A| + Σ_R |R^A| (the paper's size measure). *)
val size : t -> int

(** [rel a name] is the packed core of [name] — read it by row index
    ({!Tuple.Set.cell}) on hot paths. Raises [Invalid_argument] for a
    symbol outside the signature. *)
val rel : t -> string -> Tuple.Set.t

(** [mem a name tup] — tuple membership, by binary search. *)
val mem : t -> string -> int array -> bool

(** [tuples_with a name ~pos ~value f] calls [f i] for the index [i]
    (into [rel a name]) of every row whose [pos]-th entry (0-based) is
    [value], in ascending order. Reads the relation's incidence index, so
    a lookup costs O(rows containing [value]); this is what makes guarded
    quantification over relational atoms run in time proportional to the
    matching tuples rather than to neighbourhood balls. *)
val tuples_with : t -> string -> pos:int -> value:int -> (int -> unit) -> unit

(** A CSR incidence index: the rows (indices into the relation's core)
    containing element [v] are [ids.(off.(v)) .. ids.(off.(v+1) - 1)],
    each once, ascending. *)
type incidence = private { off : int array; ids : int array }

(** [incidence a name] is the incidence index of [name], built on first
    use and memoised — the allocation-free form of {!tuples_with} for
    compiled seeks. It is also the compiled atoms' membership test: for a
    unary [name], [v] is in the relation iff [off.(v+1) > off.(v)]; a
    binary atom scans the shorter row of its two arguments. *)
val incidence : t -> string -> incidence

(** [add_tuples a name tups] is [a] with the tuples added (functional):
    one linear merge into the relation's core, whose incidence index is
    rebuilt on demand; the other relations and their indexes are shared.
    Updates touching only relations of arity ≤ 1 preserve the memoised
    Gaifman graph {e physically} (unary/0-ary tuples contribute no edges),
    so graph-keyed artifacts remain valid across such updates; the same
    holds for {!remove_tuples} and {!expand}. *)
val add_tuples : t -> string -> int array list -> t

(** [remove_tuples a name tups] is [a] with the tuples removed (absent
    tuples are ignored). *)
val remove_tuples : t -> string -> int array list -> t

(** The Gaifman graph G_A (cached). *)
val gaifman : t -> Foc_graph.Graph.t

(** [set_gaifman a g] installs a pre-built graph into the Gaifman memo —
    the snapshot-load fast path of {!Foc_store}, skipping the
    count-then-fill rebuild. The caller asserts [g] is the Gaifman graph
    of [a]; only [Foc_graph.Graph.order g = order a] is checked (raises
    [Invalid_argument] otherwise). *)
val set_gaifman : t -> Foc_graph.Graph.t -> unit

(** Force every lazily-built cache (the Gaifman graph and every incidence
    index). Afterwards the structure is safe to read concurrently from
    several domains — required before handing [t] to parallel sweeps
    ({!Foc_par}), since the lazy caches are not thread-safe. *)
val prepare : t -> unit

(** [dist a u v] is the Gaifman distance, [Foc_graph.Bfs.infinity] when unreachable. *)
val dist : t -> int -> int -> int

(** [dist_le a u v r] decides [dist ≤ r] exploring only an r-ball. *)
val dist_le : t -> int -> int -> int -> bool

(** [ball a ~centres ~radius] — the r-ball N_r(ā) as a sorted list. *)
val ball : t -> centres:int list -> radius:int -> int list

(** [induced a vs] is A[vs] (tuples entirely inside [vs]), with elements
    renumbered in sorted order, plus the sorted [old_of_new] injection. A
    slice of the incidence indexes: O(|vs| + Σ_{v∈vs} deg v · arity) when
    [vs] ascends (clusters and balls do), plus a sort of [vs] otherwise,
    independent of [order a]. Members are renumbered through a table kept
    by the calling domain for its whole life and sized to the largest
    order it has induced from, so concurrent calls from several domains
    (after {!prepare}) never share it. *)
val induced : t -> int list -> t * int array

(** [new_of_old old_of_new v] — the new id of old element [v] under the
    sorted [old_of_new] of {!induced} (binary search), or [-1] when [v] is
    not a member. *)
val new_of_old : int array -> int -> int

(** [disjoint_union a b] shifts [b]'s elements by [order a]; signatures must
    be equal. *)
val disjoint_union : t -> t -> t

(** [expand a extra] adds fresh relation symbols with contents — the
    σ'-expansions used throughout Sections 5–8. Raises on clashes with
    existing symbols of different arity or on arity mismatches. *)
val expand : t -> (string * int * int array list) list -> t

(** [reduct a sign] keeps only the symbols of [sign] (which must all be
    present in [a]'s signature). *)
val reduct : t -> Signature.t -> t

(** [of_graph g] is the {E/2} structure with both orientations of each
    edge. *)
val of_graph : Foc_graph.Graph.t -> t

(** Structural equality (same signature, order and relations). *)
val equal : t -> t -> bool

(** Brute-force isomorphism test; intended for test assertions on structures
    of order ≤ 8. *)
val isomorphic : t -> t -> bool

val pp : Format.formatter -> t -> unit
