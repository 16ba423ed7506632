(** Sparse neighbourhood covers (Sections 7 and 8.1 of the paper).

    An r-neighbourhood cover assigns to every vertex [a] a connected cluster
    [X(a)] containing its full r-ball. Theorem 8.1 shows that nowhere dense
    graphs admit [(r, 2r)]-covers (clusters of radius at most [2r]) with
    maximum degree [n^ε].

    Substitution note (documented in DESIGN.md): the cover construction of
    Grohe–Kreutzer–Siebertz relies on generalized colouring numbers; we build
    covers with the classic greedy sweep — repeatedly pick an uncovered
    vertex [c], emit the cluster [N_2r(c)], and let it serve every [a] with
    [dist(a, c) ≤ r]. This always yields a correct [(r, 2r)]-cover; its
    degree is measured (not proven) and reported by experiment E5, where it
    is small on the sparse classes and blows up on cliques, matching the
    theory's shape. *)

type t

(** [make g ~r] builds an [(r, 2r)]-neighbourhood cover of [g].
    Raises [Invalid_argument] if [r < 0]. *)
val make : Graph.t -> r:int -> t

(** The pointer-free core, for serialisation ({!Foc_store}): radius,
    clusters, per-vertex assignment and centres — the whole cover.
    [to_flat] shares the arrays without copying — treat them as
    read-only. *)
type flat = {
  fr : int;
  fclusters : int array array;
  fassign : int array;
  fcentres : int array;
}

val to_flat : t -> flat

(** Re-wrap a flat core, validating the cover invariants (sorted
    clusters, in-range members/centres, every vertex assigned to a
    cluster containing it). Raises [Invalid_argument] on any
    violation. *)
val of_flat : flat -> t

(** The [r] the cover was built for. *)
val radius_param : t -> int

(** Number of clusters. *)
val cluster_count : t -> int

(** [cluster t i] is the sorted vertex array of cluster [i] (do not
    mutate). *)
val cluster : t -> int -> int array

(** [assigned t a] is the id of the cluster [X(a)], which contains
    [N_r(a)]. *)
val assigned : t -> int -> int

(** [centre t i] is the designated 2r-centre of cluster [i] (the [cen]
    function of Section 8.1). *)
val centre : t -> int -> int

(** [kernel t i] is the sorted array of vertices [a] with [X(a)] = cluster
    [i] — the interpretation of the fresh predicate [Q] in Section 8.2. *)
val kernel : t -> int -> int array

(** [clusters_containing t a] — ids of all clusters containing vertex
    [a], ascending (a diagnostic: one binary search per cluster). *)
val clusters_containing : t -> int -> int list

(** Maximum degree Δ(X): the largest number of clusters any vertex belongs
    to. *)
val max_degree : t -> int

(** Largest cluster radius measured in the induced subgraph (≤ 2r by
    construction). *)
val max_cluster_radius : t -> Graph.t -> int

(** [covers_tuple t g ~s i vs] — does cluster [i] s-cover the tuple [vs],
    i.e. is [N_s(vs) ⊆ cluster i]? (Section 7 terminology.) *)
val covers_tuple : t -> Graph.t -> s:int -> int -> int list -> bool

(** Sum of cluster sizes (the work bound of the cluster sweep). *)
val total_weight : t -> int
