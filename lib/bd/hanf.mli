(** Hanf-type evaluation for bounded-degree structures — the strategy of
    the paper's predecessor [16] (Kuske & Schweikardt): on structures of
    bounded degree, the value of any r-local unary expression at an element
    depends only on the isomorphism type of its r-neighbourhood, and the
    number of realised types is bounded by a function of (degree, r, σ).
    Grouping elements by type and evaluating once per class turns a
    per-element sweep into [n·(type hashing) + #types·(local work)] —
    fixed-parameter linear on bounded-degree classes.

    This module supplies the grouping; the [Foc_nd] engine evaluates one
    representative per class as its fourth back-end for basic cl-terms
    ({!Foc_nd.Hanf_backend}). On structures with
    many distinct local types (random trees with hubs, databases) the
    grouping degenerates gracefully to the direct sweep plus hashing
    overhead. *)

(** [classes a ~r] — the partition of the universe into r-ball isomorphism
    classes: a list of (key, members), classes in order of their least
    member, members ascending.

    Cost: one refinement pass over the whole structure, O(r·‖A‖), plus
    one exact key ({!Ball_type.ball_key}: a ball BFS and canonicalization)
    per element whose colour it shares with another element. Round 0
    colours an element by the rows whose entries are all that element
    (unary facts, loops); round s by its round-(s-1) colour and the
    multiset of (relation, position, round-(s-1) colours of the row's
    entries) over the rows containing it. By induction, colour r of [v]
    depends only on the isomorphism type of the rooted ball N_r(v): each
    row it reads contains an element within distance r-1 of [v], or is a
    self-row at distance r, so it lies inside the induced ball. So
    isomorphic balls get equal colours, and an element with a unique
    colour is a singleton class, exactly as its key would make it; it
    gets the cheap {!Ball_type.unique_key}. Colours are hashes: a
    collision only keys more elements exactly, it never merges classes.
    On a vertex-transitive structure nothing is a singleton and the pass
    is pure overhead: a measured cost of about 2 ms (pass and sort) on a
    60×60 grid at r = 1..3, against 110–1200 ms for its keys.

    Balls larger than [max_ball] (default 48) are not canonicalized: their
    element gets a singleton class — a sound degradation that keeps the
    back-end total on structures outside the bounded-degree sweet spot.

    [jobs > 1] computes the exact keys on that many domains
    ({!Foc_par}); refinement and grouping stay sequential in element
    order, so the class list is identical for every [jobs] setting.
    Records [hanf.elements] (elements partitioned) and
    [hanf.canonicalised] (exact keys computed) in the current
    {!Foc_obs.Metrics} registry. *)
val classes :
  ?max_ball:int ->
  ?jobs:int ->
  Foc_data.Structure.t ->
  r:int ->
  (string * int list) list

(** Number of distinct r-ball types (diagnostic; bounded in terms of degree
    and r on bounded-degree classes). *)
val type_count :
  ?max_ball:int -> ?jobs:int -> Foc_data.Structure.t -> r:int -> int

(** Bytes a partition occupies on the heap (list cells, pairs, key
    strings, member cells), as {!Obj.reachable_words} would count them —
    the size a session's artifact budget charges for it. *)
val approx_bytes : (string * int list) list -> int
