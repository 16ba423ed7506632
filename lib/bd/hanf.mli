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
    classes: a list of (canonical key, members), classes in order of their
    least member, members ascending. Cost: one ball BFS and
    canonicalization per element ({!Ball_type.ball_key}). Balls larger
    than [max_ball] (default 48) are not canonicalized: their element gets
    a singleton class — a sound degradation that keeps the back-end total
    on structures outside the bounded-degree sweet spot.

    [jobs > 1] canonicalises the r-balls on that many domains
    ({!Foc_par}); the grouping pass stays sequential in element order, so
    the class list is identical for every [jobs] setting. *)
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
