(** Breadth-first search: distances, balls and neighbourhoods.

    Implements the metric notions of Section 2 of the paper:
    [dist^A(a, b)], the r-ball [N_r^A(ā)] of a tuple, and eccentricities
    (used to compute cluster radii in Section 8.1). Distances are lengths of
    shortest paths in the (Gaifman) graph; unreachable pairs have distance
    [infinity], represented as [max_int]. *)

(** The distance value standing for ∞. *)
val infinity : int

(** [dist g u v] is the shortest-path distance, [infinity] if disconnected.
    O(‖G‖). *)
val dist : Graph.t -> int -> int -> int

(** [dist_le g u v r] decides [dist g u v <= r] exploring only the r-ball of
    [u]; the workhorse of the distance atoms of FO⁺ (§7). *)
val dist_le : Graph.t -> int -> int -> int -> bool

(** [distances_from g ~sources ~radius] is the array of distances from the
    closest source, capped exploration at [radius] (pass [max_int] for a full
    sweep); entries beyond the cap are [infinity]. This realises
    [dist^A(ā, b) = min_i dist(a_i, b)]. *)
val distances_from : Graph.t -> sources:int list -> radius:int -> int array

(** [ball g ~centres ~radius] is the sorted list of vertices at distance at
    most [radius] from some centre — the ball [N_r(ā)] of Section 2. *)
val ball : Graph.t -> centres:int list -> radius:int -> int list

(** [ball_tbl g ~centres ~radius] maps each vertex of the ball to its
    distance from the closest centre. Unlike {!distances_from} this touches
    only the ball, never the whole graph — the localized evaluation engine
    depends on this for its near-linear running time. Allocates a fresh
    table per query; the hot paths use a reusable {!searcher} instead. *)
val ball_tbl : Graph.t -> centres:int list -> radius:int -> (int, int) Hashtbl.t

(** {2 The BFS arena}

    A {!searcher} owns a persistent distance array validated by an epoch
    stamp plus an explicit int-array queue, so a radius-bounded BFS
    performs {e zero allocation} and resets in O(ball) (bumping the epoch
    invalidates all previous distances at once). A searcher is
    single-owner mutable state: create one per worker domain (the
    [clone_ctx] discipline of [Foc_local.Pattern_count]); never share one
    between concurrent sweeps. Results are identical to {!ball_tbl} for
    every interleaving of queries. *)

type searcher

(** [searcher g] — a fresh arena over [g] (O(order g) setup, reused for
    arbitrarily many queries). *)
val searcher : Graph.t -> searcher

(** The graph the arena was created over. *)
val searcher_graph : searcher -> Graph.t

(** [run s ~centres ~radius] — radius-bounded multi-source BFS; returns the
    number of ball vertices. Until the next [run], the ball is readable
    through {!visited}/{!mem}/{!dist_of}. *)
val run : searcher -> centres:int list -> radius:int -> int

(** Number of vertices visited by the latest {!run}. *)
val visited_count : searcher -> int

(** [visited s i] — the [i]-th visited vertex of the latest run, in BFS
    order ([0 <= i < visited_count s]). *)
val visited : searcher -> int -> int

(** [mem s v] — is [v] in the ball of the latest run? O(1). *)
val mem : searcher -> int -> bool

(** [dist_of s v] — distance of [v] from the closest centre of the latest
    run; {!infinity} if outside the ball. *)
val dist_of : searcher -> int -> int

(** [ball_sorted s ~centres ~radius] — {!run} followed by extraction of the
    ball as a fresh sorted array (the only allocation of the query). *)
val ball_sorted : searcher -> centres:int list -> radius:int -> int array

(** [eccentricity_within g vs c] is [max_{v in vs} dist_{G[vs]}(c, v)]
    computed inside the induced subgraph on [vs]; [infinity] if some vertex
    of [vs] is unreachable from [c] within [vs]. Used for cover radii. *)
val eccentricity_within : Graph.t -> int list -> int -> int

(** [tuple_connected g r vs] decides whether the "pattern graph" on the
    vertex list [vs] with edges between vertices at distance ≤ [r] is
    connected (the r-connectedness of tuples, §7.1). *)
val tuple_connected : Graph.t -> int -> int list -> bool
