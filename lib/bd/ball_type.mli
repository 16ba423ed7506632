(** Canonical forms of rooted r-neighbourhoods — the "sphere types" behind
    Hanf normal forms.

    The paper's predecessor result (Kuske & Schweikardt, LICS'17 — reference
    [16], whose algorithm the paper generalises away from bounded degree)
    evaluates FOC(P) on bounded-degree structures by counting realisations
    of neighbourhood types. The substrate for that is an exact isomorphism
    test for rooted balls: two elements have interchangeable local
    behaviour iff their r-neighbourhoods are isomorphic as rooted
    structures.

    Keys are sound unconditionally — equal keys certify an isomorphism of
    the rooted balls (the key is a serialisation of an explicit
    relabelling). Completeness (isomorphic ⟹ equal keys) holds whenever
    colour refinement identifies automorphism orbits, which includes every
    forest (1-WL is complete on trees) and hence the tree-like balls of
    sparse structures; on refinement-blind inputs the bounded
    individualization search may split one type into several keys — harmless
    for Hanf grouping, which then merely evaluates a few extra
    representatives. Canonicalization works on int arrays (local ids,
    relation ids in name order): colour refinement seeded with the centre
    against the rest runs to its fixpoint, ambiguous classes are then
    individualized under a fixed work budget (unbounded backtracking is
    exponential on large orbits such as a hub's leaves), and the key
    serialises the relabelled rows in lexicographic order. *)

(** [extract a ~centre ~r] — the induced substructure on [N_r(centre)]
    together with the centre's id in it. *)
val extract :
  Foc_data.Structure.t -> centre:int -> r:int -> Foc_data.Structure.t * int

(** Reusable canonicalization scratch (serialization buffer and a BFS
    arena over the last Gaifman graph seen). Optional; passing one to
    repeated key computations avoids re-allocating them per call. One
    scratch per domain — do not share across concurrent
    canonicalizations. *)
type scratch

val scratch : unit -> scratch

(** [canonical_key a ~centre] — canonical serialisation of the rooted
    structure [(a, centre)]. Intended for small (ball-sized) structures;
    cost grows with automorphism ambiguity. *)
val canonical_key : ?scratch:scratch -> Foc_data.Structure.t -> centre:int -> string

(** [ball_key a ~centre ~r] = [canonical_key (extract a ~centre ~r)],
    computed without building the substructure: one BFS over the Gaifman
    graph, the ball's rows read off the incidence indexes. A ball with
    more than [max_ball] elements (default: no limit) is not canonicalised;
    its key is [unique_key centre]. *)
val ball_key :
  ?max_ball:int ->
  ?scratch:scratch ->
  Foc_data.Structure.t ->
  centre:int ->
  r:int ->
  string

(** [unique_key v] — ["!uniq"] followed by [v]: a key no canonical key
    equals and no other element shares, for an element known to be alone
    in its type. *)
val unique_key : int -> string
