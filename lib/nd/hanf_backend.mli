(** The Hanf back-end: basic cl-terms evaluated once per r-ball isomorphism
    class ({!Foc_bd.Hanf}) instead of once per element — the bounded-degree
    strategy of the paper's predecessor [16].

    Soundness: the value of a basic cl-term of radius r and width k at an
    anchor [a] is determined by the isomorphism type of the rooted ball
    [N_{k(2r+1)}(a)] (the tuple lives within [(k−1)(2r+1)] of the anchor and
    the r-local body within r more, and pattern closeness at threshold 2r+1
    is decided inside the same ball) — so elements with isomorphic balls
    get equal values.

    [jobs > 1] parallelises both stages on that many domains ({!Foc_par}):
    the per-ball canonicalisation and the one-evaluation-per-class sweep
    (with a per-domain {!Foc_local.Pattern_count} context and a per-domain
    evaluation plan). Results are bit-identical to [jobs = 1].

    [cache_bytes] bounds each context's ball cache
    ({!Foc_local.Pattern_count.make_ctx}); the contexts record their ball
    counters into the {!Foc_obs.Metrics.current} registry.

    [classes_for ~r] lets a caller supply the r-ball class partition
    instead of recomputing it per leaf — the session layer caches
    {!Foc_bd.Hanf.classes} results keyed by type radius. The supplied
    partition must equal [Foc_bd.Hanf.classes a ~r] (which is
    deterministic and identical for every [jobs]), so injection never
    changes results. *)

open Foc_logic

val eval_ground :
  ?jobs:int ->
  ?cache_bytes:int ->
  ?classes_for:(r:int -> (string * int list) list) ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Foc_local.Clterm.t ->
  int

val eval_unary :
  ?jobs:int ->
  ?cache_bytes:int ->
  ?classes_for:(r:int -> (string * int list) list) ->
  Pred.collection ->
  Foc_data.Structure.t ->
  Foc_local.Clterm.t ->
  int array
