(** Incremental maintenance of unary cl-term values under tuple updates — a
    prototype answer to the paper's open question (2) in Section 9 ("can the
    approach support database updates?"; known for bounded degree from
    [16], open beyond).

    The locality of basic cl-terms gives the update rule: inserting or
    deleting a tuple τ can only change the value at anchors whose relevant
    ball meets τ, i.e. anchors within distance [R = k(2r+1)] of τ's
    elements (measured in the structure before *and* after the update,
    since distances move in opposite directions under insert/delete). The
    maintained state caches one value vector per basic cl-term; those
    cached vectors are the basic-term sweep handed to
    {!Foc_local.Clterm.eval_unary}, so an update re-evaluates only the
    affected anchors and re-walks the polynomial.

    Per-update cost: O(affected · local work) for the counts plus — in this
    prototype — O(‖A‖) to rebuild the Gaifman graph and indexes of the new
    immutable structure; a production version would maintain those
    incrementally too. Correctness is what the tests check (random update
    sequences vs. recomputation from scratch). *)

open Foc_logic

type t

(** [create preds a term] — [term] must be a cl-term polynomial whose
    leaves are unary/ground basics (as produced by
    {!Foc_local.Decompose}). Evaluates it fully once. Width-0 ground
    basics (sentences) are maintained by re-checking their r-local body
    after each update rather than through a per-anchor vector. *)
val create : Pred.collection -> Foc_data.Structure.t -> Foc_local.Clterm.t -> t

(** Current per-element values. Do not mutate. *)
val values : t -> int array

(** Current structure. *)
val structure : t -> Foc_data.Structure.t

val metrics : t -> Foc_obs.Metrics.t
(** The instance's metrics registry: counter [incr.sentence_rechecks]
    (sentence nodes re-checked across all updates), the ball counters of
    its {!Foc_local.Pattern_count} contexts ([ball.computed],
    [ball.cache_hits], ...), histogram [incr.update.affected] (anchors
    re-evaluated per update). *)

val stats_line : t -> string
(** All of the above as one logfmt line. *)

(** [touched ~before ~after tup ~radius] — the elements within [radius] of
    [tup] in [before] or [after]: the invalidation ball of the update rule
    above, shared with the session's ball contexts. *)
val touched :
  before:Foc_data.Structure.t ->
  after:Foc_data.Structure.t ->
  int array ->
  radius:int ->
  (int, unit) Hashtbl.t

(** [insert t name tup] / [delete t name tup] — apply the update and repair
    the maintained values. Returns the number of anchors re-evaluated. *)
val insert : t -> string -> int array -> int

val delete : t -> string -> int array -> int
