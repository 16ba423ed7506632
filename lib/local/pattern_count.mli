(** Counting tuples that realise a fixed connectivity pattern — the
    evaluation primitive for basic cl-terms (Remark 6.3 of the paper).

    A tuple ā realises pattern [G] (at closeness threshold [2r+1]) if
    [dist(a_i, a_j) ≤ 2r+1] exactly for the pattern's edges; this is the
    semantics of the formula δ_{G,2r+1}. For a *connected* pattern the whole
    tuple lives in the ball of radius [(k−1)(2r+1)] around its first
    element, so the count can be computed by per-element neighbourhood
    exploration — the source of the engine's near-linear behaviour on
    sparse structures.

    Balls are computed by a reusable allocation-free BFS arena
    ({!Foc_graph.Bfs.searcher}) and stored {e compactly} — a sorted
    [int array] with binary-search membership, or a bitset when the ball
    covers a large fraction of the universe — behind a capacity-bounded
    cache with second-chance eviction, so huge structures no longer retain
    O(n·ball) memory. Counts are bit-identical for every cache capacity.

    The cache is a dense table ({!Ball_cache}): a ball array indexed by
    centre, one state byte per centre (absent, resident, referenced) and
    an int ring of the resident centres in insertion order, which the
    evictor walks. The table is allocated when the context computes its
    first ball, so a context whose sweeps only seek (every position
    indexed) allocates none. Sweeping an anchor allocates nothing but the
    balls it computes: the levels run as one top-level recursion, seek
    candidates are read by index from the scratch's buffer stack, sorted
    balls by index and bitset balls by {!Foc_util.Bitset.next}.

    [body] is compiled by {!Local_eval}, so its guarded quantifiers also
    stay inside balls. *)

open Foc_logic

(** A reusable context holding the BFS arena and the bounded cache of
    (2r+1)-balls computed while sweeping a structure. *)
type ctx

(** [make_ctx ?cache_bytes preds a ~r] — [cache_bytes] bounds the memory
    retained by cached balls (approximate heap bytes; default 64 MiB).
    Values [<= 0] degenerate to a one-entry cache: the most recently
    computed ball is always retained, everything else is evicted.

    The context records its ball counters ([ball.computed],
    [ball.cache_hits], [ball.cache_evictions], [bfs.visited]; peak gauges
    [ball.cache_peak_entries], [ball.cache_peak_bytes]) into the
    {!Foc_obs.Metrics.current} registry of the calling domain, resolved
    once here; use a context on the domain that made it. *)
val make_ctx :
  ?cache_bytes:int -> Pred.collection -> Foc_data.Structure.t -> r:int -> ctx

(** Approximate bytes currently retained by the ball cache: the resident
    balls (what eviction weighs against the capacity) plus the table
    itself once allocated. *)
val cache_resident_bytes : ctx -> int

(** [rebind_ctx ctx a' ~drop] — re-point the context at an updated
    structure of the same order, keeping every cached ball except those
    whose centre satisfies [drop] (the caller supplies the invalidation
    predicate: nothing for unary updates, centres within the [2r+1]
    threshold of the touched elements for edge updates). Returns the new
    context and the number of balls dropped; the old context must not be
    used afterwards. *)
val rebind_ctx :
  ctx -> Foc_data.Structure.t -> drop:(int -> bool) -> ctx * int

(** Order of the underlying structure. *)
val order : ctx -> int

(** The structure and predicate collection the context sweeps. *)
val structure : ctx -> Foc_data.Structure.t

val preds : ctx -> Pred.collection

(** A per-sweep evaluation plan: the pattern's BFS placement order, the
    pairwise-closeness facts entailed by the body, and the body compiled
    once by {!Local_eval.stage} — each conjunct tested at the first
    placement level where all its variables are placed (a conjunct on the
    anchor alone, such as [R(x)], rejects an anchor before any ball is
    computed), each position's candidates from an indexed body atom when
    one applies, else from its parent's ball. The plan is immutable and
    may be shared by the domains of a parallel sweep; it is bound to the
    context's structure. Compiling runs under a [plan] span. *)
type plan

val make_plan :
  ctx ->
  pattern:Foc_graph.Pattern.t ->
  vars:Var.t list ->
  body:Ast.formula ->
  plan

(** [per_anchor ctx ~pattern ~vars ~body] — for each element [a], the number
    of tuples [(a, a_2, …, a_k)] that realise [pattern] exactly (position 0
    = anchor) and satisfy [body] under [vars ↦ tuple]. [pattern] must be
    connected and non-empty; [free body ⊆ vars].

    [jobs > 1] sweeps the anchors on that many domains ({!Foc_par}); each
    domain uses a private ball-cache/arena/scratch clone of [ctx] that
    records into [ctx]'s registry, and the result is bit-identical to
    [jobs = 1]. *)
val per_anchor :
  ?jobs:int ->
  ctx ->
  pattern:Foc_graph.Pattern.t ->
  vars:Var.t list ->
  body:Ast.formula ->
  int array

(** [at ctx plan anchor] — the count for a single anchor element (used by
    the cluster sweep of Section 8.2, which only needs the kernel elements
    of each cluster, by Hanf's class representatives and by incremental
    updates). [plan] must come from [make_plan] on [ctx] or on a context
    over the same structure. *)
val at : ctx -> plan -> int -> int
