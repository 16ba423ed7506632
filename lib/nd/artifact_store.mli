(** The one store of the per-structure artifacts the engine builds once
    and reuses for every count: the [(r, 2r)]-neighbourhood covers of
    §8.2 step 5, Direct-sweep ball contexts, Hanf type partitions,
    planning statistics for the baseline fallback, and a session's
    compiled sentences.

    Covers are keyed by (physical Gaifman graph, radius), so the
    stratification strata, which share their base's graph
    ({!Foc_data.Structure.expand}), share covers too; contexts, Hanf
    partitions and statistics by (physical structure, radius); compiled
    sentences by {!Foc_logic.Ast.Key} id, so α-variants share one entry.
    One registry of physical identities serves every key.

    There is one builder per kind, run under the store's metrics registry
    and the [artifact] phase of the current {!Foc_obs.Scope}. Every
    artifact is result-neutral: covers, partitions and statistics are
    deterministic functions of their structure, and a ball context only
    trades memory for time.

    A store has one of three scopes (see {!Engine}): {e call} (unbounded,
    counts nothing), {e session} (bounded by [budget_mb] with
    second-chance eviction, {!Budget_cache}; counts every lookup in
    [session.<kind>_hits]/[session.<kind>_misses] and evictions in
    [session.evictions]) and {e worker} ({!fork}). A store is a
    single-domain object. *)

open Foc_logic

type key =
  | KCover of int * int  (** graph id, cover radius *)
  | KCtx of int * int  (** structure id, term radius *)
  | KHanf of int * int  (** structure id, type radius *)
  | KStats of int  (** structure id *)
  | KCompiled of int  (** {!Foc_logic.Ast.Key.id} *)

type 'c value =
  | VCover of Foc_graph.Cover.t
  | VCtx of Foc_local.Pattern_count.ctx
  | VHanf of (string * int list) list
  | VStats of Foc_stats.Stats.t
  | VCompiled of { key : Ast.Key.t; comp : 'c; bytes : int }
      (** the canonical sentence, what it compiled to, a size estimate *)

type 'c t
(** A store whose compiled sentences are of type ['c]. *)

val create :
  ?budget_mb:int ->
  ?cache_bytes:int ->
  registry:Foc_obs.Metrics.t ->
  preds:Pred.collection ->
  jobs:int ->
  unit ->
  'c t
(** Builders record into [registry], evaluate [preds], refine Hanf types
    on [jobs] domains and bound each ball context by [cache_bytes]
    ({!Foc_local.Pattern_count.make_ctx}'s default if omitted). With
    [budget_mb] (MiB; [<= 0] keeps one entry) a session store, which
    registers the [session.*] counters; without, a call store. *)

(** {1 Lookups}

    Each returns the stored artifact, or builds, stores and returns it. *)

val cover : 'c t -> Foc_data.Structure.t -> rc:int -> Foc_graph.Cover.t
val ctx : 'c t -> Foc_data.Structure.t -> r:int -> Foc_local.Pattern_count.ctx

val hanf : 'c t -> Foc_data.Structure.t -> r:int -> (string * int list) list
(** [Foc_bd.Hanf.classes a ~r], counted in [engine.hanf_partitions_built] *)

val stats : 'c t -> Foc_data.Structure.t -> Foc_stats.Stats.t

val compiled : 'c t -> Ast.formula -> build:(Ast.formula -> 'c * int) -> 'c
(** A miss calls [build] on the canonical representative of the
    sentence's α-class; it returns the compiled sentence and its size in
    bytes. *)

val build_cover : Foc_data.Structure.t -> rc:int -> Foc_graph.Cover.t
(** The cover builder, also for covers no store keeps (the splitter
    recursion's): [Foc_graph.Cover.make (gaifman a) ~r:rc] under a
    [cover] span, counted in [engine.covers_built] of the current
    registry. *)

(** {1 Workers} *)

val fork : 'c t -> 'c t
(** A worker store for another domain: unbounded, seeded with the covers
    and Hanf partitions of the given store (immutable, so shared), with a
    copy of its identity registry and its counters. It memoises its own
    misses. *)

val adopt : into:'c t -> 'c t -> unit
(** [adopt ~into w] moves the covers, Hanf partitions and statistics of
    the worker [w] that [into] lacks into [into], re-keyed through
    [into]'s registry. Ball contexts stay behind: a context records into
    the metric shards of the domain that built it. Call it once the
    worker's domain is done. *)

(** {1 Raw access, for a session's policy} *)

val structure_id : 'c t -> Foc_data.Structure.t -> int
val graph_id : 'c t -> Foc_graph.Graph.t -> int
(** The id of a physical object, minted on first sight. *)

val prune : 'c t -> unit
(** Forget the objects no key references; one that resurfaces gets a
    fresh id, which no stale key can match. *)

val insert : 'c t -> key -> 'c value -> unit
val remove : 'c t -> key -> unit
(** An invalidation, not an eviction. *)

val fold : 'c t -> init:'a -> f:(key -> 'c value -> 'a -> 'a) -> 'a
val length : 'c t -> int

val bytes : 'c t -> int
(** Approximate resident bytes; re-sizes every entry. *)
