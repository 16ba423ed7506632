(** Query sessions: cross-query artifact caching and batched evaluation.

    A session binds an {!Foc_nd.Engine} to one structure and amortises the
    expensive, result-neutral artifacts across queries instead of
    rebuilding them per call:

    + {b prepared-structure artifacts} — neighbourhood covers (keyed by
      physical Gaifman graph and radius, so stratification strata that
      share the graph share the cover), Direct-sweep ball-cache contexts
      (keyed by structure and radius), and Hanf r-ball class partitions;
    + {b compiled sentences} — keyed by a canonical hash of the normalised
      AST ({!Foc_logic.Ast.Key}), storing the stratification output
      (materialised [$P] relations), locality certificates and
      cl-decompositions, so α-equivalent or repeated sentences skip
      straight to the cheap run of the compiled shell
      ({!Foc_nd.Engine.run_sentence}).

    Everything lives in the one store the session's engine keeps
    ({!Foc_nd.Artifact_store}, session scope), behind {e one} bounded
    memory budget with second-chance eviction. Caching is
    result-neutral by construction: [check s φ] always equals
    [Engine.check (engine s) (structure s) φ] on a fresh engine, for every
    budget, batch size and jobs setting.

    {!insert}/{!delete} keep the session sound under unit updates by
    evicting exactly the radius-affected artifacts (the invalidation logic
    of {!Foc_nd.Incremental}): a unary update preserves the Gaifman graph
    (and thus every cover) and rebinds ball contexts wholesale, while an
    edge update drops covers and Hanf partitions and rebinds ball contexts
    dropping only centres within the [2r+1] threshold of the touched
    elements.

    Sessions are single-domain objects: one domain drives the session;
    {!run_batch} parallelises {e across} queries internally with
    per-worker engines, each with its own worker store. *)

type t

type result = bool
(** Batch results are sentence truth values. *)

val create :
  ?budget_mb:int -> ?config:Foc_nd.Engine.config -> Foc_data.Structure.t -> t
(** [create ?budget_mb ?config a] — a session over [a]. [budget_mb]
    (default 256) bounds the artifact store; [<= 0] degenerates to a
    one-entry store. [config] is the engine configuration (default
    {!Foc_nd.Engine.default_config}). *)

val engine : t -> Foc_nd.Engine.t
(** The session's engine, which keeps the session's store. Calling it
    directly is fine — its entry points share the session's artifacts. *)

val structure : t -> Foc_data.Structure.t
(** The current structure (reflects {!insert}/{!delete}). *)

val version : t -> int
(** Number of updates applied since {!create} (or {!load}, which counts
    its WAL replay). Every {!insert}/{!delete} bumps it; open cursors are
    pinned to the version they were opened on. *)

val check : t -> Foc_logic.Ast.formula -> bool
(** Model-check a sentence, reusing every cached artifact and the compiled
    form of any α-equivalent sentence seen before. *)

val run_batch : ?jobs:int -> t -> Foc_logic.Ast.formula list -> result list
(** Evaluate a batch of sentences, sharing one artifact build across all
    of them. Phase 1 compiles each sentence sequentially (cache hits for
    repeats); phase 2 runs the compiled shells — sequentially for
    [jobs <= 1], else across [jobs] domains ({!Foc_par}) on worker
    engines, {!Foc_nd.Engine.fork}s of the session engine. A worker's
    store is seeded with the session store's covers and Hanf partitions,
    which are immutable and so shared; everything else it needs — ball
    contexts, statistics, a cover or partition the session lacks — it
    builds and memoises itself, and no mutable artifact is ever shared
    across domains. After the join, the session store adopts the covers,
    Hanf partitions and statistics the workers built, in worker order,
    keeping its own entry where both have one: repeating a batch builds
    no cover and no partition. [jobs] defaults to the
    engine config's [jobs]. Results are bit-identical for every [jobs]
    and equal to evaluating each sentence on a fresh engine. Worker
    counters land in {!metrics} directly, their misses included. *)

exception Expired
(** Raised by an {!enumerate} cursor's [next] after a write bumped the
    session {!version}: the cursor's preprocessed state describes the old
    snapshot, so continuing would serve stale answers. Re-open the cursor
    (with [?after] at the last seen tuple) to resume against the new
    version. *)

val enumerate :
  t ->
  ?limit:int ->
  ?after:int array ->
  Foc_logic.Query.t ->
  Foc_eval.Enum.cursor
(** Pull-based answer enumeration ({!Foc_nd.Engine.enumerate} through the
    session's cached artifacts): answers stream in ascending lexicographic
    head-tuple order, bit-identical to {!Foc_nd.Engine.run_query}. All
    preprocessing happens at open; the returned cursor is pinned to the
    current {!version} and its [next] raises {!Expired} once a write is
    applied. Sessions are single-domain: drive the cursor from the same
    domain that owns the session. *)

val insert : t -> string -> int array -> unit
(** [insert s r tup] adds a tuple and invalidates exactly the affected
    artifacts (see the module description). Raises [Not_found] for an
    unknown relation, [Invalid_argument] on an arity mismatch. *)

val delete : t -> string -> int array -> unit
(** Tuple removal, same invalidation contract as {!insert}. *)

val prewarm : ?radii:int list -> t -> unit
(** Build the expensive base-structure artifacts eagerly — Gaifman
    graph, planning statistics, and for each radius in [radii] (default
    [[1]]) the neighbourhood cover and Hanf class partition. This is
    what a cold engine would otherwise pay lazily on its first queries,
    and what {!save} persists. *)

val save : t -> dir:string -> version:int -> string
(** Snapshot the current structure and the cached base-structure
    artifacts (covers, Hanf partitions, statistics; ball contexts and
    compiled sentences rebuild lazily and are not persisted) into the
    store directory as version [version] ({!Foc_store.Store.save}:
    atomic write, older snapshots pruned). Returns the written path.
    Raises [Sys_error] on I/O failure. *)

type loaded = {
  session : t;
  version : int;  (** snapshot version + WAL records replayed *)
  snapshot_version : int;
  wal_replayed : int;
  wal_torn : bool;  (** a torn WAL tail was discarded during replay *)
}

val load :
  ?budget_mb:int ->
  ?config:Foc_nd.Engine.config ->
  dir:string ->
  unit ->
  (loaded, string) Stdlib.result
(** Restore a session from the newest valid snapshot of [dir]: the
    persisted Gaifman graph is installed into the structure's memo, the
    persisted artifacts are seeded into the store under fresh identity
    registrations, and the accompanying WAL's valid record prefix is
    replayed through {!insert}/{!delete} — i.e. through the same
    invalidation radii a live write takes, so every answer afterwards is
    bit-identical to a freshly built engine on the updated structure.
    [Error] (never an exception) on missing/corrupt stores; the caller
    falls back to a full rebuild. *)

val metrics : t -> Foc_obs.Metrics.t
(** The session engine's registry. Session counters:
    [session.compiled_hits]/[session.compiled_misses],
    [session.cover_hits]/[session.cover_misses],
    [session.ctx_hits]/[session.ctx_misses],
    [session.hanf_hits]/[session.hanf_misses],
    [session.stats_hits]/[session.stats_misses] (per-structure statistics
    for baseline-fallback join planning, {!Foc_stats}; the base
    structure's statistics are maintained incrementally across
    {!insert}/{!delete}); the lookups of {!run_batch}'s workers count in
    them too, hits and misses. [session.evictions] (budget-pressure
    evictions), [session.invalidated] (artifacts dropped by
    {!insert}/{!delete}), [session.balls_dropped] (cached balls
    invalidated inside rebound contexts). *)

val stats_line : t -> string
(** One logfmt line with all engine and session metrics
    ({!Foc_nd.Engine.stats_line} on the session engine). *)

val cached_artifacts : t -> int
(** Number of artifacts currently resident (diagnostic). *)

val cache_bytes : t -> int
(** Approximate bytes resident in the artifact store (diagnostic;
    recomputes dynamic entry sizes). *)
