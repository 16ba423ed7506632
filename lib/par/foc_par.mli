(** Multicore parallel evaluation layer.

    The engine's hot loops are per-element sweeps (Theorem 5.5 is a
    per-element algorithm): the Direct back-end explores one ball per
    anchor, the Cover back-end evaluates one induced substructure per
    cluster, the Hanf back-end canonicalises one r-ball per element — all
    embarrassingly parallel. This module runs such sweeps on a fixed-size
    pool of OCaml 5 [Domain]s (raw [Domain] + [Mutex]/[Condition]; no
    external dependencies).

    {b Determinism.} Every combinator is deterministic: ranges are split
    into chunks by index and partial results are combined in chunk-index
    order (within a chunk, in element order). With an associative [reduce]
    the result is bit-identical to the sequential fold for every [jobs]
    setting — the engine's invariant [parallel(jobs=k) ≡ sequential] that
    [test/test_par.ml] checks.

    {b Sequential path.} [jobs <= 1] never touches the pool: the exact
    sequential loop runs in the calling domain. Calls nested inside a
    running task also degrade to sequential, so accidental nesting cannot
    deadlock the pool.

    {b Thread-safety contract.} The function passed to a combinator runs
    concurrently in several domains; it must not mutate state shared
    between iterations. Per-domain mutable state (caches, counters) goes
    through the [make_ctx] variants: each worker domain lazily creates its
    own context. Counters need no merging: every task runs with the
    submitter's {!Foc_obs.Metrics.current} registry in scope, and the
    registry shards per domain. *)

(** Number of executors to use by default: the [FOC_JOBS] environment
    variable when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()]. [1] on single-core machines, so
    everything stays on the exact sequential path there. *)
val default_jobs : unit -> int

(** [Domain.recommended_domain_count ()]. *)
val recommended_jobs : unit -> int

(** [parallel_for ~jobs n f] runs [f i] for every [i] in [0..n-1] on up to
    [jobs] executors (the calling domain plus [jobs - 1] pool workers).
    [f] must only write to iteration-private locations (e.g. slot [i] of a
    result array). [?chunks] overrides the number of work chunks (default
    scales with [jobs]); it never affects results. Exceptions raised by
    [f] are re-raised in the caller after the batch drains.

    [?label] names the sweep for tracing: when given and {!Foc_obs} tracing
    is enabled, each chunk (or the whole loop on the sequential path) is
    recorded as a span in the executing domain's buffer — this is how
    per-domain sweep activity shows up in exported traces. It never
    affects results; without a label there is no overhead at all. *)
val parallel_for :
  jobs:int -> ?chunks:int -> ?label:string -> int -> (int -> unit) -> unit

(** [tabulate ~jobs n f] is [Array.init n f] computed in parallel. [f]
    must be safe to call concurrently from several domains. *)
val tabulate :
  jobs:int -> ?chunks:int -> ?label:string -> int -> (int -> 'a) -> 'a array

(** [tabulate_ctx ~jobs ~make_ctx n f] is
    [Array.init n (f ctx)] where each executor uses its own lazily-created
    context [make_ctx ()] — the hook for per-domain mutable caches (e.g.
    {!Foc_local.Pattern_count} ball tables). At most one context is made
    per executor. *)
val tabulate_ctx :
  jobs:int ->
  ?chunks:int ->
  ?label:string ->
  make_ctx:(unit -> 'c) ->
  int ->
  ('c -> int -> 'a) ->
  'a array

(** [map_reduce ~jobs ~n ~map ~reduce init] is
    [fold_left (fun acc i -> reduce acc (map i)) init (0..n-1)] with the
    maps run in parallel. [reduce] must be associative; chunk partials are
    folded in chunk-index order, so the result is then identical to the
    sequential fold for every [jobs]/[chunks] setting. *)
val map_reduce :
  jobs:int ->
  ?chunks:int ->
  ?label:string ->
  n:int ->
  map:(int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  'a ->
  'a

(** [map_reduce_ctx] — {!map_reduce} with a per-executor context, as in
    {!tabulate_ctx}. *)
val map_reduce_ctx :
  jobs:int ->
  ?chunks:int ->
  ?label:string ->
  make_ctx:(unit -> 'c) ->
  n:int ->
  map:('c -> int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  'a ->
  'a

(** Number of worker domains currently alive in the pool (diagnostic). *)
val pool_size : unit -> int

(** Stop and join all pool workers. Called automatically [at_exit]; safe
    to call repeatedly — the pool respawns workers on the next parallel
    call. *)
val shutdown : unit -> unit
