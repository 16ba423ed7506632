(** The main evaluation engine — the algorithm of Theorem 5.5 / Lemma 5.7
    (Section 8.2 of the paper), assembled from the pieces of Sections 6–8:

    + {b stratification} by #-depth (Theorem 6.10): innermost numerical
      conditions [P(t̄)] with at most one free variable are evaluated for
      all elements simultaneously and materialised as fresh unary/0-ary
      relation symbols, exactly like the interpretations [ι_i(R)] of the
      decomposition sequence;
    + {b locality certification} ({!Foc_local.Locality}) of the remaining
      FO⁺ kernels;
    + {b cl-decomposition} (Lemma 6.4, {!Foc_local.Decompose}) of counting
      kernels into polynomials of connected local terms;
    + {b basic-term evaluation} through a selectable back-end:
      - [Direct] — per-element neighbourhood exploration (Remark 6.3);
      - [Cover] — cluster sweep over an [(s, 2s)]-neighbourhood cover
        (Section 8.2, step 5);
      - [Splitter] — cover sweep plus the removal-lemma recursion driven by
        the splitter game (Section 8.2 steps 5a–e), see
        {!Splitter_backend}.

    Inputs outside the supported fragment (see DESIGN.md §2.2) fall back to
    the {!Foc_eval.Relalg} baseline; every fallback is counted in
    {!stats}, so experiments can verify that the benchmark workloads are
    really exercised by the localized code path.

    Sentences with a quantifier prefix are decided through counting:
    [∃x̄ θ] holds iff the ground cl-term for [#x̄.θ] evaluates ≥ 1 — the
    same reduction the paper uses for basic local sentences (Theorem 6.8). *)

open Foc_logic

type backend =
  | Direct
  | Cover
  | Splitter of { max_rounds : int; small : int }
      (** recursion depth of the splitter game and the order below which
          clusters are evaluated directly *)
  | Hanf
      (** group elements by r-ball isomorphism type and evaluate once per
          class — the bounded-degree strategy of the paper's predecessor
          \[16\] (see {!Foc_bd.Hanf}) *)

type config = {
  preds : Pred.collection;
  backend : backend;
  max_width : int;  (** counting-arity cap for pattern enumeration *)
  max_blocks : int;  (** Shannon-expansion budget of the FV split *)
  allow_fallback : bool;
      (** when false, out-of-fragment inputs raise {!Outside_fragment}
          instead of silently using the baseline *)
  jobs : int;
      (** number of domains used for the independent sweeps of the
          [Direct], [Cover] and [Hanf] back-ends ({!Foc_par}); [1] is the
          exact sequential path, and every setting returns bit-identical
          counts *)
  ball_cache_mb : int;
      (** memory bound (MiB) of each ball cache
          ({!Foc_local.Pattern_count.make_ctx}); [<= 0] degenerates to a
          one-entry cache. Counts are bit-identical for every setting —
          only memory and time change *)
  trace_file : string option;
      (** when set, {!create} enables {!Foc_obs.Trace} and every public
          entry point exports the accumulated phase spans to this path as
          Chrome trace_event JSON (chrome://tracing / Perfetto) on
          completion. [None] (the default) records nothing and costs one
          atomic read per would-be span. Never affects results *)
  stats_buckets : int;
      (** equi-depth histogram resolution of the statistics
          ({!Foc_stats}) fed to baseline-fallback join planning; [<= 0]
          disables summaries (distinct counts and row counts remain).
          Never affects results *)
  adaptive : bool;
      (** when true (the default), baseline fallbacks compare the
          planner's predicted join cardinalities against the actual ones
          and re-plan repeated conjunctions whose estimates were off by
          more than 8x (see {!Foc_eval.Relalg.make_ctx}). Never affects
          results *)
}

val default_config : config
(** standard predicates, [Direct] back-end, width 4, fallback allowed,
    [jobs = Foc_par.default_jobs ()], [ball_cache_mb = 64], no trace
    file. *)

(** A point-in-time view of the engine's counters: they live in the
    engine's {!Foc_obs.Metrics} registry (see {!metrics}), and [stats]
    reads them into a fresh record on each call, summed over every domain
    that recorded (pool workers included). Mutating the returned record
    has no effect on the engine. *)
type stats = {
  mutable materialised : int;  (** fresh relations created (Theorem 6.10) *)
  mutable clterms_built : int;
  mutable basic_terms : int;
  mutable fallbacks : int;  (** kernels evaluated by the baseline *)
  mutable covers_built : int;
  mutable removals : int;  (** removal-lemma recursion steps *)
  mutable balls_computed : int;
      (** ball BFS computations (cache misses), summed over all contexts *)
  mutable ball_cache_hits : int;
  mutable ball_cache_evictions : int;
  mutable ball_cache_peak_entries : int;
      (** max balls resident in any one evaluation's caches *)
  mutable ball_cache_peak_bytes : int;
      (** max approximate bytes resident in any one evaluation's caches *)
  mutable bfs_visited : int;  (** total vertices visited by ball BFS runs *)
}

exception Outside_fragment of string

type t

val create : ?config:config -> unit -> t
val stats : t -> stats
val config : t -> config

val fork : t -> t
(** A sibling engine for another domain: the same configuration (minus
    the trace file, which the original exports) and the same metrics
    registry, with its own artifact hooks and planner state. Its counters
    land in the original's {!stats} with no merge step — this is how
    {!Foc_serve.Session} runs worker engines in a parallel batch. *)

(** {1 Artifact injection}

    Expensive per-structure artifacts — neighbourhood covers, ball-cache
    contexts, Hanf class partitions — are obtained through replaceable
    hooks. With no hooks installed, every public entry point installs a
    {e per-call} memo (covers keyed by physical Gaifman graph and radius,
    contexts by structure and radius), which already deduplicates the
    cover the Direct and Cover paths used to rebuild at both cl-term call
    sites of one evaluation. A session layer ({!Foc_serve.Session})
    installs cross-query hooks instead. All artifacts are result-neutral:
    injection can never change counts, only time and memory. *)

type artifacts = {
  art_cover : Foc_data.Structure.t -> rc:int -> Foc_graph.Cover.t;
      (** must return [Foc_graph.Cover.make (gaifman a) ~r:rc] (memoised
          however the provider likes) *)
  art_ctx :
    (Foc_data.Structure.t -> r:int -> Foc_local.Pattern_count.ctx) option;
      (** a context for Direct sweeps over the given structure at the given
          radius; may be long-lived. It records into the registry that
          was in scope when it was made ({!make_pattern_ctx} uses this
          engine's) *)
  art_hanf :
    (Foc_data.Structure.t -> tr:int -> (string * int list) list) option;
      (** must return [Foc_bd.Hanf.classes a ~r:tr] *)
  art_stats : (Foc_data.Structure.t -> Foc_stats.Stats.t) option;
      (** statistics for baseline-fallback join planning; must describe
          the structure's {e current} contents (collected fresh,
          incrementally maintained, or cached per version). [None] makes
          the engine collect and memoise its own *)
}

val set_artifacts : t -> artifacts option -> unit
(** Install (or clear) cross-call artifact hooks. While hooks are
    installed the per-call memo is not used. *)

val make_cover : t -> Foc_data.Structure.t -> rc:int -> Foc_graph.Cover.t
(** Build a cover the way the engine would (span + [engine.covers_built]
    counter) — the raw builder artifact providers should delegate to. *)

val make_pattern_ctx :
  t -> Foc_data.Structure.t -> r:int -> Foc_local.Pattern_count.ctx
(** Fresh Direct-sweep context with this engine's ball-cache budget,
    recording into this engine's {!metrics}. *)

val metrics : t -> Foc_obs.Metrics.t
(** The engine's metrics registry, put in scope
    ({!Foc_obs.Metrics.with_current}) by every entry point so ball
    contexts, cluster sweeps and the splitter recursion record into it
    directly, on {!Foc_par} workers too. Counter glossary:
    [engine.materialised], [engine.clterms_built], [engine.basic_terms],
    [engine.fallbacks], [engine.covers_built], [engine.removals],
    [ball.computed], [ball.cache_hits], [ball.cache_evictions],
    [bfs.visited]; gauges [ball.cache_peak_entries],
    [ball.cache_peak_bytes]; histogram [sweep.ns] (per-sweep wall time in
    nanoseconds, fed only when {!Foc_obs.timing_enabled}). *)

val stats_line : t -> string
(** All metrics as one logfmt line ({!Foc_obs.Metrics.line}) — the shared
    emitter behind the CLI's and bench's [# stats:] output, so new
    counters cannot drift out of the printout. *)

(** [check t a φ] — model-checking for sentences ([free φ = ∅]). *)
val check : t -> Foc_data.Structure.t -> Ast.formula -> bool

(** [eval_ground t a term] — value of a ground counting term. *)
val eval_ground : t -> Foc_data.Structure.t -> Ast.term -> int

(** [eval_unary t a x term] — values of a term with single free variable [x]
    at every element simultaneously (the strengthened form of Lemma 5.7 the
    paper proves). *)
val eval_unary : t -> Foc_data.Structure.t -> Var.t -> Ast.term -> int array

(** [holds_unary t a x φ] — truth of a formula with single free variable [x]
    at every element. *)
val holds_unary : t -> Foc_data.Structure.t -> Var.t -> Ast.formula -> bool array

(** [check_tuple t a q ā] — Theorem 5.5: decide [A ⊨ ϕ(ā)] and compute the
    head-term values. Uses the free-variable elimination of Section 5. *)
val check_tuple :
  t -> Foc_data.Structure.t -> Query.t -> int array -> (bool * int array) option

(** [run_query t a q] — full query results (Definition 5.2). Heads with at
    most one variable run on the localized engine; wider heads enumerate
    candidate tuples from the baseline body table and run {!check_tuple} on
    each (the paper's algorithm is per-tuple; constant-delay enumeration on
    nowhere dense classes is its open problem (3)). Results sorted by head
    tuple. *)
val run_query :
  t -> Foc_data.Structure.t -> Query.t -> (int array * int array) list

(** [enumerate t a q] — the answers of {!run_query} as a pull-based cursor
    ({!Foc_eval.Enum.cursor}), bit-identical in content and order
    (ascending lexicographic on the head tuple) but produced lazily.
    Producer selection: empty heads yield their 0/1 answer directly;
    single-variable heads run the localized per-element sweep once and
    then emit with O(1) delay; wider heads over conjunctive bodies
    (conjunctions of relation/equality/distance atoms) run a backtracking
    leapfrog join over sorted per-atom tables with binary-search seeks
    (bounded per-answer delay, no output materialisation); anything else
    materialises the planned body table and streams it. [?limit] caps the
    answer count; [?after] (a head tuple) resumes strictly after it.
    Preprocessing happens before the cursor is returned — [next] never
    touches engine artifacts, so the cursor stays valid as long as the
    structure is unchanged. *)
val enumerate :
  t ->
  Foc_data.Structure.t ->
  ?limit:int ->
  ?after:int array ->
  Query.t ->
  Foc_eval.Enum.cursor

(** {1 Compiled sentences}

    {!check} split into a reusable prefix and a cheap suffix.
    {!compile_sentence} runs stratification (including the inner
    counting-term sweeps that materialise the fresh [$P] relations — the
    dominant amortizable cost), locality certification and
    cl-decomposition once; {!run_sentence} replays only the final
    skeleton, whose quantifier blocks evaluate their pre-decomposed
    cl-terms (or the recorded baseline fallback).
    [run_sentence t (compile_sentence t a φ) = check t a φ], and a
    compiled sentence can be re-run any number of times. It stays valid
    while [a] is semantically unchanged; {!Foc_serve.Session} tracks
    invalidation under updates. *)

type compiled

val compile_sentence : t -> Foc_data.Structure.t -> Ast.formula -> compiled
val run_sentence : t -> compiled -> bool

val compiled_structure : compiled -> Foc_data.Structure.t
(** The stratification-expanded structure the compiled skeleton runs
    against (needed by session layers for artifact keying, concurrent
    preparation, and invalidation bookkeeping). *)
