(** The main evaluation engine — the algorithm of Theorem 5.5 / Lemma 5.7
    (Section 8.2 of the paper), assembled from the pieces of Sections 6–8:

    + {b stratification} by #-depth (Theorem 6.10): innermost numerical
      conditions [P(t̄)] with at most one free variable are evaluated for
      all elements simultaneously and materialised as fresh unary/0-ary
      relation symbols, exactly like the interpretations [ι_i(R)] of the
      decomposition sequence;
    + {b locality certification} ({!Foc_local.Locality}) of the remaining
      FO⁺ kernels and their {b cl-decomposition} (Lemma 6.4) into
      polynomials of connected local terms — one step,
      {!Foc_local.Decompose.localize}, which {!Plan} reports from too;
    + {b cl-term evaluation} by the one evaluator of
      {!Foc_local.Clterm}, around the basic-term sweep of a selectable
      back-end ({!Foc_local.Clterm.sweep}):
      - [Direct] — per-element neighbourhood exploration (Remark 6.3);
      - [Cover] — cluster sweep over an [(s, 2s)]-neighbourhood cover
        (Section 8.2, step 5), see {!Foc_local.Cover_term};
      - [Splitter] — cover sweep plus the removal-lemma recursion driven by
        the splitter game (Section 8.2 steps 5a–e), see
        {!Splitter_backend};
      - [Hanf] — one evaluation per r-ball isomorphism class, see
        {!Hanf_backend}.

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

val create : ?config:config -> ?budget_mb:int -> unit -> t
(** A plain engine, or with [budget_mb] one that keeps a session store
    bounded by that many MiB (see {!section-store}). *)

val stats : t -> stats
val config : t -> config

val fork : t -> t
(** A sibling engine for another domain: the same configuration (minus
    the trace file, which the original exports), the same metrics
    registry, its own planner state, and a worker store
    ({!Artifact_store.fork}) seeded from the original's kept store, if it
    keeps one. Its counters land in
    the original's {!stats} with no merge step — this is how
    {!Foc_serve.Session} runs worker engines in a parallel batch. *)

val metrics : t -> Foc_obs.Metrics.t
(** The engine's metrics registry, put in scope
    ({!Foc_obs.Metrics.with_current}) by every entry point so ball
    contexts, cluster sweeps and the splitter recursion record into it
    directly, on {!Foc_par} workers too. Counter glossary:
    [engine.materialised], [engine.clterms_built], [engine.basic_terms],
    [engine.fallbacks], [engine.covers_built],
    [engine.hanf_partitions_built], [hanf.elements] and
    [hanf.canonicalised] (elements partitioned, exact ball keys computed
    for them), [engine.removals],
    [ball.computed], [ball.cache_hits], [ball.cache_evictions],
    [bfs.visited]; gauges [ball.cache_peak_entries],
    [ball.cache_peak_bytes], [trace.dropped_events] (spans the trace ring
    overwrote, {!Foc_obs.Trace.dropped_events}; set at the end of each
    traced entry point). A basic-term sweep is timed by its [sweep] span. *)

val stats_line : t -> string
(** All metrics as one logfmt line ({!Foc_obs.Metrics.line}) — the shared
    emitter behind the CLI's and bench's [# stats:] output, so new
    counters cannot drift out of the printout. *)

(** [check t a φ] — model-checking for sentences ([free φ = ∅]): by
    definition [run_sentence t (compile_sentence t a φ)], under one
    call store. *)
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

(** [run_query t a q] — full query results (Definition 5.2), sorted by
    head tuple: the drained {!enumerate} cursor, so both entry points
    select the same producer. *)
val run_query :
  t -> Foc_data.Structure.t -> Query.t -> (int array * int array) list

(** [enumerate t a q] — the answers of [q] as a pull-based cursor
    ({!Foc_eval.Enum.cursor}) in ascending lexicographic order of the head
    tuple. Producer selection:
    - an empty head yields its 0/1 answer directly (["ground"]);
    - a single-variable head runs the localized per-element sweep once,
      then emits with O(1) delay (["unary"]);
    - a head of two or more variables is, on every route, one counted
      fallback (strict mode raises {!Outside_fragment}): the paper answers
      such queries per tuple (Theorem 5.5), enumerating them is its open
      problem (3). A conjunctive body (relation, equality and distance
      atoms and their negations) runs the {!Foc_eval.Leapfrog} kernel
      lazily over sorted per-atom tables (["walk"]); any other body —
      disjunction, quantifiers, numerical predicates — is planned by
      {!Foc_eval.Relalg.head_search}: the join plan's prefix is
      materialised, its last join streams in head order (["table"]).

    Head terms of a wider head are evaluated per emitted row: each is
    compiled once per open ({!Foc_local.Local_eval.compile_term}) over its
    free head variables and memoised per distinct argument tuple. A term
    over at most one head variable keeps the engine's compiled tree
    ({!compile_query}): its steps and its kernels without that variable
    run once, and its anchored kernels count their fallbacks; a term over
    several head variables is never a fallback.

    [?limit] caps the answer count; [?after] (a head tuple) resumes
    strictly after it. Preprocessing happens before the cursor is
    returned — [next] never touches engine artifacts, so the cursor stays
    valid as long as the structure is unchanged. *)
val enumerate :
  t ->
  Foc_data.Structure.t ->
  ?limit:int ->
  ?after:int array ->
  Query.t ->
  Foc_eval.Enum.cursor

(** {1 The compiled tree}

    Every entry point above compiles its expression into this tree and
    runs it; {!Plan} prints the same tree. Compiling reads the
    configuration but no structure: stratification (Theorem 6.10) turns
    each numerical condition with at most one free variable into a
    {!step} materialising a fresh [$P] relation (one over two or more
    raises {!Outside_fragment} before any sweep runs), and each counting
    kernel gets its {!Foc_local.Decompose.localize} route. Running
    materialises the steps innermost first, each over the structure its
    predecessors expanded, and evaluates a kernel — on the back-end, or on
    the counted baseline fallback — only when evaluation reaches it, so
    the ∧/∨ of a sentence still short-circuit. *)

type kernel = {
  ys : Var.t list;  (** the counted variables *)
  anchor : Var.t option;  (** the free variable of a per-element kernel *)
  body : Ast.formula;  (** stratified: no numerical predicate left *)
  route : (int * Foc_local.Clterm.t, string) result;
      (** radius and cl-term, or why the baseline answers *)
}

type term =
  | Const of int
  | Sum of term * term
  | Prod of term * term
  | Count of step list * kernel
      (** the steps of the kernel's body, then the kernel over the
          structure they expanded *)

and step = {
  name : string;  (** the fresh relation, unique per engine *)
  var : Var.t option;  (** its free variable: unary, or 0-ary if [None] *)
  pred : string;
  args : term list;  (** per-element when [var] is set, else ground *)
}

(** The ¬/∧/∨ shell of a sentence; each maximal [∃ȳ] block is the
    kernel [#ȳ.θ ≥ 1] (a [∀] is [¬∃¬]). *)
type shell =
  | Truth of bool
  | Rel0 of string
  | Not of shell
  | Both of shell * shell
  | Either of shell * shell
  | Exists of kernel

type body =
  | Sentence of (step list * shell)
  | Unary of (step list * kernel)
      (** the 0-counted indicator [#().φ] anchored at the free variable *)
  | Wide  (** a query head of two or more variables: one fallback *)

(** A query's body and, per head term, its compiled tree — or [None] for a
    term over two or more head variables, which is evaluated per row. *)
type query = { body : body; heads : term option list }

val compile_term : t -> Var.t option -> Ast.term -> term
(** [compile_term t x term] — as {!eval_ground} ([x = None]) or
    {!eval_unary} reads [term]. *)

val compile_formula : t -> Var.t option -> Ast.formula -> body
(** As {!check} ([None]) or {!holds_unary} reads a formula. *)

val compile_query : t -> Query.t -> query
(** As {!enumerate} reads a query. *)

(** {1 Compiled sentences}

    {!check} split into a reusable prefix and a cheap suffix.
    {!compile_sentence} compiles the sentence and runs its steps — the
    inner counting-term sweeps that materialise the fresh [$P] relations,
    the dominant amortizable cost; {!run_sentence} runs only the shell.
    A compiled sentence can be re-run any number of times. It stays valid
    while [a] is semantically unchanged; {!Foc_serve.Session} tracks
    invalidation under updates. *)

type compiled

val compile_sentence : t -> Foc_data.Structure.t -> Ast.formula -> compiled
val run_sentence : t -> compiled -> bool

val compiled_structure : compiled -> Foc_data.Structure.t
(** The stratification-expanded structure the compiled shell runs
    against (needed by session layers for artifact keying, concurrent
    preparation, and invalidation bookkeeping). *)

(** {1:store The artifact store}

    Every artifact — cover, ball context, Hanf partition, planning
    statistics — comes from one {!Artifact_store}, in one of three
    scopes:
    - {b call}: a plain engine opens an unbounded store at each
      entry-point call and drops it on return, so one evaluation builds
      each artifact once (the strata of a stratified term share the
      covers of its base) and separate calls share nothing;
    - {b session}: an engine created with [budget_mb] keeps one store,
      bounded by that budget, for every call; {!Foc_serve.Session} owns
      such an engine and keeps its compiled sentences there too;
    - {b worker}: a {!fork} of such an engine keeps a store seeded with
      the session store's covers and Hanf partitions and memoises its
      own misses; {!Artifact_store.adopt} hands the covers, partitions
      and statistics among them back to the session store.

    The scope changes time and memory, never an answer. *)

val store : t -> compiled Artifact_store.t option
(** The store the engine keeps: its session or worker store, [None] for
    a plain engine between calls. *)

