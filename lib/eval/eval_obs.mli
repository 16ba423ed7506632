(** Observability for the relational-algebra baseline: one process-wide
    {!Foc_obs.Metrics} registry fed by the columnar {!Table} kernels and the
    {!Relalg} conjunction planner.

    The counters never change an evaluation result — they exist so tests and
    the E13 benchmark can verify planner behaviour (e.g. that negation in
    conjunctive context is compiled into anti-joins and {e never} into a
    full [n^k] complement).

    Any domain may record: session batches run baseline fallbacks on
    {!Foc_par} workers. The registry shards per domain like every
    {!Foc_obs.Metrics} registry, so readers see the sum over domains, and
    the plan rings are appended under a lock. {!reset} swaps in a fresh
    registry so a benchmark or test can measure a single run without
    interference; call it while no evaluation is running. *)

(** Drop all counters (fresh registry). *)
val reset : unit -> unit

(** {2 Recording (called by the kernels; not for users)} *)

val note_table : rows:int -> words:int -> unit
val note_join : build:int -> probe:int -> unit
val note_semijoin : unit -> unit
val note_antijoin : unit -> unit
val note_complement : rows:int -> unit
val note_complement_avoided : unit -> unit
val note_selection_pushed : unit -> unit
val note_division : unit -> unit
val note_neg_extension : unit -> unit
val note_neg_complement : unit -> unit

(** [note_op_card ~est ~actual] — one planned operator (join or anti-join)
    produced [actual] rows where the planner predicted [est] (saturated
    into the [planner.est_rows]/[planner.actual_rows] counters). *)
val note_op_card : est:float -> actual:int -> unit

(** A conjunction was re-planned with observed selectivities. *)
val note_replan : unit -> unit

(** An {!Enum} cursor was opened ([enum.cursors_opened]). *)
val note_cursor_opened : unit -> unit

(** [note_enum_row ~delay_ns] — a cursor yielded one answer after
    [delay_ns] nanoseconds spent inside [next] (counter [enum.rows],
    histogram [enum.delay.ns]). *)
val note_enum_row : delay_ns:int -> unit

(** [note_enum_first ~ns] — time from cursor creation to its first yielded
    row, including producer preprocessing (histogram [enum.ttfr.ns]). *)
val note_enum_first : ns:int -> unit

(** [note_plan_error ~ratio] — worst per-step estimation error ratio of a
    finished plan (gauge [planner.err_max_x100], peak-tracked). *)
val note_plan_error : ratio:float -> unit

(** Record the join order a [plan_and] chose (diagnostic ring, last 64). *)
val note_plan_order : int list -> unit

(** [note_plan_exec ~order ~steps ~replanned] — one executed conjunction
    plan: its join order, each executed join step's (predicted, actual)
    output rows in execution order, and whether the order came from the
    adaptive feedback loop re-planning an earlier misestimate. Ring of the
    last 64, sequence-numbered so a caller can ask for the plans recorded
    during one evaluation ({!plans_since}). *)
val note_plan_exec :
  order:int list -> steps:(float * int) list -> replanned:bool -> unit

(** {2 Reading} *)

val tables_built : unit -> int

(** Total rows materialised across all tables built since {!reset}. *)
val rows_built : unit -> int

val joins : unit -> int

(** Rows on the build (hash-indexed) side of every join — with the
    cardinality-guided build-side choice this is the sum of the {e smaller}
    operand sizes. *)
val join_build_rows : unit -> int

val join_probe_rows : unit -> int
val semijoins : unit -> int
val antijoins : unit -> int

(** Number of full [n^k] complement materialisations (the top-level escape
    hatch). Zero on formulas whose negations all occur in conjunctive
    context. *)
val complements : unit -> int

val complement_rows : unit -> int

(** Negations compiled into anti-joins instead of complements. *)
val complements_avoided : unit -> int

(** [Eq] atoms applied as selections/column-copies instead of joins. *)
val selections_pushed : unit -> int

(** [Forall] quantifiers compiled as group-count division. *)
val divisions : unit -> int

(** Negated conjuncts whose variables were not covered by any positive
    conjunct: the current table had to be padded with full columns before
    the anti-join (degenerates towards the complement cost). *)
val neg_extensions : unit -> int

(** Uncovered negations where the cost model picked the [n^arity]
    complement + join over padding the current table (chosen only when a
    planning context makes the comparison possible and the complement is
    estimated cheaper). *)
val neg_complements : unit -> int

(** Sum of predicted output rows across planned joins/anti-joins… *)
val est_rows : unit -> int

(** …and the matching sum of actual output rows — the pair the bench uses
    to assert estimation quality. *)
val actual_rows : unit -> int

(** Conjunctions re-planned with observed selectivities (the adaptive
    feedback loop). *)
val replans : unit -> int

(** Cursors opened / rows yielded by {!Enum} since {!reset}. *)
val cursors_opened : unit -> int

val enum_rows : unit -> int

(** Quantiles of the [enum.delay.ns] / [enum.ttfr.ns] histograms (see
    {!Foc_obs.Metrics.Histogram.quantile}; [0.] when empty). *)
val enum_delay_quantile : float -> float

val enum_ttfr_quantile : float -> float

(** Peak per-plan worst-step estimation error ratio, ×100. *)
val err_max_x100 : unit -> int

(** Join orders chosen by recent [plan_and] calls, oldest first (at most
    64 retained) — lets the bench assert a plan {e flip} between two
    configurations. *)
val plan_orders : unit -> int list list

type plan_record = {
  pseq : int;  (** position in the sequence of plans since {!reset} *)
  order : int list;
  steps : (float * int) list;  (** per join step: predicted, actual rows *)
  replanned : bool;
}

(** Number of plans recorded by {!note_plan_exec} since {!reset} — capture
    before an evaluation, pass to {!plans_since} after. *)
val plan_seq : unit -> int

(** The retained plans with sequence number strictly greater than the
    argument, oldest first (ring of 64: plans may have been dropped). *)
val plans_since : int -> plan_record list

(** The backing registry — lets the server merge these counters into a
    combined Prometheus exposition. *)
val registry : unit -> Foc_obs.Metrics.t

(** High-water mark of a single table's payload, in bytes. *)
val peak_table_bytes : unit -> int

(** All counters as one logfmt line (keys sorted). *)
val line : unit -> string

val report : unit -> string list
