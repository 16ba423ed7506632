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
    the plan ring is appended under a lock. {!reset} swaps in a fresh
    registry so a benchmark or test can measure a single run without
    interference; call it while no evaluation is running. *)

(** Drop all counters (fresh registry). *)
val reset : unit -> unit

(** {2 Recording (called by the kernels; not for users)} *)

val note_table : rows:int -> words:int -> unit

(** Rows the join kernel re-sorted into its variable order (see
    {!join_build_rows}). *)
val note_join_build : rows:int -> unit

(** One join / semijoin / anti-join driven by [probe] rows. *)
val note_join : probe:int -> unit

val note_semijoin : probe:int -> unit
val note_antijoin : probe:int -> unit

val note_complement : rows:int -> unit
val note_complement_avoided : unit -> unit
val note_selection_pushed : unit -> unit
val note_division : unit -> unit

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

(** [join.build_rows]: rows the {!Leapfrog} kernel had to re-sort into its
    variable order before a search — a join's right operand, a semi- or
    anti-join's shared-column projection, or a cursor conjunct whose
    columns were out of that order. 0 for operands already aligned. *)
val join_build_rows : unit -> int

(** [join.probe_rows]: rows of the driving (left) operand of every
    {!Table.join}, {!Table.semijoin} and {!Table.antijoin}. *)
val join_probe_rows : unit -> int
val antijoins : unit -> int

(** Number of full [n^k] complement materialisations (the top-level escape
    hatch). Zero on formulas whose negations all occur in conjunctive
    context. *)
val complements : unit -> int

(** Negations compiled into anti-joins instead of complements. *)
val complements_avoided : unit -> int

(** [Forall] quantifiers compiled as group-count division. *)
val divisions : unit -> int

(** Sum of predicted output rows across planned joins/anti-joins… *)
val est_rows : unit -> int

(** …and the matching sum of actual output rows — the pair the bench uses
    to assert estimation quality. *)
val actual_rows : unit -> int

(** Conjunctions re-planned with observed selectivities (the adaptive
    feedback loop). *)
val replans : unit -> int

(** Peak per-plan worst-step estimation error ratio, ×100. *)
val err_max_x100 : unit -> int

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
