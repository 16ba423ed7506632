(** Structure-level statistics for cost-based planning: per-relation row
    counts, per-column distinct counts and equi-depth histograms
    ({!Summary}).

    [collect] scans a structure once (linear in its size). The exact
    per-column value frequencies are kept as hash tables and maintained
    {e incrementally} under {!insert}/{!delete} — O(arity) per update —
    while the derived summaries are cached and rebuilt lazily only once a
    column has absorbed enough updates ({e rebuild-on-threshold}): exact
    counters where cheap, periodic rebuild where not. After any
    interleaving of updates the observable statistics are {e identical} to
    collecting from scratch on the updated structure ({!equal} is the
    qcheck gate for that).

    Stats are estimation-only: they never influence results, only plan
    choices, so a stale copy is merely a worse planner. A [t] is a mutable
    single-domain object, like the caches it lives beside. *)

type t

val default_buckets : int
(** 64: the histogram resolution every planner and session uses. *)

val collect : ?buckets:int -> Foc_data.Structure.t -> t
(** [collect ?buckets a] scans every relation of [a]. [buckets] (default
    {!default_buckets}) bounds each histogram; [<= 0] keeps row/distinct
    counts only. *)

val buckets : t -> int

val row_count : t -> string -> int
(** Rows in a relation; [0] for unknown names. *)

val distinct_count : t -> string -> int -> int
(** [distinct_count t r i] — distinct values in column [i] of relation
    [r]; [0] when unknown. *)

val summary : t -> string -> int -> Summary.t
(** [summary t r i] — the (cached, possibly just rebuilt) summary of
    column [i] of relation [r]; {!Summary.empty} when unknown. *)

val insert : t -> string -> int array -> unit
(** [insert t r tup] records that [tup] was {e actually added} to [r] —
    the caller checks set membership (structures are tuple sets; adding a
    present tuple is a no-op and must not be recorded). Unknown relations
    are ignored. *)

val delete : t -> string -> int array -> unit
(** Mirror of {!insert} for an actually-removed tuple. *)

type flat = {
  fbuckets : int;
  frels : (string * int * (int array * int array) array) list;
      (** relation name, row count, and per column its values in
          increasing order beside their counts; relations sorted by
          name *)
}
(** The pointer-free core for serialisation ({!Foc_store}): exact counts
    only — histogram summaries are derived state, rebuilt lazily after
    {!of_flat}. *)

val to_flat : t -> flat

val of_flat : flat -> t
(** Rebuild the mutable count tables from a flat core. Raises
    [Invalid_argument] on malformed input (non-positive counts, or
    values not strictly increasing within a column).
    [equal (of_flat (to_flat t)) t] always holds. *)

val equal : t -> t -> bool
(** Same exact counts everywhere (row counts and per-column value
    frequencies; cached summaries are derived state and not compared). *)

val approx_bytes : t -> int
(** Rough resident size, for budgeted caches. *)

val line : t -> string
(** One logfmt line: [rel.rows=... rel.col0.distinct=...], keys sorted. *)
