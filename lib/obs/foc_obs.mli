(** Observability: monotonic clock, span tracing, metrics registry,
    exporters.

    Design constraints (tested by [test_obs]):
    - {b zero cost when disabled}: [span] checks one atomic flag and tail
      calls its argument; counters are plain int stores.  Nothing here may
      change an evaluation result — counts are bit-identical with
      observability on or off.
    - {b deterministic}: spans recorded inside {!Foc_par} worker domains
      land in per-domain buffers (lock-free on the record path) and are
      merged into a single total order that depends only on the recorded
      timestamps/names, read after the parallel joins. Metrics shard per
      domain the same way and are summed when read. *)

module Clock : sig
  val now_ns : unit -> int
  (** Monotonic time in nanoseconds (not wall clock; origin unspecified). *)

  val timed : (unit -> 'a) -> 'a * float
  (** [timed f] runs [f] and returns its result with elapsed seconds. *)
end

module Logfmt : sig
  type value = Int of int | Float of float | Str of string | Bool of bool

  val line : (string * value) list -> string
  (** Render [k=v] pairs space-separated; strings containing spaces,
      quotes, [=] or newlines are quoted and escaped. *)
end

module Log : sig
  type level = Quiet | Error | Info | Debug

  val set_level : level -> unit
  val level_of_string : string -> level option

  val error : (unit -> string) -> unit
  val info : (unit -> string) -> unit
  val debug : (unit -> string) -> unit
  (** Closure-taking emitters to stderr: the message is not built unless
      the level is active. *)
end

module Metrics : sig
  (** Domain-safe metrics. Each metric keeps one shard per domain; a
      domain records into its own shard with plain int stores, and reads
      merge the shards (counters and histograms sum, gauges take the
      max). A read after a {!Foc_par} join therefore sees every worker's
      updates, with no merge code at the call site. *)

  module Counter : sig
    type t

    val inc : t -> unit
    val add : t -> int -> unit

    val value : t -> int
    (** Sum over all domains' shards. *)

    type local
    (** The calling domain's shard, for hot paths: resolve it once with
        {!local} and update it with {!bump}, a plain int store. Only the
        resolving domain may bump it. *)

    val local : t -> local
    val bump : local -> int -> unit
  end

  module Gauge : sig
    type t

    val set : t -> int -> unit
    (** Set the calling domain's shard. Reads take the max over shards,
        so a gauge that goes down must always be set from one domain. *)

    val set_max : t -> int -> unit
    (** Retain the maximum of all [set_max] calls (peak tracking). *)

    val value : t -> int
    (** Max over all domains' shards (non-negative values; 0 when unset). *)

    type local
    (** The calling domain's shard, as {!Counter.local}. *)

    val local : t -> local
    val raise_to : local -> int -> unit
    (** [set_max] on a resolved shard. *)
  end

  module Histogram : sig
    type t

    val observe : t -> int -> unit
    (** Record one value. 64 fixed log2-spaced buckets: bucket 0 holds
        [v <= 0]; bucket [i] holds values of bit-length [i]
        (2{^i-1} ≤ v < 2{^i}). *)

    val count : t -> int
    val sum : t -> int

    val nonzero_buckets : t -> (int * int) list
    (** [(inclusive_upper_bound, count)] for each nonempty bucket, in
        increasing bound order; the last bucket's bound is [max_int]. *)

    val quantile : t -> float -> float
    (** [quantile h q] estimates the [q]-quantile ([0..1], clamped) by
        linear interpolation inside the log2 bucket containing the target
        rank [q * count]. [q <= 0] returns the lower bound of the first
        nonempty bucket, [q >= 1] the upper bound of the last (clamped to
        2{^62}); a rank landing exactly on a bucket edge interpolates to
        that edge. Returns [0.] on an empty histogram. *)

    val bucket_of : int -> int
    (** Exposed for tests. *)
  end

  type t
  (** A registry: a named collection of metrics. Any domain may register
      and record; registration takes a lock, recording does not. *)

  val create : unit -> t

  val counter : t -> string -> Counter.t
  val gauge : t -> string -> Gauge.t
  val histogram : t -> string -> Histogram.t
  (** Get-or-create by name. Raise [Invalid_argument] if the name is
      already registered with a different metric kind. *)

  val current : unit -> t
  (** The registry in scope on the calling domain: the innermost
      {!with_current}, else a process-wide default. {!Foc_par} tasks
      inherit the submitter's. Layers below the engine (ball contexts,
      the splitter recursion) record here. *)

  val with_current : t -> (unit -> 'a) -> 'a
  (** Run [f] with [t] in scope on this domain (restored on exit). *)

  val line : t -> string
  (** All metrics as one logfmt line, keys sorted; histograms contribute
      [name.count] and [name.sum]. *)

  val report : t -> string list
  (** One logfmt line per metric; histograms include nonzero buckets as
      [le<bound>=count] fields. *)

  val prometheus : t list -> string
  (** Prometheus text exposition of several registries merged into one
      page. Names are sanitised to [a-zA-Z0-9_] and prefixed [foc_];
      histograms emit cumulative [_bucket{le="..."}] series plus [_sum]
      and [_count]. On a sanitised-name clash the earliest registry wins. *)
end

module Trace : sig
  type event = {
    name : string;
    tid : int;  (** recording domain's id *)
    depth : int;  (** nesting depth within its domain, 1 = outermost *)
    t0 : int;  (** start, ns, monotonic *)
    t1 : int;  (** end, ns *)
  }

  val enable : unit -> unit
  val disable : unit -> unit
  val enabled : unit -> bool

  val set_cap : int -> unit
  (** Bound every per-domain span buffer to at most [n] events (clamped to
      ≥ 1; default 262144). Once a buffer is full it becomes a ring: each
      new span overwrites the oldest and increments the drop counter, so a
      long-lived daemon with tracing enabled uses bounded memory.
      {!export_chrome} and {!well_nested} stay correct on wrapped buffers
      (dropping oldest-closed spans cannot introduce a partial overlap). *)

  val cap : unit -> int

  val dropped_events : unit -> int
  (** Total spans overwritten by ring wrap-around (all domains) since the
      last {!clear}. *)

  val clear : unit -> unit
  (** Drop all recorded events and reset drop counters (all domains). *)

  val events : unit -> event list
  (** All recorded events merged across domains in a deterministic total
      order (start asc, end desc, tid, name). Call after parallel joins. *)

  val export_chrome : string -> unit
  (** Write the events as Chrome [trace_event] JSON (an array of
      ["ph":"X"] complete events, µs timestamps relative to the first
      event) — loadable in chrome://tracing and Perfetto. *)

  type totals = { spans : int; total_ns : int; self_ns : int }

  val phase_totals : unit -> (string * totals) list
  (** Aggregate per span name, sorted by name. [self_ns] excludes time
      spent in nested child spans (per-phase attribution without double
      counting). *)

  val well_nested : unit -> bool
  (** Within each domain, spans nest like a stack (no partial overlap). *)

  val set_logfmt_sink : (string -> unit) option -> unit
  (** Also emit each completed span as a logfmt line to this sink. *)
end

val span : name:string -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f]; when tracing is enabled, records a nested
    span in the current domain's buffer (closed on exception too). When
    disabled this is just [f ()]. *)

val set_timing : bool -> unit

val timing_enabled : unit -> bool
(** True when duration histograms should be fed ([set_timing true] or
    tracing enabled). Check before taking clock readings on hot paths. *)

module Scope : sig
  (** Request-scoped phase accounting: a cheap per-request context (id +
      six self-time accumulators) the server threads from its dispatcher
      through {!Foc_serve} into engine/planner phases. Phases nest with
      self-time semantics — entering {!phase.Artifact} inside an open
      {!phase.Eval} pauses the eval accumulator — so the six numbers are
      disjoint and together cover wall time without double counting.
      A scope is a single-domain object; recording into one never changes
      an evaluation result. *)

  type phase = Queue | Batch_wait | Artifact | Plan | Eval | Write

  type t

  val create : ?id:int -> unit -> t
  (** A fresh scope; its creation instant anchors {!finish}. *)

  val id : t -> int

  val add_ns : t -> phase -> int -> unit
  (** Directly credit [n] nanoseconds to a phase (externally measured
      intervals: queue wait, batch formation). *)

  val time : t -> phase -> (unit -> 'a) -> 'a
  (** Run [f] with the phase open on this scope's stack (closed on
      exception); elapsed time is credited to the {e innermost} open
      phase only. *)

  val finish : t -> int
  (** Record and return total wall nanoseconds since {!create}. *)

  val total_ns : t -> int
  (** The value recorded by the last {!finish} (0 before it). *)

  val phase_ns : t -> phase -> int

  val breakdown : t -> (string * int) list
  (** The six accumulators as [("queue_ns", n); ...] in protocol order. *)

  val phase_label : phase -> string

  val merge_phases : t -> t -> unit
  (** [merge_phases dst src] adds every accumulator of [src] into [dst] —
      how each member of a grouped batch inherits the batch's shared
      artifact/plan/eval time. *)

  val with_scope : t -> (unit -> 'a) -> 'a
  (** Install as the calling domain's ambient scope for the extent of [f]
      (restored on exit, exception-safe). *)

  val current : unit -> t option

  val cue : phase -> (unit -> 'a) -> 'a
  (** [time] on the ambient scope, or plain [f ()] when none is installed
      (one domain-local read — cheap enough for per-artifact call sites). *)
end

module Sink : sig
  (** A line sink with size-based rotation (the slow-query log's backing).
      Mutex-protected; any thread may write. *)

  type t

  val stderr_sink : t

  val create : ?max_bytes:int -> ?keep:int -> string -> t
  (** Rotating file sink: when the active file would exceed [max_bytes]
      (default 8 MiB, min 4 KiB) it is renamed [path.1] (shifting up to
      [path.keep], oldest deleted) and a fresh file is opened. An existing
      file is appended to. *)

  val write : t -> string -> unit
  (** Append one line (newline added) and flush. *)

  val close : t -> unit
end

module Json : sig
  (** Minimal JSON reader for validating exported traces (tests and the
      CLI's [trace-check]) without external dependencies. *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val max_depth : int
  (** Deepest nesting of arrays and objects {!parse} accepts (256). *)

  val parse : string -> (t, string) result
  (** Parse one JSON value. Input nested deeper than {!max_depth} is an
      [Error], so hostile input cannot exhaust the stack. *)

  val member : string -> t -> t option
end
