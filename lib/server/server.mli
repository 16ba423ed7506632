(** [foc serve]: a long-lived concurrent query-server daemon in front of
    the PR-5 session layer.

    {b Architecture.} One {!Foc_serve.Session} owns every artifact cache.
    A listener thread accepts connections (Unix-domain or TCP); each
    connection gets a reader thread that parses one JSON request per line
    ({!Protocol}) and submits it to a {e bounded} request queue. A single
    dispatcher thread owns the session: it groups runs of consecutive
    [check] requests and evaluates them as one {!Foc_serve.Session.run_batch}
    — the session's covers and Hanf partitions are shared read-only
    across the {!Foc_par} worker pool, each worker building its own
    mutable ball contexts —
    while writes ([insert]/[delete]) are natural barriers that serialise
    against readers through the session's §9.2 snapshot-swap invalidation.
    Because the dispatcher is the only thread that touches the session,
    every answer is bit-identical to a fresh sequential engine evaluated
    on the structure version named in the response.

    {b Admission control.} The request queue is bounded ([max_queue]):
    submissions beyond the bound are shed immediately with an
    [overloaded] error instead of queuing without limit. Each connection
    additionally has a request budget ([client_budget]); once spent,
    further requests are rejected (the connection stays open — [ping] is
    always answered inline and free). A request line longer than 1 MiB
    is answered with an error and its connection closed; JSON nested
    deeper than {!Foc_obs.Json.max_depth} is an ordinary parse error.

    {b Streaming cursors.} A [query] request opens a
    {!Foc_serve.Session.enumerate} cursor and answers with the first
    chunk of rows; while more answers remain the response names a cursor
    id that [fetch] advances and [close_cursor] releases. Cursors are
    pulled only by the dispatcher and are pinned to the structure version
    they were opened on — a write expires every open cursor, and the next
    [fetch] gets a [cursor expired] error instead of stale rows.
    [fetch]/[close_cursor] are owner-only (another connection's cursor id
    answers [unknown cursor]); each connection may hold at most
    [max_cursors] open cursors, and a disconnect — clean or mid-stream —
    reaps everything the connection owned.

    {b Shutdown.} [shutdown] (the request, or {!stop}) stops admission,
    drains every in-flight request, then wakes {!wait}. The daemon
    ignores [SIGPIPE]; a client vanishing mid-response only closes that
    connection. *)

type address =
  | Unix_sock of string  (** path of a Unix-domain socket *)
  | Tcp of string * int  (** IPv4 host, port; port [0] picks a free one *)

type config = {
  address : address;
  engine : Foc_nd.Engine.config;
      (** backend / ball cache / worker jobs of the underlying session *)
  budget_mb : int;  (** session artifact-cache budget *)
  jobs : int;  (** parallelism of grouped read batches *)
  max_queue : int;  (** request-queue bound; overflow is shed *)
  client_budget : int;  (** per-connection request budget; [<= 0] = unlimited *)
  max_batch : int;  (** most [check]s grouped into one batch *)
  slow_ms : float;
      (** requests slower than this emit one logfmt line to the slow-query
          sink; [<= 0] disables the log *)
  slow_log : string option;
      (** slow-query sink: a rotating file at this path, or stderr when
          [None] *)
  trace_file : string option;
      (** enable span tracing for the daemon's lifetime and export a
          Chrome trace here on shutdown *)
  trace_cap : int option;
      (** bound each per-domain span buffer ({!Foc_obs.Trace.set_cap});
          [None] keeps the current/default cap *)
  store : string option;
      (** persistent store directory ({!Foc_store}): on start, load the
          newest valid snapshot (+WAL replay) instead of rebuilding —
          falling back to a full rebuild on any checksum/version/torn-file
          problem, never crashing — then append every accepted write to
          the WAL and checkpoint on graceful drain *)
  checkpoint_every : int;
      (** also checkpoint (snapshot + fresh WAL, pruning superseded
          files) after this many writes; [<= 0] disables periodic
          compaction (drain still checkpoints) *)
  max_cursors : int;
      (** most streaming cursors one connection may hold open; a [query]
          over the budget is rejected without opening anything *)
}

val default_config : address -> config
(** Direct backend, [jobs] = 1, 256 MiB budget, queue bound 256, unlimited
    client budget, batches of at most 32; slow-query log and tracing off;
    no store; checkpoint every 1024 writes (once a store is set); at most
    8 open cursors per connection. *)

type t

val start : config -> Foc_data.Structure.t -> t
(** Bind, listen and return immediately; serving happens on background
    threads. Raises [Unix.Unix_error] if the address cannot be bound. *)

val address : t -> address
(** The bound address — with [Tcp (_, 0)] the actual port. *)

val version : t -> int
(** Number of writes applied so far. *)

val stop : t -> unit
(** Initiate shutdown (idempotent), drain in-flight requests, join every
    server thread and release the socket. *)

val wait : t -> unit
(** Block until a client [shutdown] request (or {!stop} from another
    thread) completes, then clean up as {!stop} does. *)
