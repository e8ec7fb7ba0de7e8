(** [balgd]'s engine room: a concurrent bag-database server over one
    shared {!Store}, with per-session budgets, admission control, a shared
    result cache and a Prometheus endpoint.

    {b Threading model.}  One accept thread; one I/O thread per client
    connection (parsing, typechecking, protocol); evaluation happens only
    on the {!Exec} worker domains — the evaluator's domain-local memo
    tables and trace rings assume one evaluation at a time per domain, so
    session threads never evaluate.

    {b Wire protocol} (newline-delimited; one request line, one response):
    {v
    eval <query>          -> ok <value> : <type>
                           | verdict <structured budget verdict>
                           | err <kind>: <message>
    def bag N : TY = V    -> ok defined N       (WAL append + publish)
    drop N                -> ok dropped N
    set k=v [k=v ...]     -> ok                 (fuel, max-support,
                             max-size, max-count-digits, max-fix-steps,
                             timeout, engine, optimize)
    list                  -> ok <names...>
    ping                  -> ok pong
    compact               -> ok compacted
    role                  -> ok primary offset=N
                           | ok follower offset=N lag=N <state>
    promote               -> ok promoted | ok already primary
    sync <offset>         -> ok <offset>, then the connection becomes a
                             replication feed (see {!Repl})
    metrics               -> <Prometheus text>, terminated by a "." line
    dump                  -> <rendered store>,  terminated by a "." line
    trace                 -> <Chrome trace JSON>, terminated by a "."
                             line (tracing must be enabled, i.e. balgd
                             --trace-out; a live snapshot — the
                             authoritative artifact is the file written
                             at shutdown)
    quit                  -> ok bye             (connection closes)
    v}
    Error kinds: [parse], [type], [db], [eval], [proto], [busy]
    (admission rejection), [wal] (write failure / read-only store),
    [readonly] (this node is a follower; [promote] to accept writes),
    [internal].  A budget exhaustion is not an [err]: it is a [verdict]
    line carrying the same structured message [balgi eval] prints.

    A connection whose first line is an HTTP request method serves HTTP
    instead: [GET /metrics] returns the Prometheus snapshot (the
    per-server scrape endpoint, including role, log offset and
    replication lag), [GET /healthz] health: [200 ok role=... offset=...]
    when serving, [503 degraded: ...] when the store has gone read-only
    or a follower has lost its primary past the backoff horizon.

    {b Replication.}  With [config.follow = Some (host, port)] the server
    starts as a read-only follower of that primary: it bootstraps from
    the primary's snapshot, applies shipped records through the
    validating loader, reconnects with capped backoff, and answers
    [promote] (or SIGUSR1 in [balgd]) by sealing its WAL and becoming a
    writable primary.  See {!Repl}.

    {b Fault sites.}  [server.accept] (the just-accepted connection is
    dropped), [server.session] (the session dies mid-conversation; its
    socket closes, every other session keeps working), plus the
    [server.worker] and [wal.append] sites of {!Exec} and {!Store} and
    the [repl.ship]/[repl.connect]/[repl.apply] sites of {!Repl}.

    {b Request tracing.}  Every protocol command is minted a request id.
    When tracing is enabled the server pins the trace id
    ({!Balg.Obs.pin_trace_id}) and emits request-scoped spans carrying
    [("req", Int id)]: [session]/request on the session's own lane
    ({!Balg.Obs.lane_session}), a retro-dated [queue]/wait sub-span from
    the {!Exec} queue accounting, [worker]/request on the worker
    domain's lane, and [wal]/commit around a write's append+publish —
    one Perfetto trace shows the whole request lifecycle.  Each command
    fills one request record (outcome, and for an eval its cache outcome,
    plan, optimizer decisions, queue wait and fuel) that a single close
    turns into the span's end, the per-command histogram sample, the
    JSONL access line ([config.access_log]) and, for an eval at or over
    [config.slow_ms], the slow-query line ([config.slow_log]); both lines
    time the same interval, reply rendering included. *)

open Balg

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  store_dir : string option;  (** persistence directory; [None] = memory *)
  seed_db : Baglang.Bagdb.t;  (** initial contents for a fresh store *)
  ceiling : int;  (** admission ceiling: max aggregate fuel in flight *)
  max_queue : int;  (** admission queue bound *)
  workers : int;  (** evaluation worker domains *)
  default_fuel : int;  (** per-request fuel unless the session sets one *)
  engine : Veval.engine;  (** default execution engine for new sessions *)
  optimize : Opt.mode;  (** default optimizer mode for new sessions *)
  cache_capacity : int;  (** result-cache entries *)
  compact_bytes : int;  (** WAL size triggering snapshot compaction *)
  follow : (string * int) option;
      (** replicate from this primary; the server starts as a read-only
          follower *)
  repl_params : Repl.params;  (** backoff / heartbeat / loss tuning *)
  access_log : string option;
      (** JSONL access log: one line per protocol command (session id,
          request id, command, duration µs, outcome), flushed per line *)
  slow_log : string option;  (** JSONL slow-query log; see {!config.slow_ms} *)
  slow_ms : float;
      (** slow-query threshold in milliseconds (default 100); evals at or
          above it are logged to [slow_log] with plan and analytics *)
}

val default_config : config

type t

val start : config -> (t, string) result
(** Open (and recover) the store, spawn the workers and the accept
    thread, bind and listen.  [Error] on bind failure or a corrupt
    snapshot file. *)

val port : t -> int
(** The bound port (useful with [config.port = 0]). *)

val store : t -> Store.t
val sessions_served : t -> int

val promote : t -> [ `Promoted | `Already_primary ]
(** Failover: stop the follower loop, seal the replicated WAL into a
    snapshot (best-effort) and start accepting writes.  Idempotent —
    promoting a primary reports [`Already_primary].  Also reachable as
    the wire command [promote] and, in [balgd], via SIGUSR1. *)

val stop : t -> unit
(** Graceful-enough shutdown: stop accepting, close every client socket,
    join session threads, drain-and-fail the executor, close the WAL.
    Idempotent. *)

val wait : t -> unit
(** Block until {!stop} is called (from a signal handler or another
    thread). *)
