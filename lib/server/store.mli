(** The shared bag store behind [balgd]: copy-on-write reads, a
    checksummed write-ahead log, periodic snapshot compaction, and the
    tail API replication ships from.

    {b Reads are snapshot-isolated for free.}  The store's contents are an
    immutable {!Baglang.Bagdb.t}; {!snapshot} hands out the current list
    and a writer {e publishes} a fresh list — a request that captured a
    snapshot keeps evaluating against it no matter how many writes land
    meanwhile.

    {b Writes are logged before they are visible.}  {!apply} renders the
    operation as one WAL record (a single [.bagdb] declaration line, or a
    [drop NAME] line), frames it with its {e global log offset}, byte
    length and CRC-32 (see {!Frame}), appends and flushes it, and only
    then publishes the new contents.  The log offset is a 1-based record
    sequence number, monotone across compactions: [wal.base] in the store
    directory records the offset the snapshot covers, so recovery and
    followers agree on positions no matter how often either end compacts.

    {b Recovery is validating, and tells torn from corrupt.}  Restart
    loads [snapshot.bagdb], then replays [wal.log] frame by frame: each
    frame's length and CRC are verified and its offset must extend the
    sequence (frames at or below the snapshot's base are skipped — they
    are stale leftovers of a crash between compaction's base update and
    its WAL truncate, and idempotent to ignore).  A final unterminated
    line is a {e torn tail} (normal: a crash cut an append); a terminated
    frame that fails any check is {e detected corruption}
    ({!corruption_detected}).  Either way replay stops there and the file
    is truncated back to the surviving prefix.

    {b Failure model.}  The [wal.append] {!Balg.Fault} site fires inside
    {!apply}: an injected fault writes a deliberately torn record (a
    deterministic prefix of the real one), the operation reports an error
    without publishing, and the store goes {e read-only} until restart —
    the same degradation a production log takes on an I/O error. *)

open Balg
module Bagdb = Baglang.Bagdb

type op =
  | Def of string * Ty.t * Value.t
      (** define or replace one named, typed bag *)
  | Drop of string  (** remove a bag; an error if the name is unknown *)

type t

val open_store :
  ?compact_bytes:int -> ?seed:Bagdb.t -> dir:string option -> unit -> t
(** [dir = None] is a purely in-memory store (no WAL, no snapshot; the
    log offset and tail still advance, so a primary can serve followers
    from memory).  With a directory: load [snapshot.bagdb] if present
    (else start from [seed], writing it as the initial snapshot), replay
    [wal.log], and truncate any torn or corrupt tail.  [compact_bytes]
    (default 1 MiB) is the WAL size that triggers compaction after an
    append.
    @raise Bagdb.Db_error when the snapshot or [wal.base] file itself is
    corrupt — recovery is validating, not best-effort, for the part that
    must be intact.  WAL corruption never raises: the prefix survives. *)

val snapshot : t -> Bagdb.t
(** The current contents — an immutable value, safe to evaluate against
    from any thread or domain while writes continue. *)

(** {1 The per-revision view} *)

type view = {
  db : Bagdb.t;  (** the contents, as {!snapshot} returns them *)
  types : Typecheck.env;  (** [Bagdb.type_env db] *)
  values : Eval.env;  (** [Bagdb.value_env db] *)
  columns : string -> Value.t -> Vec.t option;
      (** [columns name v]: the columnar form of relation [name] when [v]
          is its value in [db], imported on the first call and shared by
          every later one — the [?columns] argument of {!Veval.run}.
          [None] when [v] does not fit the columnar layout.  Any other
          [v] is imported for that call only. *)
}

val view : t -> view
(** The current contents with what every read derives from them, built
    once per revision by the first reader that asks.  A relation's
    columns live as long as its value does: a [def] gives the relation
    fresh, unbuilt columns, a [drop] forgets them, {!install_snapshot}
    replaces them all, and every other relation keeps the columns it had.
    Columns are imported outside the store mutex, each under its own
    lock, so a write never waits for an import. *)

val state : t -> Bagdb.t * int
(** Contents and log offset, captured atomically — the pair a follower
    bootstrap needs. *)

val revision : t -> int
(** Bumped by every applied write (0 after open). *)

val log_seq : t -> int
(** The durable log offset: the global sequence number of the last
    record appended and flushed.  Monotone across compactions and
    restarts. *)

val base_seq : t -> int
(** The offset the current snapshot covers; records at or below it are
    no longer in the WAL (or the in-memory tail). *)

val recovered_records : t -> int
(** WAL records replayed by {!open_store}. *)

val truncated_bytes : t -> int
(** Bytes of torn/corrupt WAL tail dropped by {!open_store}. *)

val corruption_detected : t -> bool
(** True when recovery stopped at a terminated frame that failed its
    CRC, length, header or sequence check — silent corruption, as
    opposed to the clean torn tail of an interrupted append. *)

val read_only : t -> bool
(** True once a WAL append has failed (injected or real); every later
    write is rejected until restart. *)

val apply : t -> op -> (unit, string) result
(** Validate, log, publish — in that order, serialized across sessions.
    [Error] leaves the published contents unchanged. *)

val op_of_payload : string -> (op, string) result
(** Parse one WAL record payload (the framed line's body) through the
    validating loader — the follower-side gate for shipped records. *)

val apply_replicated : t -> seq:int -> op -> (unit, string) result
(** Apply a record shipped from a primary at log offset [seq].  A
    duplicate delivery ([seq] at or below {!log_seq}) is [Ok] and a
    no-op; a sequence gap is an [Error] (the follower must resync).
    The record is framed, appended and flushed exactly like a local
    write, so the follower's log is byte-compatible with the primary's
    at every shared offset. *)

val install_snapshot : t -> Bagdb.t -> seq:int -> (unit, string) result
(** Replace the whole store with a bootstrap snapshot taken at log
    offset [seq]: persist it, seal the WAL (fresh, empty, based at
    [seq]) and publish.  The follower-side entry point of replication. *)

val read_from :
  ?synced:bool ->
  t ->
  after:int ->
  [ `Records of (int * string) list | `Snapshot of Bagdb.t * int ]
(** The replication tail: every record with offset strictly greater than
    [after], in order, as [(offset, payload)] pairs — or [`Snapshot] when
    the follower must bootstrap from current state instead: [after]
    predates {!base_seq} (compaction already folded those records away),
    or [after = 0] on a follower's initial request ([synced = false], the
    default — the log's records apply on top of the offset-0 state, which
    is the seed snapshot, not the empty database).  Pass [synced:true]
    once the follower holds a shipped snapshot: then only [after < base]
    forces a bootstrap, so a ship loop resumed at offset 0 streams the
    tail instead of re-shipping snapshots forever. *)

val wait_change : t -> seen:int -> timeout_s:float -> bool
(** Block until {!log_seq} exceeds [seen] (true) or the timeout lapses
    (false) — the ship loop's subscription point.  Every publish
    ({!apply}, {!apply_replicated}, {!install_snapshot}) broadcasts to the
    waiters, so a new record wakes them at once.  Timeouts come from one
    timer thread per store, started by the first wait and stopped by
    {!close}; a wait on a closed store returns [false] at once. *)

val compact : t -> (unit, string) result
(** Write the current contents as the snapshot file (atomic rename,
    directory fsynced), record the covered offset in [wal.base] and
    start a fresh, empty WAL.  For in-memory stores this just trims the
    replication tail. *)

val wal_size : t -> int
(** Bytes in the current WAL (0 for in-memory stores). *)

val close : t -> unit
(** Flush and close the WAL channel, wake every waiter and stop the wait
    timer (joining its thread).  The store must not be used after. *)
