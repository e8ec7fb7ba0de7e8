(* The shared store: COW reads, checksummed write-ahead log, snapshot
   compaction, replication tail.  See store.mli for the model. *)

open Balg
module Bagdb = Baglang.Bagdb

type op = Def of string * Ty.t * Value.t | Drop of string

(* Injection site: a torn WAL append — the record is cut short at a
   deterministic, seed-derived offset, the write reports an error, and
   the store degrades to read-only (the posture a production log takes on
   ENOSPC or an I/O error). *)
let wal_site = Fault.register "wal.append"

let m_writes =
  Metrics.counter Metrics.default "balg_server_store_writes_total"
    ~help:"Store write operations applied (def + drop, local and replicated)"

let m_write_errors =
  Metrics.counter Metrics.default "balg_server_store_write_errors_total"
    ~help:"Store write operations rejected"

let m_wal_appends =
  Metrics.counter Metrics.default "balg_server_wal_appends_total"
    ~help:"WAL records appended and flushed"

let m_wal_faults =
  Metrics.counter Metrics.default "balg_server_wal_faults_total"
    ~help:"WAL appends torn by fault injection or I/O failure"

let m_compactions =
  Metrics.counter Metrics.default "balg_server_compactions_total"
    ~help:"Snapshot compactions (WAL folded into snapshot.bagdb)"

let m_recovered =
  Metrics.counter Metrics.default "balg_server_wal_recovered_records_total"
    ~help:"WAL records replayed during store recovery"

let m_truncated =
  Metrics.counter Metrics.default "balg_server_wal_truncated_bytes_total"
    ~help:"Torn/corrupt WAL tail bytes dropped during store recovery"

let m_corrupt =
  Metrics.counter Metrics.default "balg_server_wal_corrupt_frames_total"
    ~help:
      "WAL frames rejected by the CRC/length/sequence checks (silent \
       corruption, as opposed to a clean torn tail)"

let g_wal_bytes =
  Metrics.gauge Metrics.default "balg_server_wal_bytes"
    ~help:"Current WAL size in bytes"

let h_wal_flush_ns =
  Metrics.histogram Metrics.default "balg_server_wal_flush_ns"
    ~help:"WAL record write+flush time (nanoseconds)"

let g_log_seq =
  Metrics.gauge Metrics.default "balg_server_log_seq"
    ~help:"Durable log offset (global sequence of the last flushed record)"

(* One relation value's columnar form: imported by the first vec read
   that asks for it, outside the store mutex, and then shared by every
   read of the same value on any domain.  [cmu] serialises the import
   and is the hand-off that makes the vector (and the atom codes it
   names) visible to the next reader. *)
type columns = {
  value : Value.t;
  cmu : Mutex.t;
  mutable built : Vec.t option option;  (* [Some None]: not columnar *)
}

module Names = Map.Make (String)

type view = {
  db : Bagdb.t;
  types : Typecheck.env;
  values : Eval.env;
  columns : string -> Value.t -> Vec.t option;
}

type t = {
  dir : string option;
  compact_bytes : int;
  mu : Mutex.t;
  mutable db : Bagdb.t;
  mutable cols : columns Names.t;  (* one entry per relation of [db] *)
  mutable view : view option;  (* of [db]; built by the first reader *)
  mutable revision : int;
  mutable wal : out_channel option;
  mutable wal_bytes : int;
  mutable wal_failed : bool;
  mutable seq : int;  (* global log offset of the last durable record *)
  mutable base : int;  (* offset covered by the snapshot / tail start *)
  mutable tail : (int * string) list;  (* newest-first (seq, payload) *)
  recovered : int;
  truncated : int;
  corrupt : bool;
  changed : Condition.t;  (* broadcast on every publish, expiry and close *)
  mutable deadlines : float list;  (* those of the waits in progress *)
  mutable target : float;  (* the deadline the timer sleeps until *)
  mutable timer : timer option;  (* started by the first wait *)
  mutable closed : bool;
}

(* The wakeup timer: one thread per store, blocked in a read on a private
   socket pair whose receive timeout runs out at [target].  A receive
   timeout, unlike select(2), works for any descriptor number. *)
and timer = { th : Thread.t; wake_r : Unix.file_descr; wake_w : Unix.file_descr }

let snapshot_path dir = Filename.concat dir "snapshot.bagdb"
let wal_path dir = Filename.concat dir "wal.log"
let base_path dir = Filename.concat dir "wal.base"

let render_op = function
  | Def (n, ty, v) -> Bagdb.render [ (n, ty, v) ]
  | Drop n -> "drop " ^ n

(* Deterministic write semantics, shared by live applies and WAL replay:
   a def replaces in place (or appends at the end), so recovery rebuilds
   the exact relation order the live store had. *)
let apply_op db = function
  | Def (n, ty, v) ->
      if List.exists (fun (m, _, _) -> String.equal m n) db then
        List.map
          (fun (m, tym, vm) -> if String.equal m n then (n, ty, v) else (m, tym, vm))
          db
      else db @ [ (n, ty, v) ]
  | Drop n -> List.filter (fun (m, _, _) -> not (String.equal m n)) db

let import v =
  match Vec.of_value v with x -> Some x | exception Vec.Unsupported _ -> None

let columns_of v = { value = v; cmu = Mutex.create (); built = None }

let cols_of_db db =
  List.fold_left (fun m (n, _, v) -> Names.add n (columns_of v) m) Names.empty db

(* A def gets fresh, unbuilt columns and a drop forgets them; every other
   relation keeps the columns it has. *)
let cols_after cols = function
  | Def (n, _, v) -> Names.add n (columns_of v) cols
  | Drop n -> Names.remove n cols

(* A value that is not the one [cols] holds for [name] (a caller's own
   environment) is imported for this read only. *)
let lookup_columns cols name v =
  match Names.find_opt name cols with
  | Some c when c.value == v ->
      Mutex.protect c.cmu (fun () ->
          match c.built with
          | Some r -> r
          | None ->
              let r = import v in
              c.built <- Some r;
              r)
  | Some _ | None -> import v

let validate db = function
  | Def _ -> Ok ()
  | Drop n ->
      if List.exists (fun (m, _, _) -> String.equal m n) db then Ok ()
      else Error (Printf.sprintf "no such relation %s" n)

(* One WAL record payload: a [drop NAME] line or a single [.bagdb]
   declaration, parsed by the same validating loader that guards database
   files — so every corruption shape it can reject, replay rejects too. *)
let parse_record ~path ~offset line =
  let db_err reason =
    raise (Bagdb.Db_error { path = Some path; offset; reason })
  in
  if String.length line >= 5 && String.equal (String.sub line 0 5) "drop " then begin
    let n = String.trim (String.sub line 5 (String.length line - 5)) in
    if String.equal n "" then db_err "drop record: missing relation name";
    Drop n
  end
  else
    match Bagdb.parse ~path line with
    | [ (n, ty, v) ] -> Def (n, ty, v)
    | _ -> db_err "WAL record is not a single declaration"

let op_of_payload line =
  match parse_record ~path:"<repl>" ~offset:0 line with
  | op -> Ok op
  | exception Bagdb.Db_error e -> Error (Bagdb.error_to_string e)

(* Replay complete, valid frames in order; stop at the first torn or
   corrupt one.  Frames at or below [base] are stale leftovers of a crash
   between compaction's base update and its WAL truncate: the snapshot
   already contains them, and skipping is idempotent because records are
   absolute (def replaces, drop removes).  Returns the rebuilt contents,
   the surviving-prefix length, the last offset, the replayed count, the
   surviving tail (newest-first) and the corruption reason if any. *)
let replay_wal ~path content ~base db0 =
  let len = String.length content in
  let rec go db pos seq applied tail =
    if pos >= len then (db, pos, seq, applied, tail, None)
    else
      match Frame.decode_at content ~pos with
      | Error `Torn -> (db, pos, seq, applied, tail, None)
      | Error (`Corrupt why) -> (db, pos, seq, applied, tail, Some why)
      | Ok (r, next) ->
          if r.Frame.seq <= seq then go db next seq applied tail
          else if r.Frame.seq <> seq + 1 then
            ( db,
              pos,
              seq,
              applied,
              tail,
              Some
                (Printf.sprintf "sequence gap: frame %d after record %d"
                   r.Frame.seq seq) )
          else (
            match parse_record ~path ~offset:pos r.Frame.payload with
            | op ->
                go (apply_op db op) next r.Frame.seq (applied + 1)
                  ((r.Frame.seq, r.Frame.payload) :: tail)
            | exception Bagdb.Db_error e ->
                ( db,
                  pos,
                  seq,
                  applied,
                  tail,
                  Some ("unparseable record: " ^ Bagdb.error_to_string e) ))
  in
  go db0 0 base 0 []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Durability invariant for renames: [rename tmp final] makes the new
   contents atomic, but the {e directory entry} itself is only durable
   once the parent directory is fsynced — without it a power loss just
   after the rename can resurrect the old file (or lose the new one
   entirely), silently undoing a compaction the WAL truncate already
   assumed.  Every rename below is therefore followed by [fsync_dir]. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let fsync_out oc =
  try Unix.fsync (Unix.descr_of_out_channel oc) with
  | Unix.Unix_error _ -> ()
  | Sys_error _ -> ()

let write_snapshot_file dir db =
  let snap = snapshot_path dir in
  let tmp = snap ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Bagdb.render db);
      output_string oc "\n";
      flush oc;
      fsync_out oc);
  Unix.rename tmp snap;
  fsync_dir dir

let write_base_file dir seq =
  let p = base_path dir in
  let tmp = p ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (string_of_int seq);
      output_char oc '\n';
      flush oc;
      fsync_out oc);
  Unix.rename tmp p;
  fsync_dir dir

let read_base_file dir =
  let p = base_path dir in
  if not (Sys.file_exists p) then 0
  else
    match int_of_string_opt (String.trim (read_file p)) with
    | Some n when n >= 0 -> n
    | _ ->
        raise
          (Bagdb.Db_error
             {
               path = Some p;
               offset = 0;
               reason = "malformed wal.base: expected a non-negative integer";
             })

let open_wal_channel ?(trunc = false) dir =
  let flags =
    if trunc then [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
    else [ Open_wronly; Open_append; Open_creat; Open_binary ]
  in
  open_out_gen flags 0o644 (wal_path dir)

let open_store ?(compact_bytes = 1 lsl 20) ?(seed = []) ~dir () =
  match dir with
  | None ->
      {
        dir = None;
        compact_bytes;
        mu = Mutex.create ();
        db = seed;
        cols = cols_of_db seed;
        view = None;
        revision = 0;
        wal = None;
        wal_bytes = 0;
        wal_failed = false;
        seq = 0;
        base = 0;
        tail = [];
        recovered = 0;
        truncated = 0;
        corrupt = false;
        changed = Condition.create ();
        deadlines = [];
        target = infinity;
        timer = None;
        closed = false;
      }
  | Some d ->
      if not (Sys.file_exists d) then Unix.mkdir d 0o755;
      let snap = snapshot_path d in
      let db0 =
        if Sys.file_exists snap then Bagdb.load snap
        else begin
          (* a fresh store: persist the seed as the initial snapshot so a
             restart without the seed flag finds the same contents *)
          if seed <> [] then write_snapshot_file d seed;
          seed
        end
      in
      let base = read_base_file d in
      let wal_file = wal_path d in
      let content =
        if Sys.file_exists wal_file then read_file wal_file else ""
      in
      let db, keep, seq, recs, tail, corrupt =
        replay_wal ~path:wal_file content ~base db0
      in
      let torn = String.length content - keep in
      if torn > 0 then begin
        (* drop the torn/corrupt tail so the next append starts at a
           frame boundary — the surviving prefix is exactly what replay
           used *)
        let fd = Unix.openfile wal_file [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> Unix.ftruncate fd keep);
        Metrics.incr ~by:torn m_truncated
      end;
      (match corrupt with
      | Some why ->
          Metrics.incr m_corrupt;
          if Obs.on () then Obs.emit Obs.I ~cat:"wal" ~name:"wal.corrupt" ~args:[ ("reason", Obs.Str why); ("offset", Obs.Int keep) ]
      | None -> ());
      Metrics.incr ~by:recs m_recovered;
      Metrics.set_gauge g_wal_bytes (float_of_int keep);
      Metrics.set_gauge g_log_seq (float_of_int seq);
      {
        dir = Some d;
        compact_bytes;
        mu = Mutex.create ();
        db;
        cols = cols_of_db db;
        view = None;
        revision = 0;
        wal = Some (open_wal_channel d);
        wal_bytes = keep;
        wal_failed = false;
        seq;
        base;
        tail;
        recovered = recs;
        truncated = torn;
        corrupt = corrupt <> None;
        changed = Condition.create ();
        deadlines = [];
        target = infinity;
        timer = None;
        closed = false;
      }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let snapshot t = locked t (fun () -> t.db)

let view t =
  locked t (fun () ->
      match t.view with
      | Some v -> v
      | None ->
          let v =
            {
              db = t.db;
              types = Bagdb.type_env t.db;
              values = Bagdb.value_env t.db;
              columns = lookup_columns t.cols;
            }
          in
          t.view <- Some v;
          v)

let state t = locked t (fun () -> (t.db, t.seq))
let revision t = locked t (fun () -> t.revision)
let log_seq t = locked t (fun () -> t.seq)
let base_seq t = locked t (fun () -> t.base)
let recovered_records t = t.recovered
let truncated_bytes t = t.truncated
let corruption_detected t = t.corrupt
let read_only t = locked t (fun () -> t.wal_failed)
let wal_size t = locked t (fun () -> match t.dir with None -> 0 | Some _ -> t.wal_bytes)

(* Seal the log at [seq] with contents [db]: persist the snapshot and its
   base offset, truncate the WAL, drop the in-memory tail.  Called with
   the store mutex held.  The write order matters for crash safety:
   snapshot first (fsynced), then wal.base (fsynced), then the WAL
   truncate — a crash between any two steps leaves either a stale WAL
   whose low frames replay idempotently over the newer snapshot, or a
   fresh base with the old WAL whose low frames are skipped by the
   sequence check. *)
let seal_locked t db seq =
  match t.dir with
  | None ->
      t.base <- seq;
      t.tail <- [];
      t.wal_bytes <- 0;
      Ok ()
  | Some d -> (
      match
        write_snapshot_file d db;
        write_base_file d seq;
        (match t.wal with Some oc -> close_out_noerr oc | None -> ());
        let oc = open_wal_channel ~trunc:true d in
        t.wal <- Some oc;
        t.wal_bytes <- 0;
        t.base <- seq;
        t.tail <- []
      with
      | () ->
          Metrics.set_gauge g_wal_bytes 0.;
          Ok ()
      | exception Sys_error m -> Error ("compaction failed: " ^ m)
      | exception Unix.Unix_error (e, _, _) ->
          Error ("compaction failed: " ^ Unix.error_message e))

(* Called with the store mutex held. *)
let compact_locked t =
  match seal_locked t t.db t.seq with
  | Ok () ->
      Metrics.incr m_compactions;
      if Obs.on () then Obs.emit Obs.I ~cat:"server" ~name:"store.compact" ~args:[ ("revision", Obs.Int t.revision); ("seq", Obs.Int t.seq) ];
      Ok ()
  | Error _ as e -> e

(* Called with the store mutex held.  An [Error] from here leaves the
   published contents unchanged; a torn write additionally flips the
   store read-only — later appends would land after a record recovery
   cannot reach. *)
let append_locked t record =
  match t.wal with
  | None ->
      (* in-memory: no log, but the byte budget still drives tail trims *)
      t.wal_bytes <- t.wal_bytes + String.length record;
      Ok ()
  | Some oc -> (
      match Fault.fire_payload wal_site with
      | Some cut ->
          let keep = cut mod String.length record in
          (try
             output_string oc (String.sub record 0 keep);
             flush oc
           with Sys_error _ -> ());
          t.wal_failed <- true;
          Metrics.incr m_wal_faults;
          if Obs.on () then Obs.emit Obs.I ~cat:"wal" ~name:"wal.torn" ~args:[ ("kept", Obs.Int keep); ("of", Obs.Int (String.length record)) ];
          Error
            "injected wal.append fault: torn record; store is read-only \
             until restart"
      | None -> (
          let t_flush = Unix.gettimeofday () in
          match
            output_string oc record;
            flush oc
          with
          | () ->
              Metrics.observe h_wal_flush_ns
                (int_of_float ((Unix.gettimeofday () -. t_flush) *. 1e9));
              t.wal_bytes <- t.wal_bytes + String.length record;
              Metrics.incr m_wal_appends;
              Metrics.set_gauge g_wal_bytes (float_of_int t.wal_bytes);
              if Obs.on () then Obs.emit Obs.I ~cat:"wal" ~name:"wal.append" ~args:[ ("bytes", Obs.Int (String.length record)) ];
              Ok ()
          | exception Sys_error m ->
              t.wal_failed <- true;
              Metrics.incr m_wal_faults;
              Error ("wal append failed: " ^ m ^ "; store is read-only")))

(* Make [db] (with its columns [cols]) the contents at offset [seq] and
   wake the waiters.  Called with the mutex held. *)
let publish_locked t db cols seq =
  t.db <- db;
  t.cols <- cols;
  t.view <- None;
  t.seq <- seq;
  t.revision <- t.revision + 1;
  Metrics.set_gauge g_log_seq (float_of_int seq);
  Condition.broadcast t.changed

(* Frame, append, publish one record at offset [seq].  Called with the
   mutex held, after validation/sequencing. *)
let commit_locked t seq op =
  let payload = render_op op in
  match append_locked t (Frame.encode ~seq payload) with
  | Error _ as e -> e
  | Ok () ->
      t.tail <- (seq, payload) :: t.tail;
      publish_locked t (apply_op t.db op) (cols_after t.cols op) seq;
      if t.wal_bytes >= t.compact_bytes then
        (* best-effort: a failed compaction keeps the (intact) longer
           WAL, it does not fail the write *)
        ignore (compact_locked t);
      Ok ()

let count_result result =
  (match result with
  | Ok () -> Metrics.incr m_writes
  | Error _ -> Metrics.incr m_write_errors);
  result

let ro_error = "write-ahead log failed; store is read-only until restart"

let apply t op =
  count_result
    (locked t (fun () ->
         if t.wal_failed then Error ro_error
         else
           match validate t.db op with
           | Error _ as e -> e
           | Ok () -> commit_locked t (t.seq + 1) op))

let apply_replicated t ~seq op =
  count_result
    (locked t (fun () ->
         if t.wal_failed then Error ro_error
         else if seq <= t.seq then Ok () (* duplicate delivery: applied *)
         else if seq <> t.seq + 1 then
           Error
             (Printf.sprintf "replication gap: record %d after offset %d" seq
                t.seq)
         else commit_locked t seq op))

let install_snapshot t db ~seq =
  locked t (fun () ->
      if t.wal_failed then Error ro_error
      else
        match seal_locked t db seq with
        | Error _ as e -> e
        | Ok () ->
            publish_locked t db (cols_of_db db) seq;
            Ok ())

(* The records of a newest-first list above [after], oldest first: a walk
   over just the records returned, not the whole tail. *)
let rec newer_than after acc = function
  | ((s, _) as r) :: rest when s > after -> newer_than after (r :: acc) rest
  | _ -> acc

let read_from ?(synced = false) t ~after =
  locked t (fun () ->
      (* An unsynced [after = 0] always bootstraps: offset 0 means "I
         have nothing", and the log's records apply on top of the
         offset-0 state — which is the seed snapshot, not the empty
         database, so records alone cannot reconstruct it.  Once the
         follower holds a shipped snapshot ([synced]) the rule lapses:
         only [after < base] (compaction folded the tail away) still
         forces a snapshot, otherwise the ship loop would bootstrap an
         empty primary forever. *)
      if after < t.base || ((not synced) && after = 0) then
        `Snapshot (t.db, t.seq)
      else
        `Records (newer_than after [] t.tail))

(* The ship loop's subscription point.  A waiter sleeps on [changed],
   which every publish broadcasts, so a record wakes it at once.  For the
   heartbeat timeout it registers its deadline with the store's timer:
   the timer sleeps until the earliest pending deadline and broadcasts
   when it passes.  A deadline earlier than the timer's current target
   pokes the timer's socket so it re-plans. *)

let poke tm =
  try ignore (Unix.single_write_substring tm.wake_w "x" 0 1)
  with Unix.Unix_error _ -> () (* buffer full: a wakeup is already pending *)

let rec timer_loop t wake_r buf =
  Mutex.lock t.mu;
  if t.closed then Mutex.unlock t.mu
  else begin
    let now = Unix.gettimeofday () in
    if List.exists (fun d -> d <= now) t.deadlines then
      Condition.broadcast t.changed;
    let next =
      List.fold_left
        (fun acc d -> if d > now then Float.min acc d else acc)
        infinity t.deadlines
    in
    t.target <- next;
    Mutex.unlock t.mu;
    (* a receive timeout of 0 blocks until a poke; a positive one is
       clamped to 1 ms so it never rounds down to 0 *)
    Unix.setsockopt_float wake_r Unix.SO_RCVTIMEO
      (if next = infinity then 0. else Float.max 1e-3 (next -. now));
    (match Unix.read wake_r buf 0 (Bytes.length buf) with
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
    timer_loop t wake_r buf
  end

(* Called with the mutex held. *)
let arm_locked t deadline =
  t.deadlines <- deadline :: t.deadlines;
  match t.timer with
  | Some tm -> if deadline < t.target then poke tm
  | None ->
      let wake_r, wake_w =
        Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      Unix.set_nonblock wake_w;
      let th = Thread.create (fun () -> timer_loop t wake_r (Bytes.create 64)) () in
      t.timer <- Some { th; wake_r; wake_w }

let rec remove_one d = function
  | [] -> []
  | x :: rest -> if Float.equal x d then rest else x :: remove_one d rest

let wait_change t ~seen ~timeout_s =
  locked t (fun () ->
      if t.seq > seen then true
      else if t.closed then false
      else begin
        let deadline = Unix.gettimeofday () +. timeout_s in
        arm_locked t deadline;
        let rec go () =
          if t.seq > seen then true
          else if t.closed || Unix.gettimeofday () >= deadline then false
          else begin
            Condition.wait t.changed t.mu;
            go ()
          end
        in
        Fun.protect
          ~finally:(fun () -> t.deadlines <- remove_one deadline t.deadlines)
          go
      end)

let compact t = locked t (fun () -> compact_locked t)

let close t =
  let timer =
    locked t (fun () ->
        (match t.wal with
        | Some oc ->
            (try flush oc with Sys_error _ -> ());
            close_out_noerr oc;
            t.wal <- None
        | None -> ());
        t.closed <- true;
        Condition.broadcast t.changed;
        let tm = t.timer in
        t.timer <- None;
        Option.iter poke tm;
        tm)
  in
  Option.iter
    (fun tm ->
      Thread.join tm.th;
      Unix.close tm.wake_r;
      Unix.close tm.wake_w)
    timer
