(* WAL-shipping replication; see repl.mli for the model and wire shape. *)

open Balg
module Bagdb = Baglang.Bagdb

(* Injection sites.  [repl.ship]: the primary cuts the feed before a
   batch (a dropped replication link); [repl.connect]: a follower connect
   attempt fails; [repl.apply]: a follower apply fails and forces a
   disconnect + resync.  All three exercise the same recovery path the
   real faults would: the follower reconnects with backoff and the
   sequence numbers make re-delivery idempotent. *)
let ship_site = Fault.register "repl.ship"
let connect_site = Fault.register "repl.connect"
let apply_site = Fault.register "repl.apply"

let m_shipped =
  Metrics.counter Metrics.default "balg_repl_shipped_records_total"
    ~help:"WAL records streamed to followers"

let m_snap_served =
  Metrics.counter Metrics.default "balg_repl_snapshots_served_total"
    ~help:"Snapshot bootstrap blocks streamed to followers"

let m_ship_faults =
  Metrics.counter Metrics.default "balg_repl_ship_faults_total"
    ~help:"Replication feeds cut by the repl.ship fault site"

let m_applied =
  Metrics.counter Metrics.default "balg_repl_applied_records_total"
    ~help:"Shipped WAL records applied by the follower"

let m_snap_installed =
  Metrics.counter Metrics.default "balg_repl_snapshots_installed_total"
    ~help:"Snapshot bootstraps installed by the follower"

let m_disconnects =
  Metrics.counter Metrics.default "balg_repl_disconnects_total"
    ~help:"Follower disconnects and failed connect attempts"

let g_lag =
  Metrics.gauge Metrics.default "balg_repl_lag"
    ~help:"Replication lag in records (primary offset - applied offset)"

let h_lag_records =
  Metrics.histogram Metrics.default "balg_repl_lag_records"
    ~help:"Replication lag in records, sampled at each primary-offset update"

type params = {
  backoff_min_s : float;
  backoff_max_s : float;
  lost_after : int;
  read_timeout_s : float;
  hb_interval_s : float;
}

let default_params =
  {
    backoff_min_s = 0.1;
    backoff_max_s = 5.0;
    lost_after = 8;
    read_timeout_s = 3.0;
    hb_interval_s = 0.5;
  }

(* --- primary side: the ship loop ------------------------------------------- *)

let serve_sync ~store ~params ~stopping ~after oc =
  let send line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let cut () =
    Metrics.incr m_ship_faults;
    if Obs.on () then Obs.emit Obs.I ~tid:Obs.lane_repl ~cat:"repl" ~name:"repl.ship.cut" ~args:[];
    raise Exit
  in
  match
    send (Printf.sprintf "ok %d" (Store.log_seq store));
    (* [synced] flips once the follower provably holds a state our
       records extend — after the first shipped snapshot or batch.  It
       relaxes the store's bootstrap-at-offset-0 rule so resuming the
       stream at offset 0 ships the tail, not snapshots forever. *)
    let rec stream ~synced last =
      if not (stopping ()) then
        match Store.read_from ~synced store ~after:last with
        | `Snapshot (db, seq) ->
            if Fault.fire ship_site then cut ();
            (* the follower's position predates what our WAL still
               covers: ship current state wholesale, then resume the
               tail from its offset *)
            send (Printf.sprintf "snapshot %d" seq);
            let body = Bagdb.render db in
            if not (String.equal body "") then begin
              output_string oc body;
              output_char oc '\n'
            end;
            send ".";
            Metrics.incr m_snap_served;
            if Obs.on () then Obs.emit Obs.I ~tid:Obs.lane_repl ~cat:"repl" ~name:"repl.snapshot.served" ~args:[ ("seq", Obs.Int seq) ];
            stream ~synced:true seq
        | `Records [] ->
            if Store.wait_change store ~seen:last ~timeout_s:params.hb_interval_s
            then stream ~synced last
            else begin
              (* idle heartbeat: keeps the follower's read timeout fed
                 and tells it lag is zero, not that we died *)
              send (Printf.sprintf "hb %d" last);
              stream ~synced last
            end
        | `Records rs ->
            if Fault.fire ship_site then cut ();
            if Obs.on () then Obs.emit Obs.B ~tid:Obs.lane_repl ~cat:"repl" ~name:"ship" ~args:[ ("records", Obs.Int (List.length rs)) ];
            Fun.protect
              ~finally:(fun () -> if Obs.on () then Obs.emit Obs.E ~tid:Obs.lane_repl ~cat:"repl" ~name:"ship")
              (fun () ->
                List.iter
                  (fun (seq, payload) ->
                    output_string oc (Frame.encode ~seq payload))
                  rs;
                flush oc);
            Metrics.incr ~by:(List.length rs) m_shipped;
            stream ~synced:true (List.fold_left (fun _ (s, _) -> s) last rs)
    in
    stream ~synced:false after
  with
  | () -> ()
  | exception Exit -> () (* feed cut by the fault site; caller closes *)
  | exception Sys_error _ -> () (* follower went away *)
  | exception Unix.Unix_error _ -> ()

(* --- follower side ---------------------------------------------------------- *)

type follower = {
  f_store : Store.t;
  f_host : string;
  f_port : int;
  f_params : params;
  mu : Mutex.t;
  mutable conn : Client.t option;
  mutable stopping : bool;
  mutable connected : bool;
  mutable primary_seq : int;
  mutable reconnects : int;
  mutable failures : int;
  mutable thread : Thread.t option;
}

type status = {
  connected : bool;
  applied_seq : int;
  primary_seq : int;
  lag : int;
  reconnects : int;
  failures : int;
  lost : bool;
}

exception Repl_error of string

let set_primary_seq f seq =
  Mutex.lock f.mu;
  if seq > f.primary_seq then f.primary_seq <- seq;
  let p = f.primary_seq in
  Mutex.unlock f.mu;
  let lag = max 0 (p - Store.log_seq f.f_store) in
  Metrics.set_gauge g_lag (float_of_int lag);
  Metrics.observe h_lag_records lag

let note_failure f msg =
  Mutex.lock f.mu;
  f.connected <- false;
  f.failures <- f.failures + 1;
  let n = f.failures in
  Mutex.unlock f.mu;
  Metrics.incr m_disconnects;
  if Obs.on () then Obs.emit Obs.I ~tid:Obs.lane_repl ~cat:"repl" ~name:"repl.disconnect" ~args:[ ("reason", Obs.Str msg); ("failures", Obs.Int n) ]

let read_snapshot_block ic =
  let b = Buffer.create 256 in
  let rec go first =
    let line = Client.strip_cr (input_line ic) in
    if String.equal line "." then Buffer.contents b
    else begin
      if not first then Buffer.add_char b '\n';
      Buffer.add_string b line;
      go false
    end
  in
  go true

(* One established sync stream: apply lines until the connection drops,
   a record fails its gate, or we are stopped.  Every rejection raises —
   the outer loop disconnects and resyncs from our durable offset, which
   is always safe (duplicate delivery is a no-op, a gap forces the
   primary to decide between tail and snapshot). *)
let run_session f c =
  let ic, oc = Client.raw c in
  output_string oc (Printf.sprintf "sync %d\n" (Store.log_seq f.f_store));
  flush oc;
  let hello = Client.strip_cr (input_line ic) in
  (match String.split_on_char ' ' hello with
  | "ok" :: cur :: _ ->
      (match int_of_string_opt cur with
      | Some n -> set_primary_seq f n
      | None -> ())
  | _ -> raise (Repl_error ("unexpected sync reply: " ^ hello)));
  Mutex.lock f.mu;
  f.connected <- true;
  f.failures <- 0;
  Mutex.unlock f.mu;
  if Obs.on () then Obs.emit Obs.I ~tid:Obs.lane_repl ~cat:"repl" ~name:"repl.connected" ~args:[ ("seq", Obs.Int (Store.log_seq f.f_store)) ];
  while not f.stopping do
    let line = Client.strip_cr (input_line ic) in
    if String.length line > 0 && line.[0] = '@' then begin
      (* a shipped record passes the same CRC/length gate recovery uses
         before it can touch the store *)
      match Frame.decode_line line with
      | Error why -> raise (Repl_error ("corrupt shipped frame: " ^ why))
      | Ok r -> (
          if Fault.fire apply_site then
            raise (Repl_error "injected repl.apply fault");
          match Store.op_of_payload r.Frame.payload with
          | Error e -> raise (Repl_error ("bad shipped record: " ^ e))
          | Ok op -> (
              match Store.apply_replicated f.f_store ~seq:r.Frame.seq op with
              | Ok () ->
                  Metrics.incr m_applied;
                  set_primary_seq f r.Frame.seq
              | Error e -> raise (Repl_error e)))
    end
    else
      let offset arg = int_of_string_opt (String.trim arg) in
      match Client.split_command line with
      | Some ("hb", arg) -> Option.iter (set_primary_seq f) (offset arg)
      | Some ("snapshot", arg) -> (
          match offset arg with
          | None -> raise (Repl_error "malformed snapshot header")
          | Some seq -> (
              let body = read_snapshot_block ic in
              match Bagdb.parse body with
              | exception Bagdb.Db_error e ->
                  raise (Repl_error ("corrupt snapshot: " ^ Bagdb.error_to_string e))
              | db -> (
                  match Store.install_snapshot f.f_store db ~seq with
                  | Ok () ->
                      Metrics.incr m_snap_installed;
                      if Obs.on () then Obs.emit Obs.I ~tid:Obs.lane_repl ~cat:"repl" ~name:"repl.snapshot.installed" ~args:[ ("seq", Obs.Int seq) ];
                      set_primary_seq f seq
                  | Error e -> raise (Repl_error e))))
      | _ -> raise (Repl_error ("unexpected line from primary: " ^ line))
  done

(* Backoff sleep in small slices so [stop] never waits for the cap. *)
let sleep_interruptible f total =
  let deadline = Unix.gettimeofday () +. total in
  while (not f.stopping) && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done

let follower_loop f =
  while not f.stopping do
    (match
       if Fault.fire connect_site then Error "injected repl.connect fault"
       else
         Client.connect ~timeout_s:f.f_params.read_timeout_s ~host:f.f_host
           ~port:f.f_port ()
     with
    | Error msg -> note_failure f msg
    | Ok c ->
        Mutex.lock f.mu;
        if f.stopping then begin
          Mutex.unlock f.mu;
          Client.close c
        end
        else begin
          f.conn <- Some c;
          Mutex.unlock f.mu;
          (match run_session f c with
          | () -> () (* stopped *)
          | exception End_of_file -> note_failure f "primary closed the stream"
          | exception Sys_error m -> note_failure f m
          (* the read timeout tripping: no frame and no heartbeat for
             read_timeout_s means the primary is dead or partitioned *)
          | exception Sys_blocked_io -> note_failure f "read timed out"
          | exception Unix.Unix_error (e, _, _) ->
              note_failure f (Unix.error_message e)
          | exception Repl_error m -> note_failure f m);
          Mutex.lock f.mu;
          f.conn <- None;
          f.connected <- false;
          Mutex.unlock f.mu;
          Client.close c
        end);
    if not f.stopping then begin
      Mutex.lock f.mu;
      f.reconnects <- f.reconnects + 1;
      let att = max 1 f.failures in
      Mutex.unlock f.mu;
      sleep_interruptible f
        (Client.backoff_delay ~base_s:f.f_params.backoff_min_s
           ~cap_s:f.f_params.backoff_max_s ~attempt:att ())
    end
  done

let start ~store ~host ~port ~params =
  let f =
    {
      f_store = store;
      f_host = host;
      f_port = port;
      f_params = params;
      mu = Mutex.create ();
      conn = None;
      stopping = false;
      connected = false;
      primary_seq = Store.log_seq store;
      reconnects = 0;
      failures = 0;
      thread = None;
    }
  in
  f.thread <- Some (Thread.create (fun () -> follower_loop f) ());
  f

let status f =
  Mutex.lock f.mu;
  let connected = f.connected
  and primary_seq = f.primary_seq
  and reconnects = f.reconnects
  and failures = f.failures in
  Mutex.unlock f.mu;
  (* the store has its own lock; never read it while holding ours *)
  let applied_seq = Store.log_seq f.f_store in
  {
    connected;
    applied_seq;
    primary_seq = max primary_seq applied_seq;
    lag = max 0 (primary_seq - applied_seq);
    reconnects;
    failures;
    lost = failures >= f.f_params.lost_after;
  }

let stop f =
  Mutex.lock f.mu;
  f.stopping <- true;
  let c = f.conn in
  let th = f.thread in
  f.thread <- None;
  Mutex.unlock f.mu;
  (* wake a read blocked on the stream: shutdown surfaces as EOF there *)
  Option.iter Client.shutdown c;
  Option.iter Thread.join th
