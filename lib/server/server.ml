(* The concurrent bag-database server; see server.mli for the model. *)

open Balg
module Parser = Baglang.Parser
module Lexer = Baglang.Lexer
module Bagdb = Baglang.Bagdb

(* Injection sites.  [server.accept]: the freshly accepted connection is
   dropped on the floor (a transient accept failure); [server.session]:
   the session dies before serving its next request (a crashed
   per-connection handler) — every other session must keep working. *)
let accept_site = Fault.register "server.accept"
let session_site = Fault.register "server.session"

let m_sessions =
  Metrics.counter Metrics.default "balg_server_sessions_total"
    ~help:"Client connections accepted"

let m_session_faults =
  Metrics.counter Metrics.default "balg_server_session_faults_total"
    ~help:"Sessions killed by the server.accept/server.session fault sites"

let m_requests =
  Metrics.counter Metrics.default "balg_server_requests_total"
    ~help:"Protocol requests served (all commands)"

let m_evals =
  Metrics.counter Metrics.default "balg_server_evals_total"
    ~help:"eval requests that reached evaluation (cache misses)"

let m_http =
  Metrics.counter Metrics.default "balg_server_http_requests_total"
    ~help:"HTTP requests served (metrics scrapes, health checks)"

let h_request_ns =
  Metrics.histogram Metrics.default "balg_server_request_ns"
    ~help:"Wall-clock time of evaluated requests (nanoseconds)"

(* Per-command latency, one histogram per command kind (the registry is
   label-free): eval covers the whole session-side request including
   queue wait, def/drop cover parse+WAL+publish, other is the cheap
   introspection tail (ping/list/role/...). *)
let h_cmd_eval_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_eval_ns"
    ~help:"Latency of eval commands, session-side (nanoseconds)"

let h_cmd_def_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_def_ns"
    ~help:"Latency of def commands (nanoseconds)"

let h_cmd_drop_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_drop_ns"
    ~help:"Latency of drop commands (nanoseconds)"

let h_cmd_other_ns =
  Metrics.histogram Metrics.default "balg_server_cmd_other_ns"
    ~help:"Latency of all other protocol commands (nanoseconds)"

let g_open_sessions =
  Metrics.gauge Metrics.default "balg_server_open_sessions"
    ~help:"Client connections currently open"

let g_role =
  Metrics.gauge Metrics.default "balg_server_role"
    ~help:"Replication role: 1 primary (writable), 0 follower (read-only)"

type config = {
  host : string;
  port : int;
  store_dir : string option;
  seed_db : Bagdb.t;
  ceiling : int;
  max_queue : int;
  workers : int;
  default_fuel : int;
  engine : Veval.engine;
  optimize : Opt.mode;
  cache_capacity : int;
  compact_bytes : int;
  follow : (string * int) option;
  repl_params : Repl.params;
  access_log : string option;
  slow_log : string option;
  slow_ms : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7421;
    store_dir = None;
    seed_db = [];
    ceiling = 32_000_000;
    max_queue = 64;
    workers = 4;
    default_fuel = 4_000_000;
    engine = Veval.Tree;
    optimize = Opt.Off;
    cache_capacity = 512;
    compact_bytes = 1 lsl 20;
    follow = None;
    repl_params = Repl.default_params;
    access_log = None;
    slow_log = None;
    slow_ms = 100.;
  }

type session = {
  s_id : int;
  mutable s_limits : Budget.limits;
  mutable s_engine : Veval.engine;
  mutable s_mode : Opt.mode;
}

type t = {
  cfg : config;
  store : Store.t;
  cache : string Cache.t;  (* payload: the final "ok <value> : <type>" line *)
  exec : Exec.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  mutable accept_thread : Thread.t option;
  reg_mu : Mutex.t;
  reg : (int, Unix.file_descr * Thread.t) Hashtbl.t;
  mutable next_id : int;
  mutable stopping : bool;
  mutable stopped : bool;
  stop_mu : Mutex.t;
  stop_cv : Condition.t;
  role_mu : Mutex.t;
  mutable role : [ `Primary | `Follower ];
  mutable follower : Repl.follower option;
  next_req : int Atomic.t;  (* request ids, minted per protocol command *)
  log_mu : Mutex.t;  (* serializes the access/slow JSONL channels *)
  access_oc : out_channel option;
  slow_oc : out_channel option;
}

(* --- small helpers --------------------------------------------------------- *)

(* Replies are one line each.  A line without CR or LF comes back as the
   same string, not a copy. *)
let one_line s =
  if String.exists (function '\n' | '\r' -> true | _ -> false) s then
    String.map (function '\n' | '\r' -> ' ' | c -> c) s
  else s

(* --- structured logs -------------------------------------------------------- *)

let json_str s = "\"" ^ Obs.json_escape s ^ "\""

(* One flat JSON object per line (Obs.Log conventions), mutex-serialized
   and flushed per line so every completed command survives any exit
   path — a crash loses at most the line being written. *)
let log_line sv oc line =
  Mutex.lock sv.log_mu;
  (try
     output_string oc line;
     output_char oc '\n';
     flush oc
   with Sys_error _ -> ());
  Mutex.unlock sv.log_mu

let cmd_word line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> if String.equal line "" then "empty" else line
  | Some i -> String.sub line 0 i

let cmd_hist cmd =
  match cmd with
  | "eval" -> h_cmd_eval_ns
  | "def" -> h_cmd_def_ns
  | "drop" -> h_cmd_drop_ns
  | _ -> h_cmd_other_ns

(* --- the request record ----------------------------------------------------- *)

(* How a request ended.  The access log and the session span spell a
   verdict "verdict"; the slow log and the worker span name the
   exhausted resource instead. *)
type outcome =
  [ `Ok | `Error | `Busy | `Verdict of Budget.resource | `Bye | `Exception ]

let outcome_of_exec = function
  | `Ok _ -> `Ok
  | `Verdict x -> `Verdict x.Budget.resource
  | `Fail _ -> `Error

let access_outcome = function
  | `Ok -> "ok"
  | `Error -> "error"
  | `Busy -> "busy"
  | `Verdict _ -> "verdict"
  | `Bye -> "bye"
  | `Exception -> "exception"

let eval_outcome = function
  | `Verdict r -> Budget.resource_to_string r
  | o -> access_outcome o

(* One record per protocol command, minted in [respond] and closed by
   [finish].  [query] is set once an eval reaches the cache probe; the
   fields after it describe that eval.  The worker writes [outcome],
   [plan] and [vplan]; the executor's result handoff (j_mu/j_cv) orders
   those writes before [finish] reads them. *)
type request = {
  id : int;
  sess : session;
  cmd : string;
  t0 : float;
  mutable outcome : outcome;
  mutable query : string option;
  mutable cache : [ `Hit | `Miss ];
  mutable plan : (Expr.t * Opt.decision list option) option;
      (** the plan that ran and the optimizer's decisions ([None] when
          planning failed); unset until evaluation returns *)
  mutable vplan : Veval.plan option;  (** requested only with a slow log open *)
  mutable queue_us : int;
  mutable fuel : int;
}

let fail r msg =
  r.outcome <- `Error;
  msg

(* The slow-query line carries everything needed to understand the
   latency without re-running the query; it is rendered only here, when
   it is about to be written. *)
let slow_line r q ~ts ~dur_us =
  let engine = Veval.engine_to_string r.sess.s_engine in
  let plan, decisions, engines =
    match (r.cache, r.plan) with
    | `Hit, _ -> ("(cached)", "", engine)
    | `Miss, None -> ("", "", "")
    | `Miss, Some (p, decs) ->
        ( Expr.to_string p,
          (match decs with
          | None -> "planning-failed"
          | Some ds ->
              String.concat " "
                (List.map
                   (fun d -> d.Opt.d_rule ^ if d.Opt.d_accepted then "+" else "-")
                   ds)),
          match r.vplan with
          | Some vp -> one_line (Veval.plan_to_string vp)
          | None -> engine )
  in
  Printf.sprintf
    "{\"ts\":%.6f,\"session\":%d,\"req\":%d,\"dur_ms\":%.3f,\"query\":%s,\"plan\":%s,\"decisions\":%s,\"engine\":%s,\"cache\":%s,\"queue_us\":%d,\"fuel\":%d,\"outcome\":%s}"
    ts r.sess.s_id r.id
    (float_of_int dur_us /. 1e3)
    (json_str q) (json_str plan) (json_str decisions) (json_str engines)
    (json_str (match r.cache with `Hit -> "hit" | `Miss -> "miss"))
    r.queue_us r.fuel
    (json_str (eval_outcome r.outcome))

(* Close a request: the session span, the per-command histogram and both
   logs read one interval, reply rendering included. *)
let finish sv r =
  let ts = Unix.gettimeofday () in
  let dur_us = int_of_float ((ts -. r.t0) *. 1e6) in
  let outcome = access_outcome r.outcome in
  if Obs.on () then Obs.emit Obs.E ~tid:(Obs.lane_session r.sess.s_id) ~cat:"session" ~name:"request" ~args:[ ("req", Obs.Int r.id); ("outcome", Obs.Str outcome); ("dur_us", Obs.Int dur_us) ];
  Metrics.observe (cmd_hist r.cmd) (dur_us * 1000);
  Option.iter
    (fun oc ->
      log_line sv oc
        (Printf.sprintf
           "{\"ts\":%.6f,\"session\":%d,\"req\":%d,\"cmd\":%s,\"dur_us\":%d,\"outcome\":%s}"
           ts r.sess.s_id r.id (json_str r.cmd) dur_us (json_str outcome)))
    sv.access_oc;
  match (sv.slow_oc, r.query) with
  | Some oc, Some q when float_of_int dur_us /. 1e3 >= sv.cfg.slow_ms ->
      log_line sv oc (slow_line r q ~ts ~dur_us)
  | _ -> ()

(* Exactly-once close through the registry: both a session's own exit and
   a server-wide [stop] funnel here, so a file descriptor is never closed
   twice (and never closed while the other party still believes it owns
   it). *)
let registry_close sv id =
  Mutex.lock sv.reg_mu;
  let entry = Hashtbl.find_opt sv.reg id in
  Hashtbl.remove sv.reg id;
  Mutex.unlock sv.reg_mu;
  match entry with
  | None -> ()
  | Some (fd, _) ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Metrics.set_gauge g_open_sessions
        (float_of_int
           (Mutex.lock sv.reg_mu;
            let n = Hashtbl.length sv.reg in
            Mutex.unlock sv.reg_mu;
            n))

(* --- roles ------------------------------------------------------------------ *)

let follower_status sv =
  Mutex.lock sv.role_mu;
  let f = sv.follower in
  Mutex.unlock sv.role_mu;
  Option.map Repl.status f

(* Run the write [f] on a primary; a follower serves reads only until it
   is promoted.  (A WAL failure is a different rejection — the store
   itself answers that one.) *)
let writable sv r f =
  Mutex.lock sv.role_mu;
  let role = sv.role in
  Mutex.unlock sv.role_mu;
  match role with
  | `Primary -> f ()
  | `Follower -> fail r "err readonly: follower (promote to accept writes)"

(* Promotion: stop the catch-up loop, seal the replicated log into a
   snapshot, flip the role.  The seal is best-effort — the WAL is intact
   and replayable either way, and a new primary that cannot compact is
   still better than no primary at all. *)
let promote sv =
  Mutex.lock sv.role_mu;
  match sv.role with
  | `Primary ->
      Mutex.unlock sv.role_mu;
      `Already_primary
  | `Follower ->
      let f = sv.follower in
      sv.follower <- None;
      sv.role <- `Primary;
      Mutex.unlock sv.role_mu;
      Option.iter Repl.stop f;
      ignore (Store.compact sv.store);
      Metrics.set_gauge g_role 1.;
      if Obs.on () then Obs.emit Obs.I ~cat:"repl" ~name:"repl.promote" ~args:[ ("offset", Obs.Int (Store.log_seq sv.store)) ];
      `Promoted

let role_line sv =
  match follower_status sv with
  | Some st ->
      Printf.sprintf "ok follower offset=%d lag=%d %s" st.Repl.applied_seq
        st.Repl.lag
        (if st.Repl.lost then "lost"
         else if st.Repl.connected then "connected"
         else "connecting")
  | None -> Printf.sprintf "ok primary offset=%d" (Store.log_seq sv.store)

(* --- the eval path --------------------------------------------------------- *)

let db_vals db = List.map (fun (n, _ty, v) -> (n, v)) db

(* The success reply, rendered once into one buffer; this exact string is
   what the result cache stores and every later hit sends. *)
let ok_line v ty =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ok ";
  Value.add_to_buffer buf v;
  Buffer.add_string buf " : ";
  Buffer.add_string buf (Ty.to_string ty);
  one_line (Buffer.contents buf)

(* The reply is one line: a hit sends the cached line as stored, without
   scanning its (possibly large) text again; every other answer goes
   through [one_line] here. *)
let handle_eval sv r q =
  match Parser.expr_of_string q with
  | exception Parser.Parse_error (msg, pos) ->
      fail r (one_line (Printf.sprintf "err parse: offset %d: %s" pos msg))
  | exception Lexer.Lex_error (msg, pos) ->
      fail r
        (one_line (Printf.sprintf "err parse: lex error at offset %d: %s" pos msg))
  | e -> (
      (* snapshot isolation: this request evaluates against the store as
         of now, no matter how many writes land while it waits or runs *)
      let view = Store.view sv.store in
      let db = view.Store.db in
      match Typecheck.infer view.Store.types e with
      | exception Typecheck.Type_error msg -> fail r (one_line ("err type: " ^ msg))
      | ty -> (
          let engine = r.sess.s_engine and mode = r.sess.s_mode in
          r.query <- Some q;
          let ckey, rels = Cache.key ~engine ~mode ~db e in
          match Cache.find sv.cache ~key:ckey ~rels with
          | Some (line, _) ->
              r.cache <- `Hit;
              line
          | None -> (
              Metrics.incr m_evals;
              let budget = Budget.create r.sess.s_limits in
              let run () =
                (* worker domain: plan, then evaluate under the armed
                   budget; the request span lands in the worker's own
                   trace ring, tied to the session span by the req id *)
                if Obs.on () then Obs.emit Obs.B ~cat:"worker" ~name:"request" ~args:[ ("req", Obs.Int r.id); ("session", Obs.Int r.sess.s_id); ("engine", Obs.Str (Veval.engine_to_string engine)) ];
                let t0 = Unix.gettimeofday () in
                (* until evaluation returns: an escaping exception is an
                   error to the worker span and to the logs alike *)
                r.outcome <- `Error;
                Fun.protect
                  ~finally:(fun () ->
                    Metrics.observe h_request_ns
                      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
                    if Obs.on () then Obs.emit Obs.E ~cat:"worker" ~name:"request" ~args:[ ("req", Obs.Int r.id); ("session", Obs.Int r.sess.s_id); ("outcome", Obs.Str (eval_outcome r.outcome)) ])
                  (fun () ->
                    let plan, decisions =
                      match
                        Opt.optimize ~vals:(db_vals db) ~engine mode
                          view.Store.types e
                      with
                      | p, rep -> (p, Some rep.Opt.r_decisions)
                      | exception _ -> (e, None)
                    in
                    let report =
                      if Option.is_some sv.slow_oc then
                        Some (fun p -> r.vplan <- Some p)
                      else None
                    in
                    let outcome =
                      match
                        Veval.run_engine engine ~budget ?report
                          ~columns:view.Store.columns view.Store.values plan
                      with
                      | Ok v -> `Ok (v, ty)
                      | Error x -> `Verdict x
                      | exception Eval.Eval_error msg -> `Fail ("eval: " ^ msg)
                    in
                    r.plan <- Some (plan, decisions);
                    r.outcome <- outcome_of_exec outcome;
                    outcome)
              in
              let weight = r.sess.s_limits.Budget.fuel in
              match Exec.submit sv.exec ~weight ~budget ~run with
              | Error msg ->
                  r.outcome <- `Busy;
                  one_line ("err busy: " ^ msg)
              | Ok (outcome, st) -> (
                  (* retro-dated queue-wait span: this thread emitted
                     nothing since the session-request B, and
                     enq <= arm <= now, so per-lane monotonicity holds
                     (the ring clamp only ever raises both ends
                     together) *)
                  let lane = Obs.lane_session r.sess.s_id in
                  if Obs.on () then Obs.emit Obs.B ~tid:lane ~ts_us:st.Exec.s_enq_us ~cat:"queue" ~name:"wait" ~args:[ ("req", Obs.Int r.id) ];
                  if Obs.on () then Obs.emit Obs.E ~tid:lane ~ts_us:st.Exec.s_arm_us ~cat:"queue" ~name:"wait" ~args:[ ("req", Obs.Int r.id); ("wait_us", Obs.Int st.Exec.s_queue_us) ];
                  r.queue_us <- st.Exec.s_queue_us;
                  r.fuel <- Budget.fuel_spent budget;
                  match outcome with
                  | `Ok (v, ty) ->
                      let line = ok_line v ty in
                      Cache.add sv.cache ~key:ckey ~rels line ty;
                      line
                  | `Verdict x ->
                      one_line ("verdict " ^ Budget.exhaustion_to_string x)
                  | `Fail msg -> one_line ("err " ^ msg)))))

(* --- writes ---------------------------------------------------------------- *)

(* A write's WAL append + publish, wrapped in a wal-category span on the
   session's lane so the flush shows up inside the request span. *)
let apply_traced sv r ~rel op =
  let lane = Obs.lane_session r.sess.s_id in
  if Obs.on () then Obs.emit Obs.B ~tid:lane ~cat:"wal" ~name:"commit" ~args:[ ("req", Obs.Int r.id); ("rel", Obs.Str rel) ];
  let res = Store.apply sv.store op in
  if Obs.on () then Obs.emit Obs.E ~tid:lane ~cat:"wal" ~name:"commit" ~args:[ ("req", Obs.Int r.id); ("outcome", Obs.Str (match res with Ok () -> "ok" | Error _ -> "error")) ];
  res

let handle_def sv r rest =
  match Bagdb.parse rest with
  | exception Bagdb.Db_error e -> fail r ("err db: " ^ Bagdb.error_to_string e)
  | [] ->
      fail r "err proto: def expects a declaration: def bag NAME : TYPE = VALUE"
  | _ :: _ :: _ -> fail r "err proto: def takes exactly one declaration"
  | [ (n, ty, v) ] -> (
      match apply_traced sv r ~rel:n (Store.Def (n, ty, v)) with
      | Ok () ->
          Cache.invalidate sv.cache n;
          "ok defined " ^ n
      | Error msg -> fail r ("err wal: " ^ msg))

let handle_drop sv r name =
  let name = String.trim name in
  if String.equal name "" then fail r "err proto: drop expects a relation name"
  else if
    (* a validation failure is a db error, not a WAL one; Store.apply
       re-validates under its own lock, so a racing drop still fails
       safely — just with the coarser label *)
    not
      (List.exists
         (fun (m, _, _) -> String.equal m name)
         (Store.snapshot sv.store))
  then fail r ("err db: no such relation " ^ name)
  else
    match apply_traced sv r ~rel:name (Store.Drop name) with
    | Ok () ->
        Cache.invalidate sv.cache name;
        "ok dropped " ^ name
    | Error msg -> fail r ("err wal: " ^ msg)

(* --- session limits -------------------------------------------------------- *)

let handle_set r args =
  let sess = r.sess in
  let toks =
    List.filter (fun s -> not (String.equal s "")) (String.split_on_char ' ' args)
  in
  let set_one acc tok =
    match acc with
    | Error _ as e -> e
    | Ok () -> (
        match String.index_opt tok '=' with
        | None -> Error (Printf.sprintf "err proto: set expects key=value, got %s" tok)
        | Some i -> (
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            let int_field f =
              match int_of_string_opt v with
              | Some n when n > 0 ->
                  sess.s_limits <- f sess.s_limits n;
                  Ok ()
              | _ -> Error (Printf.sprintf "err proto: %s expects a positive integer" k)
            in
            match k with
            | "fuel" -> int_field (fun l n -> { l with Budget.fuel = n })
            | "max-support" ->
                int_field (fun l n -> { l with Budget.max_support = n })
            | "max-size" -> int_field (fun l n -> { l with Budget.max_size = n })
            | "max-count-digits" ->
                int_field (fun l n -> { l with Budget.max_count_digits = n })
            | "max-fix-steps" ->
                int_field (fun l n -> { l with Budget.max_fix_steps = n })
            | "timeout" -> (
                match float_of_string_opt v with
                | Some s when s > 0. ->
                    sess.s_limits <- { sess.s_limits with Budget.deadline_s = Some s };
                    Ok ()
                | Some 0. ->
                    sess.s_limits <- { sess.s_limits with Budget.deadline_s = None };
                    Ok ()
                | _ -> Error "err proto: timeout expects seconds (0 clears)")
            | "engine" -> (
                match Veval.engine_of_string v with
                | Some e ->
                    sess.s_engine <- e;
                    Ok ()
                | None -> Error "err proto: engine expects tree or vec")
            | "optimize" -> (
                match Opt.mode_of_string v with
                | Some m ->
                    sess.s_mode <- m;
                    Ok ()
                | None -> Error "err proto: optimize expects off or cost")
            | _ -> Error ("err proto: unknown setting " ^ k)))
  in
  match List.fold_left set_one (Ok ()) toks with
  | Ok () when toks = [] -> fail r "err proto: set expects key=value pairs"
  | Ok () -> "ok"
  | Error msg -> fail r msg

(* --- request dispatch ------------------------------------------------------ *)

(* Multi-line responses are terminated by a lone "." line (their payload
   lines never start with a dot).  [`Sync] hands the connection over to
   a replication feed. *)
let dispatch sv r line =
  let reply s = `Reply s in
  match line with
  | "quit" ->
      r.outcome <- `Bye;
      `Bye
  | "ping" -> reply "ok pong"
  | "list" ->
      reply
        ("ok "
        ^ String.concat " "
            (List.map (fun (n, _, _) -> n) (Store.snapshot sv.store)))
  | "metrics" -> reply (Metrics.to_prometheus Metrics.default ^ ".")
  | "trace" ->
      (* a live snapshot of the rings: reading while workers still emit is
         safe but can see a torn tail — the authoritative artifact is the
         file balgd writes at shutdown (--trace-out) *)
      if Obs.on () then reply (Obs.Trace.to_chrome_json () ^ ".")
      else reply (fail r "err unavailable: tracing disabled (start balgd with --trace-out)")
  | "dump" ->
      let body = Bagdb.render (Store.snapshot sv.store) in
      reply (if String.equal body "" then "." else body ^ "\n.")
  | "role" -> reply (role_line sv)
  | "promote" -> (
      match promote sv with
      | `Promoted -> reply "ok promoted"
      | `Already_primary -> reply "ok already primary")
  | "compact" ->
      reply
        (writable sv r (fun () ->
             match Store.compact sv.store with
             | Ok () -> "ok compacted"
             | Error msg -> fail r ("err wal: " ^ one_line msg)))
  | _ when String.equal (String.trim line) "" -> reply ""
  | _ -> (
      match Client.split_command line with
      | Some ("eval", q) -> reply (handle_eval sv r q)
      | Some ("def", d) ->
          reply (writable sv r (fun () -> one_line (handle_def sv r d)))
      | Some ("drop", n) ->
          reply (writable sv r (fun () -> one_line (handle_drop sv r n)))
      | Some ("set", kvs) -> reply (one_line (handle_set r kvs))
      | Some ("sync", a) -> (
          match int_of_string_opt (String.trim a) with
          | Some a when a >= 0 -> `Sync a
          | _ -> reply (fail r "err proto: sync expects a non-negative log offset"))
      | _ -> reply (fail r ("err proto: unknown command " ^ one_line line)))

(* Mint the record, open the session-lane span, run the command and
   [finish] the record on every exit path, so a dying session never
   leaves an unbalanced span or an unlogged command.  A [sync] takeover
   is finished before its feed starts, since the feed never completes. *)
let respond sv sess line =
  Metrics.incr m_requests;
  let line = Client.strip_cr line in
  let r =
    { id = Atomic.fetch_and_add sv.next_req 1; sess; cmd = cmd_word line;
      t0 = Unix.gettimeofday (); outcome = `Ok; query = None; cache = `Miss;
      plan = None; vplan = None; queue_us = 0; fuel = 0 }
  in
  if Obs.on () then Obs.emit Obs.B ~tid:(Obs.lane_session r.sess.s_id) ~cat:"session" ~name:"request" ~args:[ ("req", Obs.Int r.id); ("session", Obs.Int r.sess.s_id); ("cmd", Obs.Str r.cmd) ];
  match dispatch sv r line with
  | reply ->
      finish sv r;
      reply
  | exception exn ->
      r.outcome <- `Exception;
      finish sv r;
      raise exn

(* --- HTTP ------------------------------------------------------------------ *)

let http_response oc status content_type body =
  output_string oc
    (Printf.sprintf
       "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
        close\r\n\r\n"
       status content_type (String.length body));
  output_string oc body;
  flush oc

(* Health is role-aware and degradation-aware: a store that went
   read-only (wal.append fault, ENOSPC) or a follower past its backoff
   horizon answers 503 so a load balancer stops routing here, while the
   body says which degradation it is. *)
let healthz_body sv =
  if Store.read_only sv.store then
    ("503 Service Unavailable", "degraded: store read-only (write-ahead log failed)\n")
  else
    match follower_status sv with
    | Some st when st.Repl.lost ->
        ( "503 Service Unavailable",
          Printf.sprintf
            "degraded: replication lost (%d consecutive failures)\n"
            st.Repl.failures )
    | Some st ->
        ( "200 OK",
          Printf.sprintf "ok role=follower offset=%d lag=%d wal_bytes=%d\n"
            st.Repl.applied_seq st.Repl.lag (Store.wal_size sv.store) )
    | None ->
        ( "200 OK",
          Printf.sprintf "ok role=primary offset=%d lag=0 wal_bytes=%d\n"
            (Store.log_seq sv.store) (Store.wal_size sv.store) )

let handle_http sv request_line ic oc =
  Metrics.incr m_http;
  (* drain the header block; we answer from the request line alone *)
  (try
     while not (String.equal (String.trim (input_line ic)) "") do
       ()
     done
   with End_of_file | Sys_error _ -> ());
  match String.split_on_char ' ' (Client.strip_cr request_line) with
  | meth :: path :: _ when String.equal meth "GET" || String.equal meth "HEAD"
    -> (
      match path with
      | "/metrics" ->
          http_response oc "200 OK" "text/plain; version=0.0.4"
            (Metrics.to_prometheus Metrics.default)
      | "/healthz" ->
          let status, body = healthz_body sv in
          http_response oc status "text/plain" body
      | _ -> http_response oc "404 Not Found" "text/plain" "not found\n")
  | _ -> http_response oc "400 Bad Request" "text/plain" "bad request\n"

(* --- sessions -------------------------------------------------------------- *)

let session_loop sv sess ic oc first_line =
  let rec loop line =
    (* the [server.session] chaos site: this session dies here — its
       socket closes, the rest of the server keeps serving *)
    if Fault.fire session_site then Metrics.incr m_session_faults
    else
      match respond sv sess line with
      | `Bye ->
          output_string oc "ok bye\n";
          flush oc
      | `Sync after ->
          Repl.serve_sync ~store:sv.store ~params:sv.cfg.repl_params
            ~stopping:(fun () -> sv.stopping)
            ~after oc
      | `Reply reply ->
          output_string oc reply;
          output_string oc "\n";
          flush oc;
          loop (input_line ic)
  in
  loop first_line

let handle_conn sv id fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let sess =
    {
      s_id = id;
      s_limits = { Budget.default with Budget.fuel = sv.cfg.default_fuel };
      s_engine = sv.cfg.engine;
      s_mode = sv.cfg.optimize;
    }
  in
  (try
     let first = input_line ic in
     if
       List.exists
         (fun prefix -> String.starts_with ~prefix first)
         [ "GET "; "HEAD "; "POST " ]
     then handle_http sv first ic oc
     else session_loop sv sess ic oc first
   with
  | End_of_file | Sys_error _ -> ()
  | Unix.Unix_error _ -> ());
  registry_close sv id

(* --- accept loop / lifecycle ----------------------------------------------- *)

let accept_loop sv =
  while not sv.stopping do
    (* replies and shipped records are single small writes: TCP_NODELAY
       sends each at once instead of holding it for the peer's delayed
       ACK *)
    match Unix.accept sv.listen_fd with
    | fd, _ ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        if Fault.fire accept_site then begin
          (* injected accept failure: drop the connection on the floor *)
          Metrics.incr m_session_faults;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Metrics.incr m_sessions;
          Mutex.lock sv.reg_mu;
          let id = sv.next_id in
          sv.next_id <- id + 1;
          (* registered before the thread starts so [stop] always sees it *)
          let th = Thread.create (fun () -> handle_conn sv id fd) () in
          Hashtbl.replace sv.reg id (fd, th);
          Metrics.set_gauge g_open_sessions
            (float_of_int (Hashtbl.length sv.reg));
          Mutex.unlock sv.reg_mu
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* the listener was closed under us (stop), or a transient accept
           failure: spin once more — the loop condition decides *)
        if not sv.stopping then Thread.yield ()
  done

let start cfg =
  match
    (* a server hosts concurrent evaluations: pin the capture's trace id
       so per-run Obs.set_trace_id calls can't flip the pid mid-span;
       requests are told apart by their req args, not by pid *)
    if Obs.on () then Obs.pin_trace_id 1;
    let open_log path =
      open_out_gen [ Open_append; Open_creat ] 0o644 path
    in
    let access_oc = Option.map open_log cfg.access_log in
    let slow_oc = Option.map open_log cfg.slow_log in
    let store =
      Store.open_store ~compact_bytes:cfg.compact_bytes ~seed:cfg.seed_db
        ~dir:cfg.store_dir ()
    in
    (* a client that vanishes mid-response must surface as EPIPE on the
       write, not kill the process *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
       Unix.listen fd 64
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       Store.close store;
       raise e);
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> cfg.port
    in
    let sv =
      {
        cfg;
        store;
        cache = Cache.create ~capacity:cfg.cache_capacity ();
        exec =
          Exec.create ~ceiling:cfg.ceiling ~max_queue:cfg.max_queue
            ~workers:cfg.workers ();
        listen_fd = fd;
        bound_port;
        accept_thread = None;
        reg_mu = Mutex.create ();
        reg = Hashtbl.create 32;
        next_id = 1;
        stopping = false;
        stopped = false;
        stop_mu = Mutex.create ();
        stop_cv = Condition.create ();
        role_mu = Mutex.create ();
        role = (match cfg.follow with None -> `Primary | Some _ -> `Follower);
        follower = None;
        next_req = Atomic.make 1;
        log_mu = Mutex.create ();
        access_oc;
        slow_oc;
      }
    in
    (match cfg.follow with
    | None -> Metrics.set_gauge g_role 1.
    | Some (h, p) ->
        Metrics.set_gauge g_role 0.;
        sv.follower <-
          Some (Repl.start ~store ~host:h ~port:p ~params:cfg.repl_params));
    sv.accept_thread <- Some (Thread.create (fun () -> accept_loop sv) ());
    sv
  with
  | sv -> Ok sv
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Bagdb.Db_error e ->
      Error ("store recovery failed: " ^ Bagdb.error_to_string e)
  | exception Sys_error msg -> Error msg

let port sv = sv.bound_port
let store sv = sv.store

let sessions_served sv =
  Mutex.lock sv.reg_mu;
  let n = sv.next_id - 1 in
  Mutex.unlock sv.reg_mu;
  n

let stop sv =
  Mutex.lock sv.stop_mu;
  let already = sv.stopped || sv.stopping in
  sv.stopping <- true;
  Mutex.unlock sv.stop_mu;
  if not already then begin
    (* wake the accept loop: on Linux a close alone does NOT interrupt a
       thread blocked in accept(2) — shutdown on the listening socket
       does, making the blocked accept return EINVAL *)
    (try Unix.shutdown sv.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close sv.listen_fd with Unix.Unix_error _ -> ());
    Option.iter Thread.join sv.accept_thread;
    (* close every client socket: blocked session reads fail, blocked
       submits drain through the executor shutdown below *)
    Mutex.lock sv.reg_mu;
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) sv.reg [] in
    let threads = Hashtbl.fold (fun _ (_, th) acc -> th :: acc) sv.reg [] in
    Mutex.unlock sv.reg_mu;
    List.iter (registry_close sv) ids;
    (* stop the follower before the store it writes into goes away *)
    Mutex.lock sv.role_mu;
    let f = sv.follower in
    sv.follower <- None;
    Mutex.unlock sv.role_mu;
    Option.iter Repl.stop f;
    Exec.shutdown sv.exec;
    List.iter Thread.join threads;
    Store.close sv.store;
    (* sessions are joined: the log channels have no writers left *)
    Option.iter close_out_noerr sv.access_oc;
    Option.iter close_out_noerr sv.slow_oc;
    Mutex.lock sv.stop_mu;
    sv.stopped <- true;
    Condition.broadcast sv.stop_cv;
    Mutex.unlock sv.stop_mu
  end

let wait sv =
  Mutex.lock sv.stop_mu;
  while not sv.stopped do
    Condition.wait sv.stop_cv sv.stop_mu
  done;
  Mutex.unlock sv.stop_mu
