(* balgi — the bag-algebra interpreter CLI.

   Subcommands:
     balgi eval      -d db.bagdb "pi[1](G * G)"     evaluate a query
     balgi analyze   -d db.bagdb "powerset(R)"      static complexity report
     balgi normalize -d db.bagdb "R /\ R"           rewrite to normal form
     balgi repl      -d db.bagdb                    interactive loop

   Evaluation runs under the Budget governor: --fuel / --max-support /
   --max-size / --max-count-digits / --max-fix-steps / --timeout set the
   limits, and exhaustion is reported as a located, structured verdict
   (exit code 2).  Ctrl-C cancels through the same channel: the SIGINT
   handler flips Budget.cancel, the evaluation unwinds at its next fuel
   charge, and the run reports a Cancelled verdict with the pool joined
   and partial telemetry printed.  --retry-degrade re-runs the normalized
   plan under a fresh budget (same limits) after a first exhaustion.
   --fault/--fault-seed (or BALG_FAULT/BALG_FAULT_SEED) arm the
   deterministic fault-injection sites.  --optimize off|cost (or
   BALG_OPT) runs the plan optimizer between typechecking and evaluation;
   explain prints its decision log — every rewrite considered, with cost
   estimates, applied or rejected.  --stats prints the telemetry span
   tree and per-operator table (--stats-sort / --stats-top shape it);
   --trace adds time/allocation/memo columns.  --trace-out FILE records
   trace events and writes Chrome trace-event JSON (Perfetto-loadable),
   --log-json FILE the same events as structured JSONL, and --metrics
   prints the Prometheus-text metrics snapshot after the run — on every
   exit path, verdicts and faults included.

   Process-exit discipline: no helper or error path calls [exit] — every
   subcommand body returns its exit code and the single [exit] lives in
   the Cmdliner dispatch at the bottom (scripts/lint.sh enforces this).
   The REPL in particular survives any error: a bad line prints a
   diagnostic and the loop continues. *)

open Balg
module Parser = Baglang.Parser
module Lexer = Baglang.Lexer
module Bagdb = Baglang.Bagdb

let load_db = function
  | None -> Ok []
  | Some path -> (
      match Bagdb.load path with
      | db -> Ok db
      | exception Bagdb.Db_error e ->
          Error ("database error: " ^ Bagdb.error_to_string e))

let parse_query q =
  match Parser.expr_of_string q with
  | e -> Ok e
  | exception Parser.Parse_error (msg, pos) ->
      Error (Printf.sprintf "parse error at offset %d: %s" pos msg)
  | exception Lexer.Lex_error (msg, pos) ->
      Error (Printf.sprintf "lex error at offset %d: %s" pos msg)

let check db e =
  match Typecheck.infer (Bagdb.type_env db) e with
  | ty -> Ok ty
  | exception Typecheck.Type_error msg -> Error ("type error: " ^ msg)

(* Sequence result-returning steps; an [Error] prints and yields status 1. *)
let ( let* ) r k =
  match r with
  | Ok v -> k v
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      1

(* --- budget / telemetry / fault options ----------------------------------- *)

type opts = {
  limits : Budget.limits;
  engine : Veval.engine;  (** --engine: tree (default) or vec *)
  optimize : Opt.mode;  (** --optimize: off (default) or cost *)
  stats : bool;
  trace : bool;
  stats_sort : Telemetry.sort;  (** --stats-sort column *)
  stats_top : int;  (** rows of the per-operator table *)
  jobs : int;  (** vec kernel pool domains; 1 = no pool *)
  fault : string option;  (** --fault spec, overrides BALG_FAULT *)
  fault_seed : int option;
  trace_out : string option;  (** Chrome trace-event JSON output file *)
  log_json : string option;  (** structured JSONL output file *)
  metrics : bool;  (** print the metrics snapshot after the run *)
}

let make_opts fuel max_support max_size max_count_digits max_fix_steps timeout
    engine optimize stats trace stats_sort stats_top jobs fault fault_seed
    trace_out log_json metrics =
  let d = Budget.default in
  let pick o dflt = Option.value o ~default:dflt in
  {
    limits =
      {
        Budget.fuel = pick fuel d.Budget.fuel;
        max_support = pick max_support d.Budget.max_support;
        max_size = pick max_size d.Budget.max_size;
        max_count_digits = pick max_count_digits d.Budget.max_count_digits;
        max_fix_steps = pick max_fix_steps d.Budget.max_fix_steps;
        deadline_s = timeout;
      };
    engine;
    optimize;
    stats;
    trace;
    stats_sort;
    stats_top = max 1 stats_top;
    jobs = max 1 jobs;
    fault;
    fault_seed;
    trace_out;
    log_json;
    metrics;
  }

let apply_faults opts =
  match opts.fault with
  | None -> Ok ()
  | Some spec -> (
      match Fault.configure ?seed:opts.fault_seed spec with
      | Ok () -> Ok ()
      | Error e -> Error ("bad --fault spec: " ^ e))

(* Cancel the budget on Ctrl-C for the duration of [f]: the evaluation
   observes the flag at its next fuel charge and unwinds into a
   structured Cancelled verdict — no dead domain, no leaked worker.  The previous handler is restored afterwards, so the REPL's
   prompt keeps its default interrupt behaviour between queries. *)
let with_sigint budget f =
  match
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> Budget.cancel budget))
  with
  | prev -> Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint prev) f
  | exception (Invalid_argument _ | Sys_error _) -> f ()

let sort_label = function
  | Telemetry.By_steps -> "steps"
  | Telemetry.By_time -> "time"
  | Telemetry.By_alloc -> "alloc"

let print_stats opts budget telemetry =
  match telemetry with
  | Some t when opts.stats || opts.trace ->
      print_endline "--- telemetry span tree ---";
      print_string (Telemetry.to_string ~trace:opts.trace t);
      let rows = Telemetry.per_op ~sort:opts.stats_sort t in
      let shown = List.filteri (fun i _ -> i < opts.stats_top) rows in
      Printf.printf "--- per-operator totals (top %d by %s) ---\n"
        (List.length shown) (sort_label opts.stats_sort);
      List.iter
        (fun a ->
          Printf.printf
            "  %-12s nodes=%-3d calls=%-8d steps=%-10d time=%.3fms \
             alloc=%-10.0f peak support=%d"
            a.Telemetry.a_op a.Telemetry.a_spans a.Telemetry.a_invocations
            a.Telemetry.a_steps
            (a.Telemetry.a_time_s *. 1e3)
            a.Telemetry.a_alloc_words a.Telemetry.a_peak_support;
          if a.Telemetry.a_memo_hits + a.Telemetry.a_memo_misses > 0 then
            Printf.printf "  memo=%d/%d" a.Telemetry.a_memo_hits
              (a.Telemetry.a_memo_hits + a.Telemetry.a_memo_misses);
          print_newline ())
        shown;
      let omitted = List.length rows - List.length shown in
      if omitted > 0 then
        Printf.printf "  ... %d more operator families (raise --stats-top)\n"
          omitted;
      Printf.printf "total steps: %d  (governor fuel spent: %d)\n"
        (Telemetry.total_steps t)
        (Budget.fuel_spent budget)
  | _ -> ()

(* --- observability export -------------------------------------------------- *)

(* The exporters run on every exit path of [run_eval] — success, verdict
   status 2, evaluation error, even a bad query — so a faulted or
   cancelled run still leaves a loadable trace behind.  A file-write
   failure degrades the exit code to 1 but never masks an earlier
   non-zero status. *)

let obs_wanted opts = opts.trace_out <> None || opts.log_json <> None

let write_file path f =
  match open_out path with
  | oc ->
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc);
      Ok ()
  | exception Sys_error msg -> Error msg

let finish_obs opts code =
  let code = ref code in
  let export what path f =
    match write_file path f with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "cannot write %s %s: %s\n" what path msg;
        if !code = 0 then code := 1
  in
  Option.iter
    (fun path ->
      export "trace" path Obs.Trace.to_chrome;
      let dropped = Obs.dropped () in
      if dropped > 0 then
        Printf.eprintf
          "trace ring overflowed: %d oldest events dropped (see \
           otherData.droppedEvents)\n"
          dropped)
    opts.trace_out;
  Option.iter (fun path -> export "log" path Obs.Log.to_jsonl) opts.log_json;
  if opts.metrics then print_string (Metrics.to_prometheus Metrics.default);
  !code

(* --- subcommand bodies --------------------------------------------------- *)

let db_vals db = List.map (fun (n, _ty, v) -> (n, v)) db

(* The planning step between [check] and evaluation: never raises, and
   with --optimize off it is the identity. *)
let plan db opts e =
  Opt.prepare ~vals:(db_vals db) ~engine:opts.engine opts.optimize
    (Bagdb.type_env db) e

(* A pool for the vec engine's selection and join kernels, created and
   shut down around one run (also on exceptions).  The tree engine is
   sequential and gets none, so it spawns no idle domains that every
   minor collection would have to stop. *)
let with_kernel_pool opts f =
  match opts.engine with
  | Veval.Tree -> f None
  | Veval.Vec -> Pool.with_pool ~jobs:opts.jobs f

(* One governed attempt: fresh budget over the same limits. *)
let eval_once db opts e =
  let budget = Budget.start opts.limits in
  let telemetry =
    if opts.stats || opts.trace then Some (Telemetry.create ()) else None
  in
  let result =
    with_sigint budget @@ fun () ->
    with_kernel_pool opts (fun pool ->
        Veval.run_engine opts.engine ~budget ?telemetry ?pool
          (Bagdb.value_env db) e)
  in
  (result, budget, telemetry)

let run_eval_body db_path opts retry_degrade query =
  let* () = apply_faults opts in
  let* db = load_db db_path in
  let* e = parse_query query in
  let* ty = check db e in
  let e = plan db opts e in
  let report_ok v budget telemetry =
    Printf.printf "%s : %s\n" (Value.to_string v) (Ty.to_string ty);
    print_stats opts budget telemetry;
    0
  in
  match eval_once db opts e with
  | exception Eval.Eval_error msg ->
      Printf.eprintf "evaluation error: %s\n" msg;
      1
  | Ok v, budget, telemetry -> report_ok v budget telemetry
  | Error x, budget, telemetry -> (
      print_stats opts budget telemetry;
      Printf.eprintf "%s\n" (Budget.exhaustion_to_string x);
      (* The degradation ladder: a cancelled run stays cancelled, but a
         resource exhaustion earns one more attempt on the normalized
         plan — the rewrite rules (selection pushdown, map fusion, ...)
         often shrink the intermediates that blew the account — under a
         fresh budget with the same limits, both attempts reported. *)
      let retryable = x.Budget.resource <> Budget.Cancelled in
      if not (retry_degrade && retryable) then 2
      else
        let e', applied = Rewrite.normalize (Bagdb.type_env db) e in
        Printf.eprintf "retry-degrade: re-running normalized plan%s\n"
          (match applied with
          | [] -> " (no rules applied)"
          | l -> " (rules: " ^ String.concat ", " l ^ ")");
        match eval_once db opts e' with
        | exception Eval.Eval_error msg ->
            Printf.eprintf "evaluation error: %s\n" msg;
            1
        | Ok v, budget2, telemetry2 ->
            Printf.eprintf
              "retry-degrade: normalized plan succeeded where the original \
               exhausted\n";
            report_ok v budget2 telemetry2
        | Error y, budget2, telemetry2 ->
            print_stats opts budget2 telemetry2;
            Printf.eprintf "%s\n" (Budget.exhaustion_to_string y);
            Printf.eprintf "retry-degrade: both attempts failed\n";
            2)

let run_eval db_path opts retry_degrade query =
  if obs_wanted opts then Obs.enable ();
  let code = run_eval_body db_path opts retry_degrade query in
  finish_obs opts code

let run_analyze db_path query =
  let* db = load_db db_path in
  let* e = parse_query query in
  let* _ty = check db e in
  let report = Analyze.analyze (Bagdb.type_env db) e in
  print_endline (Analyze.report_to_string report);
  0

let run_normalize db_path query =
  let* db = load_db db_path in
  let* e = parse_query query in
  let* _ty = check db e in
  let e', applied = Rewrite.normalize (Bagdb.type_env db) e in
  Printf.printf "%s\n" (Expr.to_string e');
  if applied <> [] then
    Printf.printf "# rules applied: %s\n" (String.concat ", " applied);
  0

let run_explain db_path engine optimize analyze calibration calibration_out
    query =
  let* db = load_db db_path in
  let* e = parse_query query in
  let* _ty = check db e in
  let* () =
    match calibration with
    | None -> Ok ()
    | Some path -> (
        match Calib.load path with
        | Ok c ->
            Calib.set_current (Some c);
            Ok ()
        | Error msg -> Error ("cannot load calibration " ^ path ^ ": " ^ msg))
  in
  (* Planning happens out loud here: explain shows every candidate the
     optimiser considered — chosen and rejected, with both cost
     estimates — before profiling the plan it settled on. *)
  let e =
    match
      Opt.optimize ~vals:(db_vals db) ~engine optimize (Bagdb.type_env db) e
    with
    | e', report ->
        print_string
          (Opt.report_to_string ~vals:(db_vals db) (Bagdb.type_env db) report);
        e'
    | exception exn ->
        Printf.eprintf "optimizer error (running unoptimized): %s\n"
          (Printexc.to_string exn);
        e
  in
  let env = Bagdb.value_env db in
  let explain () =
    if analyze then
      (* EXPLAIN ANALYZE: measured vs estimated rows per operator, and
         optionally the calibration table the comparison induces *)
      Explain.analyze ~env ~vals:(db_vals db) ~tenv:(Bagdb.type_env db)
        ~engine e
      |> Result.map (fun (v, an) ->
             print_string (Explain.analysis_to_string an);
             (match calibration_out with
             | None -> ()
             | Some path -> (
                 match Calib.save path (Explain.calibration_of an) with
                 | Ok () -> Printf.printf "calibration written to %s\n" path
                 | Error msg ->
                     Printf.eprintf "cannot write calibration %s: %s\n" path
                       msg));
             v)
    else
      match engine with
      | Veval.Tree ->
          (* the governed run's span tree, as eval --stats prints it *)
          let t = Telemetry.create () in
          let r = Eval.run ~telemetry:t env e in
          print_string (Telemetry.to_string t);
          r
      | Veval.Vec ->
          (* the vec engine's profile is its executed plan: which subtrees
             ran a columnar kernel and which fell back to the tree path *)
          Veval.run ~report:(fun p -> print_string (Veval.plan_to_string p)) env e
  in
  match explain () with
  | Ok v ->
      Printf.printf "result: %s\n" (Value.to_string v);
      0
  | Error x ->
      Printf.eprintf "%s\n" (Budget.exhaustion_to_string x);
      2
  | exception Eval.Eval_error msg ->
      Printf.eprintf "evaluation error: %s\n" msg;
      1

let run_repl db_path opts =
  let* () = apply_faults opts in
  let* db = load_db db_path in
  List.iter
    (fun (n, ty, v) ->
      Printf.printf "loaded %s : %s (%s distinct elements)\n" n (Ty.to_string ty)
        (string_of_int (Value.support_size v)))
    db;
  print_endline "balgi repl — enter queries, :q to quit";
  (* Crash-proof by construction: every failure inside the loop body —
     parse, type, evaluation, budget verdict, injected fault, anything
     unanticipated — prints a diagnostic and the loop continues.  Only
     end-of-input or :q leaves it, by returning. *)
  let one_line line =
    match parse_query line with
    | Error msg -> print_endline msg
    | Ok e -> (
        match check db e with
        | Error msg -> print_endline msg
        | Ok ty -> (
            let e = plan db opts e in
            let budget = Budget.start opts.limits in
            with_sigint budget @@ fun () ->
            match
              with_kernel_pool opts (fun pool ->
                  Veval.run_engine opts.engine ~budget ?pool
                    (Bagdb.value_env db) e)
            with
            | Ok v ->
                Printf.printf "%s : %s\n" (Value.to_string v) (Ty.to_string ty)
            | Error x -> print_endline (Budget.exhaustion_to_string x)))
  in
  let rec loop () =
    print_string "balg> ";
    match In_channel.input_line stdin with
    | None | Some ":q" -> 0
    | Some "" -> loop ()
    | Some line ->
        (try one_line line with
        | Eval.Eval_error msg -> Printf.printf "evaluation error: %s\n" msg
        | e -> Printf.printf "internal error: %s\n" (Printexc.to_string e));
        loop ()
    | exception Sys_error _ -> loop () (* interrupted read: keep the session *)
  in
  loop ()

(* --- client subcommand ---------------------------------------------------- *)

(* A thin front-end over the balgd wire protocol (lib/server/client.ml):
   commands come from repeated -e flags or, absent those, one per stdin
   line — so `balgi client` composes with shell pipes.  Exit codes mirror
   `balgi eval`: 0 all ok, 2 a budget verdict came back, 1 a protocol
   error, a transport failure or a connect failure (1 dominates 2, like a
   failed eval dominates an exhausted one). *)

let classify_reply reply =
  if String.starts_with ~prefix:"err " reply then `Err
  else if String.starts_with ~prefix:"verdict " reply then `Verdict
  else `Ok

(* A reply worth retrying during a failover window: a follower that is
   not yet promoted answers [err readonly], an overloaded server answers
   [err busy] — both are transient in a way [err type] never is. *)
let retryable_reply reply =
  String.starts_with ~prefix:"err readonly" reply
  || String.starts_with ~prefix:"err busy" reply

let run_client host port cmds http_path retries timeout =
  match http_path with
  | Some path -> (
      match
        Balgserver.Client.retrying ~attempts:retries (fun _ ->
            Balgserver.Client.http_get ?timeout_s:timeout ~host ~port path)
      with
      | Ok body ->
          print_string body;
          0
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          1)
  | None ->
      (* one logical stream over possibly many connections: a transport
         failure drops the connection and the next attempt redials, so a
         retrying client rides out a primary restart or a failover *)
      let conn = ref None in
      let get_conn () =
        match !conn with
        | Some c -> Ok c
        | None -> (
            match
              Balgserver.Client.connect ?timeout_s:timeout ~host ~port ()
            with
            | Ok c ->
                conn := Some c;
                Ok c
            | Error _ as e -> e)
      in
      let drop_conn () =
        match !conn with
        | Some c ->
            Balgserver.Client.close c;
            conn := None
        | None -> ()
      in
      let saw_err = ref false and saw_verdict = ref false in
      (* [`Reply]: the server answered, just unfavourably — the stream
         can continue; [`Transport]/[`Connect]: the wire itself failed *)
      let last_kind = ref `Transport in
      let send cmd =
        let attempt _k =
          match get_conn () with
          | Error msg ->
              last_kind := `Connect;
              Error msg
          | Ok c -> (
              match Balgserver.Client.request c cmd with
              | Error msg ->
                  last_kind := `Transport;
                  drop_conn ();
                  Error msg
              | Ok reply when retryable_reply reply ->
                  last_kind := `Reply;
                  Error reply
              | Ok reply -> Ok reply)
        in
        match Balgserver.Client.retrying ~attempts:retries attempt with
        | Ok reply -> (
            match classify_reply reply with
            | `Err ->
                saw_err := true;
                Printf.eprintf "%s\n" reply;
                true
            | `Verdict ->
                saw_verdict := true;
                print_endline reply;
                true
            | `Ok ->
                print_endline reply;
                true)
        | Error msg -> (
            saw_err := true;
            Printf.eprintf "%s\n" msg;
            match !last_kind with
            | `Reply -> true (* the connection is fine; keep going *)
            | `Transport | `Connect -> false (* wire gone: stop the stream *))
      in
      let rec stdin_loop () =
        match In_channel.input_line stdin with
        | None -> ()
        | Some "" -> stdin_loop ()
        | Some line -> if send line then stdin_loop ()
      in
      (match cmds with
      | [] -> stdin_loop ()
      | cmds -> ignore (List.for_all send cmds));
      drop_conn ();
      if !saw_err then 1 else if !saw_verdict then 2 else 0

(* --- cmdliner wiring ------------------------------------------------------ *)

open Cmdliner

let db_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "d"; "db" ] ~docv:"FILE" ~doc:"A .bagdb database file to load.")

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Step-fuel budget (closure invocations + materialised support).")

let max_support_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-support" ] ~docv:"N"
        ~doc:"Bound on distinct elements of any intermediate bag.")

let max_size_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-size" ] ~docv:"N"
        ~doc:"Bound on the encoded size of any intermediate value.")

let max_count_digits_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-count-digits" ] ~docv:"N"
        ~doc:"Bound on decimal digits of any multiplicity.")

let max_fix_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-fix-steps" ] ~docv:"N"
        ~doc:"Bound on fixpoint iterations.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock deadline for the evaluation.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the telemetry span tree and per-operator totals.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Like --stats, with inclusive time, allocation and memo columns \
           per span.")

let stats_sort_arg =
  let sort_conv =
    Arg.enum
      [
        ("steps", Telemetry.By_steps);
        ("time", Telemetry.By_time);
        ("alloc", Telemetry.By_alloc);
      ]
  in
  Arg.(
    value
    & opt sort_conv Telemetry.By_steps
    & info [ "stats-sort" ] ~docv:"COLUMN"
        ~doc:
          "Sort the per-operator totals table by $(docv): $(b,steps) \
           (default), $(b,time) or $(b,alloc).")

let stats_top_arg =
  Arg.(
    value & opt int 10
    & info [ "stats-top" ] ~docv:"N"
        ~doc:"Show the top $(docv) operator families in the totals table.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record trace events during evaluation and write them to $(docv) \
           in Chrome trace-event JSON (load in Perfetto or \
           chrome://tracing).")

let log_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-json" ] ~docv:"FILE"
        ~doc:
          "Record trace events during evaluation and write them to $(docv) \
           as structured JSONL (one event object per line).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the run — including exhaustion, cancellation and injected \
           faults — print the metrics registry (counters, gauges, latency \
           histograms with p50/p90/p99) in Prometheus text format.")

let engine_arg =
  let engine_conv = Arg.enum [ ("tree", Veval.Tree); ("vec", Veval.Vec) ] in
  Arg.(
    value
    & opt engine_conv (Veval.default_engine ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,tree) (the structural evaluator, default) \
           or $(b,vec) (columnar kernels over segmented flat vectors, \
           falling back to the tree path per subtree for powerset and \
           fixpoint nodes).  Results are bit-identical.  The default can \
           also be set with $(b,BALG_ENGINE).")

let optimize_arg =
  let mode_conv =
    Arg.enum [ ("off", Opt.Off); ("cost", Opt.Cost) ]
  in
  Arg.(
    value
    & opt mode_conv (Opt.default_mode ())
    & info [ "optimize" ] ~docv:"MODE"
        ~doc:
          "Plan optimization before evaluation: $(b,off) (default) or \
           $(b,cost) (gate every rewrite on the property-driven cost \
           model).  Optimized plans produce bit-identical results on both \
           engines.  The default can also be set with $(b,BALG_OPT).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Give the vec engine's selection and join kernels a pool of \
           $(docv) domains to chunk large inputs across.  Only \
           $(b,--engine vec) uses it; the tree engine is sequential and \
           starts no pool.  Everything else runs on the calling domain, \
           so results, fuel and $(b,--stats) are identical to sequential \
           evaluation.")

let fault_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Arm fault-injection sites, e.g. \
           $(b,pool.task:p=0.05,bag.alloc:n=3).  Triggers: $(b,always), \
           $(b,n=K) (K-th hit), $(b,every=K), $(b,p=F).  Overrides \
           $(b,BALG_FAULT).")

let fault_seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed for probabilistic fault triggers; the same seed replays \
           the same failure.")

let retry_degrade_arg =
  Arg.(
    value & flag
    & info [ "retry-degrade" ]
        ~doc:
          "On budget exhaustion, re-run the normalized (rewritten) plan \
           under a fresh budget with the same limits before giving up, \
           reporting both attempts.")

let opts_term =
  Term.(
    const make_opts $ fuel_arg $ max_support_arg $ max_size_arg
    $ max_count_digits_arg $ max_fix_steps_arg $ timeout_arg $ engine_arg
    $ optimize_arg $ stats_arg $ trace_arg $ stats_sort_arg $ stats_top_arg
    $ jobs_arg $ fault_arg $ fault_seed_arg $ trace_out_arg $ log_json_arg
    $ metrics_arg)

let eval_cmd =
  Cmd.v
    (Cmd.info "eval"
       ~doc:
         "Typecheck and evaluate a query against a database, under the \
          resource governor.")
    Term.(const run_eval $ db_arg $ opts_term $ retry_degrade_arg $ query_arg)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Report bag nesting, power nesting and the complexity class the \
          paper's theorems assign to the query.")
    Term.(const run_analyze $ db_arg $ query_arg)

let normalize_cmd =
  Cmd.v
    (Cmd.info "normalize" ~doc:"Apply the bag-sound rewrite rules.")
    Term.(const run_normalize $ db_arg $ query_arg)

let analyze_flag_arg =
  Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "EXPLAIN ANALYZE: annotate every operator with its measured \
           output cardinality next to the cost model's estimate, and \
           print the estimation-error (q-error) table.  Works under both \
           engines; results are bit-identical.")

let calibration_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "calibration" ] ~docv:"FILE"
        ~doc:
          "Load per-operator correction factors from $(docv) (written by \
           $(b,--calibration-out)) before planning: the cost model \
           multiplies its heuristic row estimates by them.  $(b,eval) \
           consumes the same file via $(b,BALG_CALIB).")

let calibration_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "calibration-out" ] ~docv:"FILE"
        ~doc:
          "With $(b,--analyze): write the calibration table induced by \
           the measured-vs-estimated comparison to $(docv).")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Evaluate with profiling: the governed run's per-operator span \
          tree — calls, steps and peak support, as $(b,eval --stats) prints \
          it ($(b,--engine tree)) — or the executed engine plan \
          ($(b,--engine vec)).  Budget verdicts end with status 2, as in \
          $(b,eval).  \
          $(b,--analyze) adds measured vs estimated rows per operator and \
          can emit a calibration file ($(b,--calibration-out)) that feeds \
          the cost model back ($(b,--calibration) / $(b,BALG_CALIB)).")
    Term.(
      const run_explain $ db_arg $ engine_arg $ optimize_arg
      $ analyze_flag_arg $ calibration_arg $ calibration_out_arg $ query_arg)

let repl_cmd =
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive query loop.")
    Term.(const run_repl $ db_arg $ opts_term)

let client_host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")

let client_port_arg =
  Arg.(
    value & opt int 7421
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let client_exec_arg =
  Arg.(
    value & opt_all string []
    & info [ "e"; "exec" ] ~docv:"CMD"
        ~doc:
          "A protocol command to send (repeatable, sent in order), e.g. \
           $(b,-e 'eval R * R' -e metrics).  Without $(b,-e), commands are \
           read from stdin, one per line.")

let client_retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Retry a failed command up to $(docv) times with capped \
           exponential backoff.  Retried failures: connect errors, \
           transport errors (the client reconnects), and the transient \
           replies $(b,err readonly) (a follower awaiting promotion) and \
           $(b,err busy) (admission rejection).")

let client_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Connect and read timeout per attempt; without it the client \
           blocks indefinitely on a stalled server.")

let client_http_get_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "http-get" ] ~docv:"PATH"
        ~doc:
          "Instead of the line protocol, issue one HTTP GET for $(docv) \
           (e.g. $(b,/metrics)) and print the body.")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running balgd server.  Exit codes mirror $(b,eval): 0 \
          all commands succeeded, 2 a budget verdict came back, 1 a \
          protocol error or connection failure.")
    Term.(
      const run_client $ client_host_arg $ client_port_arg $ client_exec_arg
      $ client_http_get_arg $ client_retries_arg $ client_timeout_arg)

let main =
  Cmd.group
    (Cmd.info "balgi" ~version:"1.2.0"
       ~doc:"Interpreter for the Grumbach–Milo nested bag algebra (BALG).")
    [ eval_cmd; analyze_cmd; normalize_cmd; explain_cmd; repl_cmd; client_cmd ]

let () =
  Fault.init_from_env ();
  exit (Cmd.eval' main)
