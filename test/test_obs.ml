(* Golden tests for the observability layer: the metrics registry
   (counters / gauges / log-bucketed histograms / Prometheus snapshot) and
   the trace-event core (per-domain rings, drop-oldest overflow, exporters)
   plus the evaluator integration invariants the exported traces promise:

     - every B event has a matching E in its tid lane (stack discipline),
       on success, exhaustion, cancellation and injected faults alike;
     - timestamps are non-decreasing within a tid;
     - the sum of "steps" over eval end events equals the governor's
       spent fuel, sequentially and in a vec run with a 4-domain pool;
     - a failed run's trace still ends with a "done" instant carrying
       the verdict.

   Tracing is global state, so every test brackets with enable/disable. *)

open Balg
open Testpool

let with_obs ?capacity f =
  Obs.enable ?capacity ();
  Fun.protect ~finally:Obs.disable f

let rng = Random.State.make [| 20260806 |]
let binary20 = Baggen.Genval.flat_bag rng ~n_atoms:6 ~arity:2 ~size:20 ~max_count:3
let graph8 = Baggen.Genval.graph rng ~n:8 ~p:0.3
let selfjoin_q = Derived.selfjoin (Expr.lit binary20 (Ty.relation 2))
let tc_q = Derived.transitive_closure (Expr.lit graph8 (Ty.relation 2))
let env0 = Eval.env_of_list []

(* --- metrics -------------------------------------------------------------- *)

let test_counter () =
  let r = Metrics.create () in
  let c = Metrics.counter r "reqs_total" ~help:"requests" in
  Alcotest.(check int) "starts at 0" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  Alcotest.(check int) "1 + 41" 42 (Metrics.counter_value c);
  (* registration is idempotent: same name, same instrument *)
  Metrics.incr (Metrics.counter r "reqs_total");
  Alcotest.(check int) "same underlying cell" 43 (Metrics.counter_value c);
  Alcotest.(check_raises) "kind mismatch rejected"
    (Invalid_argument "Metrics.gauge: reqs_total is not a gauge")
    (fun () -> ignore (Metrics.gauge r "reqs_total"))

let test_gauge () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "live" in
  Metrics.set_gauge g 4.;
  Alcotest.(check (float 0.0)) "set/read" 4. (Metrics.gauge_value g)

let test_histogram_percentiles () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "lat_ns" in
  (* values below 16 land in exact buckets: percentiles are exact *)
  List.iter (Metrics.observe h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  Alcotest.(check int) "count" 10 (Metrics.hist_count h);
  Alcotest.(check int) "sum" 55 (Metrics.hist_sum h);
  Alcotest.(check (float 0.0)) "p50 exact" 5. (Metrics.percentile h 0.50);
  Alcotest.(check (float 0.0)) "p90 exact" 9. (Metrics.percentile h 0.90);
  Alcotest.(check (float 0.0)) "p99 exact" 10. (Metrics.percentile h 0.99);
  (* large values: the bucket upper bound bounds the observation from
     above within the ~12.5% octave resolution, and quantiles are
     monotone in q *)
  let h2 = Metrics.histogram r "big_ns" in
  List.iter (Metrics.observe h2) [ 1_000; 10_000; 100_000; 1_000_000 ];
  let p50 = Metrics.percentile h2 0.50
  and p90 = Metrics.percentile h2 0.90
  and p99 = Metrics.percentile h2 0.99 in
  Alcotest.(check bool) "p50 <= p90 <= p99" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check bool) "p50 covers its rank" true
    (p50 >= 10_000. && p50 <= 10_000. *. 1.125);
  Alcotest.(check bool) "p99 covers the max" true
    (p99 >= 1_000_000. && p99 <= 1_000_000. *. 1.125);
  Metrics.observe h2 (-5);
  Alcotest.(check bool) "negative clamps to 0" true
    (Metrics.hist_count h2 = 5 && Metrics.percentile h2 0.01 = 0.)

let test_prometheus_snapshot () =
  let r = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter r "zz_total" ~help:"a counter");
  Metrics.set_gauge (Metrics.gauge r "aa_live") 2.;
  let h = Metrics.histogram r "mm_ns" ~help:"a histogram" in
  List.iter (Metrics.observe h) [ 5; 5; 12 ];
  let s = Metrics.to_prometheus r in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub -> Alcotest.(check bool) ("snapshot has " ^ sub) true (has sub))
    [
      "# HELP zz_total a counter";
      "# TYPE zz_total counter";
      "zz_total 3";
      "aa_live 2";
      "# TYPE mm_ns histogram";
      "mm_ns_bucket{le=\"5\"} 2";
      "mm_ns_bucket{le=\"+Inf\"} 3";
      "mm_ns_sum 22";
      "mm_ns_count 3";
      "# percentiles mm_ns p50=5 p90=12 p99=12";
    ];
  (* name-sorted: the gauge (aa_) prints before the histogram (mm_) and
     the counter (zz_) *)
  let pos sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "sorted by name" true
    (pos "aa_live" < pos "mm_ns_sum" && pos "mm_ns_sum" < pos "zz_total");
  Metrics.reset r;
  Alcotest.(check int) "reset zeroes histograms" 0 (Metrics.hist_count h)

(* --- the event core ------------------------------------------------------- *)

let test_disabled_no_events () =
  Obs.disable ();
  Alcotest.(check bool) "off" false (Obs.on ());
  if Obs.on () then Obs.emit Obs.I ~cat:"t" ~name:"x";
  Alcotest.(check int) "nothing captured" 0 (List.length (Obs.events ()))

let test_capture_order_and_ids () =
  with_obs (fun () ->
      Obs.set_trace_id 7;
      if Obs.on () then Obs.emit Obs.B ~cat:"t" ~name:"a";
      if Obs.on () then Obs.emit Obs.I ~cat:"t" ~name:"b" ~args:[ ("k", Obs.Int 1) ];
      if Obs.on () then Obs.emit Obs.E ~cat:"t" ~name:"a";
      match Obs.events () with
      | [ e1; e2; e3 ] ->
          Alcotest.(check (list string)) "order" [ "a"; "b"; "a" ]
            [ e1.Obs.name; e2.Obs.name; e3.Obs.name ];
          Alcotest.(check int) "trace id on pid" 7 e2.Obs.pid;
          Alcotest.(check bool) "ts monotone" true
            (e1.Obs.ts <= e2.Obs.ts && e2.Obs.ts <= e3.Obs.ts)
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

let test_ring_overflow_drops_oldest () =
  with_obs ~capacity:64 (fun () ->
      for i = 1 to 100 do
        if Obs.on () then Obs.emit Obs.I ~cat:"t" ~name:(string_of_int i)
      done;
      let evs = Obs.events () in
      Alcotest.(check int) "ring keeps capacity" 64 (List.length evs);
      Alcotest.(check int) "dropped counted" 36 (Obs.dropped ());
      Alcotest.(check string) "oldest dropped, newest kept" "100"
        (List.nth evs 63).Obs.name;
      Alcotest.(check string) "window starts after the drop" "37"
        (List.hd evs).Obs.name)

let test_cross_domain_rings () =
  with_obs (fun () ->
      if Obs.on () then Obs.emit Obs.I ~cat:"t" ~name:"main";
      let ds =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                if Obs.on () then Obs.emit Obs.B ~cat:"t" ~name:("w" ^ string_of_int i);
                if Obs.on () then Obs.emit Obs.E ~cat:"t" ~name:("w" ^ string_of_int i)))
      in
      List.iter Domain.join ds;
      let evs = Obs.events () in
      Alcotest.(check int) "all domains exported" 7 (List.length evs);
      let tids = List.sort_uniq compare (List.map (fun e -> e.Obs.tid) evs) in
      Alcotest.(check bool) "several tids" true (List.length tids = 4);
      Alcotest.(check bool) "grouped by ascending tid" true
        (List.map (fun e -> e.Obs.tid) evs = List.sort compare (List.map (fun e -> e.Obs.tid) evs)))

let test_exporter_shapes () =
  with_obs (fun () ->
      Obs.set_trace_id 1;
      if Obs.on () then Obs.emit Obs.B ~cat:"t" ~name:"sp\"an" ~args:[ ("s", Obs.Str "a\nb") ];
      if Obs.on () then Obs.emit Obs.E ~cat:"t" ~name:"sp\"an" ~args:[ ("f", Obs.Float 1.5) ];
      let chrome = Obs.Trace.to_chrome_json () in
      let has sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "chrome header" true
        (has "{\"traceEvents\":[" chrome);
      Alcotest.(check bool) "thread metadata" true (has "thread_name" chrome);
      Alcotest.(check bool) "escaped name" true (has "sp\\\"an" chrome);
      Alcotest.(check bool) "drop count" true (has "\"droppedEvents\":0" chrome);
      let jsonl = Obs.Log.to_jsonl_string () in
      let lines = String.split_on_char '\n' (String.trim jsonl) in
      Alcotest.(check int) "one line per event" 2 (List.length lines);
      Alcotest.(check bool) "escaped newline in arg" true (has "a\\nb" jsonl))

(* --- evaluator trace invariants ------------------------------------------- *)

(* Walk the exported events with one span stack per tid: B pushes, E must
   match the top's name, I is free; every stack must end empty. *)
let check_balanced evs =
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let last : (int, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let tid = e.Obs.tid in
      (match Hashtbl.find_opt last tid with
      | Some t when e.Obs.ts < t ->
          Alcotest.failf "tid %d: ts went backwards (%f after %f)" tid e.Obs.ts t
      | _ -> ());
      Hashtbl.replace last tid e.Obs.ts;
      let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
      match e.Obs.ph with
      | Obs.B -> Hashtbl.replace stacks tid (e.Obs.name :: stack)
      | Obs.I -> ()
      | Obs.E -> (
          match stack with
          | top :: rest ->
              Alcotest.(check string)
                (Printf.sprintf "tid %d: E matches innermost B" tid)
                top e.Obs.name;
              Hashtbl.replace stacks tid rest
          | [] -> Alcotest.failf "tid %d: E %s without open B" tid e.Obs.name))
    evs;
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        Alcotest.failf "tid %d: %d spans left open" tid (List.length stack))
    stacks

(* Systhreads of one domain share its ring.  Right after [enable] every
   domain's ring is stale, so the first emits of concurrent systhreads
   race to install a fresh one; a second domain holding the ring registry
   lock makes the race likely (the loser blocks inside ring creation and
   the other systhreads run).  Two rings for one domain would split a
   lane's B and E across rings, and the export, ring by ring, would show
   an E before its B.  The race is probabilistic: without the locked
   re-check this case failed in about two of three runs on a 2-CPU host. *)
let test_systhread_ring_creation () =
  let stop = Atomic.make false in
  let prober =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          ignore (Obs.dropped ())
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join prober)
    (fun () ->
      for _ = 1 to 400 do
        with_obs ~capacity:128 (fun () ->
            let threads =
              List.init 8 (fun i ->
                  Thread.create
                    (fun () ->
                      let tid = Obs.lane_session i in
                      for _ = 1 to 4 do
                        if Obs.on () then Obs.emit ~tid Obs.B ~cat:"t" ~name:"req";
                        Thread.yield ();
                        if Obs.on () then Obs.emit ~tid Obs.E ~cat:"t" ~name:"req"
                      done)
                    ())
            in
            List.iter Thread.join threads;
            check_balanced (Obs.events ()))
      done)

let sum_eval_steps evs =
  List.fold_left
    (fun acc e ->
      if e.Obs.ph = Obs.E && e.Obs.cat = "eval" then
        match List.assoc_opt "steps" e.Obs.args with
        | Some (Obs.Int n) -> acc + n
        | _ -> acc
      else acc)
    0 evs

let done_instant evs =
  match
    List.filter (fun e -> e.Obs.ph = Obs.I && e.Obs.name = "done") evs
  with
  | [ e ] -> e
  | l -> Alcotest.failf "expected exactly one done instant, got %d" (List.length l)

let run_traced ?budget e =
  let budget = match budget with Some b -> b | None -> Budget.start Budget.default in
  let r = Eval.run ~budget env0 e in
  (r, budget, Obs.events ())

let test_trace_steps_equal_fuel_seq () =
  with_obs (fun () ->
      let r, budget, evs = run_traced tc_q in
      Alcotest.(check bool) "run succeeded" true (Result.is_ok r);
      check_balanced evs;
      Alcotest.(check int) "sum of span steps == spent fuel"
        (Budget.fuel_spent budget) (sum_eval_steps evs);
      match List.assoc_opt "fuel" (done_instant evs).Obs.args with
      | Some (Obs.Int f) ->
          Alcotest.(check int) "done fuel agrees" (Budget.fuel_spent budget) f
      | _ -> Alcotest.fail "done instant lacks fuel")

let test_trace_steps_equal_fuel_parallel () =
  with_test_pool (fun pool ->
      with_obs (fun () ->
          let budget = Budget.start Budget.default in
          let r =
            ran_pooled "pooled vec run" (fun () ->
                Veval.run ~budget ~pool env0 selfjoin_q)
          in
          let evs = Obs.events () in
          Alcotest.(check bool) "run succeeded" true (Result.is_ok r);
          check_balanced evs;
          Alcotest.(check int) "steps == fuel with a pool"
            (Budget.fuel_spent budget) (sum_eval_steps evs)))

let test_trace_faulted_run () =
  Fault.with_faults ~seed:3 "eval.step:n=5" (fun () ->
      with_obs (fun () ->
          let r, budget, evs = run_traced selfjoin_q in
          (match r with
          | Error x ->
              Alcotest.(check string) "injected verdict" "injected-fault"
                (Budget.resource_to_string x.Budget.resource)
          | Ok _ -> Alcotest.fail "fault did not fire");
          check_balanced evs;
          Alcotest.(check int) "steps == fuel on the unwind path"
            (Budget.fuel_spent budget) (sum_eval_steps evs);
          match List.assoc_opt "outcome" (done_instant evs).Obs.args with
          | Some (Obs.Str "verdict") -> ()
          | _ -> Alcotest.fail "faulted trace must end in a verdict instant"))

let test_trace_cancelled_run () =
  with_obs (fun () ->
      let budget = Budget.start Budget.default in
      Budget.cancel budget;
      let r, _, evs = run_traced ~budget selfjoin_q in
      (match r with
      | Error x ->
          Alcotest.(check bool) "cancelled verdict" true
            (x.Budget.resource = Budget.Cancelled)
      | Ok _ -> Alcotest.fail "cancelled budget still produced a value");
      check_balanced evs;
      match List.assoc_opt "resource" (done_instant evs).Obs.args with
      | Some (Obs.Str s) ->
          Alcotest.(check string) "verdict instant names the resource"
            (Budget.resource_to_string Budget.Cancelled) s
      | _ -> Alcotest.fail "cancelled trace must end in a verdict instant")

let test_trace_exhausted_run () =
  with_obs (fun () ->
      let budget = Budget.start { Budget.default with Budget.fuel = 10 } in
      let r, budget, evs = run_traced ~budget tc_q in
      Alcotest.(check bool) "exhausted" true (Result.is_error r);
      check_balanced evs;
      Alcotest.(check int) "steps == fuel at exhaustion"
        (Budget.fuel_spent budget) (sum_eval_steps evs);
      Alcotest.(check bool) "budget instant recorded" true
        (List.exists (fun e -> e.Obs.cat = "budget") evs))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "prometheus snapshot" `Quick
            test_prometheus_snapshot;
        ] );
      ( "event core",
        [
          Alcotest.test_case "disabled captures nothing" `Quick
            test_disabled_no_events;
          Alcotest.test_case "capture order and ids" `Quick
            test_capture_order_and_ids;
          Alcotest.test_case "overflow drops oldest" `Quick
            test_ring_overflow_drops_oldest;
          Alcotest.test_case "cross-domain rings" `Quick
            test_cross_domain_rings;
          Alcotest.test_case "exporter shapes" `Quick test_exporter_shapes;
          Alcotest.test_case "systhreads share one ring" `Quick
            test_systhread_ring_creation;
        ] );
      ( "trace invariants",
        [
          Alcotest.test_case "steps == fuel (sequential)" `Quick
            test_trace_steps_equal_fuel_seq;
          Alcotest.test_case "steps == fuel (4 domains)" `Quick
            test_trace_steps_equal_fuel_parallel;
          Alcotest.test_case "faulted run" `Quick test_trace_faulted_run;
          Alcotest.test_case "cancelled run" `Quick test_trace_cancelled_run;
          Alcotest.test_case "exhausted run" `Quick test_trace_exhausted_run;
        ] );
    ]
