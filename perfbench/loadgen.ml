(* The benchmark's load generator.  See perfbench/README.md.

     loadgen --balgd PATH --work DIR --workload W --seed N --seconds S --trace 0|1
     loadgen --balgd PATH --work DIR --all --seed N --seconds S [--trace 1]
     loadgen --balgd PATH --work DIR --selftest faults|determinism --seed N

   The last stdout line of a single-workload run is the JSON result. *)

open Util

let setups = 5

let env_line ~w ~seed ~seconds ~trace =
  Printf.sprintf "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s balgd=%s"
    (Gen.workload_name w) seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (String.concat " " ("-p 0" :: Proc.server_flags))

let print_table rows =
  List.iter
    (fun (n, v, u, samples, raw) ->
      Printf.printf "%-32s %14.4f %-6s %-8s %s\n" n v u
        (match samples with Some k -> Printf.sprintf "n=%d" k | None -> "")
        (match raw with Some x -> Printf.sprintf "measured %.4f" x | None -> ""))
    rows

let check_problems (r : Wire.run) =
  List.iter (fun p -> Printf.printf "# CHECK FAILED: %s\n" p) r.Wire.problems;
  r.Wire.problems = []

let prepare ~work ~seed =
  let prebuilt = Filename.concat work "prebuilt" in
  rm_rf prebuilt;
  Gen.build_store ~seed ~dir:prebuilt;
  (prebuilt, Gen.initial_db seed)

let start ~balgd ~work ~prebuilt ~seed ~w ~fault k =
  Wire.start_cluster ~balgd ~work ~prebuilt ~tag:(Printf.sprintf "s%d" k) ~fault
    ~warmup:(Gen.warmup seed w)

(* End-to-end metrics, tracing off.  The window is split over [setups]
   clusters, each set up afresh and then driven for its share of the
   seconds along one continuing request stream: a server process can
   settle into a faster or slower scheduling regime for its whole life,
   so pooling several processes keeps one draw from deciding the run.
   Times and rates are rescaled by the run's host-speed factor; the
   table also prints them as measured. *)
let e2e ~balgd ~work ~w ~seed ~seconds ~fault =
  let prebuilt, db = prepare ~work ~seed in
  let hs = Hostspeed.create () in
  let stream = Gen.stream seed w and expect = Wire.reference db in
  let segment k =
    (* a set-up is rescaled by kernel samples taken right before and
       right after it *)
    let before = Hostspeed.sample hs in
    let cl, dt = start ~balgd ~work ~prebuilt ~seed ~w ~fault k in
    let after = Hostspeed.sample hs in
    let r =
      Fun.protect
        ~finally:(fun () -> Wire.stop_cluster cl)
        (fun () ->
          Wire.measure cl ~hs ~db ~expect ~stream ~w
            ~seconds:(seconds /. float_of_int setups)
            ~faults:(fault <> []))
    in
    ((dt, dt *. Hostspeed.factor_of ((before +. after) /. 2.)), r)
  in
  let times, runs = List.split (List.init setups (fun k -> segment (k + 1))) in
  let r = Wire.merge runs in
  rm_rf prebuilt;
  let f = Hostspeed.factor hs in
  let n l = Some (List.length l) in
  let time name v unit samples = (name, v *. f, unit, samples, Some v) in
  let ops = float_of_int (r.Wire.attempted - r.Wire.failed) /. r.Wire.elapsed_s in
  let rows =
    [
      ("setup_s", median (List.map snd times), "s", n times, Some (median (List.map fst times)));
      ("ops_per_s", ops /. f, "1/s", Some r.Wire.attempted, Some ops);
      time "read_p50_ms" (median r.Wire.reads_ms) "ms" (n r.Wire.reads_ms);
      time "write_p50_ms" (median r.Wire.writes_ms) "ms" (n r.Wire.writes_ms);
      (* set by the follower's 20 ms poll, not by CPU speed: not rescaled *)
      ("repl_lag_p50_ms", median r.Wire.lags_ms, "ms", n r.Wire.lags_ms, None);
      ("server_peak_rss_mb", r.Wire.rss_mb, "MiB", None, None);
    ]
  in
  Printf.printf "# host-speed factor %.4f (kernel median %.2f ms over %d samples)\n" f
    (median hs.Hostspeed.samples *. 1e3) (List.length hs.Hostspeed.samples);
  (r, rows)

(* The traced run: one set-up and a measured window for the servers'
   own counts and the end-to-end read median, then the in-process replay
   of the same seeded stream for the layer table. *)
let traced ~balgd ~work ~w ~seed ~seconds =
  let prebuilt, db = prepare ~work ~seed in
  let cl, _ = start ~balgd ~work ~prebuilt ~seed ~w ~fault:[] 1 in
  let hs = Hostspeed.create () in
  let r, rtt, prom =
    Fun.protect
      ~finally:(fun () -> Wire.stop_cluster cl)
      (fun () ->
        let r =
          Wire.measure cl ~hs ~db ~expect:(Wire.reference db) ~stream:(Gen.stream seed w) ~w ~seconds
            ~faults:false
        in
        let prom = Wire.control cl.Wire.cp "metrics" in
        (r, Wire.ping_floor_us cl 200, prom))
  in
  let rp = Replay.run ~seed ~w ~prebuilt ~work in
  rm_rf prebuilt;
  let hits = prom_value prom "balg_server_cache_hits_total"
  and misses = prom_value prom "balg_server_cache_misses_total" in
  let e2e_read_us = median r.Wire.reads_ms *. 1e3 in
  let rows =
    List.map (fun (k, v, u) -> (k, v, u, None, None)) rp.Replay.metrics
    @ [
        ("client.rtt_us", rtt, "us", Some 200, None);
        (* the p90s were unsteady across runs (garbage-collection pauses
           and host contention set the tails), so they are reported here
           and not as end-to-end metrics *)
        ("wire.read_p90_ms", quantile r.Wire.reads_ms 0.9, "ms", Some (List.length r.Wire.reads_ms), None);
        ("wire.write_p90_ms", quantile r.Wire.writes_ms 0.9, "ms", Some (List.length r.Wire.writes_ms), None);
        ("server.cache_hit_ratio", hits /. Float.max 1. (hits +. misses), "ratio", None, None);
        ("server.cache_evictions", prom_value prom "balg_server_cache_evictions_total", "count", None, None);
        ("server.cache_invalidations", prom_value prom "balg_server_cache_invalidations_total", "count", None, None);
        ("server.compactions", prom_value prom "balg_server_compactions_total", "count", None, None);
        ( "server.unattributed_us",
          e2e_read_us -. rp.Replay.read_layer_sum_us,
          "us",
          Some (List.length r.Wire.reads_ms),
          None );
      ]
  in
  (r, rows)

let result_json ~(r : Wire.run) ~correct rows =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
    r.Wire.attempted r.Wire.failed
    (metrics_json (List.map (fun (n, v, u, _, _) -> (n, v, u)) rows))

let run_one ~balgd ~work ~w ~seed ~seconds ~trace =
  print_endline (env_line ~w ~seed ~seconds ~trace:(Bool.to_int trace));
  let r, rows =
    if trace then traced ~balgd ~work ~w ~seed ~seconds
    else e2e ~balgd ~work ~w ~seed ~seconds ~fault:[]
  in
  print_table rows;
  let correct = check_problems r in
  (correct, result_json ~r ~correct rows)

(* --- self-tests ------------------------------------------------------------- *)

(* A short write_repl run against a primary whose sessions die at random
   must count the dead requests as failures, and still finish with a
   consistent follower and every acknowledged write in place. *)
let selftest_faults ~balgd ~work ~seed =
  let fault =
    [ "--fault"; "server.session:p=0.02"; "--fault-seed"; string_of_int seed ]
  in
  let r, _ = e2e ~balgd ~work ~w:Gen.Write_repl ~seed ~seconds:5. ~fault in
  let ok = check_problems r in
  Printf.printf "faults: attempted=%d failed=%d failed_share=%.4f\n" r.Wire.attempted r.Wire.failed
    (float_of_int r.Wire.failed /. float_of_int (max 1 r.Wire.attempted));
  ok && r.Wire.failed > 0 && r.Wire.failed < r.Wire.attempted

(* Two replays of one seed, each in a fresh process, must give identical
   layer counts; a different seed must change them. *)
let selftest_determinism ~work ~seed =
  let counts w s =
    let out = Filename.concat work "counts.txt" in
    let cmd =
      Printf.sprintf "%s --replay-counts --workload %s --seed %d --work %s > %s"
        (Filename.quote Sys.executable_name) (Gen.workload_name w) s (Filename.quote work)
        (Filename.quote out)
    in
    if Sys.command cmd <> 0 then failwith ("replay failed: " ^ cmd);
    let c = read_file out in
    Sys.remove out;
    c
  in
  List.for_all
    (fun w ->
      let a = counts w seed and b = counts w seed and c = counts w (seed + 1) in
      let same = String.equal a b and differs = not (String.equal a c) in
      Printf.printf "determinism %s: same seed %s, other seed %s\n" (Gen.workload_name w)
        (if same then "identical" else "DIFFERENT") (if differs then "differs" else "IDENTICAL");
      if not same then print_string ("--- run 1\n" ^ a ^ "--- run 2\n" ^ b);
      same && differs)
    Gen.workloads

let replay_counts ~work ~w ~seed =
  let prebuilt, _ = prepare ~work ~seed in
  let rp = Replay.run ~seed ~w ~prebuilt ~work in
  rm_rf prebuilt;
  List.iter
    (fun (k, v, _) -> if List.mem k Replay.deterministic then Printf.printf "%s %.17g\n" k v)
    rp.Replay.metrics

(* --- command line ----------------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let balgd = ref "" and work = ref "" and workload = ref "" and seed = ref 1 in
  let seconds = ref 10. and trace = ref 0 and all = ref false in
  let selftest = ref "" and counts = ref false in
  Arg.parse
    [
      ("--balgd", Arg.Set_string balgd, "PATH balgd executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for stores and logs");
      ("--workload", Arg.Set_string workload, "NAME read_hot | read_cold | write_repl");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the layer table");
      ("--all", Arg.Set all, " run every workload");
      ("--selftest", Arg.Set_string selftest, "NAME faults | determinism");
      ("--replay-counts", Arg.Set counts, " print one replay's layer counts");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "loadgen: end-to-end benchmark for balgd";
  if String.equal !work "" then (prerr_endline "loadgen: --work is required"; exit 2);
  mkdir_p !work;
  let workload () =
    match Gen.workload_of_name !workload with
    | Some w -> w
    | None -> prerr_endline ("loadgen: unknown workload " ^ !workload); exit 2
  in
  let code =
    try
      if !counts then (replay_counts ~work:!work ~w:(workload ()) ~seed:!seed; 0)
      else if String.equal !selftest "determinism" then
        if selftest_determinism ~work:!work ~seed:!seed then 0 else 1
      else if String.equal !selftest "faults" then
        if selftest_faults ~balgd:!balgd ~work:!work ~seed:!seed then 0 else 1
      else if !all then
        let results =
          List.map
            (fun w ->
              let ok, json = run_one ~balgd:!balgd ~work:!work ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
              print_endline json;
              ok)
            Gen.workloads
        in
        if List.for_all Fun.id results then 0 else 1
      else begin
        let ok, json =
          run_one ~balgd:!balgd ~work:!work ~w:(workload ()) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        in
        print_endline json;
        if ok then 0 else 1
      end
    with e ->
      Proc.stop_all ();
      prerr_endline ("loadgen: " ^ Printexc.to_string e);
      2
  in
  Proc.stop_all ();
  exit code
