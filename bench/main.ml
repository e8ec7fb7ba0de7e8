(* bench/main.exe — runs the full experiment harness (every table and figure
   of the paper, sections E1..E19) and then a Bechamel timing suite with one
   benchmark per experiment family. *)

open Balg
open Bechamel
open Toolkit

let staged = Staged.stage

(* Pre-built workloads, shared by the timing closures. *)

let rng = Random.State.make [| 20260705 |]

let bag12 =
  Value.bag_of_list
    (List.init 12 (fun i -> Value.tuple [ Value.atom (Printf.sprintf "t%02d" i) ]))

let binary20 = Baggen.Genval.flat_bag rng ~n_atoms:6 ~arity:2 ~size:20 ~max_count:3

let graph8 = Baggen.Genval.graph rng ~n:8 ~p:0.3

let rel10 =
  Value.bag_of_list
    (List.init 10 (fun i -> Value.tuple [ Value.atom (Printf.sprintf "e%02d" i) ]))

let leq10 = Baggen.Genval.leq_relation rel10

let eval_closed e = Eval.run (Eval.env_of_list []) e

let selfjoin_q = Derived.selfjoin (Expr.lit binary20 (Ty.relation 2))
let tc_q = Derived.transitive_closure (Expr.lit graph8 (Ty.relation 2))

let parity_q =
  Derived.parity_even (Expr.lit rel10 (Ty.relation 1)) (Expr.lit leq10 (Ty.relation 2))

let card_q =
  Derived.card_gt_paper (Expr.lit rel10 (Ty.relation 1)) (Expr.lit rel10 (Ty.relation 1))

let even_formula =
  Encodings.Arith.(Exists (Eq (TAdd (TVar 1, TVar 1), TInput)))

let pushdown_env = Typecheck.env_of_list [ ("R", Ty.relation 1); ("S", Ty.relation 2) ]

let pushdown_raw =
  Expr.Select
    ( "x",
      Expr.Proj (1, Expr.Var "x"),
      Expr.atom "a",
      Expr.Product (Expr.Var "R", Expr.Var "S") )

let pushdown_opt = fst (Rewrite.normalize pushdown_env pushdown_raw)

let pushdown_inst =
  Eval.env_of_list
    [
      ("R", Baggen.Genval.flat_bag rng ~n_atoms:8 ~arity:1 ~size:30 ~max_count:2);
      ("S", Baggen.Genval.flat_bag rng ~n_atoms:8 ~arity:2 ~size:30 ~max_count:2);
    ]

let polyab_expr = Expr.(Expr.proj_attrs [ 1 ] (Var "B" *** Var "B") -- Var "B")

let parse_input = Expr.to_string tc_q

(* Large workloads for the kernel rows: a 300-row binary relation whose
   self-product materialises 90k rows.  Built lazily so the default
   experiment run doesn't pay for them. *)

let binary300 =
  lazy (Baggen.Genval.flat_bag rng ~n_atoms:40 ~arity:2 ~size:300 ~max_count:2)

let product300 = lazy (Bag.product (Lazy.force binary300) (Lazy.force binary300))

let selfjoin300_q =
  lazy (Derived.selfjoin (Expr.lit (Lazy.force binary300) (Ty.relation 2)))

(* Optimizer workloads: the same 300-row kernels phrased as unoptimized
   algebra (selection over a product *expression*, not a pre-materialised
   literal), so `_opt` rows measure what `balgi eval --optimize cost`
   actually does — plan (inside the timed closure) and evaluate. *)

let lit300 = lazy (Expr.lit (Lazy.force binary300) (Ty.relation 2))

let select_product300_q =
  lazy
    (let b = Lazy.force lit300 in
     Expr.Select
       ( "x",
         Expr.Proj (2, Expr.Var "x"),
         Expr.Proj (3, Expr.Var "x"),
         Expr.Product (b, b) ))

let proj_product300_expr_q =
  lazy
    (let b = Lazy.force lit300 in
     Expr.proj_attrs [ 1; 4 ] (Expr.Product (b, b)))

(* σ_{4=5}(σ_{2=3}(B×B) × B): the product+select_eq chain the planner
   turns into two stacked hash joins. *)
let join_chain300_q =
  lazy
    (let b = Lazy.force lit300 in
     Expr.Select
       ( "y",
         Expr.Proj (4, Expr.Var "y"),
         Expr.Proj (5, Expr.Var "y"),
         Expr.Product (Lazy.force select_product300_q, b) ))

(* Loader inputs, the shapes balgd parses: a 500-row binary def as a
   client writes it (rows in generation order), the same def as balgd
   renders it into its WAL and ships it (canonical), and a whole rendered
   database like a snapshot — sixteen 300-row graphs, four 4,000-row
   lookups and eight 500-row relations, about 400 KB. *)

let bagdb_decl st name ~rows ~domain =
  Printf.sprintf "bag %s : {{<U, U>}} = {{ %s }}" name
    (String.concat ", "
       (List.init rows (fun _ ->
            Printf.sprintf "<'w%d, 'w%d>" (Random.State.int st domain)
              (Random.State.int st domain))))

let def500_text =
  lazy (bagdb_decl (Random.State.make [| 1 |]) "W0" ~rows:500 ~domain:1000)

let def500_canonical_text =
  lazy (Baglang.Bagdb.render (Baglang.Bagdb.parse (Lazy.force def500_text)))

let db_seed1_text =
  lazy
    (let st = Random.State.make [| 1 |] in
     let group prefix n ~rows ~domain =
       List.init n (fun i ->
           bagdb_decl st (Printf.sprintf "%s%d" prefix i) ~rows ~domain)
     in
     Baglang.Bagdb.render
       (Baglang.Bagdb.parse
          (String.concat "\n"
             (group "G" 16 ~rows:300 ~domain:40
             @ group "L" 4 ~rows:4000 ~domain:8192
             @ group "W" 8 ~rows:500 ~domain:1000))))

let tests =
  Test.make_grouped ~name:"balg" ~fmt:"%s/%s"
    [
      Test.make ~name:"e01 powerset (12 distinct)"
        (staged (fun () -> ignore (Bag.powerset bag12)));
      Test.make ~name:"e02 destroy-powerset"
        (staged (fun () -> ignore (Bag.destroy (Bag.powerset bag12))));
      Test.make ~name:"e05 self-join eval (20 tuples)"
        (staged (fun () -> ignore (eval_closed selfjoin_q)));
      Test.make ~name:"e06 polynomial abstraction"
        (staged (fun () -> ignore (Polyab.analyze ~input:"B" polyab_expr)));
      Test.make ~name:"e08 cardinality comparison"
        (staged (fun () -> ignore (eval_closed card_q)));
      Test.make ~name:"e09 parity with order (card 10)"
        (staged (fun () -> ignore (eval_closed parity_q)));
      Test.make ~name:"e13 arith compile+eval (bound 6)"
        (staged (fun () ->
             ignore
               (Encodings.Arith.holds_via_algebra ~bound:6 ~input:6 even_formula)));
      Test.make ~name:"e16 tm-ifp parity (n=3)"
        (staged (fun () ->
             ignore
               (Encodings.Tmifp.accepts Turing.Tm.parity_even ~space:5
                  (Turing.Tm.unary 3))));
      Test.make ~name:"e17 transitive closure (n=8)"
        (staged (fun () -> ignore (eval_closed tc_q)));
      Test.make ~name:"e18 selection raw"
        (staged (fun () -> ignore (Eval.run pushdown_inst pushdown_raw)));
      Test.make ~name:"e18 selection pushed down"
        (staged (fun () -> ignore (Eval.run pushdown_inst pushdown_opt)));
      Test.make ~name:"lang parse (TC query)"
        (staged (fun () -> ignore (Baglang.Parser.expr_of_string parse_input)));
      Test.make ~name:"e20 group-by via nest (20 tuples)"
        (staged (fun () ->
             ignore (eval_closed (Derived.group_count [ 1 ] (Expr.lit binary20 (Ty.relation 2))))));
      Test.make ~name:"telemetry overhead (self-join)"
        (staged (fun () ->
             ignore
               (Eval.run ~telemetry:(Telemetry.create ()) (Eval.env_of_list [])
                  selfjoin_q)));
    ]

let run_benchmarks () =
  print_endline "\n==========================================================";
  print_endline " Bechamel timing suite (OLS estimate on the monotonic clock)";
  print_endline "==========================================================";
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.3) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some [ e ] -> e
          | _ -> nan
        in
        (name, est) :: acc)
      results []
  in
  List.iter
    (fun (name, est) ->
      if est < 1_000. then Printf.printf "  %-48s %12.1f ns/run\n" name est
      else if est < 1_000_000. then
        Printf.printf "  %-48s %12.2f us/run\n" name (est /. 1_000.)
      else Printf.printf "  %-48s %12.2f ms/run\n" name (est /. 1_000_000.))
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* --json: a machine-readable run for CI.  Hand-rolled measurement — a
   calibrated batch size, the median over repeated batches, allocation
   words from [Gc.allocated_bytes], and the memo counts of one governed
   telemetry run. *)

type jbench = {
  jname : string;
  jengine : string;  (** "tree" or "vec" — the engine column of the report *)
  jrun : unit -> unit;
  jmemo : bool;  (** evaluator benches report a memo hit rate *)
  jquery : Expr.t option;
      (** evaluator benches keep their query so one extra governed run can
          collect a telemetry summary for the report *)
}

let json_benches ?pool () =
  let metered ?pool ?(engine = Veval.Tree) name q =
    {
      jname = name;
      jengine = Veval.engine_to_string engine;
      jrun =
        (fun () -> ignore (Veval.run_engine engine ?pool (Eval.env_of_list []) q));
      jmemo = true;
      jquery = Some q;
    }
  in
  (* `_opt` rows run the cost-based planner *inside* the timed closure and
     evaluate its plan: the row prices the end-to-end `--optimize cost`
     experience, planning overhead included.  With --miscost the planner's
     objective is inverted (Opt.invert_cost), no beneficial rewrite is
     accepted, and these rows regress against the optimised baseline —
     the gate's self-test. *)
  let metered_opt name q =
    let tenv = Typecheck.env_of_list [] in
    {
      jname = name;
      jengine = "tree";
      jrun =
        (fun () ->
          ignore
            (Eval.run (Eval.env_of_list []) (Opt.prepare Opt.Cost tenv q)));
      jmemo = true;
      jquery = Some (Opt.prepare Opt.Cost tenv q);
    }
  in
  (* Kernel benches time the raw [Bag] entry point, but each carries the
     algebra query computing the same thing, so the telemetry column of
     BENCH_eval.json is never null — one governed run per row. *)
  let plain ?(engine = "tree") ~query name f =
    { jname = name; jengine = engine; jrun = f; jmemo = false; jquery = Some query }
  in
  (* Loader rows carry the literal of the first bag they load. *)
  let parse_bagdb name text =
    let text = Lazy.force text in
    let query =
      match Baglang.Bagdb.parse text with
      | (_, ty, v) :: _ -> Expr.lit v ty
      | [] -> invalid_arg "parse_bagdb: no declaration"
    in
    plain ~query name (fun () -> ignore (Baglang.Bagdb.parse text))
  in
  let powerset12_q = Expr.Powerset (Expr.lit bag12 (Ty.relation 1)) in
  let product20_q =
    Expr.Product
      (Expr.lit binary20 (Ty.relation 2), Expr.lit binary20 (Ty.relation 2))
  in
  let product300_q =
    lazy
      (Expr.Product
         ( Expr.lit (Lazy.force binary300) (Ty.relation 2),
           Expr.lit (Lazy.force binary300) (Ty.relation 2) ))
  in
  let select300_q =
    lazy
      (Expr.Select
         ( "x",
           Expr.Proj (2, Expr.Var "x"),
           Expr.Proj (3, Expr.Var "x"),
           Expr.lit (Lazy.force product300) (Ty.relation 4) ))
  in
  let proj300_q =
    lazy
      (Expr.proj_attrs [ 1; 4 ]
         (Expr.lit (Lazy.force product300) (Ty.relation 4)))
  in
  (* Columnar counterparts of the 300-row kernel benches: inputs converted
     once outside the timing loop (the tree rows likewise pre-materialise
     [product300]).  [product]/[select] stay columnar — each engine
     produces its native representation, and in a vec pipeline the output
     feeds the next kernel without ever being boxed — while [proj] keeps
     the [Vec.to_value] boundary so one row per report prices the full
     kernel-plus-boxing round trip. *)
  let vec300 = lazy (Vec.of_value (Lazy.force binary300)) in
  let vecprod300 = lazy (Vec.of_value (Lazy.force product300)) in
  let sel_l = Vec.SField (2, Vec.SRow) and sel_r = Vec.SField (3, Vec.SRow) in
  let proj14 = Vec.SRecord [ Vec.SField (1, Vec.SRow); Vec.SField (4, Vec.SRow) ] in
  let join_chain300_vec_q =
    lazy
      (Opt.prepare ~engine:Veval.Vec Opt.Cost (Typecheck.env_of_list [])
         (Lazy.force join_chain300_q))
  in
  let base =
    [
      plain ~query:powerset12_q "powerset_12" (fun () ->
          ignore (Bag.powerset bag12));
      plain ~query:(Expr.Destroy powerset12_q) "destroy_powerset_12"
        (fun () -> ignore (Bag.destroy (Bag.powerset bag12)));
      metered "selfjoin_binary20" selfjoin_q;
      metered "transitive_closure_graph8" tc_q;
      metered "parity_card10" parity_q;
      metered "card_compare_10" card_q;
      metered "group_count_binary20"
        (Derived.group_count [ 1 ] (Expr.lit binary20 (Ty.relation 2)));
      plain ~query:product20_q "product_binary20" (fun () ->
          ignore (Bag.product binary20 binary20));
      plain ~query:tc_q "parse_tc_query" (fun () ->
          ignore (Baglang.Parser.expr_of_string parse_input));
      plain ~query:(Lazy.force product300_q) "product_binary300" (fun () ->
          ignore (Bag.product (Lazy.force binary300) (Lazy.force binary300)));
      plain ~query:(Lazy.force select300_q) "select_eq_product300" (fun () ->
          ignore (Bag.select_eq 2 3 (Lazy.force product300)));
      plain ~query:(Lazy.force proj300_q) "proj_product300" (fun () ->
          ignore (Bag.proj [ 1; 4 ] (Lazy.force product300)));
      metered "selfjoin_binary300" (Lazy.force selfjoin300_q);
      metered "join_chain300" (Lazy.force join_chain300_q);
      metered_opt "product_binary300_opt" (Lazy.force product300_q);
      metered_opt "select_eq_product300_opt" (Lazy.force select_product300_q);
      metered_opt "proj_product300_opt" (Lazy.force proj_product300_expr_q);
      metered_opt "selfjoin_binary300_opt" (Lazy.force selfjoin300_q);
      metered_opt "join_chain300_opt" (Lazy.force join_chain300_q);
      plain ~engine:"vec" ~query:(Lazy.force product300_q)
        "product_binary300_vec" (fun () ->
          ignore (Vec.product (Lazy.force vec300) (Lazy.force vec300)));
      plain ~engine:"vec" ~query:(Lazy.force select300_q)
        "select_eq_product300_vec" (fun () ->
          ignore (Vec.select_scalar sel_l sel_r (Lazy.force vecprod300)));
      plain ~engine:"vec" ~query:(Lazy.force proj300_q) "proj_product300_vec"
        (fun () ->
          ignore (Vec.to_value (Vec.map_scalar proj14 (Lazy.force vecprod300))));
      metered ~engine:Veval.Vec "selfjoin_binary300_vec" (Lazy.force selfjoin300_q);
      (* planned once outside the timing loop, so the row prices the two
         stacked Vec.join kernels rather than the planner *)
      metered ~engine:Veval.Vec "join_chain300_vec"
        (Lazy.force join_chain300_vec_q);
      metered ~engine:Veval.Vec "transitive_closure_graph8_vec" tc_q;
      parse_bagdb "bagdb_parse_def500" def500_text;
      parse_bagdb "bagdb_parse_def500_canonical" def500_canonical_text;
      parse_bagdb "bagdb_parse_db_seed1" db_seed1_text;
    ]
  in
  (* With [--jobs N], the benches whose kernels take a pool (the vec
     selection and join) also run as [_jobsN] rows, so BENCH_eval.json
     records sequential and parallel medians side by side.  The tree
     kernels and Vec.product are sequential and have no such rows.  The
     regression gate measures without a pool, so [_jobsN] rows in an
     older baseline are simply skipped. *)
  match pool with
  | None -> base
  | Some p ->
      let j = Pool.jobs p in
      let tag name = Printf.sprintf "%s_jobs%d" name j in
      base
      @ [
          plain ~engine:"vec" ~query:(Lazy.force select300_q)
            (tag "select_eq_product300_vec") (fun () ->
              ignore
                (Vec.select_scalar ~pool:p sel_l sel_r
                   (Lazy.force vecprod300)));
          metered ~pool:p ~engine:Veval.Vec (tag "selfjoin_binary300_vec")
            (Lazy.force selfjoin300_q);
          (* the second join probes the ~2k-row σ_{2=3}(B×B), past
             [Pool.chunk_min], so its probe side chunks *)
          metered ~pool:p ~engine:Veval.Vec (tag "join_chain300_vec")
            (Lazy.force join_chain300_vec_q);
        ]

(* Kernel rows allocate multi-megabyte arrays straight into the major
   heap; under default GC pacing their measured cost is dominated by the
   sweep debt of whatever row ran before them rather than their own work
   (observed 4-15x swings run to run).  A larger minor heap and a lazier
   major slice, plus a compaction between rows, make each row pay for its
   own allocations.  Benchmark process only — the library never touches
   GC knobs. *)
let pace_gc () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 4 * 1024 * 1024;
      space_overhead = 200;
    }

let measure b =
  b.jrun ();
  (* warmup *)
  Gc.compact ();
  let rec calibrate k =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to k do
      b.jrun ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 1e-3 || k >= 1_000_000 then k else calibrate (k * 4)
  in
  let k = calibrate 1 in
  let samples =
    List.init 15 (fun _ ->
        (* Reset the collector to the same phase before every sample
           (untimed): each sample then pays only the slices its own
           allocation triggers, instead of marking debt left by the
           previous sample — the one-sample-per-batch rows otherwise
           swing 4-15x with the phase they happen to land on. *)
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        for _ = 1 to k do
          b.jrun ()
        done;
        (Unix.gettimeofday () -. t0) /. float k *. 1e9)
  in
  let median =
    let sorted = List.sort Float.compare samples in
    List.nth sorted (List.length sorted / 2)
  in
  (* Fold the samples through a log-bucketed histogram so the report
     carries the same p50/p90/p99 shape the metrics registry exports —
     bucket upper bounds, hence p50 >= the exact median. *)
  let percentiles =
    let reg = Metrics.create () in
    let h = Metrics.histogram reg "samples_ns" in
    List.iter (fun ns -> Metrics.observe h (int_of_float ns)) samples;
    ( Metrics.percentile h 0.50,
      Metrics.percentile h 0.90,
      Metrics.percentile h 0.99 )
  in
  (* The multicore runtime buffers allocation stats per domain and merges
     them at minor collections, so flush with [Gc.minor] on both sides of
     the counted loop — otherwise a large minor heap undercounts badly. *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to k do
    b.jrun ()
  done;
  Gc.minor ();
  let alloc_words =
    (Gc.allocated_bytes () -. a0) /. float k /. float (Sys.word_size / 8)
  in
  (median, alloc_words, percentiles)

(* One governed run per evaluator bench, outside the timing loops, to fold
   a per-query telemetry summary (steps, spans, peak support, memo counts)
   and the memo hit rate into the report.  Memo tables are per run, so one
   run's rate is every run's. *)
let telemetry_run b =
  Option.map
    (fun q ->
      let t = Telemetry.create () in
      let engine = Option.get (Veval.engine_of_string b.jengine) in
      ignore (Veval.run_engine engine ~telemetry:t (Eval.env_of_list []) q);
      t)
    b.jquery

let run_json ?pool () =
  let out = "BENCH_eval.json" in
  let rows =
    List.map
      (fun b ->
        let median, alloc, (p50, p90, p99) = measure b in
        Printf.printf "  %-28s %12.0f ns/run  %10.0f words/run\n%!" b.jname
          median alloc;
        let t = telemetry_run b in
        (* null means "this bench has no memo table at all"; a bench that
           has one but never consulted it reports an honest 0.0000. *)
        let memo =
          match t with
          | Some t when b.jmemo ->
              let hits = ref 0 and total = ref 0 in
              Telemetry.iter t (fun sp ->
                  hits := !hits + sp.Telemetry.memo_hits;
                  total := !total + sp.Telemetry.memo_hits + sp.Telemetry.memo_misses);
              if !total = 0 then "0.0000"
              else Printf.sprintf "%.4f" (float !hits /. float !total)
          | _ -> "null"
        in
        Printf.sprintf
          "    {\"name\": \"%s\", \"engine\": \"%s\", \"median_ns\": %.1f, \
           \"p50_ns\": %.0f, \
           \"p90_ns\": %.0f, \"p99_ns\": %.0f, \
           \"alloc_words_per_run\": %.1f, \"memo_hit_rate\": %s, \
           \"telemetry\": %s}"
          (Obs.json_escape b.jname) (Obs.json_escape b.jengine) median p50 p90 p99
          alloc memo
          (match t with Some t -> Telemetry.summary_json t | None -> "null"))
      (json_benches ?pool ())
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n  \"schema\": \"balg-bench-v1\",\n  \"benchmarks\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" rows);
  close_out oc;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* --gate BASELINE: the benchmark-regression gate.  Re-measures every
   json bench three times and keeps the best median (cold-cache noise only
   ever slows a run down), reads the committed baseline back with a
   hand-rolled scanner for our own one-row-per-line schema, and compares
   *calibrated* ratios: each bench's current/baseline ratio is divided by
   the median ratio across all benches, so a uniformly faster or slower CI
   machine cancels out and only relative regressions remain.  Any bench
   whose calibrated ratio exceeds the threshold fails the gate. *)

let gate_threshold = 1.25

let arg_values flag =
  let n = Array.length Sys.argv in
  let rec go i acc =
    if i >= n then List.rev acc
    else if Sys.argv.(i) = flag && i + 1 < n then
      go (i + 2) (Sys.argv.(i + 1) :: acc)
    else go (i + 1) acc
  in
  go 1 []

let arg_value flag = match arg_values flag with v :: _ -> Some v | [] -> None

(* [--handicap NAME=FACTOR] multiplies NAME's measured median, simulating a
   regression in exactly one bench — the self-test that the gate actually
   fires.  (A uniform slowdown would be cancelled by calibration; a
   single-bench one cannot be.) *)
let handicaps () =
  List.map
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
          ( String.sub spec 0 i,
            float_of_string
              (String.sub spec (i + 1) (String.length spec - i - 1)) )
      | None -> failwith ("bad --handicap (want NAME=FACTOR): " ^ spec))
    (arg_values "--handicap")

(* baseline scanner: rows are written one per line by [run_json], so
   extracting ["name"]/["median_ns"] per line is a full parse of our own
   schema *)
let scan_field line key =
  let n = String.length line and m = String.length key in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = key then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let rec skip i =
        if i < n && (line.[i] = ':' || line.[i] = ' ' || line.[i] = '"') then
          skip (i + 1)
        else i
      in
      let start = skip i in
      let rec stop i =
        if
          i < n
          && (match line.[i] with
             | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
             | c -> not (c = '"' || c = ',' || c = '}'))
        then stop (i + 1)
        else i
      in
      let fin = stop start in
      if fin > start then Some (String.sub line start (fin - start)) else None

let parse_baseline path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match (scan_field line "\"name\"", scan_field line "\"median_ns\"") with
       | Some name, Some med -> rows := (name, float_of_string med) :: !rows
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

let median_of xs =
  let sorted = List.sort Float.compare xs in
  List.nth sorted (List.length sorted / 2)

let best_of_3 b =
  List.fold_left min infinity
    (List.init 3 (fun _ ->
         let median, _, _ = measure b in
         median))

let run_gate baseline_path =
  let baseline = parse_baseline baseline_path in
  if baseline = [] then begin
    Printf.eprintf "gate: no benchmarks found in %s\n" baseline_path;
    exit 1
  end;
  let hc = handicaps () in
  let current =
    List.map
      (fun b ->
        Printf.printf "  measuring %-28s ...%!" b.jname;
        let med = best_of_3 b in
        let med =
          match List.assoc_opt b.jname hc with
          | Some f ->
              Printf.printf " (handicap x%g)" f;
              med *. f
          | None -> med
        in
        Printf.printf " %12.0f ns\n%!" med;
        (b.jname, med))
      (json_benches ())
  in
  let joined =
    List.filter_map
      (fun (name, cur) ->
        match List.assoc_opt name baseline with
        | Some base when base > 0. -> Some (name, base, cur, cur /. base)
        | _ ->
            Printf.printf "  note: %s has no baseline entry, skipped\n" name;
            None)
      current
  in
  if joined = [] then begin
    Printf.eprintf "gate: no benchmarks in common with the baseline\n";
    exit 1
  end;
  let cal = median_of (List.map (fun (_, _, _, r) -> r) joined) in
  Printf.printf "calibration: median current/baseline ratio = %.3f\n" cal;
  let rows =
    List.map
      (fun (name, base, cur, r) ->
        let adj = r /. cal in
        (name, base, cur, adj, adj > gate_threshold))
      joined
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "## Benchmark gate\n\n";
  Buffer.add_string buf
    (Printf.sprintf
       "Calibration factor %.3f (median raw ratio); threshold %.2fx.\n\n" cal
       gate_threshold);
  Buffer.add_string buf
    "| benchmark | baseline ns | current ns | calibrated ratio | status |\n";
  Buffer.add_string buf "|---|---:|---:|---:|---|\n";
  List.iter
    (fun (name, base, cur, adj, failed) ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %.0f | %.0f | %.2fx | %s |\n" name base cur adj
           (if failed then "**FAIL**" else "ok")))
    rows;
  let table = Buffer.contents buf in
  print_newline ();
  print_string table;
  let summary_file =
    match arg_value "--summary" with
    | Some f -> Some f
    | None -> Sys.getenv_opt "GITHUB_STEP_SUMMARY"
  in
  (match summary_file with
  | Some f ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 f in
      output_string oc table;
      close_out oc
  | None -> ());
  let failures = List.filter (fun (_, _, _, _, failed) -> failed) rows in
  if failures <> [] then begin
    Printf.eprintf "gate: %d benchmark(s) regressed beyond %.0f%%\n"
      (List.length failures)
      ((gate_threshold -. 1.) *. 100.);
    exit 1
  end;
  Printf.printf "gate: all %d benchmarks within %.0f%% of baseline\n"
    (List.length rows)
    ((gate_threshold -. 1.) *. 100.)

let () =
  pace_gc ();
  (* --miscost: invert the planner's objective so `_opt` rows run their
     deliberately-miscosted (unoptimized) plans — used by CI to prove the
     gate catches an optimizer regression. *)
  if Array.exists (( = ) "--miscost") Sys.argv then Opt.invert_cost := true;
  let pool =
    match arg_value "--jobs" with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some j when j >= 1 ->
            if j > 1 then Some (Pool.create ~jobs:j ()) else None
        | _ ->
            Printf.eprintf "bench: --jobs wants a positive integer, got %S\n" s;
            exit 2)
  in
  (match arg_value "--gate" with
  | Some baseline -> run_gate baseline
  | None ->
      if Array.exists (( = ) "--json") Sys.argv then run_json ?pool ()
      else begin
        Experiments.run_all ();
        run_benchmarks ();
        print_endline "\nAll experiments completed."
      end);
  Option.iter Pool.shutdown pool
