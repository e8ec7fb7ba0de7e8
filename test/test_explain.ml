(* Tests for EXPLAIN over the governed evaluator: results agree with Eval,
   binder bodies accumulate calls, fixpoints iterate, guards and faults
   come back as verdicts, and the measured column is the spans of the run
   eval --stats would print. *)

open Balg

let value = Alcotest.testable Value.pp Value.equal

let rel2 l =
  Value.bag_of_list
    (List.map (fun (x, y) -> Value.tuple [ Value.atom x; Value.atom y ]) l)

let g = rel2 [ ("a", "b"); ("b", "c"); ("c", "d") ]
let env = Eval.env_of_list [ ("G", g) ]

let tenv = Typecheck.env_of_list [ ("G", Ty.relation 2) ]
let vals = [ ("G", g) ]

let eval_ok q = Expect.ok (Eval.run env q)

let analyze ?(engine = Veval.Tree) q =
  Expect.ok (Explain.analyze ~env ~vals ~tenv ~engine q)

let rec find_an op (a : Explain.annotated) =
  if a.Explain.an_op = op then Some a
  else List.find_map (find_an op) a.Explain.an_children

(* The profiler is a view over the governed evaluator: same value, call
   counts of the closures that really ran. *)

let agrees_with_eval engine =
  List.iter
    (fun q ->
      let v, _ = analyze ~engine q in
      Alcotest.check value "profiled result equals Eval" (eval_ok q) v)
    [
      Derived.selfjoin (Expr.Var "G");
      Derived.transitive_closure (Expr.Var "G");
      Expr.Powerset (Expr.proj_attrs [ 1 ] (Expr.Var "G"));
      Derived.indeg_gt_outdeg (Expr.Var "G") (Expr.atom "b");
    ]

let test_agrees_with_eval () = agrees_with_eval Veval.Tree

let test_binder_call_counts () =
  (* a general map body runs once per distinct member ... *)
  let q =
    Expr.Map
      ("x", Expr.Tuple [ Expr.Proj (2, Expr.Var "x"); Expr.atom "k" ], Expr.Var "G")
  in
  let _, a = analyze q in
  (match find_an "tuple" a with
  | Some body -> Alcotest.(check int) "3 body evaluations" 3 body.Explain.an_calls
  | None -> Alcotest.fail "no tuple node");
  (match find_an "map" a with
  | Some m ->
      Alcotest.(check int) "map evaluated once" 1 m.Explain.an_calls;
      Alcotest.(check int) "result support" 3 m.Explain.an_actual
  | None -> Alcotest.fail "no map node");
  (* ... while a projection runs as the proj kernel, whose body never runs *)
  let _, a = analyze (Expr.proj_attrs [ 1 ] (Expr.Var "G")) in
  match find_an "tuple" a with
  | Some body -> Alcotest.(check int) "proj kernel skips the body" 0 body.Explain.an_calls
  | None -> Alcotest.fail "no tuple node"

let test_fixpoint_iterations_visible () =
  let q = Derived.transitive_closure (Expr.Var "G") in
  let _, a = analyze q in
  match find_an "bfix" a with
  | Some fx ->
      Alcotest.(check bool) "fixpoint recorded" true (fx.Explain.an_calls >= 1);
      (* the body (second child: bound, body, seed) iterates; its union_max
         runs once per fixpoint step *)
      let body = find_an "union_max" (List.nth fx.Explain.an_children 1) in
      Alcotest.(check bool) "body iterated" true
        ((Option.get body).Explain.an_calls >= 2)
  | None -> Alcotest.fail "no bfix node"

let expect_support_verdict what = function
  | Error { Budget.resource = Budget.Support; op = "powerset"; _ } -> ()
  | Error x -> Alcotest.failf "%s: wrong verdict %s" what (Budget.exhaustion_to_string x)
  | Ok _ -> Alcotest.failf "%s: expected a support verdict" what

let small = { Budget.default with Budget.max_support = 3 }

let test_guard_fires () =
  let q = Expr.Powerset (Expr.proj_attrs [ 1 ] (Expr.Var "G")) in
  expect_support_verdict "analyze"
    (Explain.analyze ~limits:small ~env ~vals ~tenv ~engine:Veval.Tree q)

let test_rendering () =
  let _, a = analyze (Derived.selfjoin (Expr.Var "G")) in
  let s = Explain.analysis_to_string a in
  Alcotest.(check bool) "mentions product" true
    (List.exists
       (fun line -> String.starts_with ~prefix:"product" (String.trim line))
       (String.split_on_char '\n' s))

(* --engine vec: the explain output is the executed plan — same result as
   Eval, engine labels on every node, kernels and fallbacks side by side. *)

let rec plan_engines (p : Veval.plan) =
  p.Veval.p_engine :: List.concat_map plan_engines p.Veval.p_children

let test_vec_agrees_with_eval () = agrees_with_eval Veval.Vec

let test_vec_plan_labels () =
  let q = Expr.Powerset (Expr.proj_attrs [ 1 ] (Expr.Var "G")) in
  let plan = ref None in
  ignore (Veval.run ~report:(fun p -> plan := Some p) env q);
  let plan = Option.get !plan in
  let engines = plan_engines plan in
  Alcotest.(check string) "powerset on the tree path" "tree" plan.Veval.p_engine;
  Alcotest.(check bool) "some subtree ran a vec kernel" true
    (List.exists (String.starts_with ~prefix:"vec:") engines);
  let s = Veval.plan_to_string plan in
  Alcotest.(check bool) "rendering shows the engine of each subtree" true
    (String.length s > 0
    && List.exists
         (fun line ->
           let line = String.trim line in
           String.starts_with ~prefix:"powerset" line
           && String.ends_with ~suffix:"[tree]" line)
         (String.split_on_char '\n' s))

let test_vec_guard_fires () =
  let q = Expr.Powerset (Expr.proj_attrs [ 1 ] (Expr.Var "G")) in
  expect_support_verdict "analyze --engine vec"
    (Explain.analyze ~limits:small ~env ~vals ~tenv ~engine:Veval.Vec q);
  expect_support_verdict "vec run" (Veval.run ~limits:small env q)

(* --- EXPLAIN ANALYZE: measured vs estimated, and calibration -------------- *)

let test_analyze_tree () =
  let q = Derived.selfjoin (Expr.Var "G") in
  let v, a = analyze q in
  Alcotest.check value "analyzed result equals Eval" (eval_ok q) v;
  (match find_an "var G" a with
  | Some leaf ->
      Alcotest.(check bool) "leaf estimate is exact" true leaf.Explain.an_exact;
      Alcotest.(check int) "leaf estimate is the relation size" 3
        leaf.Explain.an_est;
      Alcotest.(check int) "leaf measured" 3 leaf.Explain.an_actual
  | None -> Alcotest.fail "no var G node");
  (match find_an "product" a with
  | Some pr ->
      Alcotest.(check int) "product estimated 3*3" 9 pr.Explain.an_est;
      Alcotest.(check int) "product measured" 9 pr.Explain.an_actual
  | None -> Alcotest.fail "no product node");
  (match find_an "select" a with
  | Some sel ->
      Alcotest.(check bool) "select estimate is heuristic" false
        sel.Explain.an_exact;
      Alcotest.(check bool) "select measured" true (sel.Explain.an_actual > 0)
  | None -> Alcotest.fail "no select node");
  let s = Explain.analysis_to_string a in
  Alcotest.(check bool) "table has the est/actual columns" true
    (String.length s > 0
    && List.exists
         (fun line ->
           String.trim line <> ""
           && String.starts_with ~prefix:"operator" (String.trim line))
         (String.split_on_char '\n' s));
  Alcotest.(check bool) "table summarises the q-error" true
    (List.exists
       (fun line -> String.starts_with ~prefix:"q-error" line)
       (String.split_on_char '\n' s))

(* The vec path must hand back the vec engine's value (bit-identical to
   the tree measurement run) with per-subtree engine labels attached. *)
let test_analyze_vec_identical () =
  let q = Derived.selfjoin (Expr.Var "G") in
  let v_tree, _ = analyze q in
  let v_vec, a = analyze ~engine:Veval.Vec q in
  Alcotest.check value "vec analyze equals tree analyze" v_tree v_vec;
  Alcotest.(check bool) "vec analyze equals Value.hash too" true
    (Value.hash v_tree = Value.hash v_vec);
  let rec engines a =
    a.Explain.an_engine
    :: List.concat_map engines a.Explain.an_children
  in
  Alcotest.(check bool) "engine labels attached" true
    (List.exists (function Some _ -> true | None -> false) (engines a))

let test_calibration_of_roundtrip () =
  let q = Derived.selfjoin (Expr.Var "G") in
  let _, a = analyze q in
  let c = Explain.calibration_of a in
  Alcotest.(check bool) "heuristic operators calibrated" true
    (Calib.entries c <> []);
  (* keys are operator families, single tokens — file-format safe *)
  List.iter
    (fun (op, _) ->
      Alcotest.(check bool)
        (op ^ " is a single token")
        false
        (String.contains op ' '))
    (Calib.entries c);
  match Calib.of_string (Calib.to_string c) with
  | Error m -> Alcotest.fail ("round-trip: " ^ m)
  | Ok c' ->
      List.iter
        (fun (op, e) ->
          match Calib.factor c' op with
          | None -> Alcotest.failf "factor for %s lost in round-trip" op
          | Some f ->
              Alcotest.(check bool)
                (op ^ " factor survives (1e-4)")
                true
                (abs_float (f -. e.Calib.c_factor) < 1e-4))
        (Calib.entries c)

(* The measured column is the span tree of the governed run — the one
   eval --stats prints — node for node, on the CI calibration query. *)
let test_analyze_agrees_with_stats () =
  let q =
    Baglang.Parser.expr_of_string "pi[1,4](select(p -> p.2 == p.3, G * G))"
  in
  let t = Telemetry.create () in
  ignore (Eval.run ~telemetry:t env q);
  let _, a = analyze q in
  let next = ref 0 in
  let rec check (a : Explain.annotated) =
    incr next;
    (match Telemetry.find t !next with
    | Some sp ->
        let what = Printf.sprintf "node %d (%s)" !next a.Explain.an_op in
        Alcotest.(check string) (what ^ " op") sp.Telemetry.op a.Explain.an_op;
        Alcotest.(check int) (what ^ " calls") sp.Telemetry.invocations
          a.Explain.an_calls;
        Alcotest.(check int) (what ^ " peak support") sp.Telemetry.peak_support
          a.Explain.an_actual
    | None -> Alcotest.failf "no span for node %d" !next);
    List.iter check a.Explain.an_children
  in
  check a;
  Alcotest.(check int) "every span annotated" !next
    (let n = ref 0 in
     Telemetry.iter t (fun _ -> incr n);
     !n)

(* explain inherits the evaluator's fault sites: a firing eval.step is an
   Injected verdict, on both engines, not an escaped exception. *)
let test_analyze_faults () =
  List.iter
    (fun engine ->
      match
        Fault.with_faults "eval.step:p=1" (fun () ->
            Explain.analyze ~env ~vals ~tenv ~engine
              (Derived.selfjoin (Expr.Var "G")))
      with
      | Error { Budget.resource = Budget.Injected; op = "eval.step"; _ } -> ()
      | Error x -> Alcotest.failf "wrong verdict %s" (Budget.exhaustion_to_string x)
      | Ok _ -> Alcotest.fail "expected an injected-fault verdict")
    [ Veval.Tree; Veval.Vec ]

let test_calib_parser_rejects () =
  (match Calib.of_string "join 2.0 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "data before the header must be rejected");
  (match Calib.of_string "# balg calibration v1\njoin zero 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a non-numeric factor must be rejected");
  (match Calib.of_string "# balg calibration v1\njoin -2.0 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a non-positive factor must be rejected");
  match Calib.of_string "# balg calibration v1\n\n# comment\njoin 2.5 3\n" with
  | Error m -> Alcotest.fail ("blank lines and comments must parse: " ^ m)
  | Ok c -> (
      match Calib.factor c "join" with
      | Some f -> Alcotest.(check (float 1e-9)) "factor read" 2.5 f
      | None -> Alcotest.fail "join entry lost")

let test_calib_save_load () =
  let c = Calib.of_observations [ ("join", 4, 8); ("select", 10, 5) ] in
  let path = Filename.temp_file "balg_calib" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Calib.save path c with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("save: " ^ m));
      match Calib.load path with
      | Error m -> Alcotest.fail ("load: " ^ m)
      | Ok c' ->
          Alcotest.(check (float 1e-6)) "join doubles" 2.0
            (Option.get (Calib.factor c' "join"));
          Alcotest.(check (float 1e-6)) "select halves" 0.5
            (Option.get (Calib.factor c' "select")))

let test_op_key () =
  Alcotest.(check string) "join 2=1 -> join" "join" (Calib.op_key "join 2=1");
  Alcotest.(check string) "var G -> var" "var" (Calib.op_key "var G");
  Alcotest.(check string) "bare names pass" "product" (Calib.op_key "product")

let () =
  Alcotest.run "explain"
    [
      ( "profiler",
        [
          Alcotest.test_case "agrees with Eval" `Quick test_agrees_with_eval;
          Alcotest.test_case "binder call counts" `Quick test_binder_call_counts;
          Alcotest.test_case "fixpoint iterations" `Quick test_fixpoint_iterations_visible;
          Alcotest.test_case "guards still fire" `Quick test_guard_fires;
          Alcotest.test_case "rendering" `Quick test_rendering;
        ] );
      ( "engine vec",
        [
          Alcotest.test_case "agrees with Eval" `Quick test_vec_agrees_with_eval;
          Alcotest.test_case "plan labels" `Quick test_vec_plan_labels;
          Alcotest.test_case "guards still fire" `Quick test_vec_guard_fires;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "measured vs estimated (tree)" `Quick
            test_analyze_tree;
          Alcotest.test_case "vec value identical, labels attached" `Quick
            test_analyze_vec_identical;
          Alcotest.test_case "calibration round-trips" `Quick
            test_calibration_of_roundtrip;
          Alcotest.test_case "calibration parser rejects junk" `Quick
            test_calib_parser_rejects;
          Alcotest.test_case "calibration save/load" `Quick
            test_calib_save_load;
          Alcotest.test_case "op_key strips parameters" `Quick test_op_key;
          Alcotest.test_case "agrees with eval --stats" `Quick
            test_analyze_agrees_with_stats;
          Alcotest.test_case "injected faults are verdicts" `Quick
            test_analyze_faults;
        ] );
    ]
