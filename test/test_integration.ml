(* Integration tests: full pipelines (bagdb text -> parse -> typecheck ->
   analyze -> normalize -> eval), evaluator edge cases, and resource-guard
   behaviour under tight configurations. *)

open Balg
module Parser = Baglang.Parser
module Bagdb = Baglang.Bagdb

let value = Alcotest.testable Value.pp Value.equal

let db_text =
  {|
    # a small social network
    bag Follows : {{<U, U>}} =
      {{ <'ada,'bob>, <'bob,'cleo>, <'cleo,'ada>, <'ada,'cleo>, <'bob,'cleo> }}
    bag Celebs : {{<U>}} = {{ <'cleo> }}
  |}

let db = Bagdb.parse db_text
let tenv = Bagdb.type_env db
let venv = Bagdb.value_env db

(* Evaluation goes through the engine dispatcher, so the CI vec leg
   (BALG_ENGINE=vec) drives these full pipelines through the vectorized
   engine as well. *)
let engine = Veval.default_engine ()

let pipeline query =
  let e = Parser.expr_of_string query in
  let ty = Typecheck.infer tenv e in
  let e', _rules = Rewrite.normalize tenv e in
  let ty' = Typecheck.infer tenv e' in
  Alcotest.(check bool) "normalization preserves type" true (Ty.equal ty ty');
  let run e = Expect.ok (Veval.run_engine engine venv e) in
  let v = run e and v' = run e' in
  Alcotest.check value "normalization preserves value" v v';
  (* the CI optimizer leg (BALG_OPT=cost) drives every pipeline through
     the cost-based planner as well *)
  let e_opt = Opt.prepare (Opt.default_mode ()) tenv e in
  Alcotest.check value "optimization preserves value" v (run e_opt);
  v

let test_follower_counts () =
  (* bob->cleo is recorded twice; projection must keep the duplicate *)
  let v = pipeline "pi[2](Follows)" in
  Alcotest.(check string) "cleo followed 3 times (with duplicate)" "3"
    (Bignat.to_string (Value.count_in (Value.tuple [ Value.atom "cleo" ]) v))

let test_popularity_query () =
  (* who has strictly more inbound than outbound edges? *)
  let q node =
    Printf.sprintf
      "pi[2](select(x -> x.2 == '%s, Follows)) -- pi[1](select(x -> x.1 == \
       '%s, Follows))"
      node node
  in
  Alcotest.(check bool) "cleo is popular" true (Eval.truthy (pipeline (q "cleo")));
  Alcotest.(check bool) "ada is not" false (Eval.truthy (pipeline (q "ada")))

let test_reachability_pipeline () =
  let v =
    pipeline
      "bfix(dedup(pi[1](Follows) \\/ pi[2](Follows)) * dedup(pi[1](Follows) \
       \\/ pi[2](Follows)), X -> dedup(X \\/ pi[1,4](select(w -> w.2 == w.3, \
       X * Follows))), dedup(Follows))"
  in
  (* the 3-cycle makes everyone reach everyone *)
  Alcotest.(check int) "9 reachability pairs" 9 (Value.support_size v)

let test_group_by_pipeline () =
  let v = pipeline "nest[1](Follows)" in
  Alcotest.(check int) "three followers" 3 (Value.support_size v)

let test_nested_powerset_pipeline () =
  let v = pipeline "powerset(Celebs)" in
  Alcotest.(check int) "2 subbags of a singleton" 2 (Value.support_size v)

(* --- evaluator edge cases -------------------------------------------------- *)

let run ?limits ?(env = []) e = Eval.run ?limits (Eval.env_of_list env) e

let ev ?env e = Expect.ok (run ?env e)

let test_empty_bag_ops () =
  let e1 = Expr.empty (Ty.relation 1) in
  Alcotest.check value "product with empty" (Value.bag_of_assoc [])
    (ev Expr.(e1 *** e1));
  Alcotest.check value "powerset of empty has one member"
    (Value.bag_of_list [ Value.empty_bag ])
    (ev (Expr.Powerset e1));
  Alcotest.check value "destroy of powerset of empty" (Value.bag_of_assoc [])
    (ev (Expr.Destroy (Expr.Powerset e1)));
  Alcotest.check value "ones of empty" (Value.bag_of_assoc []) (ev (Derived.ones e1))

let test_deeply_nested_values () =
  (* bag of bags of bags: nesting 3 round-trips through powerset/destroy *)
  let v3 =
    Value.bag_of_list
      [ Value.bag_of_list [ Value.bag_of_list [ Value.atom "a" ] ] ]
  in
  let t3 = Ty.Bag (Ty.Bag (Ty.Bag Ty.Atom)) in
  let e = Expr.Destroy (Expr.Sing (Expr.lit v3 t3)) in
  Alcotest.check value "destroy . sing = id at nesting 3" v3 (ev e);
  Alcotest.(check int) "value nesting" 3 (Value.bag_nesting v3)

let test_map_over_nested () =
  (* MAP whose body rebuilds a nested bag *)
  let v = Value.bag_of_list [ Value.nat 2; Value.nat 3 ] in
  let e =
    Expr.Map ("x", Expr.UnionAdd (Expr.Var "x", Expr.Var "x"),
              Expr.lit v (Ty.Bag Ty.nat))
  in
  Alcotest.check value "pointwise doubling"
    (Value.bag_of_list [ Value.nat 4; Value.nat 6 ])
    (ev e)

let test_select_with_bag_conditions () =
  (* conditions comparing bag-valued expressions (used by Tm3's phis) *)
  let v = Value.bag_of_list [ Value.nat 1; Value.nat 2; Value.nat 3 ] in
  let e =
    Expr.Select
      ( "x",
        Expr.Diff (Expr.Var "x", Derived.nat_lit 2),
        Expr.empty Ty.nat,
        Expr.lit v (Ty.Bag Ty.nat) )
  in
  (* keeps integers <= 2 *)
  Alcotest.check value "bag-valued condition"
    (Value.bag_of_list [ Value.nat 1; Value.nat 2 ])
    (ev e)

(* --- resource guards -------------------------------------------------------- *)

let test_support_guard () =
  let limits = { Budget.default with Budget.max_support = 10 } in
  let big =
    Value.bag_of_list
      (List.init 20 (fun i -> Value.tuple [ Value.atom (string_of_int i) ]))
  in
  match run ~limits Expr.(Expr.lit big (Ty.relation 1) *** Expr.lit big (Ty.relation 1)) with
  | Error { Budget.resource = Budget.Support; _ } -> ()
  | _ -> Alcotest.fail "expected a support verdict"

let test_digit_guard () =
  let limits = { Budget.default with Budget.max_count_digits = 5 } in
  (* repeated squaring of multiplicities: 10 -> 100 -> 10^4 -> 10^8 *)
  let b = Expr.lit (Value.replicate (Bignat.of_int 10) (Value.tuple [ Value.atom "a" ])) (Ty.relation 1) in
  let rec squared k e = if k = 0 then e else squared (k - 1) (Expr.proj_attrs [ 1 ] Expr.(e *** e)) in
  match run ~limits (squared 3 b) with
  | Error { Budget.resource = Budget.Count_digits; _ } -> ()
  | _ -> Alcotest.fail "expected a count-digits verdict"

let test_powerset_guard_through_eval () =
  (* the powerset guard is unified into the budget governor: what used to
     escape as the ad-hoc [Bag.Too_large] is now a located budget verdict *)
  let b = Expr.lit (Value.replicate (Bignat.of_int 500) (Value.atom "a")) (Ty.Bag Ty.Atom) in
  match
    run ~limits:{ Budget.default with Budget.max_support = 100 } (Expr.Powerset b)
  with
  | Error { Budget.resource = Budget.Support; op = "powerset"; _ } -> ()
  | Error x -> Alcotest.fail ("wrong verdict: " ^ Budget.exhaustion_to_string x)
  | Ok _ -> Alcotest.fail "expected Budget_exceeded"

let test_meters_cardinal () =
  let t = Telemetry.create () in
  let b = Expr.lit (Value.replicate (Bignat.of_int 7) (Value.tuple [ Value.atom "a" ])) (Ty.relation 1) in
  ignore (Eval.run ~telemetry:t (Eval.env_of_list []) Expr.(b *** b));
  let card = ref Bignat.zero in
  Telemetry.iter t (fun sp ->
      if Bignat.compare sp.Telemetry.peak_cardinal !card > 0 then
        card := sp.Telemetry.peak_cardinal);
  Alcotest.(check string) "peak cardinality sees 49" "49" (Bignat.to_string !card);
  Alcotest.(check bool) "invocations counted" true
    (Telemetry.total_invocations t > 0)

(* --- CLI-facing behaviours through the library ----------------------------- *)

let test_analyze_of_parsed () =
  let e = Parser.expr_of_string "destroy(powerset(Celebs))" in
  let r = Analyze.analyze tenv e in
  Alcotest.(check bool) "PSPACE" true (r.Analyze.cclass = Analyze.Pspace)

let test_bagdb_load_file () =
  (* the file-loading path, via a temporary file *)
  let path = Filename.temp_file "balg" ".bagdb" in
  let oc = open_out path in
  output_string oc (Bagdb.render db);
  close_out oc;
  let db2 = Bagdb.load path in
  Sys.remove path;
  Alcotest.(check int) "same size through the filesystem" (List.length db)
    (List.length db2);
  List.iter2
    (fun (n1, _, v1) (n2, _, v2) ->
      Alcotest.(check string) "name" n1 n2;
      Alcotest.check value "value" v1 v2)
    db db2

let test_render_parse_db () =
  let db2 = Bagdb.parse (Bagdb.render db) in
  Alcotest.(check int) "same size" (List.length db) (List.length db2)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "follower counts" `Quick test_follower_counts;
          Alcotest.test_case "popularity (Ex 4.1 shape)" `Quick test_popularity_query;
          Alcotest.test_case "reachability via bfix" `Quick test_reachability_pipeline;
          Alcotest.test_case "group by" `Quick test_group_by_pipeline;
          Alcotest.test_case "powerset" `Quick test_nested_powerset_pipeline;
          Alcotest.test_case "analyze parsed query" `Quick test_analyze_of_parsed;
          Alcotest.test_case "db render roundtrip" `Quick test_render_parse_db;
          Alcotest.test_case "db file loading" `Quick test_bagdb_load_file;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty bags" `Quick test_empty_bag_ops;
          Alcotest.test_case "deep nesting" `Quick test_deeply_nested_values;
          Alcotest.test_case "map over nested" `Quick test_map_over_nested;
          Alcotest.test_case "bag-valued conditions" `Quick test_select_with_bag_conditions;
        ] );
      ( "guards",
        [
          Alcotest.test_case "support bound" `Quick test_support_guard;
          Alcotest.test_case "digit bound" `Quick test_digit_guard;
          Alcotest.test_case "powerset bound" `Quick test_powerset_guard_through_eval;
          Alcotest.test_case "meters" `Quick test_meters_cardinal;
        ] );
    ]
