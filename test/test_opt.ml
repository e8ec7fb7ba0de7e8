(* Tests for the cost-based optimizer: every named rule (the Rewrite laws,
   the CV93 set-only pair, and the optimizer families) fires on a crafted
   witness; optimized plans are bit-identical to the originals on both
   engines across generated queries; budget verdicts commute with
   planning; and an armed [opt.rewrite] fault degrades the planner without
   ever changing results. *)

open Balg

let env_spec = [ ("R", 1); ("S", 2) ]
let tenv = Typecheck.env_of_list (Baggen.Genexpr.env_types env_spec)
let value = Alcotest.testable Value.pp Value.equal
let eval_on inst e = Expect.ok (Eval.run (Eval.env_of_list inst) e)

let equivalent_bag ?(trials = 25) rng e1 e2 =
  List.for_all
    (fun _ ->
      let inst = Baggen.Genexpr.instance rng env_spec in
      Value.equal (eval_on inst e1) (eval_on inst e2))
    (List.init trials Fun.id)

(* --- rule witnesses --------------------------------------------------------

   One crafted expression per named rule, asserting the rule's [applies]
   really fires on it.  scripts/lint.sh greps every rule name against this
   file (and test_rewrite.ml): a rule added without a witness fails CI. *)

let all_rules = Rewrite.sound_rules @ Rewrite.set_only_rules @ Opt.rules

let rule_named n =
  match List.find_opt (fun r -> String.equal r.Rewrite.name n) all_rules with
  | Some r -> r
  | None -> Alcotest.failf "no rule named %s" n

let r = Expr.Var "R"
let s = Expr.Var "S"
let emp = Expr.empty (Ty.relation 1)
let p i v = Expr.Proj (i, Expr.Var v)

(* (name, candidate orientations): the rule must fire on at least one; the
   AC commutation rules only fire on the non-canonical orientation, so
   those witnesses offer both orders. *)
let witnesses =
  [
    ("empty-units", [ Expr.UnionAdd (r, emp) ]);
    ("idempotence", [ Expr.Inter (r, r) ]);
    ("self-difference", [ Expr.Diff (r, r) ]);
    ("destroy-sing", [ Expr.Destroy (Expr.Sing r) ]);
    ("unnest-nest", [ Expr.Unnest (2, Expr.Nest ([ 1 ], s)) ]);
    ("map-identity", [ Expr.Map ("x", Expr.Var "x", r) ]);
    ( "map-fusion",
      [
        Expr.Map
          ("x", Expr.Tuple [ p 1 "x" ], Expr.Map ("y", Expr.Tuple [ p 1 "y" ], r));
      ] );
    ( "select-pushdown",
      [ Expr.Select ("x", p 1 "x", Expr.atom "a", Expr.Product (r, s)) ] );
    ("assoc-union-add", [ Expr.UnionAdd (Expr.UnionAdd (r, r), r) ]);
    ( "comm-union-add",
      [ Expr.UnionAdd (r, Expr.Dedup r); Expr.UnionAdd (Expr.Dedup r, r) ] );
    ( "comm-union-max",
      [ Expr.UnionMax (r, Expr.Dedup r); Expr.UnionMax (Expr.Dedup r, r) ] );
    ( "comm-inter",
      [ Expr.Inter (r, Expr.Dedup r); Expr.Inter (Expr.Dedup r, r) ] );
    ( "self-product-projection (set-only)",
      [ Expr.Map ("x", Expr.Tuple [ p 1 "x" ], Expr.Product (r, r)) ] );
    ("dedup-elimination (set-only)", [ Expr.Dedup r ]);
    ( "join-extract",
      [ Expr.Select ("x", p 1 "x", p 2 "x", Expr.Product (r, s)) ] );
    ( "select-through-proj",
      [
        Expr.Select
          ( "q",
            p 1 "q",
            Expr.atom "a",
            Expr.Map ("y", Expr.Tuple [ p 2 "y" ], s) );
      ] );
    ( "prune-map-product",
      [ Expr.Map ("x", Expr.Tuple [ p 1 "x" ], Expr.Product (r, s)) ] );
    ( "prune-nest-keys",
      [ Expr.Map ("x", Expr.Tuple [ p 1 "x" ], Expr.Nest ([ 1 ], s)) ] );
    ( "ones-pushdown",
      [
        Expr.Map
          ( "y",
            Expr.Tuple [ Expr.atom "a" ],
            Expr.Map ("z", Expr.Tuple [ p 1 "z"; p 1 "z" ], r) );
      ] );
  ]

let fires name e =
  match (rule_named name).Rewrite.applies tenv e with
  | Some e' -> Some e'
  | None -> None

let test_rule_witnesses () =
  List.iter
    (fun (name, cands) ->
      if not (List.exists (fun e -> fires name e <> None) cands) then
        Alcotest.failf "rule %s did not fire on its witness" name)
    witnesses

(* Every sound rule's witness rewrite must preserve bag semantics on random
   instances — the set-only pair is excluded (that unsoundness is the CV93
   point, tested in test_rewrite.ml). *)
let test_witness_rewrites_sound () =
  let rng = Random.State.make [| 41 |] in
  List.iter
    (fun (name, cands) ->
      if
        not
          (String.length name > 10
          && String.sub name (String.length name - 10) 10 = "(set-only)")
      then
        List.iter
          (fun e ->
            match fires name e with
            | None -> ()
            | Some e' ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s witness rewrite is bag-equivalent" name)
                  true
                  (equivalent_bag ~trials:12 rng e e'))
          cands)
    witnesses

(* --- cost-mode planning on crafted plans ----------------------------------- *)

let selfjoin_q = Expr.Select ("x", p 1 "x", p 2 "x", Expr.Product (r, s))

let test_cost_extracts_join () =
  let e', rep = Opt.optimize ~engine:Veval.Tree Opt.Cost tenv selfjoin_q in
  let rec has_join e =
    match e with
    | Expr.Join _ -> true
    | _ -> List.exists has_join (Expr.children e)
  in
  Alcotest.(check bool) "join extracted" true (has_join e');
  Alcotest.(check bool) "cost strictly decreased" true
    (Opt.cost Veval.Tree tenv rep.Opt.r_output
    < Opt.cost Veval.Tree tenv rep.Opt.r_input);
  Alcotest.(check bool) "decision log non-empty" true
    (rep.Opt.r_decisions <> []);
  let rng = Random.State.make [| 43 |] in
  Alcotest.(check bool) "join plan is bag-equivalent" true
    (equivalent_bag rng selfjoin_q e')

(* The explain rendering: its input/output cost lines are computed at
   render time, so they must agree with the cost model evaluated on the
   report's own plans, and the applied join extraction must be listed. *)
let test_report_rendering () =
  let _, rep = Opt.optimize ~engine:Veval.Tree Opt.Cost tenv selfjoin_q in
  let lines = String.split_on_char '\n' (Opt.report_to_string tenv rep) in
  let listed prefix = List.exists (String.starts_with ~prefix) lines in
  let cost_line label e =
    Printf.sprintf "  %s cost=%.0f  props=" label (Opt.cost Veval.Tree tenv e)
  in
  Alcotest.(check bool) "input cost" true
    (listed (cost_line "input " rep.Opt.r_input));
  Alcotest.(check bool) "output cost" true
    (listed (cost_line "output" rep.Opt.r_output));
  Alcotest.(check bool) "applied join-extract listed" true
    (listed "  applied  join-extract")

let test_off_is_identity () =
  let e', rep = Opt.optimize Opt.Off tenv selfjoin_q in
  Alcotest.(check bool) "off leaves the plan alone" true
    (Rewrite.expr_compare e' selfjoin_q = 0);
  Alcotest.(check bool) "no decisions in off mode" true (rep.Opt.r_decisions = [])

(* The miscost knob: with the objective inverted only cost-increasing
   rewrites are acceptable, and the planner proposes none of those — so the
   plan ships unoptimized.  This is what the bench gate's self-test relies
   on to prove a miscosted planner trips the gate. *)
let test_invert_cost_ships_unoptimized () =
  Opt.invert_cost := true;
  Fun.protect
    ~finally:(fun () -> Opt.invert_cost := false)
    (fun () ->
      let e', _ = Opt.optimize Opt.Cost tenv selfjoin_q in
      Alcotest.(check bool) "inverted objective accepts nothing" true
        (Rewrite.expr_compare e' selfjoin_q = 0))

(* --- calibration feeds the cost model -------------------------------------

   An absurd measured correction factor for joins makes the extracted
   join plan look catastrophically expensive, so cost mode keeps the
   select-over-product shape it would otherwise rewrite away: the
   calibration file changed a plan choice.  Both plans must stay
   bit-identical on random instances — calibration only moves the
   numbers the cost model reads, never the semantics. *)
let test_calibration_changes_plan_not_results () =
  let rec has_join e =
    match e with
    | Expr.Join _ -> true
    | _ -> List.exists has_join (Expr.children e)
  in
  let plain = Opt.prepare ~engine:Veval.Tree Opt.Cost tenv selfjoin_q in
  let calibrated =
    Calib.set_current
      (Some (Calib.of_observations [ ("join", 1, 1_000_000_000) ]));
    Fun.protect
      ~finally:(fun () -> Calib.set_current None)
      (fun () -> Opt.prepare ~engine:Veval.Tree Opt.Cost tenv selfjoin_q)
  in
  Alcotest.(check bool) "uncalibrated plan extracts the join" true
    (has_join plain);
  Alcotest.(check bool) "calibrated plan keeps the select" false
    (has_join calibrated);
  let rng = Random.State.make [| 47 |] in
  Alcotest.(check bool) "the two plans agree bit for bit" true
    (equivalent_bag rng plain calibrated)

let test_mode_parsing () =
  Alcotest.(check bool) "cost parses" true (Opt.mode_of_string "cost" = Some Opt.Cost);
  Alcotest.(check bool) "off parses" true (Opt.mode_of_string " off " = Some Opt.Off);
  Alcotest.(check bool) "rules rejected" true (Opt.mode_of_string "rules" = None);
  Alcotest.(check bool) "junk rejected" true (Opt.mode_of_string "fast" = None)

(* --- differential: optimized plans are bit-identical -------------------- *)

(* Tight materialisation guards keep the generated-query sweeps fast: a
   nested query that would blow past these bounds costs a guard trip, not
   minutes of powerset construction. *)
let small_limits =
  { Budget.default with Budget.max_support = 20_000; max_count_digits = 120 }

let eval_with engine inst e =
  Expect.ok (Veval.run_engine engine ~limits:small_limits (Eval.env_of_list inst) e)

(* Nested queries can legitimately exhaust the default materialisation
   guards (powerset over powerset), and optimization changes how much an
   expression materialises — so a guard trip on either side is tolerated;
   only two finished runs are compared, bit for bit. *)
let guarded engine inst e =
  Result.to_option
    (Veval.run_engine engine ~limits:small_limits (Eval.env_of_list inst) e)

(* The AC orientation rules are cost-symmetric, so cost mode must not
   even propose them: each proposal costs two cost-model walks. *)
let proposes_comm rep =
  List.exists
    (fun d -> String.starts_with ~prefix:"comm-" d.Opt.d_rule)
    rep.Opt.r_decisions

let prop_opt_differential engine engine_name gen gen_name count =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "cost-optimized == original (%s, %s)" engine_name
         gen_name)
    ~count
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = gen rng env_spec 4 (1 + Random.State.int rng 2) in
      let e', rep = Opt.optimize ~engine Opt.Cost tenv e in
      (not (proposes_comm rep))
      && List.for_all
        (fun _ ->
          let inst = Baggen.Genexpr.instance rng env_spec in
          match (guarded engine inst e, guarded engine inst e') with
          | Some v, Some v' -> Value.equal v v' && Value.hash v = Value.hash v'
          | None, _ | _, None -> true)
        (List.init 6 Fun.id))

let prop_tree_flat =
  prop_opt_differential Veval.Tree "tree"
    (Baggen.Genexpr.flat ?allow_diff:None ?allow_dedup:None)
    "flat" 150

let prop_vec_flat =
  prop_opt_differential Veval.Vec "vec"
    (Baggen.Genexpr.flat ?allow_diff:None ?allow_dedup:None)
    "flat" 150

let prop_tree_nested =
  prop_opt_differential Veval.Tree "tree" Baggen.Genexpr.nested "nested" 100

let prop_vec_nested =
  prop_opt_differential Veval.Vec "vec" Baggen.Genexpr.nested "nested" 100

(* Tight-budget differential: planning must commute with governed
   evaluation — when both runs finish, the values agree; an exhaustion
   verdict on either side is tolerated (optimization legitimately changes
   how much work a query needs) but no raw exception may escape. *)
let tight_limits =
  {
    Budget.default with
    Budget.fuel = 50_000;
    max_support = 400;
    max_size = 20_000;
  }

let prop_budget_verdicts =
  QCheck.Test.make ~name:"cost-optimized commutes with governed eval"
    ~count:100
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.flat rng env_spec 4 (1 + Random.State.int rng 2) in
      let e' = Opt.prepare Opt.Cost tenv e in
      List.for_all
        (fun _ ->
          let inst = Baggen.Genexpr.instance rng env_spec in
          let run q = Eval.run ~limits:tight_limits (Eval.env_of_list inst) q in
          match (run e, run e') with
          | Ok v, Ok v' -> Value.equal v v'
          | Error _, _ | _, Error _ -> true)
        (List.init 8 Fun.id))

(* --- binder environments ---------------------------------------------------- *)

(* The planner types every node under the binders in scope.  It used to
   keep the outer environment under [let]/[fix]/[map]/[select], so a [let]
   shadowing R left join-extract reading R's outer arity (2, not 4): the
   first query then built join[5,2] and failed to project attribute 3 of
   an S row, the second built a wrong join[1,2]. *)
let shadow_inst =
  let pair a b = Value.tuple [ Value.atom a; Value.atom b ] in
  [
    ("R", Value.bag_of_list [ pair "a" "b"; pair "b" "c" ]);
    ("S", Value.bag_of_list [ pair "b" "a"; pair "c" "b" ]);
  ]

let shadow_tenv =
  Typecheck.env_of_list [ ("R", Ty.relation 2); ("S", Ty.relation 2) ]

let test_shadowed_let text () =
  let q = Baglang.Parser.expr_of_string text in
  List.iter
    (fun engine ->
      let plan = Opt.prepare ~vals:shadow_inst ~engine Opt.Cost shadow_tenv q in
      let run e = Veval.run_engine engine (Eval.env_of_list shadow_inst) e in
      match (run q, run plan) with
      | Ok v, Ok w ->
          Alcotest.(check bool) "off returns two or more rows" true
            (List.length (Value.as_bag v) >= 2);
          Alcotest.check value (Expr.to_string plan ^ " matches off") v w
      | _ -> Alcotest.fail "unexpected verdict"
      | exception Eval.Eval_error m ->
          Alcotest.failf "%s fails: %s" (Expr.to_string plan) m)
    [ Veval.Tree; Veval.Vec ]

(* Fixpoint variables are typed at the seed's type, so join extraction
   now reaches into closure bodies: the read_cold closure joins X with
   G0 instead of materialising X * G0 every round.  The benchmark's other
   planned shapes are pinned beside it: the read_cold 3-way chain becomes
   two hash joins, the write_repl point lookup keeps its selection under
   the projection. *)
let graph_tenv =
  Typecheck.env_of_list
    (List.map (fun g -> (g, Ty.relation 2)) [ "G0"; "G1"; "G2"; "G3"; "L0" ])

let test_golden_plans () =
  List.iter
    (fun (query, golden) ->
      let q = Baglang.Parser.expr_of_string query in
      Alcotest.(check string)
        query golden
        (Expr.to_string (Opt.prepare ~engine:Veval.Vec Opt.Cost graph_tenv q)))
    [
      ( "select(x -> x.1 == 'n3, fix(X -> dedup(pi[1,4](select(p -> p.2 == \
         p.3, X * G0)) \\/ X), dedup(G0)))",
        "select(x -> x.1 == 'n3, fix(X -> dedup((map(%pi -> <%pi.1, %pi.4>, \
         join[2,1](X, G0)) \\/ X)), dedup(G0)))" );
      ( "dedup(pi[3](select(x -> x.4 == x.5, select(x -> x.2 == x.3, G1 * G2) \
         * G3)))",
        "dedup(map(%pi -> <%pi.3>, join[4,1](join[2,1](G1, G2), G3)))" );
      ( "pi[2](select(x -> x.1 == 'k7, L0))",
        "map(%pi -> <%pi.2>, select(x -> x.1 == 'k7, L0))" );
    ]

(* The closure over a 5-edge graph: the planner costs the fixpoint
   variable at the seed's type when it extracts the join, and the report
   must cost it the same way, or it prints an output dearer than the
   input the accepted rewrite improved on. *)
let test_closure_report () =
  let pair a b = Value.tuple [ Value.atom a; Value.atom b ] in
  let vals =
    [
      ( "G0",
        Value.bag_of_list
          [ pair "n0" "n1"; pair "n1" "n2"; pair "n2" "n3"; pair "n3" "n0";
            pair "n1" "n3" ] );
    ]
  in
  let q =
    Baglang.Parser.expr_of_string
      "select(x -> x.1 == 'n0, fix(X -> dedup(pi[1,4](select(p -> p.2 == \
       p.3, X * G0)) \\/ X), dedup(G0)))"
  in
  let _, rep = Opt.optimize ~vals ~engine:Veval.Vec Opt.Cost graph_tenv q in
  let cost e = Opt.cost ~vals Veval.Vec graph_tenv e in
  Alcotest.(check bool)
    (Printf.sprintf "output cost %.0f < input cost %.0f" (cost rep.Opt.r_output)
       (cost rep.Opt.r_input))
    true
    (cost rep.Opt.r_output < cost rep.Opt.r_input);
  Alcotest.(check bool) "no comm-* decision" false (proposes_comm rep)

(* Vectorizability is the engine's own predicate: a body Veval runs on the
   tree path is charged the tree walk, not the column constant. *)
let test_cost_follows_veval () =
  let cost body = Opt.cost Veval.Vec tenv (Expr.Map ("x", body, s)) in
  Alcotest.(check bool) "map(x -> dedup(R), S) dearer than map(x -> <x.1>, S)"
    true
    (cost (Expr.Dedup r) > cost (Expr.Tuple [ p 1 "x" ]))

(* --- the opt.rewrite fault site -------------------------------------------- *)

let test_fault_degrades_gracefully () =
  (* always-firing: the very first candidate aborts planning, the input
     ships untouched and the report says so *)
  Fault.with_faults ~seed:2 "opt.rewrite:always" (fun () ->
      let e', rep = Opt.optimize Opt.Cost tenv selfjoin_q in
      Alcotest.(check bool) "report flags the degradation" true
        rep.Opt.r_faulted;
      Alcotest.(check bool) "plan ships as-is" true
        (Rewrite.expr_compare e' selfjoin_q = 0));
  Alcotest.(check bool) "disarmed afterwards" false (Fault.armed ())

let test_fault_midway_still_correct () =
  (* a hit partway through planning abandons the remaining rewrites; the
     partial plan must still be bit-identical to the original on both
     engines *)
  let q =
    Expr.Map
      ( "z",
        Expr.Tuple [ p 1 "z" ],
        Expr.Select ("x", p 1 "x", p 2 "x", Expr.Product (r, s)) )
  in
  List.iter
    (fun n ->
      let partial =
        Fault.with_faults ~seed:3 (Printf.sprintf "opt.rewrite:n=%d" n)
          (fun () -> Opt.prepare Opt.Cost tenv q)
      in
      let rng = Random.State.make [| 47 + n |] in
      List.iter
        (fun _ ->
          let inst = Baggen.Genexpr.instance rng env_spec in
          List.iter
            (fun engine ->
              Alcotest.check value
                (Printf.sprintf "partial plan (fault on hit %d) agrees" n)
                (eval_with engine inst q)
                (eval_with engine inst partial))
            [ Veval.Tree; Veval.Vec ])
        (List.init 8 Fun.id))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "opt"
    [
      ( "witnesses",
        [
          Alcotest.test_case "every named rule fires" `Quick test_rule_witnesses;
          Alcotest.test_case "sound witnesses preserve semantics" `Quick
            test_witness_rewrites_sound;
        ] );
      ( "planning",
        [
          Alcotest.test_case "cost mode extracts joins" `Quick
            test_cost_extracts_join;
          Alcotest.test_case "rendered report" `Quick test_report_rendering;
          Alcotest.test_case "off mode is the identity" `Quick
            test_off_is_identity;
          Alcotest.test_case "inverted objective ships unoptimized" `Quick
            test_invert_cost_ships_unoptimized;
          Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
          Alcotest.test_case "calibration changes plans, not results" `Quick
            test_calibration_changes_plan_not_results;
          Alcotest.test_case "cost follows Veval's vectorizability" `Quick
            test_cost_follows_veval;
        ] );
      ( "binders",
        [
          Alcotest.test_case "shadowing let: join across R and S" `Quick
            (test_shadowed_let
               "let R = R * S in select(p -> p.4 == p.5, R * S)");
          Alcotest.test_case "shadowing let: join key inside R" `Quick
            (test_shadowed_let
               "let R = R * S in select(p -> p.1 == p.4, R * S)");
          Alcotest.test_case "join extracted inside fix" `Quick
            test_golden_plans;
          Alcotest.test_case "closure report costs X like the planner" `Quick
            test_closure_report;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_tree_flat;
          QCheck_alcotest.to_alcotest prop_vec_flat;
          QCheck_alcotest.to_alcotest prop_tree_nested;
          QCheck_alcotest.to_alcotest prop_vec_nested;
          QCheck_alcotest.to_alcotest prop_budget_verdicts;
        ] );
      ( "faults",
        [
          Alcotest.test_case "always-firing fault ships the input" `Quick
            test_fault_degrades_gracefully;
          Alcotest.test_case "mid-planning fault stays bit-identical" `Quick
            test_fault_midway_still_correct;
        ] );
    ]
