(* Tests for the rewriting engine: sound rules preserve bag semantics on
   random expressions and instances; the set-only rules are flagged by the
   same randomized check (the CV93 phenomenon) while remaining valid under
   set semantics. *)

open Balg
module Reval = Ralg.Reval

let env_spec = [ ("R", 1); ("S", 2) ]
let tenv = Typecheck.env_of_list (Baggen.Genexpr.env_types env_spec)

let eval_on inst e = Expect.ok (Eval.run (Eval.env_of_list inst) e)

let equivalent_bag ?(trials = 25) rng e1 e2 =
  List.for_all
    (fun _ ->
      let inst = Baggen.Genexpr.instance rng env_spec in
      Value.equal (eval_on inst e1) (eval_on inst e2))
    (List.init trials Fun.id)

let equivalent_set ?(trials = 25) rng e1 e2 =
  List.for_all
    (fun _ ->
      let inst = Baggen.Genexpr.instance rng env_spec in
      Value.equal
        (Reval.eval (Reval.env_of_list inst) e1)
        (Reval.eval (Reval.env_of_list inst) e2))
    (List.init trials Fun.id)

(* --- unit rules ----------------------------------------------------------- *)

let norm e = fst (Rewrite.normalize tenv e)

let value_t = Alcotest.testable Value.pp Value.equal
let expr_eq = Alcotest.testable Expr.pp (fun a b -> Stdlib.compare a b = 0)

let test_units () =
  let r = Expr.Var "R" in
  let emp = Expr.empty (Ty.relation 1) in
  Alcotest.check expr_eq "union with empty" r (norm (Expr.UnionAdd (r, emp)));
  Alcotest.check expr_eq "diff with empty" r (norm (Expr.Diff (r, emp)));
  Alcotest.check expr_eq "inter with empty" emp (norm (Expr.Inter (r, emp)));
  Alcotest.check expr_eq "self difference" emp (norm (Expr.Diff (r, r)));
  Alcotest.check expr_eq "self intersection" r (norm (Expr.Inter (r, r)));
  Alcotest.check expr_eq "dedup dedup" (Expr.Dedup r) (norm (Expr.Dedup (Expr.Dedup r)));
  Alcotest.check expr_eq "dedup powerset" (Expr.Powerset r)
    (norm (Expr.Dedup (Expr.Powerset r)));
  Alcotest.check expr_eq "destroy sing" r (norm (Expr.Destroy (Expr.Sing r)));
  Alcotest.check expr_eq "map identity" r (norm (Expr.Map ("x", Expr.Var "x", r)))

let test_commutation_normalises () =
  let a = Expr.Var "R" and b = Expr.Dedup (Expr.Var "R") in
  (* whatever the input order, both orders normalise identically *)
  Alcotest.check expr_eq "orientation canonical"
    (norm Expr.(a ++ b))
    (norm Expr.(b ++ a))

let test_map_fusion () =
  let g = Expr.Var "S" in
  let inner = Expr.proj_attrs [ 2; 1 ] g in
  let outer =
    Expr.Map ("z", Expr.Tuple [ Expr.Proj (2, Expr.Var "z") ], inner)
  in
  let fused = norm outer in
  (* fused form has a single Map *)
  let rec count_maps e =
    (match e with Expr.Map _ -> 1 | _ -> 0)
    + List.fold_left (fun acc c -> acc + count_maps c) 0 (Expr.children e)
  in
  Alcotest.(check int) "one map after fusion" 1 (count_maps fused);
  let rng = Random.State.make [| 7 |] in
  Alcotest.(check bool) "fusion preserves semantics" true
    (equivalent_bag rng outer fused)

let test_select_pushdown () =
  let x = "x" in
  let cond_left =
    Expr.Select (x, Expr.Proj (1, Expr.Var x), Expr.atom "a",
      Expr.Product (Expr.Var "R", Expr.Var "S"))
  in
  let pushed = norm cond_left in
  (match pushed with
  | Expr.Product (Expr.Select _, _) -> ()
  | e -> Alcotest.failf "expected pushed-left product, got %s" (Expr.to_string e));
  let cond_right =
    Expr.Select (x, Expr.Proj (3, Expr.Var x), Expr.atom "a",
      Expr.Product (Expr.Var "R", Expr.Var "S"))
  in
  (match norm cond_right with
  | Expr.Product (_, Expr.Select _) -> ()
  | e -> Alcotest.failf "expected pushed-right product, got %s" (Expr.to_string e));
  let rng = Random.State.make [| 11 |] in
  Alcotest.(check bool) "pushdown left preserves semantics" true
    (equivalent_bag rng cond_left (norm cond_left));
  Alcotest.(check bool) "pushdown right preserves semantics" true
    (equivalent_bag rng cond_right (norm cond_right))

(* --- regressions: binder bugs in the rule library -------------------------- *)

(* map-fusion once captured a free variable: fusing
   [MAP λx.outer (MAP λy.inner e)] re-bound [outer] under λy, so a free [y]
   in [outer] (referring to an enclosing binder) was silently re-pointed at
   the inner element.  The old rule turned this query's <r, s> pairs into
   <r, r> pairs. *)
let test_map_fusion_capture () =
  let p1 v = Expr.Proj (1, Expr.Var v) in
  let inner_map = Expr.Map ("y", Expr.Tuple [ p1 "y" ], Expr.Var "R") in
  let sub = Expr.Map ("x", Expr.Tuple [ p1 "x"; p1 "y" ], inner_map) in
  let e = Expr.Map ("y", sub, Expr.Var "S") in
  (* what the pre-fix rule produced: substitution, then blind re-binding *)
  let buggy_sub =
    Expr.Map
      ( "y",
        Expr.subst "x" (Expr.Tuple [ p1 "y" ]) (Expr.Tuple [ p1 "x"; p1 "y" ]),
        Expr.Var "R" )
  in
  let buggy = Expr.Map ("y", buggy_sub, Expr.Var "S") in
  let inst =
    [
      ("R", Value.bag_of_list [ Value.tuple [ Value.atom "a" ] ]);
      ("S",
       Value.bag_of_list [ Value.tuple [ Value.atom "b"; Value.atom "c" ] ]);
    ]
  in
  let fused = norm e in
  let rec count_maps e =
    (match e with Expr.Map _ -> 1 | _ -> 0)
    + List.fold_left (fun acc c -> acc + count_maps c) 0 (Expr.children e)
  in
  Alcotest.(check int) "fusion still fires (alpha-renamed)" 2 (count_maps fused);
  Alcotest.(check bool) "fused form preserves semantics" true
    (Value.equal (eval_on inst e) (eval_on inst fused));
  Alcotest.(check bool) "the captured form really evaluated differently" false
    (Value.equal (eval_on inst e) (eval_on inst buggy));
  let rng = Random.State.make [| 23 |] in
  Alcotest.(check bool) "fused form equivalent on random instances" true
    (equivalent_bag rng e fused)

(* select-pushdown once shifted projections under binders that rebind the
   tuple variable: pushing this condition to the right product operand
   rewrote the [x.2] inside [let x = <'a,'b> in x.2] to [x.1], turning the
   compared constant from 'b into 'a. *)
let test_pushdown_shadowing () =
  let shadowed =
    Expr.Let
      ( "x",
        Expr.Tuple [ Expr.atom "a"; Expr.atom "b" ],
        Expr.Proj (2, Expr.Var "x") )
  in
  let q =
    Expr.Select
      ( "x",
        Expr.Proj (2, Expr.Var "x"),
        shadowed,
        Expr.Product (Expr.Var "R", Expr.Var "S") )
  in
  let pushed = norm q in
  (match pushed with
  | Expr.Product (_, Expr.Select (_, _, r, _)) ->
      Alcotest.check expr_eq "shadowed Let body left untouched" shadowed r
  | e -> Alcotest.failf "expected pushed-right product, got %s" (Expr.to_string e));
  (* what the pre-fix shift produced on the right operand *)
  let buggy =
    Expr.Product
      ( Expr.Var "R",
        Expr.Select
          ( "x",
            Expr.Proj (1, Expr.Var "x"),
            Expr.Let
              ( "x",
                Expr.Tuple [ Expr.atom "a"; Expr.atom "b" ],
                Expr.Proj (1, Expr.Var "x") ),
            Expr.Var "S" ) )
  in
  let inst =
    [
      ("R", Value.bag_of_list [ Value.tuple [ Value.atom "u" ] ]);
      ("S",
       Value.bag_of_list
         [
           Value.tuple [ Value.atom "a"; Value.atom "v" ];
           Value.tuple [ Value.atom "b"; Value.atom "w" ];
         ]);
    ]
  in
  Alcotest.(check bool) "pushed form preserves semantics" true
    (Value.equal (eval_on inst q) (eval_on inst pushed));
  Alcotest.(check bool) "the shadow-shifted form really evaluated differently"
    false
    (Value.equal (eval_on inst q) (eval_on inst buggy));
  let rng = Random.State.make [| 29 |] in
  Alcotest.(check bool) "pushed form equivalent on random instances" true
    (equivalent_bag rng q pushed)

(* normalize types a [let] body with the bound expression's type.  It used
   to keep the outer one, so select-pushdown read R's outer arity (2) under
   [let R = R * S] and pushed [p.4 == p.5] — which straddles R and S —
   into S as [p.2 == p.3], where attribute 3 does not exist. *)
let test_normalize_shadowing_let () =
  let pair a b = Value.tuple [ Value.atom a; Value.atom b ] in
  let inst =
    [
      ("R", Value.bag_of_list [ pair "a" "b"; pair "b" "c" ]);
      ("S", Value.bag_of_list [ pair "b" "a"; pair "c" "b" ]);
    ]
  in
  let tenv = Typecheck.env_of_list [ ("R", Ty.relation 2); ("S", Ty.relation 2) ] in
  List.iter
    (fun text ->
      let q = Baglang.Parser.expr_of_string text in
      let q', _ = Rewrite.normalize tenv q in
      match Eval.run (Eval.env_of_list inst) q' with
      | Ok v -> Alcotest.check value_t text (eval_on inst q) v
      | Error _ -> Alcotest.failf "%s: normal form hit a verdict" text
      | exception Eval.Eval_error m ->
          Alcotest.failf "%s: normal form %s fails: %s" text
            (Expr.to_string q') m)
    [
      "let R = R * S in select(p -> p.4 == p.5, R * S)";
      "let R = R * S in select(p -> p.1 == p.4, R * S)";
    ]

(* --- randomized soundness -------------------------------------------------- *)

let prop_normalize_sound =
  QCheck.Test.make ~name:"normal form is bag-equivalent" ~count:120
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.flat rng env_spec 4 (1 + Random.State.int rng 2) in
      let e', _ = Rewrite.normalize tenv e in
      equivalent_bag ~trials:10 rng e e')

(* Differential check under a *tight* budget: normalisation must commute
   with governed evaluation — when both sides finish, the values agree; an
   exhaustion verdict on either side is tolerated (rewriting legitimately
   changes how much work a query needs) but no raw exception may escape. *)
let tight_limits =
  {
    Budget.default with
    Budget.fuel = 50_000;
    max_support = 400;
    max_size = 20_000;
  }

let prop_differential gen gen_name =
  QCheck.Test.make
    ~name:(Printf.sprintf "normalize commutes with governed eval (%s)" gen_name)
    ~count:100
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = gen rng env_spec 4 (1 + Random.State.int rng 2) in
      let e', _ = Rewrite.normalize tenv e in
      List.for_all
        (fun _ ->
          let inst = Baggen.Genexpr.instance rng env_spec in
          let run q = Eval.run ~limits:tight_limits (Eval.env_of_list inst) q in
          match (run e, run e') with
          | Ok v, Ok v' -> Value.equal v v'
          | Error _, _ | _, Error _ -> true)
        (List.init 8 Fun.id))

let prop_differential_flat = prop_differential (Baggen.Genexpr.flat ?allow_diff:None ?allow_dedup:None) "flat"
let prop_differential_nested = prop_differential Baggen.Genexpr.nested "nested"

let prop_normalize_welltyped =
  QCheck.Test.make ~name:"normal form stays well-typed" ~count:120
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.flat rng env_spec 4 (1 + Random.State.int rng 2) in
      let ty = Typecheck.infer tenv e in
      let e', _ = Rewrite.normalize tenv e in
      Ty.equal ty (Typecheck.infer tenv e'))

(* --- CV93: set-only rules break bag semantics ------------------------------ *)

let test_selfproduct_rule_cv93 () =
  let r = Expr.Var "R" in
  let q = Expr.proj_attrs [ 1 ] (Expr.Product (r, r)) in
  let rewritten, log =
    Rewrite.normalize ~rules:Rewrite.set_only_rules tenv q
  in
  Alcotest.(check bool) "rule fired" true
    (List.exists (fun n -> n = "self-product-projection (set-only)") log);
  Alcotest.check expr_eq "rewrites to R" r rewritten;
  let rng = Random.State.make [| 3 |] in
  Alcotest.(check bool) "valid under set semantics" true
    (equivalent_set rng q rewritten);
  Alcotest.(check bool) "INVALID under bag semantics" false
    (equivalent_bag rng q rewritten)

let test_dedup_rule_cv93 () =
  let q = Expr.Dedup (Expr.proj_attrs [ 1 ] (Expr.Var "S")) in
  let rewritten, _ =
    Rewrite.normalize ~rules:[ List.nth Rewrite.set_only_rules 1 ] tenv q
  in
  let rng = Random.State.make [| 5 |] in
  Alcotest.(check bool) "valid under set semantics" true
    (equivalent_set rng q rewritten);
  Alcotest.(check bool) "INVALID under bag semantics" false
    (equivalent_bag rng q rewritten)

let () =
  Alcotest.run "rewrite"
    [
      ( "rules",
        [
          Alcotest.test_case "units and idempotence" `Quick test_units;
          Alcotest.test_case "commutation" `Quick test_commutation_normalises;
          Alcotest.test_case "map fusion" `Quick test_map_fusion;
          Alcotest.test_case "selection pushdown" `Quick test_select_pushdown;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "map-fusion variable capture" `Quick
            test_map_fusion_capture;
          Alcotest.test_case "pushdown through shadowing binders" `Quick
            test_pushdown_shadowing;
          Alcotest.test_case "normalize types let bodies" `Quick
            test_normalize_shadowing_let;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_normalize_sound;
          QCheck_alcotest.to_alcotest prop_normalize_welltyped;
          QCheck_alcotest.to_alcotest prop_differential_flat;
          QCheck_alcotest.to_alcotest prop_differential_nested;
        ] );
      ( "cv93",
        [
          Alcotest.test_case "self-product projection" `Quick test_selfproduct_rule_cv93;
          Alcotest.test_case "dedup elimination" `Quick test_dedup_rule_cv93;
        ] );
    ]
