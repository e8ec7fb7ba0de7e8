(* Tests for the derived operators: the paper's aggregate encodings, the §3
   inter-definability identities, and the §4 example queries. *)

open Balg
module B = Bignat

let value = Alcotest.testable Value.pp Value.equal

let ev ?(env = []) e = Expect.ok (Eval.run (Eval.env_of_list env) e)
let truthy ?env e = Eval.truthy (ev ?env e)

let rel1 l = Value.bag_of_list (List.map (fun x -> Value.tuple [ Value.atom x ]) l)

let rel2 l =
  Value.bag_of_list
    (List.map (fun (x, y) -> Value.tuple [ Value.atom x; Value.atom y ]) l)

let nat_of e = B.to_int_exn (Value.nat_value (ev e))

(* bag of integer-bags *)
let nats_lit ints =
  Expr.lit
    (Value.bag_of_list (List.map Value.nat ints))
    (Ty.Bag Ty.nat)

(* --- aggregates --------------------------------------------------------- *)

let test_count () =
  let r = rel2 [ ("a", "b"); ("b", "c"); ("c", "a") ] in
  Alcotest.(check int) "count via paper formula" 3
    (nat_of (Derived.count (Expr.lit r (Ty.relation 2))));
  Alcotest.(check int) "count of empty" 0
    (nat_of (Derived.count (Expr.empty (Ty.relation 2))));
  (* counts duplicates *)
  let dup = Value.bag_of_assoc [ (Value.tuple [ Value.atom "a" ], B.of_int 5) ] in
  Alcotest.(check int) "count respects duplicates" 5
    (nat_of (Derived.count (Expr.lit dup (Ty.relation 1))))

let test_sum () =
  Alcotest.(check int) "sum 1+2+3" 6 (nat_of (Derived.sum (nats_lit [ 1; 2; 3 ])));
  Alcotest.(check int) "sum empty" 0 (nat_of (Derived.sum (nats_lit [])))

let test_average () =
  Alcotest.(check int) "avg {2,4} = 3" 3
    (nat_of (Derived.average (nats_lit [ 2; 4 ])));
  Alcotest.(check int) "avg {5} = 5" 5 (nat_of (Derived.average (nats_lit [ 5 ])));
  (* not divisible -> empty *)
  Alcotest.check value "avg {1,2} inexact" Value.empty_bag
    (ev (Derived.average (nats_lit [ 1; 2 ])));
  Alcotest.(check int) "floor avg {1,2} = 1" 1
    (nat_of (Derived.floor_average (nats_lit [ 1; 2 ])));
  Alcotest.(check int) "floor avg {2,4} = 3" 3
    (nat_of (Derived.floor_average (nats_lit [ 2; 4 ])));
  Alcotest.(check int) "floor avg {1,1,7} = 3" 3
    (nat_of (Derived.floor_average (nats_lit [ 1; 1; 7 ])));
  Alcotest.(check int) "floor avg empty = 0" 0
    (nat_of (Derived.floor_average (nats_lit [])))

(* --- cardinality comparisons ------------------------------------------- *)

let test_card_compare () =
  let r = Expr.lit (rel1 [ "a"; "b"; "c" ]) (Ty.relation 1)
  and s = Expr.lit (rel1 [ "x"; "y" ]) (Ty.relation 1) in
  Alcotest.(check bool) "3 > 2 (paper)" true (truthy (Derived.card_gt_paper r s));
  Alcotest.(check bool) "2 > 3 false (paper)" false (truthy (Derived.card_gt_paper s r));
  Alcotest.(check bool) "3 > 2" true (truthy (Derived.card_gt r s));
  Alcotest.(check bool) "not 3 > 3" false (truthy (Derived.card_gt r r));
  Alcotest.(check bool) "card_neq" true (truthy (Derived.card_neq r s));
  Alcotest.(check bool) "card_eq" false (truthy (Derived.card_neq r r));
  Alcotest.(check bool) "at least 3" true (truthy (Derived.has_at_least 3 r));
  Alcotest.(check bool) "not at least 4" false (truthy (Derived.has_at_least 4 r))

let test_indeg_outdeg () =
  (* node a: in-degree 2, out-degree 1 *)
  let g = rel2 [ ("b", "a"); ("c", "a"); ("a", "b") ] in
  let lg = Expr.lit g (Ty.relation 2) in
  Alcotest.(check bool) "indeg(a) > outdeg(a)" true
    (truthy (Derived.indeg_gt_outdeg lg (Expr.atom "a")));
  Alcotest.(check bool) "indeg(b) > outdeg(b) is false" false
    (truthy (Derived.indeg_gt_outdeg lg (Expr.atom "b")))

(* --- parity with order -------------------------------------------------- *)

let parity_query names =
  let r = rel1 names in
  let leq = Baggen.Genval.leq_relation r in
  Derived.parity_even (Expr.lit r (Ty.relation 1)) (Expr.lit leq (Ty.relation 2))

let test_parity () =
  Alcotest.(check bool) "4 elements even" true
    (truthy (parity_query [ "a"; "b"; "c"; "d" ]));
  Alcotest.(check bool) "3 elements odd" false
    (truthy (parity_query [ "a"; "b"; "c" ]));
  Alcotest.(check bool) "2 even" true (truthy (parity_query [ "a"; "b" ]));
  Alcotest.(check bool) "1 odd" false (truthy (parity_query [ "a" ]));
  Alcotest.(check bool) "0 even (vacuously empty select)" false
    (truthy (parity_query []))
(* note: the paper's expression answers "exists a median", which is empty on
   the empty relation — the conventional reading treats 0 via the complement *)

(* --- identities (§3, Prop 3.1) ------------------------------------------ *)

let gen_bag arity =
  QCheck.Gen.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      Baggen.Genval.flat_bag rng ~n_atoms:4 ~arity ~size:5 ~max_count:3)
    QCheck.Gen.int

let arb_bag arity = QCheck.make ~print:Value.to_string (gen_bag arity)

let lit2 v = Expr.lit v (Ty.relation 2)

let prop_unionadd_via_max =
  QCheck.Test.make ~name:"∪+ definable from ∪max (§3)" ~count:200
    QCheck.(pair (arb_bag 2) (arb_bag 2))
    (fun (x, y) ->
      Value.equal
        (ev (Derived.unionadd_via_max ~arity:2 (lit2 x) (lit2 y)))
        (Bag.union_add x y))

let prop_diff_via_powerset =
  QCheck.Test.make ~name:"− definable from P (§3)" ~count:100
    QCheck.(pair (arb_bag 1) (arb_bag 1))
    (fun (x, y) ->
      let l1 v = Expr.lit v (Ty.relation 1) in
      Value.equal (ev (Derived.diff_via_powerset (l1 x) (l1 y))) (Bag.diff x y))

let prop_dedup_via_powerset_flat =
  QCheck.Test.make ~name:"ε definable from P, flat case (Prop 3.1)" ~count:100
    (arb_bag 2)
    (fun x ->
      Value.equal (ev (Derived.dedup_via_powerset_flat (lit2 x))) (Bag.dedup x))

let prop_dedup_via_powerset_nested =
  QCheck.Test.make ~name:"ε definable from P, nested case (Prop 3.1)" ~count:60
    QCheck.(pair (arb_bag 1) (arb_bag 1))
    (fun (x, y) ->
      (* a nested bag {{x:2, y}} *)
      let nested = Value.bag_of_assoc [ (x, B.of_int 2); (y, B.one) ] in
      let l = Expr.lit nested (Ty.Bag (Ty.relation 1)) in
      Value.equal (ev (Derived.dedup_via_powerset_nested l)) (Bag.dedup nested))

(* --- exponentiation and domains ----------------------------------------- *)

let test_exp2 () =
  List.iter
    (fun n ->
      let e = Expr.lit (Value.nat n) Ty.nat in
      Alcotest.(check int)
        (Printf.sprintf "powerbag doubling at %d" n)
        (1 lsl n)
        (B.to_int_exn (Value.nat_value (ev (Derived.exp2_via_powerbag e))));
      Alcotest.(check int)
        (Printf.sprintf "powerset doubling at %d" n)
        (1 lsl (n + 1))
        (B.to_int_exn (Value.nat_value (ev (Derived.exp2_via_powerset e)))))
    [ 0; 1; 2; 4 ]

let test_domain () =
  (* D(b_2) with i = 0: integer bags 0..2, as a set of bags *)
  let e = Expr.lit (Value.nat 2) Ty.nat in
  let d = ev (Derived.domain 0 e) in
  Alcotest.(check int) "0,1,2" 3 (Value.support_size d);
  let d1 = ev (Derived.domain ~via_powerbag:true 1 e) in
  (* E(b_2) = 4, so D = 0..4 *)
  Alcotest.(check int) "0..4" 5 (Value.support_size d1)

(* --- misc ---------------------------------------------------------------- *)

let test_mem_expr () =
  let r = Expr.lit (rel1 [ "a"; "b" ]) (Ty.relation 1) in
  Alcotest.(check bool) "member" true
    (truthy (Derived.mem_expr (Expr.Tuple [ Expr.atom "a" ]) r));
  Alcotest.(check bool) "not member" false
    (truthy (Derived.mem_expr (Expr.Tuple [ Expr.atom "z" ]) r))

let test_transitive_closure_random =
  QCheck.Test.make ~name:"bfix TC agrees with reference closure" ~count:60
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Baggen.Genval.graph rng ~n:5 ~p:0.3 in
      let algebra = ev (Derived.transitive_closure (Expr.lit g (Ty.relation 2))) in
      Value.equal algebra (Baggen.Genval.transitive_closure_ref g))

let prop_ddl_completeness =
  QCheck.Test.make ~name:"§3 DDL: every value from atoms + τ/β/∪+" ~count:150
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let tys = [ Ty.relation 2; Ty.Bag (Ty.Bag Ty.Atom); Ty.Bag Ty.Atom ] in
      let ty = List.nth tys (Random.State.int rng 3) in
      let v = Baggen.Genval.of_type rng ~n_atoms:3 ~width:3 ~max_count:9 ty in
      let e = Derived.value_expr v in
      (* only DDL constructors (plus typed empty-bag leaves) appear *)
      let rec ddl_only e =
        (match e with
        | Expr.Lit (v, _) -> (
            match Value.view v with
            | Value.Atom _ -> true
            | Value.Bag [] -> true
            | _ -> false)
        | Expr.Tuple _ | Expr.Sing _ | Expr.UnionAdd _ -> true
        | _ -> false)
        && List.for_all ddl_only (Expr.children e)
      in
      ddl_only e && Value.equal (ev e) v)

let props = List.map QCheck_alcotest.to_alcotest
  [
    prop_unionadd_via_max;
    prop_diff_via_powerset;
    prop_dedup_via_powerset_flat;
    prop_dedup_via_powerset_nested;
    test_transitive_closure_random;
    prop_ddl_completeness;
  ]

let () =
  Alcotest.run "derived"
    [
      ( "aggregates",
        [
          Alcotest.test_case "count" `Quick test_count;
          Alcotest.test_case "sum" `Quick test_sum;
          Alcotest.test_case "average" `Quick test_average;
        ] );
      ( "comparisons",
        [
          Alcotest.test_case "cardinality" `Quick test_card_compare;
          Alcotest.test_case "degrees (Ex 4.1)" `Quick test_indeg_outdeg;
          Alcotest.test_case "parity with order" `Quick test_parity;
        ] );
      ( "exponentiation",
        [
          Alcotest.test_case "exp2" `Quick test_exp2;
          Alcotest.test_case "domains" `Quick test_domain;
          Alcotest.test_case "membership" `Quick test_mem_expr;
        ] );
      ("identities", props);
    ]
