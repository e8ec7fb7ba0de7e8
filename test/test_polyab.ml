(* Tests for Poly and for the Prop 4.1 / 4.5 polynomial abstract
   interpreter. *)

open Balg
module BI = Bigint

let poly = Alcotest.testable Poly.pp Poly.equal

(* --- Poly --------------------------------------------------------------- *)

let p_of_ints l = Array.of_list (List.map BI.of_int l)

let test_poly_arith () =
  let p = p_of_ints [ 1; 2 ] (* 1 + 2n *) and q = p_of_ints [ 0; 1; 3 ] in
  Alcotest.check poly "add" (p_of_ints [ 1; 3; 3 ]) (Poly.add p q);
  Alcotest.check poly "sub to lower degree"
    (p_of_ints [ 1; 1; -3 ])
    (Poly.sub p q);
  Alcotest.check poly "mul" (p_of_ints [ 0; 1; 5; 6 ]) (Poly.mul p q);
  Alcotest.check poly "cancellation normalizes" Poly.zero (Poly.sub p p);
  Alcotest.(check int) "degree" 2 (Poly.degree q);
  Alcotest.(check int) "degree zero poly" (-1) (Poly.degree Poly.zero)

let test_poly_eval () =
  let p = p_of_ints [ 1; 2; 1 ] (* (n+1)^2 *) in
  Alcotest.(check string) "eval 4" "25" (BI.to_string (Poly.eval_int p 4));
  Alcotest.(check string) "eval 0" "1" (BI.to_string (Poly.eval_int p 0));
  let q = p_of_ints [ 0; -1; 1 ] (* n^2 - n *) in
  Alcotest.(check string) "negative-coeff eval" "6" (BI.to_string (Poly.eval_int q 3))

let test_sign_analysis () =
  let p = p_of_ints [ -100; 1 ] (* n - 100 *) in
  Alcotest.(check int) "limit sign" 1 (Poly.limit_sign p);
  let n0 = Poly.sign_stable_from p in
  Alcotest.(check bool) "bound past root" true (n0 >= 100);
  Alcotest.(check bool) "sign stable beyond bound" true
    (BI.sign (Poly.eval_int p (n0 + 1)) = 1);
  Alcotest.(check int) "zero poly sign" 0 (Poly.limit_sign Poly.zero);
  let s, _ = Poly.compare_eventually (p_of_ints [ 5; 1 ]) (p_of_ints [ 0; 2 ]) in
  Alcotest.(check int) "n+5 < 2n eventually" (-1) s

(* --- Polyab ------------------------------------------------------------- *)

let b = "B"
let input_ty = [ (b, Ty.relation 1) ]
let t_a = Value.tuple [ Value.atom "a" ]

let analyze e =
  (* every analysed expression must also typecheck *)
  ignore (Typecheck.infer (Typecheck.env_of_list input_ty) e);
  Polyab.analyze ~input:b e

let check_agreement ?(ns = [ 1; 2; 3; 5; 9 ]) e =
  let a = analyze e in
  List.iter
    (fun n ->
      let n = n + a.Polyab.threshold in
      Alcotest.(check bool)
        (Printf.sprintf "prediction matches eval at n=%d" n)
        true
        (Polyab.agrees_with_eval ~input:b e a ~n))
    ns

let test_identity () =
  let a = analyze (Expr.Var b) in
  (match Polyab.polynomial_of a t_a with
  | Some p -> Alcotest.check poly "P_(a) = n" Poly.x p
  | None -> Alcotest.fail "missing entry");
  check_agreement (Expr.Var b)

let test_union_product () =
  check_agreement Expr.(Var b ++ Var b);
  check_agreement Expr.(Var b *** Var b);
  let a = analyze Expr.(Var b *** Var b) in
  (match Polyab.polynomial_of a (Value.tuple [ Value.atom "a"; Value.atom "a" ]) with
  | Some p -> Alcotest.check poly "product squares" (Poly.mul Poly.x Poly.x) p
  | None -> Alcotest.fail "missing tuple")

let test_diff () =
  (* B×B − B on the doubled arity... use π1(B×B) − B: n^2 - n, eventually
     positive *)
  let e = Expr.(Derived.count (Var b *** Var b) -- Derived.count (Var b)) in
  check_agreement e;
  (* eventually-zero branch: B − B×B projected *)
  let e2 = Expr.(Derived.count (Var b) -- Derived.count (Var b *** Var b)) in
  let a2 = analyze e2 in
  List.iter
    (fun n ->
      Alcotest.(check bool) "eventually empty" true
        (Polyab.agrees_with_eval ~input:b e2 a2 ~n:(n + a2.Polyab.threshold)))
    [ 1; 2; 4 ]

let test_let_shadows_input () =
  (* the body's [B] is the let-bound B×B, not the input B_n: the pair
     <a, a> occurs n^2 times *)
  let e = Expr.Let (b, Expr.(Var b *** Var b), Expr.Var b) in
  check_agreement e;
  let a = analyze e in
  (match Polyab.polynomial_of a (Value.tuple [ Value.atom "a"; Value.atom "a" ]) with
  | Some p -> Alcotest.check poly "shadowed input squares" (Poly.mul Poly.x Poly.x) p
  | None -> Alcotest.fail "missing tuple");
  Alcotest.(check bool) "no entry for the unshadowed input" true
    (Option.is_none (Polyab.polynomial_of a t_a))

let test_max_inter_dedup () =
  check_agreement Expr.(Var b ||| (Var b ++ Var b));
  check_agreement Expr.(Var b &&& (Var b ++ Var b));
  check_agreement (Expr.Dedup (Expr.Var b));
  let a = analyze (Expr.Dedup Expr.(Var b ++ Var b)) in
  match Polyab.polynomial_of a t_a with
  | Some p -> Alcotest.check poly "dedup clamps to 1" Poly.one p
  | None -> Alcotest.fail "missing entry"

let test_map_select () =
  (* map to a constant: all n occurrences collapse onto <c> *)
  let e = Expr.map "x" (Expr.Tuple [ Expr.atom "c" ]) (Expr.Var b) in
  let a = analyze e in
  (match Polyab.polynomial_of a (Value.tuple [ Value.atom "c" ]) with
  | Some p -> Alcotest.check poly "collapse onto constant" Poly.x p
  | None -> Alcotest.fail "missing entry");
  check_agreement e;
  (* selection with a statically-false condition empties the bag *)
  let e2 =
    Expr.select "x" (Expr.Proj (1, Expr.Var "x")) (Expr.atom "z") (Expr.Var b)
  in
  let a2 = analyze e2 in
  Alcotest.(check int) "no entries survive" 0 (List.length a2.Polyab.entries)

let test_bag_even_shape () =
  (* Prop 4.5's conclusion, observed mechanically: every analysable
     expression yields polynomial counts, which are eventually monotone; so
     no expression's truthiness can alternate with n forever.  We verify the
     monotonicity consequence on a sample of derived expressions. *)
  let candidates =
    [
      Expr.Var b;
      Expr.(Var b ++ Var b);
      Expr.(Var b *** Var b);
      Expr.Dedup (Expr.Var b);
      Expr.(Derived.count (Var b *** Var b) -- Derived.count (Var b));
    ]
  in
  List.iter
    (fun e ->
      let a = analyze e in
      List.iter
        (fun (_, p) ->
          let n0 = max (Poly.sign_stable_from p) a.Polyab.threshold in
          let v1 = Poly.eval_int p (n0 + 1)
          and v2 = Poly.eval_int p (n0 + 2)
          and v3 = Poly.eval_int p (n0 + 3) in
          let increasing = BI.compare v1 v2 <= 0 && BI.compare v2 v3 <= 0 in
          let decreasing = BI.compare v1 v2 >= 0 && BI.compare v2 v3 >= 0 in
          Alcotest.(check bool) "eventually monotone" true
            (increasing || decreasing))
        a.Polyab.entries)
    candidates

let test_unsupported () =
  (match Polyab.analyze ~input:b (Expr.Powerset (Expr.Var b)) with
  | exception Polyab.Unsupported _ -> ()
  | _ -> Alcotest.fail "powerset must be rejected");
  match Polyab.analyze ~input:b (Expr.Sing (Expr.Var b)) with
  | exception Polyab.Unsupported _ -> ()
  | _ -> Alcotest.fail "bagging must be rejected"

(* random BALG^1 expressions over the single input: prediction always
   agrees with the evaluator beyond the threshold *)
let prop_agreement =
  QCheck.Test.make ~name:"abstract = concrete beyond threshold" ~count:150
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.flat rng [ (b, 1) ] 3 1 in
      match Polyab.analyze ~input:b e with
      | exception Polyab.Unsupported _ -> QCheck.assume_fail ()
      | a ->
          List.for_all
            (fun dn ->
              Polyab.agrees_with_eval ~input:b e a ~n:(a.Polyab.threshold + dn))
            [ 1; 2; 5 ])

let () =
  Alcotest.run "polyab"
    [
      ( "poly",
        [
          Alcotest.test_case "arithmetic" `Quick test_poly_arith;
          Alcotest.test_case "evaluation" `Quick test_poly_eval;
          Alcotest.test_case "sign analysis" `Quick test_sign_analysis;
        ] );
      ( "abstract interpretation",
        [
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "union and product" `Quick test_union_product;
          Alcotest.test_case "difference" `Quick test_diff;
          Alcotest.test_case "max/inter/dedup" `Quick test_max_inter_dedup;
          Alcotest.test_case "let shadows the input" `Quick test_let_shadows_input;
          Alcotest.test_case "map and select" `Quick test_map_select;
          Alcotest.test_case "eventual monotonicity (Prop 4.5)" `Quick
            test_bag_even_shape;
          Alcotest.test_case "rejects non-BALG^1" `Quick test_unsupported;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_agreement ]);
    ]
