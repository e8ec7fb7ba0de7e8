(* Tests for the set-semantics baseline and the Prop 4.2 correspondence. *)

open Balg
module B = Bignat
module Rel = Ralg.Rel
module Reval = Ralg.Reval

let eval_ok env e = Expect.ok (Eval.run env e)

let value = Alcotest.testable Value.pp Value.equal

let rel1 l = Value.bag_of_list (List.map (fun x -> Value.tuple [ Value.atom x ]) l)

let rel2 l =
  Value.bag_of_list
    (List.map (fun (x, y) -> Value.tuple [ Value.atom x; Value.atom y ]) l)

(* --- Rel ----------------------------------------------------------------- *)

let test_rel_basics () =
  let r = Rel.of_list [ Value.atom "b"; Value.atom "a"; Value.atom "b" ] in
  Alcotest.(check int) "dedup on of_list" 2 (Rel.cardinal r);
  Alcotest.(check bool) "mem" true (Rel.mem (Value.atom "a") r);
  Alcotest.(check bool) "not mem" false (Rel.mem (Value.atom "z") r);
  Alcotest.(check bool) "empty" true (Rel.is_empty Rel.empty)

let test_rel_setops () =
  let a = Rel.of_list [ Value.atom "a"; Value.atom "b" ]
  and b = Rel.of_list [ Value.atom "b"; Value.atom "c" ] in
  Alcotest.(check int) "union" 3 (Rel.cardinal (Rel.union a b));
  Alcotest.(check int) "inter" 1 (Rel.cardinal (Rel.inter a b));
  Alcotest.(check int) "diff" 1 (Rel.cardinal (Rel.diff a b));
  Alcotest.(check bool) "subset" true (Rel.subset (Rel.inter a b) a);
  Alcotest.(check int) "powerset" 4 (Rel.cardinal (Rel.powerset a))

let test_set_value_of () =
  let noisy =
    Value.bag_of_assoc
      [ (Value.bag_of_assoc [ (Value.atom "a", B.of_int 3) ], B.of_int 2) ]
  in
  let cleaned = Rel.set_value_of noisy in
  Alcotest.(check bool) "deep dedup" true (Rel.is_set_value cleaned);
  Alcotest.check value "value"
    (Value.bag_of_list [ Value.bag_of_list [ Value.atom "a" ] ])
    cleaned

(* --- Reval ---------------------------------------------------------------- *)

let ev_set ?(env = []) e = Reval.eval (Reval.env_of_list env) e

let test_reval_union_semantics () =
  let r = rel1 [ "a"; "b" ] and s = rel1 [ "b"; "c" ] in
  let env = [ ("R", r); ("S", s) ] in
  (* ∪+ and ∪max coincide on sets *)
  Alcotest.check value "additive union is set union" (rel1 [ "a"; "b"; "c" ])
    (ev_set ~env Expr.(Var "R" ++ Var "S"));
  Alcotest.check value "max union is set union" (rel1 [ "a"; "b"; "c" ])
    (ev_set ~env Expr.(Var "R" ||| Var "S"));
  (* projection does NOT create duplicates under set semantics *)
  let g = rel2 [ ("a", "b"); ("a", "c") ] in
  Alcotest.check value "projection collapses" (rel1 [ "a" ])
    (ev_set ~env:[ ("G", g) ] (Expr.proj_attrs [ 1 ] (Expr.Var "G")));
  (* the bag evaluator keeps the multiplicity 2 *)
  let bag_result =
    eval_ok (Eval.env_of_list [ ("G", g) ]) (Expr.proj_attrs [ 1 ] (Expr.Var "G"))
  in
  Alcotest.(check string) "bag projection keeps count" "2"
    (B.to_string (Value.count_in (Value.tuple [ Value.atom "a" ]) bag_result))

let test_reval_powerbag_rejected () =
  match ev_set ~env:[ ("R", rel1 [ "a" ]) ] (Expr.Powerbag (Expr.Var "R")) with
  | exception Reval.Ralg_error _ -> ()
  | _ -> Alcotest.fail "expected Ralg_error"

let test_reval_dedup_identity () =
  let r = rel1 [ "a"; "b" ] in
  Alcotest.check value "dedup is identity on sets" r
    (ev_set ~env:[ ("R", r) ] (Expr.Dedup (Expr.Var "R")))

let test_reval_tc () =
  let g = rel2 [ ("a", "b"); ("b", "c") ] in
  Alcotest.check value "TC under set semantics"
    (rel2 [ ("a", "b"); ("b", "c"); ("a", "c") ])
    (ev_set ~env:[ ("G", g) ] (Derived.transitive_closure (Expr.Var "G")))

(* --- Proposition 4.2 ------------------------------------------------------ *)

(* For minus-free BALG^1 queries over set inputs: an element belongs to the
   bag result iff it belongs to the set result. *)
let prop42_membership =
  QCheck.Test.make ~name:"Prop 4.2: membership agrees without −" ~count:200
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let env_spec = [ ("R", 1); ("G", 2) ] in
      let e =
        Baggen.Genexpr.flat ~allow_diff:false rng env_spec 4
          (1 + Random.State.int rng 2)
      in
      (* set inputs: multiplicities all one *)
      let inst =
        List.map
          (fun (name, v) -> (name, Bag.dedup v))
          (Baggen.Genexpr.instance rng env_spec)
      in
      let bag_result = eval_ok (Eval.env_of_list inst) e in
      let set_env = Reval.env_of_list inst in
      let set_result = Reval.eval set_env e in
      (* same support *)
      Value.equal (Bag.dedup bag_result) set_result)

(* With subtraction the correspondence breaks: a witness query.  The bag
   difference compares multiplicities which sets cannot see. *)
let test_prop42_sharpness () =
  (* π1(G) − R: under bags, duplicates from the projection survive the
     subtraction; under sets they do not. *)
  let g = rel2 [ ("a", "b"); ("a", "c") ] and r = rel1 [ "a" ] in
  let e = Expr.(Expr.proj_attrs [ 1 ] (Var "G") -- Var "R") in
  let env = [ ("G", g); ("R", r) ] in
  let bag_result = eval_ok (Eval.env_of_list env) e in
  let set_result = Reval.eval (Reval.env_of_list env) e in
  Alcotest.(check bool) "bag result nonempty" true (Eval.truthy bag_result);
  Alcotest.(check bool) "set result empty" true (Value.is_empty_bag set_result)

let () =
  Alcotest.run "ralg"
    [
      ( "rel",
        [
          Alcotest.test_case "basics" `Quick test_rel_basics;
          Alcotest.test_case "set operations" `Quick test_rel_setops;
          Alcotest.test_case "deep set conversion" `Quick test_set_value_of;
        ] );
      ( "reval",
        [
          Alcotest.test_case "union semantics" `Quick test_reval_union_semantics;
          Alcotest.test_case "powerbag rejected" `Quick test_reval_powerbag_rejected;
          Alcotest.test_case "dedup identity" `Quick test_reval_dedup_identity;
          Alcotest.test_case "transitive closure" `Quick test_reval_tc;
          Alcotest.test_case "Prop 4.2 sharpness (−)" `Quick test_prop42_sharpness;
        ] );
      ("prop 4.2", [ QCheck_alcotest.to_alcotest prop42_membership ]);
    ]
