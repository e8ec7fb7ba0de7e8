(* Tests for the §7 nest/unnest extension: semantics, typing, the
   definability oracle (nest via MAP), the unnest-nest identity, grouping
   aggregates, and set-vs-bag behaviour. *)

open Balg
module B = Bignat
module Reval = Ralg.Reval

let value = Alcotest.testable Value.pp Value.equal
let ty = Alcotest.testable Ty.pp Ty.equal

let t2 x y = Value.tuple [ Value.atom x; Value.atom y ]

let sales =
  Value.bag_of_assoc
    [
      (t2 "ada" "widget", B.of_int 3);
      (t2 "ada" "gadget", B.one);
      (t2 "bob" "widget", B.of_int 2);
    ]

let ev ?(env = []) e = Expect.ok (Eval.run (Eval.env_of_list env) e)
let lit2 = Expr.lit sales (Ty.relation 2)

let test_nest_semantics () =
  let nested = ev (Expr.Nest ([ 1 ], lit2)) in
  Alcotest.(check int) "two groups" 2 (Value.support_size nested);
  let ada_group =
    Value.tuple
      [
        Value.atom "ada";
        Value.bag_of_assoc
          [
            (Value.tuple [ Value.atom "widget" ], B.of_int 3);
            (Value.tuple [ Value.atom "gadget" ], B.one);
          ];
      ]
  in
  Alcotest.(check string) "ada group occurs once" "1"
    (B.to_string (Value.count_in ada_group nested));
  (* nesting on both attributes leaves empty-tuple groups *)
  let both = ev (Expr.Nest ([ 1; 2 ], lit2)) in
  Alcotest.(check int) "three groups on full key" 3 (Value.support_size both)

let test_nest_typing () =
  let tenv = Typecheck.env_of_list [ ("S", Ty.relation 2) ] in
  Alcotest.check ty "nest type"
    (Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.Bag (Ty.Tuple [ Ty.Atom ]) ]))
    (Typecheck.infer tenv (Expr.Nest ([ 1 ], Expr.Var "S")));
  Alcotest.(check int) "nest raises bag nesting to 2" 2
    (Typecheck.max_nesting tenv (Expr.Nest ([ 1 ], Expr.Var "S")));
  let expect_err f =
    match f () with
    | exception Typecheck.Type_error _ -> ()
    | _ -> Alcotest.fail "expected Type_error"
  in
  expect_err (fun () -> Typecheck.infer tenv (Expr.Nest ([], Expr.Var "S")));
  expect_err (fun () -> Typecheck.infer tenv (Expr.Nest ([ 3 ], Expr.Var "S")));
  expect_err (fun () -> Typecheck.infer tenv (Expr.Nest ([ 1; 1 ], Expr.Var "S")));
  expect_err (fun () -> Typecheck.infer tenv (Expr.Unnest (1, Expr.Var "S")))

let test_unnest_semantics () =
  let nested = ev (Expr.Nest ([ 1 ], lit2)) in
  let flat =
    ev (Expr.Unnest (2, Expr.lit nested
                          (Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.Bag (Ty.Tuple [ Ty.Atom ]) ]))))
  in
  Alcotest.check value "unnest undoes nest" sales flat

let test_unnest_multiplicities () =
  (* outer count 2 x inner count 3 = 6 *)
  let inner = Value.bag_of_assoc [ (Value.tuple [ Value.atom "x" ], B.of_int 3) ] in
  let outer =
    Value.bag_of_assoc [ (Value.tuple [ Value.atom "k"; inner ], B.of_int 2) ]
  in
  let t = Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.Bag (Ty.Tuple [ Ty.Atom ]) ]) in
  let flat = ev (Expr.Unnest (2, Expr.lit outer t)) in
  Alcotest.(check string) "counts multiply" "6"
    (B.to_string (Value.count_in (t2 "k" "x") flat))

let test_group_count () =
  let counts = ev (Derived.group_count [ 1 ] lit2) in
  let expect who n =
    Alcotest.(check string)
      (who ^ " count")
      "1"
      (B.to_string
         (Value.count_in (Value.tuple [ Value.atom who; Value.nat n ]) counts))
  in
  expect "ada" 4;
  expect "bob" 2

let test_group_sum () =
  (* <customer, amount-as-integer-bag> *)
  let row c n = Value.tuple [ Value.atom c; Value.nat n ] in
  let ledger =
    Value.bag_of_assoc
      [ (row "ada" 5, B.of_int 2); (row "ada" 1, B.one); (row "bob" 7, B.one) ]
  in
  let t = Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.nat ]) in
  let sums = ev (Derived.group_sum [ 1 ] ~of_:2 ~arity:2 (Expr.lit ledger t)) in
  (* ada: 5*2 + 1 = 11 *)
  Alcotest.(check string) "ada sum" "1"
    (B.to_string (Value.count_in (Value.tuple [ Value.atom "ada"; Value.nat 11 ]) sums));
  Alcotest.(check string) "bob sum" "1"
    (B.to_string (Value.count_in (Value.tuple [ Value.atom "bob"; Value.nat 7 ]) sums))

(* nest is definable from MAP + select + dedup (§7): the built-in operator
   agrees with the derived form on random bags *)
let prop_nest_via_map =
  QCheck.Test.make ~name:"Nest == nest_via_map (§7 definability)" ~count:200
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let arity = 2 + Random.State.int rng 2 in
      let bag = Baggen.Genval.flat_bag rng ~n_atoms:3 ~arity ~size:6 ~max_count:3 in
      let n_keys = 1 + Random.State.int rng (arity - 1) in
      let ixs = List.init n_keys (fun i -> i + 1) in
      let e = Expr.lit bag (Ty.relation arity) in
      Value.equal
        (ev (Expr.Nest (ixs, e)))
        (ev (Derived.nest_via_map ixs ~arity e)))

(* unnest . nest with prefix keys is the identity (and the rewriter knows) *)
let prop_unnest_nest_identity =
  QCheck.Test.make ~name:"unnest(nest) = id, and the rewrite fires" ~count:200
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let arity = 2 + Random.State.int rng 2 in
      let bag = Baggen.Genval.flat_bag rng ~n_atoms:3 ~arity ~size:6 ~max_count:3 in
      let n_keys = 1 + Random.State.int rng (arity - 1) in
      let ixs = List.init n_keys (fun i -> i + 1) in
      let e = Expr.lit bag (Ty.relation arity) in
      let round = Expr.Unnest (n_keys + 1, Expr.Nest (ixs, e)) in
      let tenv = Typecheck.env_of_list [] in
      let normalized, log = Rewrite.normalize tenv round in
      Value.equal (ev round) bag
      && Stdlib.compare normalized e = 0
      && List.mem "unnest-nest" log)

let test_parser_roundtrip () =
  let e = Expr.Unnest (2, Expr.Nest ([ 1 ], Expr.Var "S")) in
  let s = Expr.to_string e in
  Alcotest.(check bool) "roundtrips" true
    (Stdlib.compare e (Baglang.Parser.expr_of_string s) = 0);
  Alcotest.(check string) "syntax" "unnest[2](nest[1](S))" s

let test_set_semantics_nest () =
  (* under set semantics the groups are sets: duplicates inside vanish *)
  let set_nested = Reval.eval (Reval.env_of_list [ ("S", sales) ]) (Expr.Nest ([ 1 ], Expr.Var "S")) in
  let bag_nested = ev (Expr.Nest ([ 1 ], lit2)) in
  Alcotest.(check bool) "same group count" true
    (Value.support_size set_nested = Value.support_size bag_nested);
  Alcotest.(check bool) "bag groups hold duplicates, set groups do not" true
    (not (Value.equal set_nested bag_nested))

let test_analyze_nest () =
  let tenv = Typecheck.env_of_list [ ("S", Ty.relation 2) ] in
  let r = Analyze.analyze tenv (Expr.Nest ([ 1 ], Expr.Var "S")) in
  Alcotest.(check (list (pair string int))) "census sees nest"
    [ ("nest", 1); ("var", 1) ] r.Analyze.census;
  (* nest does not use the powerset: power nesting stays 0 — the §7 point *)
  Alcotest.(check int) "no power nesting" 0 r.Analyze.power_nesting;
  Alcotest.(check bool) "still PSPACE-classified (nesting 2)" true
    (r.Analyze.cclass = Analyze.Pspace)

let () =
  Alcotest.run "nest"
    [
      ( "semantics",
        [
          Alcotest.test_case "nest" `Quick test_nest_semantics;
          Alcotest.test_case "typing" `Quick test_nest_typing;
          Alcotest.test_case "unnest" `Quick test_unnest_semantics;
          Alcotest.test_case "unnest multiplicities" `Quick test_unnest_multiplicities;
          Alcotest.test_case "group count" `Quick test_group_count;
          Alcotest.test_case "group sum" `Quick test_group_sum;
          Alcotest.test_case "parser roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "set semantics" `Quick test_set_semantics_nest;
          Alcotest.test_case "analysis" `Quick test_analyze_nest;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_nest_via_map;
          QCheck_alcotest.to_alcotest prop_unnest_nest_identity;
        ] );
    ]
