(* Tests for the proof-construction compilers: Thm 6.6 (IFP), Thm 6.1
   (powerset encoding), Lemma 5.7 (bounded arithmetic). *)

open Balg
module Tm = Turing.Tm
module Tmifp = Encodings.Tmifp
module Tm3 = Encodings.Tm3
module Arith = Encodings.Arith

(* --- Theorem 6.6: TM via IFP ---------------------------------------------- *)

let test_ifp_typechecks () =
  let ty = Typecheck.infer Tmifp.type_env (Tmifp.history_expr Tm.parity_even) in
  Alcotest.(check bool) "history has configuration type" true
    (Ty.equal ty Tmifp.conf_ty);
  (* bag nesting 2: Thm 6.6 applies from k = 2 up *)
  Alcotest.(check int) "nesting 2" 2
    (Typecheck.max_nesting Tmifp.type_env (Tmifp.accept_expr Tm.parity_even));
  let r = Analyze.analyze Tmifp.type_env (Tmifp.accept_expr Tm.parity_even) in
  Alcotest.(check bool) "classified Turing complete" true
    (r.Analyze.cclass = Analyze.Turing_complete)

let test_ifp_parity () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "IFP simulation of parity on %d" n)
        (Tm.accepts Tm.parity_even (Tm.unary n))
        (Tmifp.accepts Tm.parity_even ~space:(n + 2) (Tm.unary n)))
    [ 0; 1; 2; 3; 4 ]

let test_ifp_successor_output () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "algebraic successor of %d" n)
        (n + 1)
        (Tmifp.output_ones Tm.unary_successor ~space:(n + 2) (Tm.unary n)))
    [ 0; 1; 3 ]

let test_ifp_binary_increment () =
  (* decode the final tape produced by the algebra *)
  List.iter
    (fun n ->
      let input = Tm.to_binary n in
      let env =
        Eval.env_of_list
          [ ("B0", Tmifp.seed_value Tm.binary_increment ~space:(List.length input + 1) input) ]
      in
      let tape = Expect.ok (Eval.run env (Tmifp.final_tape_expr Tm.binary_increment)) in
      (* cells <j, sym, st>: fold MSB-first by cell index *)
      let cells =
        List.sort
          (fun a b ->
            match (Value.view a, Value.view b) with
            | Value.Tuple (j1 :: _), Value.Tuple (j2 :: _) ->
                Bignat.compare (Value.nat_value j1) (Value.nat_value j2)
            | _ -> 0)
          (Value.support tape)
      in
      let decoded =
        List.fold_left
          (fun acc cell ->
            match Value.view cell with
            | Value.Tuple [ _; sym; _ ] -> (
                match Value.view sym with
                | Value.Atom "0" -> acc * 2
                | Value.Atom "1" -> (acc * 2) + 1
                | _ -> acc)
            | _ -> acc)
          0 cells
      in
      Alcotest.(check int)
        (Printf.sprintf "algebraic binary increment of %d" n)
        (n + 1) decoded)
    [ 0; 1; 3; 6 ]

let test_ifp_left_moves () =
  Alcotest.(check bool) "bouncer via IFP" true
    (Tmifp.accepts Tm.bouncer ~space:5 (Tm.unary 3))

let test_ifp_agrees_with_tm =
  QCheck.Test.make ~name:"IFP simulation == direct run (parity family)"
    ~count:8
    QCheck.(int_range 0 6)
    (fun n ->
      Tmifp.accepts Tm.parity_even ~space:(n + 2) (Tm.unary n)
      = Tm.accepts Tm.parity_even (Tm.unary n))

(* --- Theorem 6.1: TM via powerset ----------------------------------------- *)

let test_tm3_accepts () =
  Alcotest.(check bool) "tiny machine accepted through P-encoding" true
    (Tm3.accepts Tm.tiny_step ~space:2 [ "1"; "1" ])

let test_tm3_rejects () =
  (* same machine but with an unreachable accept state *)
  let stuck = { Tm.tiny_step with Tm.delta = (fun _ -> None) } in
  Alcotest.(check bool) "no run reaches qf" false
    (Tm3.accepts stuck ~space:2 [ "1"; "1" ])

let test_tm3_paper_shape () =
  (* the verbatim Thm 6.1 expression with D = P(E^i(B)): typechecks at bag
     nesting 3, and the analyzer places it in the hyper hierarchy *)
  let e = Tm3.tm_expr_paper ~i:1 Tm.tiny_step ~space:2 [ "1"; "1" ] in
  let env = Typecheck.env_of_list [ ("B", Ty.nat) ] in
  Alcotest.(check int) "bag nesting 3" 3 (Typecheck.max_nesting env e);
  let r = Analyze.analyze env e in
  Alcotest.(check bool) "hyper classification" true
    (match r.Analyze.cclass with
    | Analyze.Hyper_space _ | Analyze.Elementary -> true
    | _ -> false);
  Alcotest.(check bool) "power nesting >= 2" true (r.Analyze.power_nesting >= 2)

(* --- Lemma 5.7: bounded arithmetic ---------------------------------------- *)

let test_arith_reference () =
  (* n is even: exists x. x + x = n *)
  let even = Arith.Exists (Arith.Eq (Arith.TAdd (Arith.TVar 1, Arith.TVar 1), Arith.TInput)) in
  Alcotest.(check bool) "4 even" true (Arith.eval_formula ~bound:4 ~input:4 even);
  Alcotest.(check bool) "5 odd" false (Arith.eval_formula ~bound:5 ~input:5 even)

let algebra_matches name ~bounds f =
  List.iter
    (fun (bound, input) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s at bound=%d input=%d" name bound input)
        (Arith.eval_formula ~bound ~input f)
        (Arith.holds_via_algebra ~bound ~input f))
    bounds

let test_arith_compile_even () =
  let even = Arith.Exists (Arith.Eq (Arith.TAdd (Arith.TVar 1, Arith.TVar 1), Arith.TInput)) in
  algebra_matches "even" even
    ~bounds:[ (4, 4); (5, 5); (6, 6); (3, 3); (4, 2); (4, 3) ]

let test_arith_compile_composite () =
  (* n is composite: exists x y. 2<=x and 2<=y and x*y = n *)
  let two_le t = Arith.Le (Arith.TConst 2, t) in
  let composite =
    Arith.Exists
      (Arith.Exists
         (Arith.And
            ( Arith.And (two_le (Arith.TVar 1), two_le (Arith.TVar 2)),
              Arith.Eq (Arith.TMul (Arith.TVar 1, Arith.TVar 2), Arith.TInput) )))
  in
  algebra_matches "composite" composite
    ~bounds:[ (6, 6); (7, 7); (9, 9); (5, 5); (4, 4) ]

let test_arith_compile_forall () =
  (* forall x. x <= n  — true iff bound <= n *)
  let all_le = Arith.Forall (Arith.Le (Arith.TVar 1, Arith.TInput)) in
  algebra_matches "forall-le" all_le ~bounds:[ (3, 5); (5, 3); (4, 4) ]

let test_arith_negation () =
  let odd =
    Arith.Not
      (Arith.Exists (Arith.Eq (Arith.TAdd (Arith.TVar 1, Arith.TVar 1), Arith.TInput)))
  in
  algebra_matches "odd" odd ~bounds:[ (4, 4); (5, 5); (3, 3) ]

let test_arith_paper_domain_shape () =
  (* the paper-faithful domain P(E^0(b_n)) wrapped in 1-tuples has n+1
     members 0..n *)
  let d = Arith.paper_domain1 ~i:0 (Derived.nat_lit 3) in
  let v = Expect.ok (Eval.run (Eval.env_of_list []) d) in
  Alcotest.(check int) "|D| = n+1" 4 (Value.support_size v);
  (* and uses the powerbag, per Lemma 5.7 *)
  Alcotest.(check bool) "powerbag used" true
    (Analyze.uses_powerbag (Arith.paper_domain1 ~i:1 (Derived.nat_lit 1)))

let () =
  Alcotest.run "encodings"
    [
      ( "thm 6.6 (IFP)",
        [
          Alcotest.test_case "typechecks at nesting 2" `Quick test_ifp_typechecks;
          Alcotest.test_case "parity simulation" `Quick test_ifp_parity;
          Alcotest.test_case "successor output" `Quick test_ifp_successor_output;
          Alcotest.test_case "left moves" `Quick test_ifp_left_moves;
          Alcotest.test_case "binary increment" `Quick test_ifp_binary_increment;
          QCheck_alcotest.to_alcotest test_ifp_agrees_with_tm;
        ] );
      ( "thm 6.1 (powerset)",
        [
          Alcotest.test_case "accepting run found" `Quick test_tm3_accepts;
          Alcotest.test_case "rejecting machine" `Quick test_tm3_rejects;
          Alcotest.test_case "paper shape typechecks" `Quick test_tm3_paper_shape;
        ] );
      ( "lemma 5.7 (arithmetic)",
        [
          Alcotest.test_case "reference semantics" `Quick test_arith_reference;
          Alcotest.test_case "even via algebra" `Quick test_arith_compile_even;
          Alcotest.test_case "composite via algebra" `Quick test_arith_compile_composite;
          Alcotest.test_case "forall via algebra" `Quick test_arith_compile_forall;
          Alcotest.test_case "negation via algebra" `Quick test_arith_negation;
          Alcotest.test_case "paper domain" `Quick test_arith_paper_domain_shape;
        ] );
    ]
