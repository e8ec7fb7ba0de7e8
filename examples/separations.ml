(* The separation results of §4, demonstrated on data:

   - cardinality comparison (Example 4.2) — expressible in BALG^1, not in
     the relational algebra, and the reason no 0-1 law holds;
   - parity of a relation in the presence of an order;
   - the Prop 4.1/4.5 polynomial abstraction: why bag-even and duplicate
     elimination are NOT expressible in BALG^1.

   Run with:  dune exec examples/separations.exe *)

open Balg

let rel1 l = Value.bag_of_list (List.map (fun x -> Value.tuple [ Value.atom x ]) l)

(* Truth of a closed query under the default budget. *)
let holds q =
  match Eval.run (Eval.env_of_list []) q with
  | Ok v -> Eval.truthy v
  | Error x -> failwith (Budget.exhaustion_to_string x)

let () =
  print_endline "== separations between BALG^1 and the relational algebra ==\n";

  (* Example 4.2: |R| > |S|. *)
  let r = Expr.lit (rel1 [ "a"; "b"; "c" ]) (Ty.relation 1) in
  let s = Expr.lit (rel1 [ "x"; "y" ]) (Ty.relation 1) in
  let q = Derived.card_gt_paper r s in
  Printf.printf "|R|=3 > |S|=2 via pi1(RxR) -- pi1(RxS):  %b\n"
    (holds q);
  Printf.printf "(the same query under set semantics cannot count: the \
                 relational\n algebra has an AC0 upper bound and MAJORITY is \
                 not in AC0)\n\n";

  (* Parity with an order (§4): even iff some element splits R in half. *)
  print_endline "parity of |R| given a total order (the paper's median trick):";
  List.iter
    (fun names ->
      let rv = rel1 names in
      let leq = Baggen.Genval.leq_relation rv in
      let q =
        Derived.parity_even
          (Expr.lit rv (Ty.relation 1))
          (Expr.lit leq (Ty.relation 2))
      in
      Printf.printf "  |R| = %d  ->  %s\n" (List.length names)
        (if holds q then "even" else "odd"))
    [ [ "a" ]; [ "a"; "b" ]; [ "a"; "b"; "c" ]; [ "a"; "b"; "c"; "d" ] ];
  print_newline ();

  (* Prop 4.1 / 4.5 mechanised: abstract-interpret BALG^1 expressions into
     occurrence-count polynomials on the family B_n = {{<a>:n}}. *)
  print_endline "polynomial abstraction on B_n = {{<a>:n}} (Prop 4.1):";
  let show_poly name e =
    let a = Polyab.analyze ~input:"B" e in
    List.iter
      (fun (t, p) ->
        Printf.printf "  %-28s count(%s) = %s   (valid for n > %d)\n" name
          (Value.to_string t) (Poly.to_string p) a.Polyab.threshold)
      a.Polyab.entries
  in
  show_poly "B" (Expr.Var "B");
  show_poly "B ++ B" Expr.(Var "B" ++ Var "B");
  show_poly "pi1(B x B)" (Expr.proj_attrs [ 1 ] Expr.(Var "B" *** Var "B"));
  show_poly "dedup(B)" (Expr.Dedup (Expr.Var "B"));
  show_poly "pi1(BxB) -- B"
    Expr.(Expr.proj_attrs [ 1 ] (Var "B" *** Var "B") -- Var "B");
  print_newline ();
  print_endline
    "every BALG^1 expression yields such polynomials, and polynomials are\n\
     eventually monotone — so no BALG^1 expression alternates forever with n.\n\
     That is exactly why bag-even is not expressible (Prop 4.5), and why\n\
     dedup and monus need the powerset (Prop 4.1 with the nesting increase\n\
     of §3).";
  print_newline ();

  (* No 0-1 law: |R| > |S| on random unary relations tends to probability
     1/2 (Example 4.2 / [FGT93]). *)
  print_endline "Monte-Carlo estimate of mu_n(|R| > |S|) (no 0-1 law for BALG^1):";
  let rng = Random.State.make [| 2026 |] in
  List.iter
    (fun n ->
      let p, se =
        Baggen.Stats.bernoulli ~trials:2000 rng (fun rng ->
            let r = Baggen.Genval.unary_relation rng ~n_atoms:n ~p:0.5 in
            let s = Baggen.Genval.unary_relation rng ~n_atoms:n ~p:0.5 in
            holds
              (Derived.card_gt
                 (Expr.lit r (Ty.relation 1))
                 (Expr.lit s (Ty.relation 1))))
      in
      Printf.printf "  n = %3d : mu = %.3f +- %.3f\n" n p se)
    [ 4; 16; 64 ];
  print_endline "  (a first-order property would tend to 0 or 1; this tends to 1/2)"
