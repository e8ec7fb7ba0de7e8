(* Graph analytics in BALG^1 (+ bounded fixpoint): the paper's Example 4.1
   (in-degree vs out-degree — not expressible in the infinitary logic
   L^omega_{inf,omega}!) and transitive closure via the bounded fixpoint of
   §6, on a small flight network.

   Run with:  dune exec examples/graph_analysis.exe *)

open Balg

let edge a b = Value.tuple [ Value.atom a; Value.atom b ]

(* A hub-and-spoke flight network: many flights into hub, fewer out. *)
let flights =
  Value.bag_of_list
    [
      edge "lyon" "paris";
      edge "nice" "paris";
      edge "brest" "paris";
      edge "paris" "lyon";
      edge "paris" "telaviv";
      edge "telaviv" "eilat";
    ]

let env = Eval.env_of_list [ ("F", flights) ]
let eval e =
  match Eval.run env e with
  | Ok v -> v
  | Error x -> failwith (Budget.exhaustion_to_string x)
let g = Expr.Var "F"

let () =
  print_endline "== graph analysis with the bag algebra ==\n";
  Printf.printf "flights: %s\n\n" (Value.to_string flights);

  (* Example 4.1: is the in-degree of a node bigger than its out-degree?
     The duplicates produced by the projections are exactly what makes the
     comparison work. *)
  List.iter
    (fun city ->
      let q = Derived.indeg_gt_outdeg g (Expr.atom city) in
      Printf.printf "more arrivals than departures at %-8s : %b\n" city
        (Eval.truthy (eval q)))
    [ "paris"; "lyon"; "telaviv" ];
  print_newline ();

  (* Reachability: transitive closure through the bounded fixpoint. *)
  let tc = eval (Derived.transitive_closure g) in
  Printf.printf "reachability relation (%d pairs):\n  %s\n\n"
    (Value.support_size tc) (Value.to_string tc);
  Printf.printf "can you fly brest ~> eilat (with stops)? %b\n"
    (Eval.truthy
       (eval
          (Derived.mem_expr
             (Expr.Tuple [ Expr.atom "brest"; Expr.atom "eilat" ])
             (Derived.transitive_closure g))));

  (* Static analysis: Example 4.1 stays in LOGSPACE (Thm 4.4); transitive
     closure needs the bounded fixpoint. *)
  let tenv = Typecheck.env_of_list [ ("F", Ty.relation 2) ] in
  print_newline ();
  print_endline "analysis of the degree query:";
  print_endline
    (Analyze.report_to_string
       (Analyze.analyze tenv (Derived.indeg_gt_outdeg g (Expr.atom "paris"))));
  print_newline ();
  print_endline "analysis of transitive closure:";
  print_endline
    (Analyze.report_to_string (Analyze.analyze tenv (Derived.transitive_closure g)))
