(* Quickstart: build nested-bag values, write algebra queries three ways
   (constructors, derived builders, surface syntax), and evaluate them.

   Run with:  dune exec examples/quickstart.exe *)

open Balg

let show name e v = Printf.printf "%-14s %s  =  %s\n" name e (Value.to_string v)

let () =
  print_endline "== balg quickstart ==\n";

  (* 1. Values: bags keep duplicates, with exact multiplicities. *)
  let fruit =
    Value.bag_of_list
      (List.map Value.atom [ "apple"; "apple"; "pear"; "apple"; "kiwi" ])
  in
  Printf.printf "a bag of fruit:      %s\n" (Value.to_string fruit);
  Printf.printf "cardinality:         %s\n" (Bignat.to_string (Value.cardinal fruit));
  Printf.printf "apples:              %s\n\n"
    (Bignat.to_string (Value.count_in (Value.atom "apple") fruit));

  (* 2. Queries via the AST.  The database binds variable names to bags. *)
  let db = [ ("Fruit", fruit) ] in
  let env = Eval.env_of_list db in
  (* [Eval.run] evaluates under a resource governor (Budget.default here)
     and returns a structured verdict instead of raising when it trips. *)
  let eval_in env e =
    match Eval.run env e with
    | Ok v -> v
    | Error x -> failwith (Budget.exhaustion_to_string x)
  in
  let eval = eval_in env in

  show "dedup" "dedup(Fruit)" (eval (Expr.Dedup (Expr.Var "Fruit")));
  show "self-union" "Fruit ++ Fruit" (eval Expr.(Var "Fruit" ++ Var "Fruit"));
  show "monus" "Fruit -- dedup(Fruit)"
    (eval Expr.(Var "Fruit" -- Dedup (Var "Fruit")));

  (* 3. The powerset: one occurrence of every subbag. *)
  let tiny = Value.bag_of_list [ Value.atom "x"; Value.atom "x" ] in
  show "powerset" "powerset({{'x,'x}})"
    (eval_in (Eval.env_of_list [ ("T", tiny) ]) (Expr.Powerset (Expr.Var "T")));
  show "powerbag" "powerbag({{'x,'x}})"
    (eval_in (Eval.env_of_list [ ("T", tiny) ]) (Expr.Powerbag (Expr.Var "T")));
  print_newline ();

  (* 4. The same pipeline through the surface syntax. *)
  let query = "map(x -> <x>, Fruit) -- {{ <'apple>:2 }}" in
  let e = Baglang.Parser.expr_of_string query in
  let ty = Typecheck.infer (Typecheck.env_of_list [ ("Fruit", Ty.Bag Ty.Atom) ]) e in
  Printf.printf "parsed   : %s\n" (Expr.to_string e);
  Printf.printf "type     : %s\n" (Ty.to_string ty);
  Printf.printf "result   : %s\n\n" (Value.to_string (eval e));

  (* 5. Static analysis: where does a query sit in the paper's hierarchy? *)
  let report =
    Analyze.analyze
      (Typecheck.env_of_list [ ("Fruit", Ty.Bag Ty.Atom) ])
      (Expr.Destroy (Expr.Powerset (Expr.Var "Fruit")))
  in
  print_endline "analysis of destroy(powerset(Fruit)):";
  print_endline (Analyze.report_to_string report)
