(* SQL over bags, compiled to the algebra.

   The paper opens with the observation that real systems implement
   relations as bags "often to save the cost of duplicate elimination", and
   that SQL's COUNT/SUM/AVG are duplicate-sensitive.  This demo runs a small
   SQL workload through the Sqlish compiler and shows the generated BALG
   expressions.

   Run with:  dune exec examples/sql_demo.exe *)

open Balg
module Sql = Baglang.Sqlish

let row c p q = Value.tuple [ Value.atom c; Value.atom p; Value.nat q ]

let orders =
  Value.bag_of_assoc
    [
      (row "ada" "widget" 5, Bignat.of_int 2);
      (row "ada" "gadget" 1, Bignat.one);
      (row "bob" "widget" 7, Bignat.one);
      (row "cleo" "gadget" 2, Bignat.of_int 3);
    ]

let tables =
  [
    Sql.table "Orders"
      [ ("customer", Ty.Atom); ("product", Ty.Atom); ("qty", Ty.nat) ];
  ]

let env = Eval.env_of_list [ ("Orders", orders) ]

let show title q =
  let e = Sql.compile ~tables q in
  let v =
    match Eval.run env e with
    | Ok v -> v
    | Error x -> failwith (Budget.exhaustion_to_string x)
  in
  Printf.printf "%s\n  algebra: %s\n  result : %s\n\n" title (Expr.to_string e)
    (Value.to_string v)

let () =
  print_endline "== SQL on bags ==\n";
  Printf.printf "Orders: %s\n\n" (Value.to_string orders);

  show "SELECT customer FROM Orders          -- duplicates survive"
    (Sql.select [ Sql.Column ("o", "customer") ] ~from:[ ("Orders", "o") ] ());

  show "SELECT DISTINCT customer FROM Orders"
    (Sql.select ~distinct:true
       [ Sql.Column ("o", "customer") ]
       ~from:[ ("Orders", "o") ] ());

  show "SELECT COUNT(*) FROM Orders"
    (Sql.select [ Sql.Count_star ] ~from:[ ("Orders", "o") ] ());

  show "SELECT SUM(qty) FROM Orders"
    (Sql.select [ Sql.Sum_of ("o", "qty") ] ~from:[ ("Orders", "o") ] ());

  show "SELECT customer, COUNT(*), SUM(qty) FROM Orders GROUP BY customer"
    (Sql.select
       [ Sql.Column ("o", "customer"); Sql.Count_star; Sql.Sum_of ("o", "qty") ]
       ~from:[ ("Orders", "o") ]
       ~group_by:[ ("o", "customer") ]
       ());

  print_endline
    "note the GROUP BY compiles to the §7 nest operator, and the aggregates\n\
     to the paper's integer-as-bag encodings — the entire SQL fragment lives\n\
     in BALG^2."
