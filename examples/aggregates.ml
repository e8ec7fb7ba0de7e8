(* Aggregates over bags — the paper's §1 motivation: "in practical query
   languages (e.g. SQL), some operations (e.g. aggregate functions such as
   COUNT, AVG) are sensitive to the number of duplicates".

   Scenario: a sales ledger where each line item is a tuple
   <customer, product>.  The same line can legitimately occur many times —
   duplicate elimination would corrupt every aggregate below.

   Run with:  dune exec examples/aggregates.exe *)

open Balg

let line c p = Value.tuple [ Value.atom c; Value.atom p ]

let ledger =
  Value.bag_of_assoc
    [
      (line "ada" "widget", Bignat.of_int 3);
      (line "ada" "gadget", Bignat.of_int 1);
      (line "bob" "widget", Bignat.of_int 2);
      (line "bob" "gadget", Bignat.of_int 4);
      (line "cleo" "widget", Bignat.of_int 2);
    ]

let env = Eval.env_of_list [ ("Sales", ledger) ]
let eval e =
  match Eval.run env e with
  | Ok v -> v
  | Error x -> failwith (Budget.exhaustion_to_string x)
let nat_of e = Bignat.to_int_exn (Value.nat_value (eval e))

let () =
  print_endline "== aggregates over a sales ledger ==\n";
  Printf.printf "ledger: %s\n\n" (Value.to_string ledger);

  (* COUNT(*) — the paper's count(B) = pi1({{<a>}} x B). *)
  Printf.printf "COUNT(*)                          = %d\n"
    (nat_of (Derived.count (Expr.Var "Sales")));

  (* COUNT(DISTINCT *) — dedup first; this is where set semantics and bag
     semantics disagree. *)
  Printf.printf "COUNT(DISTINCT *)                 = %d\n"
    (nat_of (Derived.count (Expr.Dedup (Expr.Var "Sales"))));

  (* COUNT per customer, demonstrated for one customer: a selection before
     the count. *)
  let per_customer who =
    Derived.count
      (Expr.select "x" (Expr.Proj (1, Expr.Var "x")) (Expr.atom who)
         (Expr.Var "Sales"))
  in
  List.iter
    (fun who -> Printf.printf "COUNT where customer = %-5s       = %d\n" who
        (nat_of (per_customer who)))
    [ "ada"; "bob"; "cleo" ];
  print_newline ();

  (* SUM and AVG over a bag of integers, built as integer-bags: how many
     items did each customer buy? *)
  let counts_per_customer =
    (* a bag of integer-bags: {{ count(ada), count(bob), count(cleo) }} *)
    Value.bag_of_list (List.map (fun who -> eval (per_customer who)) [ "ada"; "bob"; "cleo" ])
  in
  let nums = Expr.lit counts_per_customer (Ty.Bag Ty.nat) in
  Printf.printf "per-customer item counts          = {{4, 6, 2}} (as bags)\n";
  Printf.printf "SUM(items)  via delta             = %d\n"
    (Bignat.to_int_exn (Value.nat_value (eval (Derived.sum nums))));
  Printf.printf "AVG(items)  via powerset select   = %d\n"
    (Bignat.to_int_exn (Value.nat_value (eval (Derived.average nums))));
  Printf.printf "FLOOR-AVG on a non-divisible bag  = %d\n"
    (Bignat.to_int_exn
       (Value.nat_value
          (eval
             (Derived.floor_average
                (Expr.lit
                   (Value.bag_of_list [ Value.nat 1; Value.nat 2 ])
                   (Ty.Bag Ty.nat))))));
  print_newline ();

  (* Cardinality comparison (Example 4.2): did bob buy more than ada? *)
  let bought who =
    Expr.select "x" (Expr.Proj (1, Expr.Var "x")) (Expr.atom who) (Expr.Var "Sales")
  in
  Printf.printf "bob bought more than ada?         = %b\n"
    (Eval.truthy (eval (Derived.card_gt (bought "bob") (bought "ada"))));
  Printf.printf "ada bought more than bob?         = %b\n"
    (Eval.truthy (eval (Derived.card_gt (bought "ada") (bought "bob"))));

  (* The CV93 trap: a set-semantics optimiser would erase the dedup below
     and corrupt COUNT(DISTINCT). *)
  let q = Expr.Dedup (Expr.proj_attrs [ 2 ] (Expr.Var "Sales")) in
  Printf.printf "\ndistinct products                 = %s\n"
    (Value.to_string (eval q));
  Printf.printf "same query, dedup dropped (WRONG under bags) = %s\n"
    (Value.to_string (eval (Expr.proj_attrs [ 2 ] (Expr.Var "Sales"))))
