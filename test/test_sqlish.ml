(* Tests for the SQL-like frontend: bag-correct projections, DISTINCT,
   joins, and GROUP BY aggregates compiled onto the algebra. *)

open Balg
module Sql = Baglang.Sqlish
module B = Bignat

let value = Alcotest.testable Value.pp Value.equal

let orders_table =
  Sql.table "Orders"
    [ ("customer", Ty.Atom); ("product", Ty.Atom); ("qty", Ty.nat) ]

let products_table = Sql.table "Products" [ ("product", Ty.Atom); ("colour", Ty.Atom) ]

let row c p q = Value.tuple [ Value.atom c; Value.atom p; Value.nat q ]

let orders =
  Value.bag_of_assoc
    [
      (row "ada" "widget" 5, B.of_int 2);
      (row "ada" "gadget" 1, B.one);
      (row "bob" "widget" 7, B.one);
    ]

let products =
  Value.bag_of_list
    [
      Value.tuple [ Value.atom "widget"; Value.atom "red" ];
      Value.tuple [ Value.atom "gadget"; Value.atom "blue" ];
    ]

let tables = [ orders_table; products_table ]
let env = Eval.env_of_list [ ("Orders", orders); ("Products", products) ]

let run q =
  let e = Sql.compile ~tables q in
  ignore (Typecheck.infer (Sql.type_env tables) e);
  Expect.ok (Eval.run env e)

let test_projection_keeps_duplicates () =
  let q =
    Sql.select [ Sql.Column ("o", "customer") ] ~from:[ ("Orders", "o") ] ()
  in
  let v = run q in
  Alcotest.(check string) "ada appears thrice" "3"
    (B.to_string (Value.count_in (Value.tuple [ Value.atom "ada" ]) v))

let test_distinct () =
  let q =
    Sql.select ~distinct:true
      [ Sql.Column ("o", "customer") ]
      ~from:[ ("Orders", "o") ] ()
  in
  let v = run q in
  Alcotest.(check int) "two customers" 2 (Value.support_size v);
  Alcotest.(check string) "each once" "1" (B.to_string (Bag.max_count v))

let test_where () =
  let q =
    Sql.select
      [ Sql.Column ("o", "product") ]
      ~from:[ ("Orders", "o") ]
      ~where:[ Sql.Const_eq (("o", "customer"), Value.atom "ada") ]
      ()
  in
  let v = run q in
  Alcotest.(check string) "ada's widgets (x2)" "2"
    (B.to_string (Value.count_in (Value.tuple [ Value.atom "widget" ]) v))

let test_join () =
  let q =
    Sql.select
      [ Sql.Column ("o", "customer"); Sql.Column ("p", "colour") ]
      ~from:[ ("Orders", "o"); ("Products", "p") ]
      ~where:[ Sql.Col_eq (("o", "product"), ("p", "product")) ]
      ()
  in
  let v = run q in
  Alcotest.(check string) "ada buys red twice" "2"
    (B.to_string (Value.count_in (Value.tuple [ Value.atom "ada"; Value.atom "red" ]) v))

let test_count_star () =
  let q = Sql.select [ Sql.Count_star ] ~from:[ ("Orders", "o") ] () in
  Alcotest.(check string) "4 rows (duplicates counted)" "4"
    (B.to_string (Value.nat_value (run q)))

let test_sum_avg () =
  let q = Sql.select [ Sql.Sum_of ("o", "qty") ] ~from:[ ("Orders", "o") ] () in
  (* 5*2 + 1 + 7 = 18 *)
  Alcotest.(check string) "sum respects duplicates" "18"
    (B.to_string (Value.nat_value (run q)));
  let q2 = Sql.select [ Sql.Avg_of ("o", "qty") ] ~from:[ ("Orders", "o") ] () in
  (* floor(18/4) = 4 *)
  Alcotest.(check string) "floor average" "4"
    (B.to_string (Value.nat_value (run q2)))

let test_group_by () =
  let q =
    Sql.select
      [ Sql.Column ("o", "customer"); Sql.Count_star; Sql.Sum_of ("o", "qty") ]
      ~from:[ ("Orders", "o") ]
      ~group_by:[ ("o", "customer") ]
      ()
  in
  let v = run q in
  Alcotest.check value "per-customer count and sum"
    (Value.bag_of_list
       [
         Value.tuple [ Value.atom "ada"; Value.nat 3; Value.nat 11 ];
         Value.tuple [ Value.atom "bob"; Value.nat 1; Value.nat 7 ];
       ])
    v

let test_errors () =
  let expect_err name f =
    match f () with
    | exception Sql.Sql_error _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Sql_error")
  in
  expect_err "unknown table" (fun () ->
      Sql.compile ~tables (Sql.select [ Sql.Count_star ] ~from:[ ("Nope", "n") ] ()));
  expect_err "unknown column" (fun () ->
      Sql.compile ~tables
        (Sql.select [ Sql.Column ("o", "nope") ] ~from:[ ("Orders", "o") ] ()));
  expect_err "sum of non-integer column" (fun () ->
      Sql.compile ~tables
        (Sql.select [ Sql.Sum_of ("o", "customer") ] ~from:[ ("Orders", "o") ] ()));
  expect_err "bare column with group" (fun () ->
      Sql.compile ~tables
        (Sql.select
           [ Sql.Column ("o", "product") ]
           ~from:[ ("Orders", "o") ]
           ~group_by:[ ("o", "customer") ]
           ()));
  expect_err "empty from" (fun () ->
      Sql.compile ~tables (Sql.select [ Sql.Count_star ] ~from:[] ()))

(* The CV93 point again, now at the SQL level: dropping DISTINCT changes
   results under bag semantics. *)
let test_distinct_matters () =
  let base distinct =
    Sql.select ~distinct [ Sql.Column ("o", "customer") ] ~from:[ ("Orders", "o") ] ()
  in
  let with_d = run (base true) in
  let without = run (base false) in
  Alcotest.(check bool) "results differ" false (Value.equal with_d without);
  Alcotest.check value "dedup closes the gap" with_d (Bag.dedup without)

let () =
  Alcotest.run "sqlish"
    [
      ( "queries",
        [
          Alcotest.test_case "projection keeps duplicates" `Quick
            test_projection_keeps_duplicates;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "where" `Quick test_where;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "count(*)" `Quick test_count_star;
          Alcotest.test_case "sum and avg" `Quick test_sum_avg;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "distinct matters (CV93)" `Quick test_distinct_matters;
        ] );
    ]
