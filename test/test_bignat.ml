(* Unit and property tests for the Bignat substrate. *)

module B = Bignat

let nat = Alcotest.testable B.pp B.equal

let check_nat = Alcotest.check nat
let bi = B.of_int

(* --- unit tests ------------------------------------------------------- *)

let test_constants () =
  check_nat "zero" (bi 0) B.zero;
  check_nat "one" (bi 1) B.one;
  check_nat "two" (bi 2) B.two;
  Alcotest.(check bool) "is_zero" true (B.is_zero B.zero);
  Alcotest.(check bool) "is_one" true (B.is_one B.one);
  Alcotest.(check bool) "one not zero" false (B.is_zero B.one)

let test_of_to_string () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "1"; "999999999"; "1000000000"; "123456789012345678901234567890" ];
  Alcotest.(check string) "underscores" "1234567"
    (B.to_string (B.of_string "1_234_567"));
  Alcotest.(check string) "plus sign" "42" (B.to_string (B.of_string "+42"));
  Alcotest.check_raises "empty" (Invalid_argument "Bignat.of_string: empty")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "garbage"
    (Invalid_argument "Bignat.of_string: not a digit") (fun () ->
      ignore (B.of_string "12x"))

let test_of_int_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Bignat.of_int: negative")
    (fun () -> ignore (bi (-1)));
  check_nat "max-ish"
    (B.of_string (string_of_int max_int))
    (bi max_int)

let test_add_carry () =
  check_nat "carry across limb"
    (B.of_string "1000000000")
    (B.add (bi 999_999_999) B.one);
  check_nat "big add"
    (B.of_string "2000000000000000000000")
    (B.add (B.of_string "1999999999999999999999") B.one)

let test_sub () =
  check_nat "exact" (bi 5) (B.sub_exn (bi 12) (bi 7));
  check_nat "monus floor" B.zero (B.monus (bi 7) (bi 12));
  check_nat "monus exact" (bi 5) (B.monus (bi 12) (bi 7));
  Alcotest.check_raises "underflow"
    (Invalid_argument "Bignat.sub_exn: negative result") (fun () ->
      ignore (B.sub_exn (bi 7) (bi 12)));
  check_nat "borrow chain" (bi 1)
    (B.sub_exn (B.of_string "1000000000000000000") (B.of_string "999999999999999999"))

let test_mul () =
  check_nat "zero" B.zero (B.mul (bi 12345) B.zero);
  check_nat "identity" (bi 12345) (B.mul (bi 12345) B.one);
  check_nat "big square"
    (B.of_string "15241578750190521")
    (B.mul (bi 123456789) (bi 123456789));
  check_nat "cross-limb"
    (B.of_string "999999998000000001")
    (B.mul (bi 999999999) (bi 999999999))

let test_divmod () =
  let q, r = B.divmod (bi 17) (bi 5) in
  check_nat "q" (bi 3) q;
  check_nat "r" (bi 2) r;
  let q, r = B.divmod (B.of_string "123456789012345678901234567890") (bi 997) in
  check_nat "big q" (B.of_string "123828273833847220562923337") q;
  check_nat "big r" (bi 901) r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod (bi 1) B.zero));
  let q, r = B.divmod (bi 3) (bi 10) in
  check_nat "small / large q" B.zero q;
  check_nat "small / large r" (bi 3) r

let test_pow () =
  check_nat "2^10" (bi 1024) (B.pow B.two 10);
  check_nat "2^0" B.one (B.pow B.two 0);
  check_nat "pow2" (B.of_string "1267650600228229401496703205376") (B.pow2 100);
  check_nat "10^30"
    (B.of_string "1000000000000000000000000000000")
    (B.pow (bi 10) 30)

let test_hyper () =
  check_nat "hyper 0" (bi 7) (B.hyper 0 7);
  check_nat "hyper 1" (bi 128) (B.hyper 1 7);
  check_nat "hyper 2 of 2" (bi 16) (B.hyper 2 2);
  check_nat "hyper 3 of 1" (bi 16) (B.hyper 3 1);
  check_nat "hyper 2 of 3" (bi 256) (B.hyper 2 3)

let test_binomial () =
  check_nat "C(5,2)" (bi 10) (B.binomial 5 2);
  check_nat "C(n,0)" B.one (B.binomial 9 0);
  check_nat "C(n,n)" B.one (B.binomial 9 9);
  check_nat "out of range" B.zero (B.binomial 5 7);
  check_nat "negative k" B.zero (B.binomial 5 (-1));
  check_nat "C(50,25)" (B.of_string "126410606437752") (B.binomial 50 25)

let test_parity () =
  Alcotest.(check bool) "0 even" true (B.is_even B.zero);
  Alcotest.(check bool) "1 odd" false (B.is_even B.one);
  Alcotest.(check bool) "10^9 even" true (B.is_even (bi 1_000_000_000));
  Alcotest.(check bool) "10^9+1 odd" false (B.is_even (bi 1_000_000_001))

let test_to_int () =
  Alcotest.(check (option int)) "roundtrip" (Some 123456) (B.to_int_opt (bi 123456));
  Alcotest.(check (option int)) "overflow" None (B.to_int_opt (B.pow2 80));
  Alcotest.(check (option int)) "max_int" (Some max_int) (B.to_int_opt (bi max_int));
  Alcotest.(check (option int)) "max_int + 1" None
    (B.to_int_opt (B.succ (bi max_int)));
  (* three limbs that wrap past 2^63 back to a small positive int *)
  Alcotest.(check (option int)) "2^63" None (B.to_int_opt (B.pow2 63));
  Alcotest.(check (option int)) "10^19 - 1" None
    (B.to_int_opt (B.of_string "9999999999999999999"));
  Alcotest.(check int) "exn ok" 7 (B.to_int_exn (bi 7))

let test_gcd_lcm_factorial () =
  check_nat "gcd" (bi 6) (B.gcd (bi 54) (bi 24));
  check_nat "gcd with zero" (bi 7) (B.gcd B.zero (bi 7));
  check_nat "gcd coprime" B.one (B.gcd (bi 35) (bi 64));
  check_nat "big gcd"
    (bi 9)
    (B.gcd (B.of_string "123456789000000009") (bi 9));
  check_nat "lcm" (bi 36) (B.lcm (bi 12) (bi 18));
  check_nat "lcm with zero" B.zero (B.lcm B.zero (bi 5));
  check_nat "0!" B.one (B.factorial 0);
  check_nat "5!" (bi 120) (B.factorial 5);
  check_nat "20!" (B.of_string "2432902008176640000") (B.factorial 20);
  Alcotest.check_raises "negative factorial"
    (Invalid_argument "Bignat.factorial: negative") (fun () ->
      ignore (B.factorial (-1)))

let test_misc () =
  Alcotest.(check int) "digits 0" 1 (B.digits B.zero);
  Alcotest.(check int) "digits" 4 (B.digits (bi 1234));
  check_nat "min" (bi 3) (B.min (bi 3) (bi 8));
  check_nat "max" (bi 8) (B.max (bi 3) (bi 8));
  check_nat "sum" (bi 6) (B.sum [ bi 1; bi 2; bi 3 ]);
  Alcotest.(check bool) "to_float" true (abs_float (B.to_float (bi 1000) -. 1000.) < 0.5)

(* --- properties ------------------------------------------------------- *)

let gen_small = QCheck.Gen.int_bound 1_000_000

(* Random numbers spanning several limbs. *)
let gen_big =
  QCheck.Gen.(
    map3
      (fun a b c ->
        B.add
          (B.mul (B.add (B.mul (B.of_int a) (B.pow2 62)) (B.of_int b)) (B.pow2 62))
          (B.of_int c))
      (int_bound max_int) (int_bound max_int) (int_bound max_int))

let arb_big = QCheck.make ~print:B.to_string gen_big

let prop_add_matches_int =
  QCheck.Test.make ~name:"add matches int semantics" ~count:500
    QCheck.(pair (make gen_small) (make gen_small))
    (fun (a, b) -> B.equal (B.add (bi a) (bi b)) (bi (a + b)))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"mul matches int semantics" ~count:500
    QCheck.(pair (make gen_small) (make gen_small))
    (fun (a, b) -> B.equal (B.mul (bi a) (bi b)) (bi (a * b)))

let prop_monus_matches_int =
  QCheck.Test.make ~name:"monus matches int semantics" ~count:500
    QCheck.(pair (make gen_small) (make gen_small))
    (fun (a, b) -> B.equal (B.monus (bi a) (bi b)) (bi (max 0 (a - b))))

let prop_divmod_invariant =
  QCheck.Test.make ~name:"divmod: a = q*b + r with r < b" ~count:200
    QCheck.(pair arb_big arb_big)
    (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare r b < 0)

let prop_add_comm_assoc =
  QCheck.Test.make ~name:"add is commutative and associative" ~count:200
    QCheck.(triple arb_big arb_big arb_big)
    (fun (a, b, c) ->
      B.equal (B.add a b) (B.add b a)
      && B.equal (B.add a (B.add b c)) (B.add (B.add a b) c))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:200
    QCheck.(triple arb_big arb_big arb_big)
    (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string / of_string roundtrip" ~count:200 arb_big
    (fun a -> B.equal a (B.of_string (B.to_string a)))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare consistent with subtraction" ~count:200
    QCheck.(pair arb_big arb_big)
    (fun (a, b) ->
      match B.compare a b with
      | 0 -> B.equal a b
      | c when c < 0 -> B.is_zero (B.monus a b) && not (B.is_zero (B.monus b a))
      | _ -> B.is_zero (B.monus b a) && not (B.is_zero (B.monus a b)))

let prop_pascal =
  QCheck.Test.make ~name:"binomial satisfies Pascal's rule" ~count:200
    QCheck.(pair (int_range 1 60) (int_range 0 60))
    (fun (n, k) ->
      QCheck.assume (k <= n);
      B.equal (B.binomial n k)
        (B.add (B.binomial (n - 1) k) (B.binomial (n - 1) (k - 1))))

let prop_gcd =
  QCheck.Test.make ~name:"gcd divides both and is maximal-ish" ~count:200
    QCheck.(pair (make gen_small) (make gen_small))
    (fun (a, b) ->
      QCheck.assume (a > 0 && b > 0);
      let g = B.gcd (bi a) (bi b) in
      B.is_zero (B.rem (bi a) g) && B.is_zero (B.rem (bi b) g)
      && B.equal (B.mul g (B.lcm (bi a) (bi b))) (B.mul (bi a) (bi b)))

let props = List.map QCheck_alcotest.to_alcotest
  [
    prop_gcd;
    prop_add_matches_int;
    prop_mul_matches_int;
    prop_monus_matches_int;
    prop_divmod_invariant;
    prop_add_comm_assoc;
    prop_mul_distributes;
    prop_string_roundtrip;
    prop_compare_total_order;
    prop_pascal;
  ]

let () =
  Alcotest.run "bignat"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of/to string" `Quick test_of_to_string;
          Alcotest.test_case "of_int bounds" `Quick test_of_int_bounds;
          Alcotest.test_case "add carries" `Quick test_add_carry;
          Alcotest.test_case "sub and monus" `Quick test_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "hyper" `Quick test_hyper;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "parity" `Quick test_parity;
          Alcotest.test_case "to_int" `Quick test_to_int;
          Alcotest.test_case "gcd/lcm/factorial" `Quick test_gcd_lcm_factorial;
          Alcotest.test_case "misc" `Quick test_misc;
        ] );
      ("properties", props);
    ]
