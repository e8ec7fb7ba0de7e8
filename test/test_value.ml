(* Tests for values, canonicalisation, typing and type measures. *)

open Balg
module B = Bignat

let value = Alcotest.testable Value.pp Value.equal
let ty = Alcotest.testable Ty.pp Ty.equal

let a = Value.atom "a"
let b = Value.atom "b"
let t2 x y = Value.tuple [ x; y ]

let test_bag_canonical () =
  let b1 = Value.bag_of_assoc [ (b, B.of_int 2); (a, B.one); (b, B.one) ] in
  let b2 = Value.bag_of_assoc [ (a, B.one); (b, B.of_int 3) ] in
  Alcotest.check value "coalesced and sorted" b2 b1;
  let b3 = Value.bag_of_assoc [ (a, B.zero) ] in
  Alcotest.check value "zero counts dropped" Value.empty_bag b3;
  Alcotest.check value "of_list" b2
    (Value.bag_of_list [ Value.atom "b"; a; Value.atom "b"; Value.atom "b" ])

let test_counts () =
  let bag = Value.bag_of_list [ a; a; b ] in
  Alcotest.(check string) "count a" "2" (B.to_string (Value.count_in a bag));
  Alcotest.(check string) "count absent" "0"
    (B.to_string (Value.count_in (Value.atom "z") bag));
  Alcotest.(check string) "cardinal" "3" (B.to_string (Value.cardinal bag));
  Alcotest.(check int) "support" 2 (Value.support_size bag)

let test_nat_encoding () =
  let n5 = Value.nat 5 in
  Alcotest.(check string) "nat 5 cardinal" "5" (B.to_string (Value.nat_value n5));
  Alcotest.(check int) "single distinct element" 1 (Value.support_size n5);
  Alcotest.check value "nat 0 is empty" Value.empty_bag (Value.nat 0)

let test_bag_nesting () =
  Alcotest.(check int) "atom" 0 (Value.bag_nesting a);
  Alcotest.(check int) "flat bag" 1 (Value.bag_nesting (Value.bag_of_list [ a ]));
  Alcotest.(check int) "bag of bags" 2
    (Value.bag_nesting (Value.bag_of_list [ Value.bag_of_list [ a ] ]));
  Alcotest.(check int) "tuple mixes" 2
    (Value.bag_nesting
       (Value.tuple [ a; Value.bag_of_list [ Value.bag_of_list [ b ] ] ]))

let test_encoded_size () =
  (* duplicates are counted explicitly, per the paper's standard encoding *)
  let bag = Value.replicate (B.of_int 10) (t2 a b) in
  Alcotest.(check string) "10 copies of a 3-node tuple + bag node" "31"
    (B.to_string (Value.encoded_size bag))

let test_typing () =
  let bag = Value.bag_of_list [ t2 a b ] in
  Alcotest.(check bool) "has_type ok" true (Value.has_type (Ty.relation 2) bag);
  Alcotest.(check bool) "arity mismatch" false (Value.has_type (Ty.relation 3) bag);
  Alcotest.(check bool) "empty bag inhabits every bag type" true
    (Value.has_type (Ty.Bag (Ty.Bag Ty.Atom)) Value.empty_bag);
  (match Value.infer bag with
  | Some t -> Alcotest.check ty "infer" (Ty.relation 2) t
  | None -> Alcotest.fail "expected inferable");
  (match Value.infer (Value.bag_of_list [ a; t2 a b ]) with
  | None -> ()
  | Some _ -> Alcotest.fail "heterogeneous bag must not infer")

let test_ty_measures () =
  Alcotest.(check int) "nesting of U" 0 (Ty.bag_nesting Ty.Atom);
  Alcotest.(check int) "nesting of rel" 1 (Ty.bag_nesting (Ty.relation 2));
  Alcotest.(check int) "nesting of {{ {{U}} }}" 2
    (Ty.bag_nesting (Ty.Bag (Ty.Bag Ty.Atom)));
  Alcotest.(check bool) "BALG^1 type" true (Ty.is_unnested (Ty.relation 3));
  Alcotest.(check bool) "not BALG^1" false (Ty.is_unnested (Ty.Bag (Ty.Bag Ty.Atom)));
  Alcotest.(check string) "pp" "{{<U, U>}}" (Ty.to_string (Ty.relation 2))

let test_atoms () =
  let v = Value.tuple [ a; Value.bag_of_list [ b; Value.atom "c" ] ] in
  Alcotest.(check (list string)) "atoms" [ "a"; "b"; "c" ] (Value.atoms v)

let test_pp () =
  let bag = Value.bag_of_assoc [ (t2 a b, B.of_int 3); (a, B.one) ] in
  Alcotest.(check string) "rendering" "{{'a, <'a, 'b>:3}}" (Value.to_string bag)

(* --- renderer differential ---------------------------------------------

   [Value.to_string] writes into one Buffer.  The Format renderer it
   replaced is kept here as the reference: the two must agree byte for
   byte, since replies, WAL records and dumps are all this text and the
   end-to-end reply checks render with [Value.to_string] themselves. *)

let rec ref_pp ppf v =
  match Value.view v with
  | Value.Atom s -> Format.fprintf ppf "'%s" s
  | Value.Tuple vs ->
      Format.fprintf ppf "<%a>"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           ref_pp)
        vs
  | Value.Bag pairs ->
      let pp_pair ppf (v, c) =
        if B.is_one c then ref_pp ppf v
        else Format.fprintf ppf "%a:%a" ref_pp v B.pp c
      in
      Format.fprintf ppf "{{%a}}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_pair)
        pairs

let ref_to_string v = Format.asprintf "%a" ref_pp v

let check_render what v =
  Alcotest.(check string) what (ref_to_string v) (Value.to_string v);
  let buf = Buffer.create 1 in
  Buffer.add_string buf "x=";
  Value.add_to_buffer buf v;
  Alcotest.(check string) (what ^ " (appended)") ("x=" ^ ref_to_string v)
    (Buffer.contents buf)

let beyond_max_int = B.succ (B.of_int max_int)

let fixed_values =
  let e = Value.empty_bag in
  let cnt v n = Value.bag_of_assoc [ (v, n) ] in
  [
    ("empty bag", e);
    ("atom", a);
    ("bag of the empty bag", Value.bag_of_list [ e ]);
    ("bag of bags", Value.bag_of_list [ e; Value.bag_of_list [ a; b; b ]; e ]);
    ("tuple holding bags", t2 (Value.bag_of_list [ a ]) (t2 e (Value.bag_of_list [ b; b ])));
    ("empty tuple", Value.tuple []);
    ("count 1", cnt a B.one);
    ("count 2", cnt (t2 a b) B.two);
    ("count max_int", cnt a (B.of_int max_int));
    ("count max_int + 1", cnt a beyond_max_int);
    ("count 2^70", Value.bag_of_assoc [ (a, B.pow2 70); (b, B.one); (t2 a a, B.of_int 7) ]);
    ("nested counts beyond max_int",
      cnt (cnt (t2 a (cnt b (B.pow2 90))) beyond_max_int) (B.of_int 3));
    ("text past the first buffer",
      Value.bag_of_list
        (List.init 5000 (fun i -> t2 (Value.atom (Printf.sprintf "atom%05d" i)) a)));
  ]

let test_render_fixed () =
  List.iter (fun (what, v) -> check_render what v) fixed_values

let render_types =
  let open Ty in
  [
    Atom;
    relation 1;
    relation 3;
    Bag (Bag Atom);
    Bag (Tuple [ Atom; Bag (Tuple [ Atom; Atom ]) ]);
    Tuple [ Bag Atom; Atom; Bag (Bag (Tuple [ Atom ])) ];
    Bag (Bag (Bag Atom));
  ]

let test_render_generated () =
  let rng = Random.State.make [| 2024 |] in
  List.iteri
    (fun ti ty ->
      for k = 1 to 60 do
        let v =
          Baggen.Genval.of_type rng ~n_atoms:4 ~width:5 ~max_count:(1 + (k mod 4)) ty
        in
        check_render (Printf.sprintf "type %d, value %d" ti k) v
      done)
    render_types

(* [Expr.pp] prints literals through [Value.pp]; its text is unchanged. *)
let test_render_exprs () =
  let rng = Random.State.make [| 77 |] in
  for k = 1 to 40 do
    let v =
      Baggen.Genval.of_type rng ~n_atoms:3 ~width:4 ~max_count:3
        (Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.Bag Ty.Atom ]))
    in
    let w = Value.bag_of_assoc [ (t2 a b, B.pow2 (60 + k)) ] in
    let lit x = Expr.Lit (x, Ty.relation 2) in
    let rv = ref_to_string v and rw = ref_to_string w in
    let cases =
      if Value.is_empty_bag v then []
      else
        [
          (lit v, rv);
          (Expr.UnionAdd (lit v, Expr.Var "R"), Printf.sprintf "(%s ++ R)" rv);
          (Expr.Product (lit w, lit v), Printf.sprintf "(%s * %s)" rw rv);
          (Expr.Sing (lit w), Printf.sprintf "sing(%s)" rw);
          (Expr.Tuple [ lit v; Expr.Var "x"; lit w ], Printf.sprintf "<%s, x, %s>" rv rw);
        ]
    in
    List.iter
      (fun (e, expected) ->
        Alcotest.(check string) (Printf.sprintf "query %d" k) expected (Expr.to_string e))
      cases
  done

(* --- order properties -------------------------------------------------- *)

let rng = Random.State.make [| 42 |]

let gen_value =
  QCheck.Gen.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let tys = [ Ty.Atom; Ty.relation 2; Ty.Bag (Ty.Bag Ty.Atom) ] in
      let ty = List.nth tys (Random.State.int rng 3) in
      Baggen.Genval.of_type rng ~n_atoms:3 ~width:3 ~max_count:2 ty)
    QCheck.Gen.int

let arb_value = QCheck.make ~print:Value.to_string gen_value

let prop_compare_refl =
  QCheck.Test.make ~name:"compare is reflexive" ~count:300 arb_value (fun v ->
      Value.compare v v = 0)

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare is antisymmetric" ~count:300
    QCheck.(pair arb_value arb_value)
    (fun (v, w) -> Stdlib.compare (Value.compare v w) 0 = -Stdlib.compare (Value.compare w v) 0)

let prop_compare_trans =
  QCheck.Test.make ~name:"compare is transitive" ~count:300
    QCheck.(triple arb_value arb_value arb_value)
    (fun (u, v, w) ->
      let l = List.sort Value.compare [ u; v; w ] in
      match l with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0 && Value.compare x z <= 0
      | _ -> false)

let prop_canonical_order_insensitive =
  QCheck.Test.make ~name:"bag_of_assoc is order-insensitive" ~count:300
    QCheck.(list_of_size (Gen.int_bound 8) (pair arb_value (int_range 0 3)))
    (fun pairs ->
      let pairs = List.map (fun (v, c) -> (v, B.of_int c)) pairs in
      let shuffled =
        List.sort (fun _ _ -> if Random.State.bool rng then 1 else -1) pairs
      in
      Value.equal (Value.bag_of_assoc pairs) (Value.bag_of_assoc shuffled))

let props = List.map QCheck_alcotest.to_alcotest
  [
    prop_compare_refl;
    prop_compare_antisym;
    prop_compare_trans;
    prop_canonical_order_insensitive;
  ]

let () =
  Alcotest.run "value"
    [
      ( "unit",
        [
          Alcotest.test_case "bag canonicalisation" `Quick test_bag_canonical;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "integer-as-bag" `Quick test_nat_encoding;
          Alcotest.test_case "bag nesting" `Quick test_bag_nesting;
          Alcotest.test_case "standard encoding size" `Quick test_encoded_size;
          Alcotest.test_case "typing" `Quick test_typing;
          Alcotest.test_case "type measures" `Quick test_ty_measures;
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "pretty printing" `Quick test_pp;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "fixed values" `Quick test_render_fixed;
          Alcotest.test_case "generated values" `Quick test_render_generated;
          Alcotest.test_case "queries with literals" `Quick test_render_exprs;
        ] );
      ("order properties", props);
    ]
