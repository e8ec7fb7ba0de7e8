(* Differential tests for the vectorized execution engine: Veval must be
   bit-identical to the tree evaluator — same canonical Value.t, same
   multiplicities, same hash tags — on generated flat and nested queries,
   including plans that mix vec kernels with tree fallbacks (powerset,
   fixpoints, heterogeneous data).  Budget verdicts must also agree under
   tight limits, and pool-chunked kernel runs must recombine identically.

   The pool is {!Testpool}'s, as in test_parallel.ml; [BALG_ENGINE] is
   deliberately ignored here — this file always compares both engines
   explicitly. *)

open Balg
open Testpool
module B = Bignat
module G = Baggen.Genval

let value = Alcotest.testable Value.pp Value.equal
let env_spec = [ ("R", 1); ("S", 2) ]

let small_limits =
  { Budget.default with Budget.max_support = 50_000; max_count_digits = 200 }

(* Both engines under the same guard: bit-identical values (hash tags
   included) when both finish; when a budget trips, both must trip. *)
let agree inst e =
  let env = Eval.env_of_list inst in
  let tree = Result.to_option (Eval.run ~limits:small_limits env e) in
  let vec = Result.to_option (Veval.run ~limits:small_limits env e) in
  match (tree, vec) with
  | Some v, Some w -> Value.equal v w && Value.hash v = Value.hash w
  | None, None -> true
  | Some _, None | None, Some _ ->
      (* Fuel amounts differ by design, so only compare when the guard is
         about materialised size, which both engines enforce; the guarded
         configs here are support/digit bounds, so a one-sided trip is a
         real disagreement. *)
      false

let prop_flat_diff =
  QCheck.Test.make ~name:"vec == tree on generated flat queries" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.flat rng env_spec 4 (1 + Random.State.int rng 2) in
      let inst = Baggen.Genexpr.instance rng ~size:5 ~max_count:3 env_spec in
      agree inst e)

(* The nested generator detours through powerset-destroy and nest-unnest,
   so these plans mix vec kernels with tree fallbacks. *)
let prop_nested_diff =
  QCheck.Test.make ~name:"vec == tree on nested / fallback-mixed queries"
    ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e =
        Baggen.Genexpr.nested rng env_spec 4 (1 + Random.State.int rng 2)
      in
      let inst = Baggen.Genexpr.instance rng ~size:4 ~max_count:2 env_spec in
      agree inst e)

(* Direct kernel coverage on random nested bags (test_bag_ref generators):
   nest/unnest/destroy/dedup and the merge family over deep values. *)
let rec random_ty rng depth =
  match Random.State.int rng (if depth = 0 then 2 else 4) with
  | 0 -> Ty.Atom
  | 1 -> Ty.Tuple [ Ty.Atom; Ty.Atom ]
  | 2 -> Ty.Bag (random_ty rng (depth - 1))
  | _ -> Ty.Tuple [ Ty.Atom; random_ty rng (depth - 1) ]

let random_bag rng ety =
  G.of_type rng ~n_atoms:3 ~width:4 ~max_count:3 (Ty.Bag ety)

let prop_kernels_on_nested_bags =
  QCheck.Test.make ~name:"vec == tree on nested-bag kernel queries" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ety = Ty.Tuple [ Ty.Atom; random_ty rng 2 ] in
      let a = random_bag rng ety and b = random_bag rng ety in
      let inst = [ ("A", a); ("B", b) ] in
      let va = Expr.Var "A" and vb = Expr.Var "B" in
      let queries =
        [
          Expr.UnionAdd (va, vb);
          Expr.Diff (va, vb);
          Expr.UnionMax (va, vb);
          Expr.Inter (va, vb);
          Expr.Dedup (Expr.UnionAdd (va, va));
          Expr.Product (va, vb);
          Expr.proj_attrs [ 2; 1 ] va;
          Expr.Nest ([ 1 ], va);
          Expr.Unnest (2, Expr.Nest ([ 1 ], va));
          Expr.Destroy (Expr.Map ("x", Expr.Var "x", Expr.Sing va));
          Expr.ones va;
        ]
      in
      List.for_all (agree inst) queries)

(* to_value . of_value is the identity on canonical bags, hash included. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"Vec.of_value/to_value roundtrip" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let b = random_bag rng (random_ty rng 2) in
      match Vec.of_value b with
      | x ->
          let v = Vec.to_value x in
          Value.equal b v
          && Value.hash b = Value.hash v
          && Value.equal b Vec.(to_value (coalesce x))
      | exception Vec.Unsupported _ -> false)

(* Verdict equivalence under tight budgets: a fuel budget far below the
   node count exhausts both engines; a support budget below a relation's
   width trips both at the same resource. *)
let prop_tight_fuel_verdicts =
  QCheck.Test.make ~name:"tight fuel exhausts both engines" ~count:100
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.flat rng env_spec 4 (1 + Random.State.int rng 2) in
      QCheck.assume (Expr.size e > 4);
      let inst = Baggen.Genexpr.instance rng ~size:5 ~max_count:3 env_spec in
      let env = Eval.env_of_list inst in
      let limits = { Budget.unlimited with Budget.fuel = 3 } in
      let tree = Eval.run ~limits env e in
      let vec = Veval.run ~limits env e in
      match (tree, vec) with
      | Error x, Error y ->
          x.Budget.resource = Budget.Fuel && y.Budget.resource = Budget.Fuel
      | _ -> false)

let test_support_verdicts_agree () =
  let r =
    Value.bag_of_list
      [ Value.tuple [ Value.atom "a" ]; Value.tuple [ Value.atom "b" ];
        Value.tuple [ Value.atom "c" ] ]
  in
  let env = Eval.env_of_list [ ("R", r) ] in
  let q = Expr.Product (Expr.Var "R", Expr.Var "R") in
  let limits = { Budget.unlimited with Budget.max_support = 4 } in
  (match (Eval.run ~limits env q, Veval.run ~limits env q) with
  | Error x, Error y ->
      Alcotest.(check string)
        "same resource" "support"
        (Budget.resource_to_string x.Budget.resource);
      Alcotest.(check string)
        "same resource (vec)" "support"
        (Budget.resource_to_string y.Budget.resource)
  | _ -> Alcotest.fail "expected support verdicts from both engines");
  (* generous enough limits succeed identically *)
  let ok = { Budget.unlimited with Budget.max_support = 100 } in
  match (Eval.run ~limits:ok env q, Veval.run ~limits:ok env q) with
  | Ok v, Ok w -> Alcotest.check value "same product" v w
  | _ -> Alcotest.fail "expected both engines to finish"

(* Pool-chunked kernels recombine bit-identically: sequential vec ==
   pooled vec == tree, on inputs big enough that chunk_min = 1 forks. *)
let test_pool_chunks_identical () =
  with_test_pool (fun p ->
      let rng = Random.State.make [| 42 |] in
      let r =
        G.flat_bag rng ~n_atoms:8 ~arity:2 ~size:60 ~max_count:3
      in
      let env = Eval.env_of_list [ ("R", r) ] in
      let queries =
        [
          Derived.selfjoin (Expr.Var "R");
          Expr.Join (1, 2, Expr.Var "R", Expr.Var "R");
        ]
      in
      List.iter
        (fun q ->
          let seq =
            match Veval.run env q with Ok v -> v | Error _ -> assert false
          in
          let par =
            match
              ran_pooled (Expr.to_string q) (fun () -> Veval.run ~pool:p env q)
            with
            | Ok v -> v
            | Error _ -> assert false
          in
          let tree =
            match Eval.run env q with
            | Ok v -> v
            | Error _ -> assert false
          in
          Alcotest.check value "pooled vec == sequential vec" seq par;
          Alcotest.check value "vec == tree" tree par;
          Alcotest.(check bool) "hash equal" true
            (Value.hash tree = Value.hash par))
        queries)

(* The steps == fuel invariant holds for vec runs with a telemetry sink
   attached (the --stats invariant, as in test_parallel.ml). *)
let test_steps_equal_fuel () =
  let rng = Random.State.make [| 7 |] in
  let r = G.flat_bag rng ~n_atoms:6 ~arity:2 ~size:40 ~max_count:2 in
  let env = Eval.env_of_list [ ("R", r) ] in
  let q = Derived.selfjoin (Expr.Var "R") in
  let t = Telemetry.create () in
  let budget = Budget.start Budget.default in
  (match Veval.run ~budget ~telemetry:t env q with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "unexpected verdict");
  Alcotest.(check int)
    "telemetry steps == spent fuel" (Budget.fuel_spent budget)
    (Telemetry.total_steps t)

(* Fallback-mixed plan: the engine labels show vec kernels and the tree
   fallback side by side, and the result still matches the tree engine. *)
let test_plan_labels () =
  let r =
    Value.bag_of_list
      [ Value.tuple [ Value.atom "a" ]; Value.tuple [ Value.atom "b" ] ]
  in
  let env = Eval.env_of_list [ ("R", r) ] in
  let q =
    Expr.Powerset (Expr.proj_attrs [ 1 ] (Expr.Var "R"))
  in
  let plan = ref None in
  (match Veval.run ~report:(fun p -> plan := Some p) env q with
  | Ok v -> Alcotest.check value "matches tree" (Expect.ok (Eval.run env q)) v
  | Error _ -> Alcotest.fail "unexpected verdict");
  match !plan with
  | None -> Alcotest.fail "no plan reported"
  | Some p ->
      let s = Veval.plan_to_string p in
      Alcotest.(check bool) "powerset ran on tree" true
        (p.Veval.p_engine = "tree");
      Alcotest.(check bool) "proj ran vectorized" true
        (let rec has_vec p =
           String.length p.Veval.p_engine >= 4
           && String.sub p.Veval.p_engine 0 4 = "vec:"
           || List.exists has_vec p.Veval.p_children
         in
         has_vec p);
      Alcotest.(check bool) "rendering mentions engines" true
        (String.length s > 0)

(* An empty relation imports as a zero-row vector with no column shape;
   every kernel must still run vectorized on it and give the zero-row
   result, not demote the node to the tree path. *)
let test_empty_operands_stay_vec () =
  let r =
    Value.bag_of_list
      [
        Value.tuple [ Value.atom "a"; Value.atom "b" ];
        Value.tuple [ Value.atom "b"; Value.atom "b" ];
      ]
  in
  let env = Eval.env_of_list [ ("R", r); ("E", Value.empty_bag) ] in
  List.iter
    (fun text ->
      let q = Baglang.Parser.expr_of_string text in
      let plan = ref None in
      (match Veval.run ~report:(fun p -> plan := Some p) env q with
      | Ok v ->
          let t = Expect.ok (Eval.run env q) in
          Alcotest.check value (text ^ ": matches tree") t v;
          Alcotest.(check int) (text ^ ": hash") (Value.hash t) (Value.hash v)
      | Error _ -> Alcotest.fail (text ^ ": unexpected verdict"));
      match !plan with
      | None -> Alcotest.fail "no plan reported"
      | Some p ->
          let rec fallbacks p =
            (if String.equal p.Veval.p_engine "tree (fallback)" then
               [ p.Veval.p_op ]
             else [])
            @ List.concat_map fallbacks p.Veval.p_children
          in
          Alcotest.(check (list string)) (text ^ ": no fallback") []
            (fallbacks p);
          Alcotest.(check bool)
            (text ^ ": root runs vectorized") true
            (String.starts_with ~prefix:"vec:" p.Veval.p_engine))
    [
      "R * E";
      "E * R";
      "select(p -> p.2 == p.3, R * E)";
      "join[2,1](R, E)";
      "join[2,1](E, R)";
      "(select(p -> p.1 == 'z, R) * R) ++ R";
      "select(p -> p.1 == p.2, E)";
      "pi[2](E)";
      "nest[1](E)";
      "unnest[2](nest[1](E))";
      "destroy(map(x -> x.2, nest[1](E)))";
    ]

(* Counts in [2^63, 10^19) once wrapped to small machine ints on import,
   so the vec engine dropped or miscounted those rows. *)
let test_counts_past_2_63 () =
  let g =
    Value.bag_of_assoc
      [
        (Value.tuple [ Value.atom "a" ], B.pow2 63);
        (Value.tuple [ Value.atom "b" ], B.of_string "9999999999999999999");
        (Value.tuple [ Value.atom "c" ], B.two);
      ]
  in
  let env = Eval.env_of_list [ ("G", g) ] in
  List.iter
    (fun text ->
      let q = Baglang.Parser.expr_of_string text in
      let t = Expect.ok (Eval.run env q) and v = Expect.ok (Veval.run env q) in
      Alcotest.check value text t v)
    [ "G"; "G ++ G"; "G -- sing(<'c>)"; "G * G"; "dedup(G)" ]

(* --- kernels against Bag, directly ----------------------------------------

   Each Vec kernel, run through [to_value], must equal its Bag counterpart
   bit for bit (hash tags included) on operands the generated queries above
   never build: hundreds of rows over two or three keys (long index chains),
   thousands of distinct rows (indexes that outgrow their first size),
   empty operands, nested-bag key columns, and multiplicities beyond
   [max_int] (the spill side of the int-count paths).  [join] is the one
   kernel here that takes a pool; it runs with and without the test pool. *)

let tup = Value.tuple
let at = Value.atom

(* [n] rows <key, x, y> over [keys] keys and [vals] values, counts in
   1..3. *)
let rows rng ~keys ~vals n =
  let cell k = at (Printf.sprintf "v%d" (Random.State.int rng k)) in
  Value.bag_of_assoc
    (List.init n (fun _ ->
         ( tup [ cell keys; cell vals; cell vals ],
           Bignat.of_int (1 + Random.State.int rng 3) )))

(* Counts at and beyond [max_int] on a few rows <key, x>. *)
let huge_counts rng =
  let big =
    [|
      Bignat.of_int max_int;
      Bignat.of_int (max_int - 1);
      Bignat.pow2 70;
      Bignat.one;
      Bignat.of_int 3;
    |]
  in
  Value.bag_of_assoc
    (List.init 12 (fun i ->
         ( tup
             [
               at (Printf.sprintf "k%d" (i mod 3));
               at (Printf.sprintf "x%d" (Random.State.int rng 4));
             ],
           big.(Random.State.int rng (Array.length big)) )))

let nested_keys rng =
  G.of_type rng ~n_atoms:2 ~width:40 ~max_count:2
    (Ty.Bag (Ty.Tuple [ Ty.Bag (Ty.Tuple [ Ty.Atom ]); Ty.Atom ]))

(* A value and its columns; [emptied] keeps the column shape with no rows,
   as a selection that matches nothing leaves it mid-plan. *)
let operand v = (v, Vec.of_value v)

let emptied (v, x) =
  ( Bag.select (fun _ -> false) v,
    Vec.select_scalar (Vec.SField (1, Vec.SRow)) (Vec.SConst (at "absent")) x )

let kernel_cases rng =
  let pair name a b = (name, operand a, operand b) in
  let fk = rows rng ~keys:2 ~vals:12 300 and fk' = rows rng ~keys:3 ~vals:12 200 in
  [
    pair "few keys" fk fk';
    (* past the index's first 1024 entries: every grouping kernel resizes *)
    pair "thousands of distinct rows"
      (rows rng ~keys:2000 ~vals:2000 2500)
      (rows rng ~keys:2000 ~vals:2000 2000);
    ("empty left", emptied (operand fk), operand fk');
    ("empty right", operand fk, emptied (operand fk'));
    ("both empty", emptied (operand fk), emptied (operand fk'));
    pair "nested-bag keys" (nested_keys rng) (nested_keys rng);
    pair "counts beyond max_int" (huge_counts rng) (huge_counts rng);
  ]

let same_value what expected x =
  let v = Vec.to_value x in
  Alcotest.check value what expected v;
  Alcotest.(check int) (what ^ ": hash") (Value.hash expected) (Value.hash v)

let test_kernels_against_bag () =
  with_test_pool (fun p ->
      List.iter
        (fun seed ->
          let rng = Random.State.make [| 1009 + seed |] in
          List.iter
            (fun (name, (va, xa), (vb, xb)) ->
              let lbl k = Printf.sprintf "%s, seed %d: %s" name seed k in
              List.iter
                (fun (i, j) ->
                  let expected = Bag.join_eq i j va vb in
                  same_value (lbl (Printf.sprintf "join %d %d" i j)) expected
                    (Vec.join i j xa xb);
                  same_value (lbl (Printf.sprintf "pooled join %d %d" i j))
                    expected (Vec.join ~pool:p i j xa xb))
                [ (1, 1); (2, 2); (1, 2) ];
              let dup = Vec.union_add xa xa and vdup = Bag.union_add va va in
              let key1 = Vec.map_scalar (Vec.SRecord [ Vec.SField (1, Vec.SRow) ]) in
              same_value (lbl "dedup") (Bag.dedup vdup) (Vec.dedup dup);
              same_value (lbl "dedup of keys") (Bag.dedup (Bag.proj [ 1 ] va))
                (Vec.dedup (key1 xa));
              same_value (lbl "coalesce") vdup (Vec.coalesce dup);
              same_value (lbl "coalesce of keys") (Bag.proj [ 1 ] va)
                (Vec.coalesce (key1 xa));
              same_value (lbl "union_max") (Bag.union_max va vb)
                (Vec.union_max xa xb);
              same_value (lbl "monus") (Bag.diff va vb) (Vec.monus xa xb);
              same_value (lbl "monus (reversed)") (Bag.diff vb va)
                (Vec.monus xb xa);
              same_value (lbl "inter") (Bag.inter va vb) (Vec.inter xa xb);
              same_value (lbl "nest") (Bag.nest [ 1 ] vdup) (Vec.nest [ 1 ] dup);
              same_value (lbl "nest 2") (Bag.nest [ 2 ] va) (Vec.nest [ 2 ] xa))
            (kernel_cases rng))
        (List.init 4 Fun.id))

(* Shared inputs: balgd imports a relation once and hands the same vector
   to every run that reads it, on any worker domain, so no kernel may
   write into its inputs.  Every kernel — alone, pooled, and over results
   that share arrays with an input (union_add with an empty side returns
   that input; map_scalar keeps its count column) — and whole vec runs
   fed through [?columns] must leave the imported operands bit-identical
   to a fresh import. *)
let bits (x : Vec.t) = Marshal.to_string x []

let kernels p a b =
  let f1 = Vec.SField (1, Vec.SRow) and f2 = Vec.SField (2, Vec.SRow) in
  (if Vec.expected_product_rows a b > 100_000 then []
   else [ ("product", fun () -> Vec.product a b) ])
  @ [
    ("join 1 1", fun () -> Vec.join 1 1 a b);
    ("join 2 1", fun () -> Vec.join 2 1 a b);
    ("pooled join", fun () -> Vec.join ~pool:p 1 1 a b);
    ("map swap", fun () -> Vec.map_scalar (Vec.SRecord [ f2; f1 ]) a);
    ("map const", fun () -> Vec.map_scalar (Vec.SRecord [ Vec.SConst (at "c") ]) a);
    ("map ones", fun () -> Vec.map_scalar (Vec.SRecord [ Vec.SOnes ("one", f1) ]) a);
    ("select", fun () -> Vec.select_scalar f1 f2 a);
    ("pooled select", fun () -> Vec.select_scalar ~pool:p f1 (Vec.SConst (at "v1")) a);
    ("union_add", fun () -> Vec.union_add a b);
    ("monus", fun () -> Vec.monus a b);
    ("inter", fun () -> Vec.inter a b);
    ("union_max", fun () -> Vec.union_max a b);
    ("dedup", fun () -> Vec.dedup a);
    ("coalesce", fun () -> Vec.coalesce a);
    ("nest 1", fun () -> Vec.nest [ 1 ] a);
    ("nest 2", fun () -> Vec.nest [ 2 ] a);
    ("unnest 1", fun () -> Vec.unnest 1 a);
    ("destroy", fun () -> Vec.destroy a);
    ("to_value", fun () -> ignore (Vec.to_value a); a);
  ]

let test_kernels_leave_inputs_intact () =
  with_test_pool (fun p ->
      List.iter
        (fun seed ->
          let rng = Random.State.make [| 2003 + seed |] in
          let bags ety =
            G.of_type rng ~n_atoms:3 ~width:6 ~max_count:3 (Ty.Bag ety)
          in
          let cases =
            List.map (fun (name, (va, _), (vb, _)) -> (name, va, vb)) (kernel_cases rng)
            @ [
                ( "bags of bags",
                  bags (Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.Atom ])),
                  bags (Ty.Bag (Ty.Tuple [ Ty.Atom; Ty.Atom ])) );
              ]
          in
          List.iter
            (fun (name, va, vb) ->
              let xa = Vec.of_value va and xb = Vec.of_value vb in
              let fresh_a = bits (Vec.of_value va) and fresh_b = bits (Vec.of_value vb) in
              let intact what =
                let lbl side = Printf.sprintf "%s, seed %d: %s leaves %s intact" name seed what side in
                Alcotest.(check bool) (lbl "A") true (String.equal fresh_a (bits xa));
                Alcotest.(check bool) (lbl "B") true (String.equal fresh_b (bits xb))
              in
              let run_all ?(chain = false) tag a b =
                List.iter
                  (fun (k, f) ->
                    (match f () with
                    | r when chain ->
                        (* the output feeds a second round of kernels:
                           outputs may share arrays with the inputs *)
                        List.iter
                          (fun (_, g) -> try ignore (g ()) with Vec.Unsupported _ -> ())
                          (kernels p r (Vec.of_value Value.empty_bag))
                    | _ -> ()
                    | exception Vec.Unsupported _ -> ());
                    intact (tag ^ k))
                  (kernels p a b)
              in
              run_all ~chain:true "" xa xb;
              run_all "reversed " xb xa;
              run_all "self " xa xa;
              run_all "shared counts " (Vec.map_scalar Vec.SRow xa) xb;
              run_all "shared operand " (Vec.union_add xa (Vec.of_value Value.empty_bag)) xb;
              (* whole runs over the shared operands, against the tree
                 engine *)
              let env = Eval.env_of_list [ ("A", va); ("B", vb) ] in
              let asked = ref 0 in
              let columns name v =
                incr asked;
                match name with
                | "A" when v == va -> Some xa
                | "B" when v == vb -> Some xb
                | _ -> None
              in
              let a = Expr.Var "A" and b = Expr.Var "B" in
              List.iter
                (fun e ->
                  (* the query list is not typed per case: a query the
                     tree engine rejects only has to leave the inputs
                     intact under the vec engine *)
                  (match Eval.run ~limits:small_limits env e with
                  | exception _ -> (
                      try ignore (Veval.run ~limits:small_limits ~pool:p ~columns env e)
                      with _ -> ())
                  | tree -> (
                      match
                        (tree, Veval.run ~limits:small_limits ~pool:p ~columns env e)
                      with
                      | Ok v, Ok w ->
                          Alcotest.(check bool) (name ^ ": run matches the tree engine")
                            true
                            (Value.equal v w && Value.hash v = Value.hash w)
                      | Error _, Error _ -> ()
                      | _ -> Alcotest.fail (name ^ ": engines disagree on a verdict")));
                  intact (Expr.op_name e ^ " run"))
                ((if Vec.expected_product_rows xa xb > 100_000 then []
                  else [ Expr.Product (a, b) ])
                @ [
                  Expr.UnionAdd (a, b);
                  Expr.Diff (Expr.UnionAdd (a, a), b);
                  Expr.UnionMax (a, b);
                  Expr.Inter (b, a);
                  Expr.Dedup (Expr.UnionAdd (a, b));
                  Expr.Join (1, 1, a, b);
                  Expr.proj_attrs [ 2; 1 ] a;
                  Expr.Nest ([ 1 ], a);
                  Expr.Destroy a;
                  Expr.ones b;
                ]);
              Alcotest.(check bool) (name ^ ": runs read the shared columns") true
                (!asked > 0))
            cases)
        (List.init 2 Fun.id))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_flat_diff;
      prop_nested_diff;
      prop_kernels_on_nested_bags;
      prop_roundtrip;
      prop_tight_fuel_verdicts;
    ]

let () =
  Alcotest.run "veval"
    [
      ("vec vs tree", props);
      ( "regressions",
        [
          Alcotest.test_case "support verdicts agree" `Quick
            test_support_verdicts_agree;
          Alcotest.test_case "pool chunks identical" `Quick
            test_pool_chunks_identical;
          Alcotest.test_case "steps == fuel" `Quick test_steps_equal_fuel;
          Alcotest.test_case "plan labels" `Quick test_plan_labels;
          Alcotest.test_case "empty operands stay vectorized" `Quick
            test_empty_operands_stay_vec;
          Alcotest.test_case "counts past 2^63" `Quick test_counts_past_2_63;
          Alcotest.test_case "kernels == Bag on long chains and spills"
            `Quick test_kernels_against_bag;
          Alcotest.test_case "kernels leave shared inputs intact" `Quick
            test_kernels_leave_inputs_intact;
        ] );
    ]
