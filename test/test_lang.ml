(* Tests for the surface language: lexing, parsing, printing roundtrips, and
   the .bagdb loader. *)

open Balg
module Lexer = Baglang.Lexer
module Parser = Baglang.Parser
module Bagdb = Baglang.Bagdb

let eval_ok env e = Expect.ok (Eval.run env e)

let value = Alcotest.testable Value.pp Value.equal
let ty = Alcotest.testable Ty.pp Ty.equal

(* --- lexer ---------------------------------------------------------------- *)

let test_lexer_basics () =
  let toks = List.map fst (Lexer.tokenize "{{ <'a, 'b>:3 }} ++ R.2") in
  Alcotest.(check int) "token count (incl. EOF)" 14 (List.length toks);
  Alcotest.(check bool) "starts with LBAG" true (List.hd toks = Lexer.LBAG)

let test_lexer_comments () =
  let toks = Lexer.tokenize "R # everything here is ignored ++ S\nS" in
  Alcotest.(check int) "comment swallowed" 3 (List.length toks)

let test_lexer_operators () =
  let toks = List.map fst (Lexer.tokenize "a ++ b -- c /\\ d \\/ e -> f == g") in
  Alcotest.(check bool) "all operators recognised" true
    (List.mem Lexer.PLUSPLUS toks && List.mem Lexer.MINUSMINUS toks
    && List.mem Lexer.WEDGE toks && List.mem Lexer.VEE toks
    && List.mem Lexer.ARROW toks && List.mem Lexer.EQEQ toks)

let test_lexer_errors () =
  (match Lexer.tokenize "a ? b" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected Lex_error");
  match Lexer.tokenize "' " with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected Lex_error on empty atom"

(* --- parsing types and values --------------------------------------------- *)

let test_parse_ty () =
  Alcotest.check ty "atom" Ty.Atom (Parser.ty_of_string "U");
  Alcotest.check ty "relation" (Ty.relation 2) (Parser.ty_of_string "{{<U, U>}}");
  Alcotest.check ty "nested" (Ty.Bag (Ty.Bag Ty.Atom))
    (Parser.ty_of_string "{{ {{ U }} }}")

let test_parse_value () =
  Alcotest.check value "atom" (Value.atom "a") (Parser.value_of_string "'a");
  Alcotest.check value "bag with counts"
    (Value.bag_of_assoc
       [ (Value.tuple [ Value.atom "a"; Value.atom "b" ], Bignat.of_int 3) ])
    (Parser.value_of_string "{{ <'a, 'b>:3 }}");
  Alcotest.check value "coalescing"
    (Value.bag_of_assoc [ (Value.atom "x", Bignat.of_int 5) ])
    (Parser.value_of_string "{{ 'x:2, 'x:3 }}");
  (* in order but not canonical: the no-sort path must not take these *)
  Alcotest.check value "adjacent duplicates"
    (Value.replicate (Bignat.of_int 2) (Value.atom "a"))
    (Parser.value_of_string "{{'a, 'a}}");
  Alcotest.check value "zero count"
    (Value.bag_of_list [ Value.atom "b" ])
    (Parser.value_of_string "{{'a:0, 'b}}");
  Alcotest.check value "big count"
    (Value.replicate (Bignat.of_string "123456789012345678901") (Value.atom "x"))
    (Parser.value_of_string "{{ 'x:123456789012345678901 }}")

(* --- parsing expressions ---------------------------------------------------- *)

let roundtrip_ast e =
  let printed = Expr.to_string e in
  let reparsed = Parser.expr_of_string printed in
  if Stdlib.compare e reparsed <> 0 then
    Alcotest.failf "roundtrip failed:\n  original : %s\n  reparsed : %s" printed
      (Expr.to_string reparsed)

let test_parse_operators () =
  let e = Parser.expr_of_string "R ++ S -- T" in
  (match e with
  | Expr.Diff (Expr.UnionAdd (Expr.Var "R", Expr.Var "S"), Expr.Var "T") -> ()
  | _ -> Alcotest.failf "wrong associativity: %s" (Expr.to_string e));
  let e2 = Parser.expr_of_string "R ++ S * T" in
  match e2 with
  | Expr.UnionAdd (Expr.Var "R", Expr.Product (Expr.Var "S", Expr.Var "T")) -> ()
  | _ -> Alcotest.failf "wrong precedence: %s" (Expr.to_string e2)

let test_parse_constructs () =
  roundtrip_ast (Derived.selfjoin (Expr.Var "B"));
  roundtrip_ast (Derived.transitive_closure (Expr.Var "G"));
  roundtrip_ast (Derived.diff_via_powerset (Expr.Var "R") (Expr.Var "S"));
  roundtrip_ast (Derived.average (Expr.Var "NS"));
  roundtrip_ast (Expr.Powerbag (Expr.Dedup (Expr.Var "R")));
  roundtrip_ast (Expr.empty (Ty.relation 2));
  roundtrip_ast
    (Expr.Fix ("X", Expr.UnionMax (Expr.Var "X", Expr.Var "G"), Expr.Var "G"))

let test_parse_projection () =
  let e = Parser.expr_of_string "map(x -> <x.2, x.1>, G)" in
  let g =
    Value.bag_of_list [ Value.tuple [ Value.atom "a"; Value.atom "b" ] ]
  in
  let v = eval_ok (Eval.env_of_list [ ("G", g) ]) e in
  Alcotest.check value "swap via surface syntax"
    (Value.bag_of_list [ Value.tuple [ Value.atom "b"; Value.atom "a" ] ])
    v

let test_parse_pi_sugar () =
  let e = Parser.expr_of_string "pi[2, 1](G)" in
  let tenv = Typecheck.env_of_list [ ("G", Ty.relation 2) ] in
  Alcotest.check ty "pi types" (Ty.relation 2) (Typecheck.infer tenv e)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Parser.expr_of_string s with
      | exception Parser.Parse_error _ -> ()
      | e -> Alcotest.failf "expected parse error on %S, got %s" s (Expr.to_string e))
    [ "map(x -> y"; "select(x -> a, B)"; "R ++"; "{{ }} ++ R"; "empty(U)"; "R S" ]

(* Tokens are lexed as the parser reaches them, so an error is reported
   at the first offset where the text stops making sense: a parse error
   wins over a bad character later on. *)
let test_parse_error_precedence () =
  (match Parser.expr_of_string "R ++ ) ?" with
  | exception Parser.Parse_error (_, pos) ->
      Alcotest.(check int) "parse error at ')'" 5 pos
  | exception Lexer.Lex_error (msg, _) ->
      Alcotest.failf "the earlier parse error must win, got lex error %s" msg
  | _ -> Alcotest.fail "expected a parse error");
  match Parser.expr_of_string "R ++ ?" with
  | exception Lexer.Lex_error (_, pos) -> Alcotest.(check int) "lex error at '?'" 5 pos
  | exception Parser.Parse_error (msg, _) -> Alcotest.failf "expected a lex error, got %s" msg
  | _ -> Alcotest.fail "expected a lex error"

(* evaluating a parsed query end to end *)
let test_parse_eval_pipeline () =
  let db =
    Bagdb.parse
      {|
        # in-degree vs out-degree example
        bag G : {{<U, U>}} = {{ <'b,'a>, <'c,'a>, <'a,'b> }}
      |}
  in
  let q =
    Parser.expr_of_string
      "pi[2](select(x -> x.2 == 'a, G)) -- pi[1](select(x -> x.1 == 'a, G))"
  in
  ignore (Typecheck.infer (Bagdb.type_env db) q);
  let v = eval_ok (Bagdb.value_env db) q in
  Alcotest.(check bool) "indeg(a) > outdeg(a)" true (Eval.truthy v)

(* --- bagdb ------------------------------------------------------------------ *)

let test_bagdb_load () =
  let db =
    Bagdb.parse
      "bag R : {{<U>}} = {{ <'a>, <'b>:2 }}\nbag S : {{U}} = {{ 'x }}"
  in
  Alcotest.(check int) "two bags" 2 (List.length db);
  let _, ty_r, v_r = List.hd db in
  Alcotest.check ty "declared type" (Ty.relation 1) ty_r;
  Alcotest.(check string) "duplicate kept" "2"
    (Bignat.to_string (Value.count_in (Value.tuple [ Value.atom "b" ]) v_r))

let test_bagdb_type_mismatch () =
  match Bagdb.parse "bag R : {{<U>}} = {{ 'a }}" with
  | exception Bagdb.Db_error _ -> ()
  | _ -> Alcotest.fail "expected Db_error"

let test_bagdb_duplicate_names () =
  match Bagdb.parse "bag R : {{U}} = {{ 'a }}\nbag R : {{U}} = {{ 'b }}" with
  | exception Bagdb.Db_error _ -> ()
  | _ -> Alcotest.fail "expected Db_error"

let test_bagdb_error_precedence () =
  let located src =
    match Bagdb.parse src with
    | exception Bagdb.Db_error e -> (e.Bagdb.offset, e.Bagdb.reason)
    | _ -> Alcotest.failf "expected Db_error on %S" src
  in
  let offset, reason = located "bag R : U U = 'a ?" in
  Alcotest.(check int) "parse error offset" 10 offset;
  Alcotest.(check bool) "parse error wins" true
    (String.starts_with ~prefix:"parse error" reason);
  let offset, reason = located "bag R : U = 'a ?" in
  Alcotest.(check int) "lex error offset" 15 offset;
  Alcotest.(check bool) "lex error" true (String.starts_with ~prefix:"lex error" reason)

let test_bagdb_render_roundtrip () =
  let db =
    Bagdb.parse "bag R : {{<U>}} = {{ <'a>, <'b>:2 }}\nbag T : {{{{U}}}} = {{ {{'x:2}} }}"
  in
  let db2 = Bagdb.parse (Bagdb.render db) in
  List.iter2
    (fun (n1, t1, v1) (n2, t2, v2) ->
      Alcotest.(check string) "name" n1 n2;
      Alcotest.check ty "type" t1 t2;
      Alcotest.check value "value" v1 v2)
    db db2

(* random expressions roundtrip through print + parse *)
let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip on random expressions"
    ~count:200
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.flat rng [ ("R", 1); ("S", 2) ] 4 (1 + Random.State.int rng 2) in
      Stdlib.compare e (Parser.expr_of_string (Expr.to_string e)) = 0)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "types" `Quick test_parse_ty;
          Alcotest.test_case "values" `Quick test_parse_value;
          Alcotest.test_case "operators" `Quick test_parse_operators;
          Alcotest.test_case "constructs roundtrip" `Quick test_parse_constructs;
          Alcotest.test_case "map/select" `Quick test_parse_projection;
          Alcotest.test_case "pi sugar" `Quick test_parse_pi_sugar;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error precedence" `Quick test_parse_error_precedence;
          Alcotest.test_case "end-to-end pipeline" `Quick test_parse_eval_pipeline;
        ] );
      ( "bagdb",
        [
          Alcotest.test_case "load" `Quick test_bagdb_load;
          Alcotest.test_case "type mismatch" `Quick test_bagdb_type_mismatch;
          Alcotest.test_case "duplicate names" `Quick test_bagdb_duplicate_names;
          Alcotest.test_case "render roundtrip" `Quick test_bagdb_render_roundtrip;
          Alcotest.test_case "error precedence" `Quick test_bagdb_error_precedence;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]
