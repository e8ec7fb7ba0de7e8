(* Fuzzing: BALG^2 expressions through typecheck + eval + normalize +
   print/parse, and the lexer/parser on hostile input.  Nothing here may
   crash with anything but the documented exceptions. *)

open Balg
module Parser = Baglang.Parser
module Lexer = Baglang.Lexer

let env_spec = [ ("R", 1); ("S", 2) ]
let tenv = Typecheck.env_of_list (Baggen.Genexpr.env_types env_spec)

let small_limits =
  { Budget.default with Budget.max_support = 50_000; max_count_digits = 200 }

let eval_guarded inst e =
  Result.to_option (Eval.run ~limits:small_limits (Eval.env_of_list inst) e)

(* BALG^2 expressions: always well-typed, and evaluation (when it fits the
   guard) produces a value of the inferred type *)
let prop_nested_type_soundness =
  QCheck.Test.make ~name:"BALG^2 fuzz: type soundness under guard" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.nested rng env_spec 4 (1 + Random.State.int rng 2) in
      let ty = Typecheck.infer tenv e in
      let inst = Baggen.Genexpr.instance rng ~size:4 ~max_count:2 env_spec in
      match eval_guarded inst e with
      | None -> true (* guard tripped: acceptable *)
      | Some v -> Value.has_type ty v)

(* normalization preserves semantics on the nested fragment too *)
let prop_nested_normalize =
  QCheck.Test.make ~name:"BALG^2 fuzz: normalize preserves semantics" ~count:200
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.nested rng env_spec 3 (1 + Random.State.int rng 2) in
      let e', _ = Rewrite.normalize tenv e in
      let inst = Baggen.Genexpr.instance rng ~size:4 ~max_count:2 env_spec in
      match (eval_guarded inst e, eval_guarded inst e') with
      | Some v, Some v' -> Value.equal v v'
      | _ -> true)

(* print/parse roundtrip on the nested fragment *)
let prop_nested_roundtrip =
  QCheck.Test.make ~name:"BALG^2 fuzz: print/parse roundtrip" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.nested rng env_spec 4 (1 + Random.State.int rng 2) in
      Stdlib.compare e (Parser.expr_of_string (Expr.to_string e)) = 0)

(* the analyzer never crashes and never claims BALG^1 for powerset users *)
let prop_analyze_total =
  QCheck.Test.make ~name:"analyzer total on fuzzed expressions" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.nested rng env_spec 4 1 in
      let r = Analyze.analyze tenv e in
      r.Analyze.bag_nesting >= 1
      && (r.Analyze.power_nesting = 0 || r.Analyze.bag_nesting >= 2))

(* tight-budget mode: every generated query runs under a starved governor
   (little fuel, small support/size caps, few fix steps) and must come back
   as Ok or a structured Error — no raw exception may escape Eval.run *)
let tight_limits =
  {
    Balg.Budget.fuel = 2_000;
    max_support = 500;
    max_size = 100_000;
    max_count_digits = 50;
    max_fix_steps = 25;
    deadline_s = Some 2.0;
  }

let prop_budget_no_escape =
  QCheck.Test.make ~name:"fuzz: no raw exception escapes a tight budget"
    ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.nested rng env_spec 4 (1 + Random.State.int rng 2) in
      let inst = Baggen.Genexpr.instance rng ~size:4 ~max_count:2 env_spec in
      match Eval.run ~limits:tight_limits (Eval.env_of_list inst) e with
      | Ok _ | Error _ -> true
      | exception Eval.Eval_error _ ->
          false (* generated queries are well-typed: must not happen *)
      | exception _ -> false)

(* hostile strings: the lexer/parser raise only their own exceptions *)
let prop_parser_no_crash =
  QCheck.Test.make ~name:"parser fuzz: only documented exceptions" ~count:500
    QCheck.(string_gen_of_size (Gen.int_bound 40) Gen.printable)
    (fun s ->
      match Parser.expr_of_string s with
      | _ -> true
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true
      | exception Failure _ -> true (* int_of_string on huge indices *))

(* hostile-but-lexable strings through the value parser *)
let prop_value_parser_no_crash =
  QCheck.Test.make ~name:"value parser fuzz" ~count:500
    QCheck.(string_gen_of_size (Gen.int_bound 40) Gen.printable)
    (fun s ->
      match Parser.value_of_string s with
      | _ -> true
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true
      | exception (Failure _ | Invalid_argument _) -> true)

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzzing",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_nested_type_soundness;
            prop_nested_normalize;
            prop_nested_roundtrip;
            prop_analyze_total;
            prop_budget_no_escape;
            prop_parser_no_crash;
            prop_value_parser_no_crash;
          ] );
    ]
