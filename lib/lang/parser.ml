(** Recursive-descent parser for the BALG surface syntax.

    Grammar (loosest to tightest):
    {v
    expr     ::= "let" IDENT "=" expr "in" expr | add
    add      ::= vee (("++" | "--") vee)*          additive union / monus
    vee      ::= wedge (\/ wedge)*                 maximal union
    wedge    ::= prod (/\ prod)*                   intersection
    prod     ::= postfix ("*" postfix)*            Cartesian product
    postfix  ::= primary ("." INT)*                attribute projection
    primary  ::= "(" expr ")" | "<" exprs ">" | bag-literal | 'atom
               | "pi" "[" ints "]" "(" expr ")"
               | "nest" "[" ints "]" "(" expr ")" | "unnest" "[" INT "]" "(" expr ")"
               | "join" "[" INT "," INT "]" "(" expr "," expr ")"
               | "map" "(" IDENT "->" expr "," expr ")"
               | "select" "(" IDENT "->" expr "==" expr "," expr ")"
               | "fix" "(" IDENT "->" expr "," expr ")"
               | "bfix" "(" expr "," IDENT "->" expr "," expr ")"
               | ("powerset"|"powerbag"|"destroy"|"dedup"|"sing") "(" expr ")"
               | "empty" "(" type ")" | IDENT
    type     ::= "U" | "<" types ">" | "{{" type "}}"
    value    ::= 'atom | "<" values ">" | "{{" (value (":" INT)?),* "}}"
    v}

    Bag literals appearing in expressions are parsed as values and must have
    an inferable type; write [empty({{T}})] for empty bags. *)

open Balg

exception Parse_error of string * int

let error msg pos = raise (Parse_error (msg, pos))

type stream = Lexer.cursor

let peek = Lexer.peek
let advance = Lexer.advance

let expect st tok =
  let t, pos = peek st in
  if t = tok then advance st
  else
    error
      (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string tok)
         (Lexer.token_to_string t))
      pos

let expect_ident st =
  match peek st with
  | Lexer.IDENT x, _ ->
      advance st;
      x
  | t, pos ->
      error
        (Printf.sprintf "expected an identifier, found %s" (Lexer.token_to_string t))
        pos

let expect_int st =
  match peek st with
  | Lexer.INT s, _ ->
      advance st;
      s
  | t, pos ->
      error
        (Printf.sprintf "expected an integer, found %s" (Lexer.token_to_string t))
        pos

(* --- types ---------------------------------------------------------------- *)

let rec parse_ty st : Ty.t =
  match peek st with
  | Lexer.IDENT "U", _ ->
      advance st;
      Ty.Atom
  | Lexer.LANGLE, _ ->
      advance st;
      let rec items acc =
        match peek st with
        | Lexer.RANGLE, _ ->
            advance st;
            List.rev acc
        | Lexer.COMMA, _ ->
            advance st;
            items acc
        | _ -> items (parse_ty st :: acc)
      in
      Ty.Tuple (items [])
  | Lexer.LBAG, _ ->
      advance st;
      let t = parse_ty st in
      expect st Lexer.RBAG;
      Ty.Bag t
  | t, pos ->
      error (Printf.sprintf "expected a type, found %s" (Lexer.token_to_string t)) pos

(* --- values ---------------------------------------------------------------- *)

let rec parse_value st : Value.t =
  match peek st with
  | Lexer.ATOM a, _ ->
      advance st;
      Value.atom a
  | Lexer.LANGLE, _ ->
      advance st;
      let rec items acc =
        match peek st with
        | Lexer.RANGLE, _ ->
            advance st;
            List.rev acc
        | Lexer.COMMA, _ ->
            advance st;
            items acc
        | _ -> items (parse_value st :: acc)
      in
      Value.tuple (items [])
  | Lexer.LBAG, _ ->
      advance st;
      let rec items acc =
        match peek st with
        | Lexer.RBAG, _ ->
            advance st;
            List.rev acc
        | Lexer.COMMA, _ ->
            advance st;
            items acc
        | _ ->
            let v = parse_value st in
            let count =
              match peek st with
              | Lexer.COLON, _ ->
                  advance st;
                  Bignat.of_string (expect_int st)
              | _ -> Bignat.one
            in
            items ((v, count) :: acc)
      in
      Value.bag_of_assoc (items [])
  | t, pos ->
      error (Printf.sprintf "expected a value, found %s" (Lexer.token_to_string t)) pos

(* --- expressions ------------------------------------------------------------ *)

let rec parse_expr st : Expr.t =
  match peek st with
  | Lexer.IDENT "let", _ ->
      advance st;
      let x = expect_ident st in
      expect st Lexer.EQUAL;
      let e = parse_expr st in
      (match peek st with
      | Lexer.IDENT "in", _ -> advance st
      | t, pos ->
          error
            (Printf.sprintf "expected 'in', found %s" (Lexer.token_to_string t))
            pos);
      Expr.Let (x, e, parse_expr st)
  | _ -> parse_add st

and parse_add st =
  let rec go acc =
    match peek st with
    | Lexer.PLUSPLUS, _ ->
        advance st;
        go (Expr.UnionAdd (acc, parse_vee st))
    | Lexer.MINUSMINUS, _ ->
        advance st;
        go (Expr.Diff (acc, parse_vee st))
    | _ -> acc
  in
  go (parse_vee st)

and parse_vee st =
  let rec go acc =
    match peek st with
    | Lexer.VEE, _ ->
        advance st;
        go (Expr.UnionMax (acc, parse_wedge st))
    | _ -> acc
  in
  go (parse_wedge st)

and parse_wedge st =
  let rec go acc =
    match peek st with
    | Lexer.WEDGE, _ ->
        advance st;
        go (Expr.Inter (acc, parse_prod st))
    | _ -> acc
  in
  go (parse_prod st)

and parse_prod st =
  let rec go acc =
    match peek st with
    | Lexer.STAR, _ ->
        advance st;
        go (Expr.Product (acc, parse_postfix st))
    | _ -> acc
  in
  go (parse_postfix st)

and parse_postfix st =
  let rec go acc =
    match peek st with
    | Lexer.DOT, _ ->
        advance st;
        go (Expr.Proj (int_of_string (expect_int st), acc))
    | _ -> acc
  in
  go (parse_primary st)

and parse_unary_call st ctor =
  expect st Lexer.LPAREN;
  let e = parse_expr st in
  expect st Lexer.RPAREN;
  ctor e

and parse_binder st =
  expect st Lexer.LPAREN;
  let x = expect_ident st in
  expect st Lexer.ARROW;
  (x, ())

and parse_primary st =
  match peek st with
  | Lexer.LPAREN, _ ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      e
  | Lexer.LANGLE, _ ->
      advance st;
      let rec items acc =
        match peek st with
        | Lexer.RANGLE, _ ->
            advance st;
            List.rev acc
        | Lexer.COMMA, _ ->
            advance st;
            items acc
        | _ -> items (parse_expr st :: acc)
      in
      Expr.Tuple (items [])
  | Lexer.ATOM a, _ ->
      advance st;
      Expr.atom a
  | Lexer.LBAG, pos ->
      let v = parse_value st in
      (match Value.infer v with
      | Some ty when not (Value.is_empty_bag v) -> Expr.Lit (v, ty)
      | Some _ | None ->
          error "bag literal has no inferable type (use empty({{T}}) or a \
                 homogeneous bag)" pos)
  | Lexer.IDENT "nest", _ ->
      advance st;
      expect st Lexer.LBRACKET;
      let rec ints acc =
        match peek st with
        | Lexer.RBRACKET, _ ->
            advance st;
            List.rev acc
        | Lexer.COMMA, _ ->
            advance st;
            ints acc
        | _ -> ints (int_of_string (expect_int st) :: acc)
      in
      let ixs = ints [] in
      parse_unary_call st (fun e -> Expr.Nest (ixs, e))
  | Lexer.IDENT "unnest", _ ->
      advance st;
      expect st Lexer.LBRACKET;
      let i = int_of_string (expect_int st) in
      expect st Lexer.RBRACKET;
      parse_unary_call st (fun e -> Expr.Unnest (i, e))
  | Lexer.IDENT "join", _ ->
      advance st;
      expect st Lexer.LBRACKET;
      let i = int_of_string (expect_int st) in
      expect st Lexer.COMMA;
      let j = int_of_string (expect_int st) in
      expect st Lexer.RBRACKET;
      expect st Lexer.LPAREN;
      let a = parse_expr st in
      expect st Lexer.COMMA;
      let b = parse_expr st in
      expect st Lexer.RPAREN;
      Expr.Join (i, j, a, b)
  | Lexer.IDENT "pi", _ ->
      advance st;
      expect st Lexer.LBRACKET;
      let rec ints acc =
        match peek st with
        | Lexer.RBRACKET, _ ->
            advance st;
            List.rev acc
        | Lexer.COMMA, _ ->
            advance st;
            ints acc
        | _ -> ints (int_of_string (expect_int st) :: acc)
      in
      let ixs = ints [] in
      parse_unary_call st (Expr.proj_attrs ixs)
  | Lexer.IDENT "map", _ ->
      advance st;
      let x, () = parse_binder st in
      let body = parse_expr st in
      expect st Lexer.COMMA;
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      Expr.Map (x, body, e)
  | Lexer.IDENT "select", _ ->
      advance st;
      let x, () = parse_binder st in
      let l = parse_expr st in
      expect st Lexer.EQEQ;
      let r = parse_expr st in
      expect st Lexer.COMMA;
      let e = parse_expr st in
      expect st Lexer.RPAREN;
      Expr.Select (x, l, r, e)
  | Lexer.IDENT "fix", _ ->
      advance st;
      let x, () = parse_binder st in
      let body = parse_expr st in
      expect st Lexer.COMMA;
      let seed = parse_expr st in
      expect st Lexer.RPAREN;
      Expr.Fix (x, body, seed)
  | Lexer.IDENT "bfix", _ ->
      advance st;
      expect st Lexer.LPAREN;
      let bound = parse_expr st in
      expect st Lexer.COMMA;
      let x = expect_ident st in
      expect st Lexer.ARROW;
      let body = parse_expr st in
      expect st Lexer.COMMA;
      let seed = parse_expr st in
      expect st Lexer.RPAREN;
      Expr.BFix (bound, x, body, seed)
  | Lexer.IDENT "powerset", _ ->
      advance st;
      parse_unary_call st Expr.powerset
  | Lexer.IDENT "powerbag", _ ->
      advance st;
      parse_unary_call st Expr.powerbag
  | Lexer.IDENT "destroy", _ ->
      advance st;
      parse_unary_call st Expr.destroy
  | Lexer.IDENT "dedup", _ ->
      advance st;
      parse_unary_call st Expr.dedup
  | Lexer.IDENT "sing", _ ->
      advance st;
      parse_unary_call st Expr.sing
  | Lexer.IDENT "empty", _ ->
      advance st;
      expect st Lexer.LPAREN;
      let ty = parse_ty st in
      expect st Lexer.RPAREN;
      (match ty with
      | Ty.Bag _ -> Expr.empty ty
      | _ -> error "empty(T) requires a bag type" 0)
  | Lexer.IDENT x, _ ->
      advance st;
      Expr.Var x
  | t, pos ->
      error
        (Printf.sprintf "expected an expression, found %s" (Lexer.token_to_string t))
        pos

(* --- entry points ------------------------------------------------------------ *)

let of_string parse s =
  let st = Lexer.cursor s in
  let result = parse st in
  (match peek st with
  | Lexer.EOF, _ -> ()
  | t, pos ->
      error (Printf.sprintf "trailing input: %s" (Lexer.token_to_string t)) pos);
  result

let expr_of_string s = of_string parse_expr s
let value_of_string s = of_string parse_value s
let ty_of_string s = of_string parse_ty s
