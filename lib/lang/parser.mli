(** Recursive-descent parser for the BALG surface syntax.

    The grammar is documented in the implementation; the printed form of
    {!Balg.Expr.pp} is exactly this syntax, so print/parse round-trips.
    Bag literals in expressions must have an inferable type; write
    [empty({{T}})] for typed empty bags. *)

open Balg

exception Parse_error of string * int
(** message, byte offset *)

type stream = Lexer.cursor
(** The parser reads a {!Lexer.cursor} and never looks more than one
    token ahead, so a text is lexed and parsed in one pass.  Lex errors
    therefore surface in text order with parse errors: a
    {!Parse_error} before a later {!Lexer.Lex_error} wins. *)

(** {1 Stream primitives} (exposed for the [.bagdb] loader) *)

val peek : stream -> Lexer.token * int
val advance : stream -> unit
val expect : stream -> Lexer.token -> unit
val expect_ident : stream -> string
val expect_int : stream -> string

val parse_ty : stream -> Ty.t
val parse_value : stream -> Value.t
val parse_expr : stream -> Expr.t

(** {1 Whole-string entry points} *)

val expr_of_string : string -> Expr.t
val value_of_string : string -> Value.t
val ty_of_string : string -> Ty.t
