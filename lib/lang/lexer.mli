(** Hand-rolled lexer for the BALG surface syntax.

    [#] starts a line comment.  Identifiers may contain [%] (so the
    pretty-printer's fresh binder names round-trip) and ['] (OCaml-style
    primes); atoms are written ['name]. *)

type token =
  | IDENT of string
  | ATOM of string
  | INT of string  (** kept textual: counts may exceed [int] *)
  | LBAG  (** [{{] *)
  | RBAG  (** [}}] *)
  | LANGLE
  | RANGLE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | COLON
  | DOT
  | ARROW  (** [->] *)
  | EQEQ  (** [==] *)
  | EQUAL
  | STAR
  | PLUSPLUS  (** [++] *)
  | MINUSMINUS  (** [--] *)
  | WEDGE  (** the intersection operator, slash-backslash *)
  | VEE  (** the maximal union operator, backslash-slash *)
  | EOF

exception Lex_error of string * int  (** message, byte offset *)

val token_to_string : token -> string

(** {1 Lazy lexing}

    A cursor lexes its text one token at a time, when the parser asks
    for the next one, so parsing a text is a single pass that never
    holds a token list.  A consequence is the error precedence: a
    {!Lex_error} surfaces only when the parser advances onto the bad
    token, so a parse error earlier in the text is reported first, and
    a lex error past the point where the parse failed is never seen. *)

type cursor

val cursor : string -> cursor
(** A cursor on the text's first token.
    @raise Lex_error when that token does not lex. *)

val peek : cursor -> token * int
(** The current token and its byte offset; [EOF] (at the text's length)
    once the text is used up. *)

val advance : cursor -> unit
(** Lex the next token.  At [EOF] it stays at [EOF].
    @raise Lex_error when the next token does not lex. *)

val tokenize : string -> (token * int) list
(** Every token with its byte offset, ending with [EOF]: the cursor run
    to the end.  For tests and tools; the parsers read a {!cursor}. *)
