(** Hand-rolled lexer for the BALG surface syntax.

    Tokens cover expressions ([map(x -> e, e)], [e ++ e], [pi[1,4](e)], ...),
    values ([{{ <'a,'b>:3 }}]) and types ([{{<U,U>}}]).  Because [--] is the
    bag-subtraction operator, line comments use [#] instead. *)

type token =
  | IDENT of string
  | ATOM of string  (** ['name] *)
  | INT of string  (** kept as a string: counts may exceed [int] *)
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
  | EQUAL  (** [=] *)
  | STAR
  | PLUSPLUS  (** [++] *)
  | MINUSMINUS  (** [--] *)
  | WEDGE  (** [/\ ] *)
  | VEE  (** [\/] *)
  | EOF

exception Lex_error of string * int  (** message, offset *)

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '%'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

let is_digit c = c >= '0' && c <= '9'

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | ATOM s -> Printf.sprintf "atom '%s" s
  | INT s -> Printf.sprintf "integer %s" s
  | LBAG -> "'{{'"
  | RBAG -> "'}}'"
  | LANGLE -> "'<'"
  | RANGLE -> "'>'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | COLON -> "':'"
  | DOT -> "'.'"
  | ARROW -> "'->'"
  | EQEQ -> "'=='"
  | EQUAL -> "'='"
  | STAR -> "'*'"
  | PLUSPLUS -> "'++'"
  | MINUSMINUS -> "'--'"
  | WEDGE -> "'/\\'"
  | VEE -> "'\\/'"
  | EOF -> "end of input"

(* A lexer cursor: the current token and the offset of the first byte
   not yet lexed.  [advance] lexes exactly one more token, so a parse
   reads its input in one pass and never holds more than one token. *)
type cursor = { src : string; mutable next : int; mutable cur : token * int }

let emit c pos width t =
  c.next <- pos + width;
  c.cur <- (t, pos)

let rec scan_ident s n i = if i < n && is_ident_char s.[i] then scan_ident s n (i + 1) else i
let rec scan_digits s n i = if i < n && is_digit s.[i] then scan_digits s n (i + 1) else i

let rec advance c =
  let s = c.src in
  let n = String.length s in
  let pos = c.next in
  if pos >= n then c.cur <- (EOF, n)
  else
    (* '\000' stands for "past the end": no two-byte token ends in it *)
    let second = if pos + 1 < n then s.[pos + 1] else '\000' in
    match s.[pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        c.next <- pos + 1;
        advance c
    | '#' ->
        c.next <- (match String.index_from_opt s pos '\n' with Some j -> j | None -> n);
        advance c
    | '{' when second = '{' -> emit c pos 2 LBAG
    | '}' when second = '}' -> emit c pos 2 RBAG
    | '-' when second = '>' -> emit c pos 2 ARROW
    | '-' when second = '-' -> emit c pos 2 MINUSMINUS
    | '+' when second = '+' -> emit c pos 2 PLUSPLUS
    | '=' when second = '=' -> emit c pos 2 EQEQ
    | '/' when second = '\\' -> emit c pos 2 WEDGE
    | '\\' when second = '/' -> emit c pos 2 VEE
    | '=' -> emit c pos 1 EQUAL
    | '<' -> emit c pos 1 LANGLE
    | '>' -> emit c pos 1 RANGLE
    | '(' -> emit c pos 1 LPAREN
    | ')' -> emit c pos 1 RPAREN
    | '[' -> emit c pos 1 LBRACKET
    | ']' -> emit c pos 1 RBRACKET
    | ',' -> emit c pos 1 COMMA
    | ':' -> emit c pos 1 COLON
    | '.' -> emit c pos 1 DOT
    | '*' -> emit c pos 1 STAR
    | '\'' ->
        let stop = scan_ident s n (pos + 1) in
        if stop = pos + 1 then raise (Lex_error ("empty atom name", pos));
        emit c pos (stop - pos) (ATOM (String.sub s (pos + 1) (stop - pos - 1)))
    | ch when is_digit ch ->
        let stop = scan_digits s n pos in
        emit c pos (stop - pos) (INT (String.sub s pos (stop - pos)))
    | ch when is_ident_start ch ->
        let stop = scan_ident s n pos in
        emit c pos (stop - pos) (IDENT (String.sub s pos (stop - pos)))
    | ch -> raise (Lex_error (Printf.sprintf "unexpected character %C" ch, pos))

let cursor s =
  let c = { src = s; next = 0; cur = (EOF, 0) } in
  advance c;
  c

let peek c = c.cur

(** Tokenise a whole string: the cursor run to [EOF]. *)
let tokenize (s : string) : (token * int) list =
  let c = cursor s in
  let rec go acc =
    match c.cur with
    | (EOF, _) as t -> List.rev (t :: acc)
    | t ->
        advance c;
        go (t :: acc)
  in
  go []
