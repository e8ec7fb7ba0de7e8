(** The [.bagdb] database file format: named, typed bags.

    {v
    # comment
    bag G : {{<U, U>}} = {{ <'a,'b>, <'b,'a>:2 }}
    v}

    The loader is {e validating}: every malformed-input shape — broken
    syntax, a truncated or bit-flipped file, a value that does not have
    its declared type, duplicate bag names, an oversized multiplicity —
    surfaces as a located {!Db_error}, never as an uncaught lexer/parser
    exception or a crash (the corrupted-database fuzz suite,
    [test_bagdb_fuzz.ml], holds the loader to exactly that contract). *)

open Balg

type error = {
  path : string option;  (** the file, when loading one *)
  offset : int;  (** byte offset of the offending input, 0 for I/O errors *)
  reason : string;
}

exception Db_error of error

val error_to_string : error -> string

type t = (string * Ty.t * Value.t) list

val parse : ?path:string -> ?max_count_digits:int -> string -> t
(** Values are checked against their declared types; duplicate bag names
    are rejected; multiplicities over [max_count_digits] decimal digits
    (default 10,000 — {!Budget.default}'s bound) are rejected before any
    big-number arithmetic touches them.  @raise Db_error, and nothing
    else, on every malformed input.

    The text is read in one pass through a {!Lexer.cursor}: each token is
    lexed when the parser reaches it, so the error reported is the first
    one in text order, and a parse error wins over a lex error further
    on.  Bags rendered by {!render} (a snapshot, a WAL record, a shipped
    record) are already canonical and are taken without a sort; see
    {!Balg.Value.bag_of_assoc}. *)

val load : ?max_count_digits:int -> string -> t
(** Read and {!parse} a file.  I/O failures (missing file, permission,
    short read) raise {!Db_error} too.  The [bagdb.load] {!Fault} site
    fires here: an injected short read truncates the content at a
    deterministic offset, which the validating parser then rejects (or,
    for a truncation at a declaration boundary, loads as a prefix). *)

val type_env : t -> Typecheck.env
val value_env : t -> Eval.env

val render : t -> string
(** Re-parseable textual form. *)
