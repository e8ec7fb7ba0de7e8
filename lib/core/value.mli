(** Complex-object values: atoms, tuples, and bags with {!Bignat.t}
    multiplicities.

    Bags are kept canonical — elements strictly increasing in {!compare},
    multiplicities strictly positive and coalesced — so structural equality
    is bag equality.  An element [o] {e n-belongs} to a bag when its stored
    multiplicity is [n] (§2).

    The representation is {e tagged}: every node carries a precomputed
    structural hash and a saturating encoded-size tag, maintained by the
    smart constructors.  Tags give {!equal} an O(1) refutation fast path and
    let bag kernels bucket by hash instead of deep-comparing.  Because [t]
    is abstract, the tag invariants (hash and size always agree with the
    structure) cannot be broken from outside; inspect values through
    {!view}. *)

type t

type view =
  | Atom of string
  | Tuple of t list
  | Bag of (t * Bignat.t) list
      (** canonical: strictly increasing keys, positive counts. *)

val view : t -> view
(** One-level pattern-matching view of a value.  O(1). *)

val compare : t -> t -> int
(** Total order: atoms < tuples < bags; lexicographic within a kind.
    Physically equal (sub)values short-circuit to 0 without a walk. *)

val equal : t -> t -> bool
(** O(1) when the answer is [false] and the hash or size tags differ, and
    when the arguments are physically equal; a structural walk otherwise. *)

val hash : t -> int
(** Precomputed structural hash: [equal a b] implies [hash a = hash b].
    O(1) — use it to key hash tables over values. *)

val size_tag : t -> int
(** Saturating machine-int approximation of {!encoded_size}: exact whenever
    the encoded size fits an [int], [max_int] otherwise.  O(1). *)

val sat_add : int -> int -> int
val sat_mul : int -> int -> int
(** Saturating machine arithmetic on non-negative operands (the arithmetic
    of the size tags).  Overflow pins to [max_int] instead of wrapping —
    use these for any budget product that feeds a comparison, since a
    wrapped product can land back inside the allowed range. *)

(** {1 Constructors} *)

val atom : string -> t
val tuple : t list -> t

val bag_of_assoc : (t * Bignat.t) list -> t
(** Canonicalises: coalesces equal elements additively (bucketing by
    {!hash}, so only distinct elements are deep-compared), drops zero
    counts, sorts the distinct support. *)

val bag_of_list : t list -> t
(** Each occurrence counts once; duplicates in the list accumulate. *)

val of_sorted_assoc : (t * Bignat.t) list -> t
(** Trusted constructor for kernels: the input {b must} already be
    canonical (strictly increasing in {!compare}, counts positive).  Only
    the tags are computed; the list is not inspected for order.  Feeding it
    a non-canonical list silently breaks bag equality — use
    {!bag_of_assoc} unless you can prove the invariant. *)

val empty_bag : t

val replicate : Bignat.t -> t -> t
(** [replicate i t] is the paper's [B{^t}{_i}]: exactly [i] occurrences of
    [t]. *)

val nat : ?on:string -> int -> t
(** The §3 integer encoding: [nat n] is a bag of [n] occurrences of the
    unary tuple [<a>] (atom name configurable). *)

(** {1 Accessors} *)

val as_bag : t -> (t * Bignat.t) list
(** @raise Invalid_argument on non-bags. *)

val as_tuple : t -> t list
(** @raise Invalid_argument on non-tuples. *)

val is_bag : t -> bool
val is_empty_bag : t -> bool

val count_in : t -> t -> Bignat.t
(** [count_in v b]: multiplicity of [v] in bag [b] (zero when absent).
    Scans the sorted support and stops at the first element above [v]. *)

val cardinal : t -> Bignat.t
(** Total number of occurrences — the paper's size of a bag. *)

val support : t -> t list
(** Distinct elements, in increasing order. *)

val support_size : t -> int

(** {1 Structure measures} *)

val bag_nesting : t -> int

val encoded_size : t -> Bignat.t
(** Size of the §2 standard encoding, where duplicates are written out
    explicitly. *)

val atoms : t -> string list
(** All atomic constants occurring in the value, sorted. *)

(** {1 Typing} *)

val has_type : Ty.t -> t -> bool
(** The empty bag inhabits every bag type. *)

val infer : t -> Ty.t option
(** Best-effort inference; [None] on heterogeneous bags, [Bag Atom] for the
    empty bag. *)

(** {1 Rendering} *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append the value's text: atoms as ['name], tuples as [<v1, v2>], bags
    as [{{v1, v2:3}}] in canonical order with a [:n] suffix on every count
    other than 1 (counts beyond [max_int] are printed exactly).  One walk
    into one buffer — the renderer behind {!to_string}, the WAL payload,
    [.bagdb] dumps and server replies. *)

val to_string : t -> string
(** {!add_to_buffer} into a fresh buffer. *)

val pp : Format.formatter -> t -> unit
(** {!to_string} as one [Format] token, for [Format]-based printers such
    as {!Expr.pp}. *)

val nat_value : t -> Bignat.t
(** Decode an integer-as-bag back to its number (the cardinality). *)
