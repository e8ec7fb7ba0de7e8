(** Segmented flat vectors: the columnar value representation behind the
    vectorized execution engine ({!Veval}).

    A {!t} is a bag laid out column-wise: atoms become arrays of interned
    integer codes, tuples become a struct-of-arrays (one column per
    component), and nested bags become {e segment descriptors} — an offset
    array delimiting each row's slice of a flattened element column.
    Multiplicities live in a dedicated count column of small machine ints
    with a sparse {!Bignat} spill table for counts beyond [int] range, so
    kernels run loop-free over flat arrays while exactness is preserved.

    Rows need {e not} be distinct: kernels are free to leave duplicate
    rows behind (e.g. {!union_add} is a plain append) because
    {!to_value} — and any kernel that needs per-distinct-row totals —
    coalesces by hashing interned codes, never by comparing boxed
    values.  Conversion back to {!Value.t} therefore always yields the
    canonical bag: [to_value (of_value b)] is {!Value.equal} to [b] with
    an equal hash tag, whatever kernels ran in between.

    {b Segment invariant.}  Inner bag segments are kept {e canonical}
    (sorted by the {!Value.compare} order, coalesced, positive counts),
    exactly like [Value]'s own bags: segments enter canonical through
    {!of_value}, and the only kernel that builds new segments ({!nest})
    sorts and coalesces them — so nested-bag cell equality is a flat
    segment walk, never a normalisation.

    {b Unsupported data.}  Columnar layout needs a uniform element shape;
    heterogeneous bags (and non-bag values) raise {!Unsupported}, which
    {!Veval} catches to fall back to the tree evaluator for that subtree.

    {b Inputs are read-only.}  No kernel writes into an input vector or
    into any array reachable from it; a result may share arrays with an
    input ({!union_add} with an empty side returns the other operand,
    {!map_scalar} keeps its count column).  One vector can therefore
    serve many evaluations on many domains at once, once it has been
    published through a synchronising hand-off (balgd imports each
    relation once and shares it this way).  [scripts/lint.sh] and
    [test/test_veval.ml] hold the rule.

    {b Safety.}  This is the only module allowed to use
    [Array.unsafe_get]/[unsafe_set] (enforced by [scripts/lint.sh]);
    every use carries a same-line [bounds:] justification and the
    enclosing kernel guards the index range with an assertion at entry. *)

type t

exception Unsupported of string
(** The value or operation does not fit the columnar layout; callers fall
    back to the tree evaluator. *)

val rows : t -> int
(** Number of rows (an upper bound on the distinct support: kernels may
    leave duplicate rows for {!to_value} to coalesce). *)

val max_count_digits : t -> int
(** Decimal digits of the largest top-level multiplicity — O(rows) over
    the count column, for the budget's count-digit account. *)

(** {1 Boundary conversions} *)

val of_value : Value.t -> t
(** Flatten a canonical bag into columns.
    @raise Unsupported on non-bag values and heterogeneous bags. *)

val to_value : t -> Value.t
(** Coalesce duplicate rows (by interned-code hashing), decode, and
    rebuild the canonical {!Value.t} bag. *)

(** {1 Scalar programs}

    The per-row fragment of MAP bodies and σ operands the engine can
    vectorize: the row itself, positional projection, closed literals,
    tuple construction, and the cardinality-as-bag [MAP λy.<a>] idiom
    behind the derived aggregates.  Evaluated column-wise, one array op
    per node, never per row. *)

type scalar =
  | SRow  (** the bound row variable *)
  | SField of int * scalar  (** 1-based attribute projection *)
  | SConst of Value.t  (** closed literal, broadcast *)
  | SRecord of scalar list  (** tuple construction *)
  | SOnes of string * scalar
      (** [MAP λy.<atom>] over a bag-valued operand: its cardinality as an
          integer-bag (the paper's [ones]) *)

(** {1 Kernels}

    All kernels are pure.  {!join} and {!select_scalar} take a [?pool]
    and chunk contiguous row ranges across its domains once the input
    reaches {!Pool.chunk_min} rows; the slices recombine by concatenation,
    so results are bit-identical to the sequential run.  Every other
    kernel, {!product} included, is sequential: chunking it measured
    slower (DESIGN §8).
    @raise Unsupported when operand shapes do not line up. *)

val expected_product_rows : t -> t -> int
(** Saturating [rows a * rows b] — the pre-materialisation guard. *)

val product : t -> t -> t

val join : ?pool:Pool.t -> int -> int -> t -> t -> t
(** [join i j a b] is the keyed equijoin σ_{i = ka+j}(a × b) as one hash
    join: every row of [b] goes into a flat int-array hash index keyed by
    its [j]-th cell (slot heads, next links and the stored cell hash per
    entry — no bucket lists), [a]'s rows probe it comparing the stored
    hash before the cell (atom keys compare codes directly), and only
    matching pairs are materialised.  [to_value] of the result is
    bit-identical to the unfused product-then-select plan.  With [?pool],
    contiguous probe ranges run across domains against the shared index,
    which is read-only once built. *)

val map_scalar : scalar -> t -> t
val select_scalar : ?pool:Pool.t -> scalar -> scalar -> t -> t

val union_add : t -> t -> t
(** Additive union as a column append (no coalescing). *)

val monus : t -> t -> t
val union_max : t -> t -> t
val inter : t -> t -> t
val dedup : t -> t

val coalesce : t -> t
(** Merge duplicate rows, summing counts; rows come out in first-seen
    order (canonical order is restored by {!to_value}).  Rows are grouped
    through the same flat hash index as {!join}'s build side, one entry
    per distinct row; counts are summed as machine ints and spill to
    {!Bignat} only past [max_int].  {!dedup}, {!to_value}, the merge
    family and {!nest} group the same way. *)

val nest : int list -> t -> t
(** Group by the listed 1-based attributes into a canonical segmented bag
    column appended as the last component; each group occurs once. *)

val unnest : int -> t -> t
val destroy : t -> t
