(** The primitive bag operations of §3, as functions on bag {!Value.t}s.

    Every function expects its bag arguments to be [Value.Bag] and raises
    [Invalid_argument] otherwise; the typechecker rules this out for
    well-typed algebra expressions.  Multiplicity arithmetic follows the
    paper exactly: additive union sums counts, subtraction is truncated
    ([sup (0, p - q)]), maximal union and intersection take sup and inf, the
    Cartesian product multiplies counts, and the powerset yields {e one}
    occurrence of every subbag whereas the powerbag distinguishes occurrences
    ([prod C(m_i, k_i)] copies of each sub-multiset).

    Every kernel here runs sequentially on the calling domain: the tree
    engine built on them is the reference every pooled vec run is checked
    against. *)

(** {1 Boolean structure} *)

val subbag : Value.t -> Value.t -> bool
(** [subbag b b'] is the paper's [b ⊑ b']: every [n]-member of [b]
    [p]-belongs to [b'] for some [p >= n]. *)

(** {1 Basic bag operations} *)

val union_add : Value.t -> Value.t -> Value.t
val diff : Value.t -> Value.t -> Value.t
val union_max : Value.t -> Value.t -> Value.t
val inter : Value.t -> Value.t -> Value.t

(** {1 Constructive operations} *)

val product : Value.t -> Value.t -> Value.t
(** Cartesian product of bags of tuples; concatenates tuple components and
    multiplies multiplicities. *)

val expected_subbags : Value.t -> int
(** The number of distinct subbags {!powerset}/{!powerbag} would
    materialise — [prod (m_i + 1)] over the support, {e saturating} at
    [max_int] (including when a multiplicity exceeds [int] range).
    O(support), allocation-free.  This is the guard callers consult
    {e before} invoking a power operator: the evaluator pre-charges it
    against the budget and reports overflow as a located [Support]
    verdict; no unstructured size exception exists any more (the old
    [Too_large] escape is gone). *)

val powerset : Value.t -> Value.t
(** [powerset b] is the bag of {e distinct} subbags of [b], each occurring
    once (the operator chosen for BALG "for tractability reasons").
    Unguarded: callers bound the output via {!expected_subbags} first.
    @raise Invalid_argument if some multiplicity does not fit an [int]
    (a case {!expected_subbags} reports as [max_int]). *)

val powerbag : Value.t -> Value.t
(** [powerbag b] is [Pb] (Definition 5.1): occurrences are distinguished, so
    the sub-multiset choosing [k_i] of [m_i] copies appears
    [prod C(m_i, k_i)] times.  Same resource behaviour as {!powerset}. *)

val destroy : Value.t -> Value.t
(** [destroy b] is [δ]: additive union of the member bags, respecting outer
    multiplicities ([δ {{x1, ..., xn}} = x1 ∪+ ... ∪+ xn]). *)

(** {1 Filters} *)

val map : (Value.t -> Value.t) -> Value.t -> Value.t
(** Restructuring (MAP): images coalesce additively. *)

val select : (Value.t -> bool) -> Value.t -> Value.t

val dedup : Value.t -> Value.t
(** Duplicate elimination [ε]. *)

val proj : int list -> Value.t -> Value.t
(** [proj ixs b] is the generalized projection
    [MAP λx.<α_{i1}(x), ..., α_{ik}(x)>] over a bag of tuples — the direct
    kernel behind the evaluator's compiled fast path for that Map shape.
    @raise Invalid_argument on non-tuple elements or out-of-range
    attributes. *)

val select_eq : int -> int -> Value.t -> Value.t
(** [select_eq i j b] is [σ_{i=j} b]: keep the tuples whose [i]-th and
    [j]-th components are equal.  Direct kernel behind the compiled fast
    path for [Select (x, Proj (i, Var x), Proj (j, Var x), e)].
    @raise Invalid_argument on non-tuple elements or out-of-range
    attributes. *)

val join_eq : int -> int -> Value.t -> Value.t -> Value.t
(** [join_eq i j a b] is the keyed equijoin
    [σ_{i = ka+j} (a × b)] (with [ka] the arity of [a]'s tuples) as one
    hash-join kernel: [b] is bucketed by its [j]-th component, [a] streams
    through the table, and matching tuples concatenate with multiplied
    counts.  Bit-identical to [select_eq i (ka + j) (product a b)] without
    materialising the product.
    @raise Invalid_argument on non-tuple elements or out-of-range
    attributes. *)

val nest : int list -> Value.t -> Value.t
(** The set-nesting operator of §7 ([PG88, Won93]): group a bag of tuples by
    the listed 1-based attributes; the remaining attributes — with their
    multiplicities — form a bag appended as the last component, and every
    group occurs once. *)

val unnest : int -> Value.t -> Value.t
(** Expand a bag-valued attribute in place; multiplicities multiply. *)

(** {1 Helpers} *)

val scale : Bignat.t -> Value.t -> Value.t
(** Multiply every multiplicity by a constant (used by [destroy]). *)

val max_count : Value.t -> Bignat.t
(** Largest multiplicity occurring in the bag (zero for the empty bag);
    powers the evaluator's growth meters. *)
