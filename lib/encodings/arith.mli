(** Lemma 5.7: bounded arithmetic compiled into the bag algebra.

    Integers are bags, addition is [∪+], multiplication is a product
    followed by restructuring, and bounded quantifiers range over a domain
    bag of integer-bags.  A sentence compiles to a bag of empty tuples,
    nonempty iff the sentence holds under the bounded semantics of
    Definition 5.2. *)

open Balg

type term =
  | TVar of int  (** 1-based, outermost quantifier first *)
  | TConst of int
  | TInput  (** the input integer [n] (the bag [b{_n}]) *)
  | TAdd of term * term
  | TMul of term * term

type formula =
  | Eq of term * term
  | Le of term * term
  | And of formula * formula
  | Or of formula * formula
  | Not of formula
  | Exists of formula  (** binds variable [depth+1] *)
  | Forall of formula

(** {1 Reference semantics} *)

val eval_term : int list -> input:int -> term -> int

val eval_formula : ?env:int list -> bound:int -> input:int -> formula -> bool
(** Quantifiers range over [0..bound]. *)

(** {1 Compilation} *)

val depth_of : formula -> int

val compile : domain1:Expr.t -> input:Expr.t -> depth:int -> formula -> Expr.t
(** The bag of satisfying assignments (a subbag of [D{^depth}], duplicate
    free); [domain1] is a bag of 1-tuples of integer-bags. *)

val compile_sentence : domain1:Expr.t -> input:Expr.t -> formula -> Expr.t
(** @raise Invalid_argument on open formulas. *)

val literal_domain1 : int -> Expr.t
(** The quantification domain [0..bound] as a literal. *)

val paper_domain1 : i:int -> Expr.t -> Expr.t
(** The paper's [D(b) = P(E{^i}(b))] with the powerbag doubling. *)

val holds_via_algebra :
  ?limits:Budget.limits -> bound:int -> input:int -> formula -> bool
(** Evaluates under [limits] (default {!Budget.default}).
    @raise Failure with the verdict when the budget runs out. *)
