(** The polynomial abstract interpreter of Propositions 4.1 and 4.5.

    For every BALG{^1}(+ε) expression over a bag variable [B] and every
    output tuple [t], there are a polynomial [P{_t}] and a threshold
    [N{_t}] such that on the input family [B{_n}] = {{<a>:n}} the
    multiplicity of [t] in the result is exactly [P{_t}(n)] for all
    [n > N{_t}].  This module computes those polynomials by following the
    proof's induction case by case; polynomials are eventually monotone,
    which is the paper's argument that [bag-even], [ε] and [−] are not
    expressible in BALG{^1}. *)

exception Unsupported of string
(** Raised on operators outside the BALG{^1}+ε fragment (powerset, bagging,
    destroy, nest, fixpoints) or on λ bodies that are not object-level. *)

type entries = (Value.t * Poly.t) list
(** tuple ↦ occurrence-count polynomial; zero polynomials are not stored *)

type analysis = { entries : entries; threshold : int }

val input_tuple : Value.t
(** The element of the input family: the unary tuple [<a>]. *)

val analyze : input:Expr.var -> Expr.t -> analysis
(** Interpret [e] abstractly over [B{_n}] named by [input].
    @raise Unsupported outside the fragment. *)

val predicted_count : analysis -> Value.t -> n:int -> Bignat.t
(** Valid for [n > threshold]. *)

val agrees_with_eval : input:Expr.var -> Expr.t -> analysis -> n:int -> bool
(** Compare the full predicted bag against the concrete evaluator on
    [B{_n}]; sound only beyond the threshold.
    @raise Failure with the verdict if evaluation exhausts
    {!Budget.default}. *)

val polynomial_of : analysis -> Value.t -> Poly.t option
