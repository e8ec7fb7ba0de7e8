(** Theorem 6.1: Turing machine acceptance as a single BALG{^3}
    powerset-selection expression.

    The expression powersets the candidate-cell space [P(D × D × A × Q)] and
    filters with the proof's selections: φ1 (the time-1 layer is the encoded
    input), φ2 (consecutive layers differ by a move window from [M(B)]),
    contiguity, and φ3 (the accepting state appears).  The index domain is a
    parameter: the literal domain [1..m] makes a one-move machine evaluable
    end-to-end; {!paper_domain} is the verbatim hyper-exponential
    [D(B) = P(E{^i}(B))] shape for static analysis. *)

open Balg

val marker : string
val window_ty : Ty.t

val literal_domain : int -> Expr.t
(** Integer-bags [1..m], wrapped in 1-tuples. *)

val paper_domain : int -> Expr.t -> Expr.t
(** [paper_domain i b]: the Thm 6.1 domain [P(E{^i}(b))], wrapped. *)

val space_expr : domain:Expr.t -> Turing.Tm.t -> Expr.t
(** The candidate-cell bag [D × D × A × (Q ∪ {g})]. *)

val enc_value : Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> Expr.t
(** [enc(B)]: the bag containing the single legal initial tape. *)

val move_windows : domain:Expr.t -> Turing.Tm.t -> Expr.t
(** [M(B)]: one [<before-window, after-window>] pair per move and position,
    built by MAPping over the domain as in the proof. *)

val tm_expr :
  domain:Expr.t -> Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> Expr.t
(** The full expression; nonempty iff an accepting run exists within the
    domain bounds. *)

val tm_expr_literal : Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> Expr.t

val tm_expr_paper :
  i:int -> Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> Expr.t
(** Verbatim paper shape over a free input bag [B]; for analysis only. *)

val accepts :
  ?limits:Budget.limits -> Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> bool
(** Evaluates the literal-domain expression under [limits] (default
    {!Budget.default}).
    @raise Failure with the verdict when the budget runs out. *)
