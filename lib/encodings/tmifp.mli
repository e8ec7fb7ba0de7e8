(** Theorem 6.6, executably: BALG{^2} + IFP simulates Turing machines.

    Configuration histories are bags of [<time, cell, symbol, state-or-g>]
    tuples with integer-bag time and cell indices; the inflationary fixpoint
    derives one time layer per iteration and stabilises exactly when the
    machine halts. *)

open Balg

val marker : string
(** The [g] marker for cells not under the head. *)

val cell_ty : Ty.t
val conf_ty : Ty.t

val seed_value : Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> Value.t
(** The literal time-1 configuration: input written from cell 1, blanks up
    to [space], head on cell 1 in the start state. *)

val step_expr : Turing.Tm.t -> Expr.t -> Expr.t
(** The fixpoint body: all applicable move rules of the machine applied to
    the history [x]. *)

val history_expr : Turing.Tm.t -> Expr.t
(** The full computation history as one IFP expression over the seed
    variable [B0]. *)

val accept_expr : Turing.Tm.t -> Expr.t
(** Nonempty iff the machine reaches its accepting state. *)

val final_tape_expr : Turing.Tm.t -> Expr.t
(** The fixpoint time layer, projected to [<cell, symbol, state>] — the
    output-decoding step of the proof. *)

val ones_output_expr : Turing.Tm.t -> Expr.t
(** Number of [1] symbols on the final tape, as an integer-bag. *)

val simulate :
  ?limits:Budget.limits -> Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> Value.t
(** Evaluates {!accept_expr} under [limits] (default {!Budget.default});
    [accepts] and [output_ones] likewise.
    @raise Failure with the verdict when the budget runs out. *)

val accepts :
  ?limits:Budget.limits -> Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> bool

val output_ones :
  ?limits:Budget.limits -> Turing.Tm.t -> space:int -> Turing.Tm.symbol list -> int

val type_env : Typecheck.env
(** Binds [B0 : conf_ty]. *)
