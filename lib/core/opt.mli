(** Cost-based plan optimisation: property-driven rewrites between
    [check] and evaluation.

    Three optimiser-specific rewrite families — dead-column pruning
    through [MAP]/π/[nest], extraction of keyed hash joins
    ({!Expr.Join}) from selection-over-product shapes, and
    selection/aggregate pushdown through [MAP] — run together with the
    sound laws of {!Rewrite} (less the cost-symmetric AC orientation
    rules, which no cost comparison could accept).  In {!Cost} mode
    {!Rewrite.drive} walks the plan and each candidate it proposes is
    gated by a cost model over {!Props} estimates with per-engine kernel
    constants; {!Off} is the identity.  Optimised plans are bit-identical
    to the originals on both engines (property-tested in
    [test/test_opt.ml]).

    The [opt.rewrite] fault site aborts the remaining planning work when
    it fires, shipping the expression as-is: an armed optimiser can lose
    speed but never correctness. *)

type mode = Off | Cost

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

val default_mode : unit -> mode
(** [BALG_OPT] env var ([off]/[cost]); unknown values and an
    unset variable mean {!Off}. *)

val invert_cost : bool ref
(** Test-only: invert the cost objective so only cost-{e increasing}
    rewrites are accepted.  The bench gate's self-test uses this to prove
    a deliberately-miscosted planner trips the regression gate. *)

val rules : Rewrite.rule list
(** The optimiser-specific families, each named for the decision log:
    [join-extract], [select-through-proj], [prune-map-product],
    [prune-nest-keys], [ones-pushdown]. *)

val cost : ?vals:(string * Value.t) list -> Veval.engine -> Typecheck.env -> Expr.t -> float
(** Estimated execution cost: per-node kernel work charged against
    {!Props} row estimates, with cheaper constants for shapes the
    vectorized engine runs as flat-array kernels (a map/select body is
    one exactly when {!Veval.vectorizes} holds).  Binder bodies are
    costed under {!Rewrite.body_env}, the environment the planner typed
    them in, so a bound variable costs the same in a decision as in the
    report's input and output lines.  Row estimates consult
    the ambient {!Calib.current} correction factors (fed by
    [explain --analyze] via [BALG_CALIB]), so a measured calibration
    shifts costs — and possibly plan choices — while every candidate
    rewrite stays sound: results are bit-identical with or without
    calibration. *)

(** One candidate rewrite considered by the planner. *)
type decision = {
  d_rule : string;
  d_before : Expr.t;
  d_after : Expr.t;
  d_cost_before : float;
  d_cost_after : float;
  d_accepted : bool;
}

(** What the planner did, for [balgi explain]. *)
type report = {
  r_mode : mode;
  r_engine : Veval.engine;
  r_input : Expr.t;
  r_output : Expr.t;
  r_decisions : decision list;
  r_faulted : bool;  (** the [opt.rewrite] fault cut planning short *)
}

val optimize :
  ?vals:(string * Value.t) list ->
  ?engine:Veval.engine ->
  mode ->
  Typecheck.env ->
  Expr.t ->
  Expr.t * report
(** {!Rewrite.drive} with a cost-gated acceptance step: rewrite to a
    (bounded) fixpoint, recording every accepted and rejected candidate
    (the first 200).  [vals] feeds actual relation contents to the
    property inference for exact leaf cardinalities. *)

val prepare :
  ?vals:(string * Value.t) list ->
  ?engine:Veval.engine ->
  mode ->
  Typecheck.env ->
  Expr.t ->
  Expr.t
(** {!optimize} for the evaluation path: never raises — any planning
    failure returns the expression unchanged. *)

val report_to_string :
  ?vals:(string * Value.t) list -> Typecheck.env -> report -> string
(** The [balgi explain] rendering.  Its input/output cost and {!Props}
    lines are computed here, so planning never pays for them. *)
