(** EXPLAIN ANALYZE for bag-algebra queries: measured-vs-estimated rows
    per operator, read off the {!Telemetry} spans of one governed
    {!Eval.run}, and the calibration table ({!Calib}) the comparison
    induces.  Plain [balgi explain] prints the same spans
    ({!Telemetry.pp_tree}) or, under the vec engine, the executed
    {!Veval.plan}. *)

type annotated = {
  an_op : string;
  an_est : int;  (** {!Props.infer}'s (uncalibrated) row estimate *)
  an_exact : bool;  (** the estimate was exact, not heuristic *)
  an_actual : int;  (** measured max output support (span peak) *)
  an_calls : int;  (** span invocations, memo hits included *)
  an_engine : string option;  (** vec plan label under [--engine vec] *)
  an_children : annotated list;  (** in {!Expr.children} order *)
}

val analyze :
  ?limits:Budget.limits ->
  ?env:Eval.env ->
  ?vals:(string * Value.t) list ->
  tenv:Typecheck.env ->
  engine:Veval.engine ->
  Expr.t ->
  (Value.t * annotated, Budget.exhaustion) result
(** Evaluate under [limits] (default {!Budget.default}) and annotate every
    operator with its measured output support next to the raw
    {!Props.infer} estimate (ambient calibration deliberately bypassed —
    this measures the estimator).  The measurements are the spans of the
    governed tree run, by preorder node id.  Under [engine = Vec] a
    {!Veval.run} supplies the result value and per-subtree engine labels;
    results are bit-identical across engines.  [vals] should carry the
    database bindings so leaf estimates are exact.  An exhausted budget,
    a cancellation or an injected fault is the run's [Error] verdict.
    @raise Eval.Eval_error like the evaluator. *)

val calibration_of : annotated -> Calib.t
(** Condense an analysis into per-operator correction factors over the
    heuristic operators actually exercised. *)

val pp_analysis : Format.formatter -> annotated -> unit
(** The estimation-error table: one row per operator (tree-indented)
    with estimate, measurement, q-error, call count and engine label,
    then a median/max q-error summary. *)

val analysis_to_string : annotated -> string
