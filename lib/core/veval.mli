(** The vectorized execution engine: compiles BALG expressions to
    loop-free kernels over {!Vec} segmented flat vectors, falling back to
    the tree evaluator's data path per subtree when a node or a value does
    not fit the columnar layout ([Powerset]/[Powerbag], [Fix]/[BFix],
    heterogeneous bags) — so every query runs end-to-end under either
    engine.

    The engine threads the same production machinery as {!Eval}: budget
    fuel charged per kernel batch (the steps == fuel invariant holds per
    run, checked by [scripts/check_trace.sh] on traces), {!Obs} spans per
    node invocation, {!Telemetry} per-op counters, a [vec.alloc] {!Fault}
    site at kernel allocation points, and {!Pool} chunking of the
    selection and join kernels over contiguous column slices.  Results are bit-identical to {!Eval} — same canonical
    {!Value.t} including multiplicities and hash tags (the differential
    suite in [test/test_veval.ml]).

    Fuel differs from the tree engine in {e amount} (vec charges per
    materialised row batch, tree per distinct element), but both engines
    enforce the same support / count-digit / fixpoint budgets, so a query
    that exhausts a tight budget under one engine exhausts it under the
    other. *)

(** {1 Engine selection} *)

type engine = Tree | Vec

val engine_to_string : engine -> string

val engine_of_string : string -> engine option
(** Recognises ["tree"] and ["vec"] (case-insensitive). *)

val default_engine : unit -> engine
(** [Vec] when the [BALG_ENGINE] environment variable is set to [vec],
    [Tree] otherwise — the override honoured by the test suite's CI leg. *)

val vectorizes : Expr.var -> Expr.t -> bool
(** Whether a [map] body or [select] operand over the row variable [x]
    compiles to a column-wise scalar program (projections of [x],
    literals, tuples of these, the [ones] idiom); any other body runs on
    the tree path.  {!Opt.cost} charges vector constants exactly where
    this holds. *)

(** {1 Execution plans}

    Which engine ran each subtree: every compiled node carries a label —
    [vec:<kernel>] when the columnar kernel ran, [tree] when the node
    compiles to the tree data path, and [tree (fallback)] when a vec
    kernel was planned but demoted at runtime (unsupported shape). *)

type plan = {
  p_id : int;  (** preorder node id, shared with telemetry/budget *)
  p_op : string;  (** operator label ({!Expr.op_name}) *)
  mutable p_engine : string;
  mutable p_children : plan list;  (** in syntactic order *)
}

val plan_to_string : plan -> string

(** {1 Entry point}

    The mirror of {!Eval.run}: same optional machinery, same result and
    exception contract. *)

val run :
  ?budget:Budget.t ->
  ?limits:Budget.limits ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  ?report:(plan -> unit) ->
  ?columns:(string -> Value.t -> Vec.t option) ->
  Eval.env ->
  Expr.t ->
  (Value.t, Budget.exhaustion) result
(** [?report] receives the executed plan on every exit path — ok,
    verdict, or exception — after engine labels are final.

    [?columns name v] supplies the columnar form of the environment
    relation [name] (bound to [v]) the first time a kernel reads it, or
    [None] when [v] does not fit the columnar layout.  Without it every
    run imports the relations it reads with {!Vec.of_value}.  The vector
    may be shared with other runs on other domains: kernels only read
    their inputs, and the caller must publish the vector through a
    synchronising hand-off (a mutex) so its atom codes decode. *)

(** {1 Dispatch}

    One call site for both engines, so tests and tools honour
    [BALG_ENGINE] / [--engine] with a single switch.  Only the vec
    engine has a plan to [?report] and kernels to chunk over a [?pool];
    the tree engine is sequential and ignores both. *)

val run_engine :
  engine ->
  ?budget:Budget.t ->
  ?limits:Budget.limits ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  ?report:(plan -> unit) ->
  ?columns:(string -> Value.t -> Vec.t option) ->
  Eval.env ->
  Expr.t ->
  (Value.t, Budget.exhaustion) result
