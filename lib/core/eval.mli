(** The reference interpreter: exact §3 semantics under a {!Budget}
    governor.

    The algebra deliberately contains queries of arbitrarily high
    hyper-exponential complexity (Prop 3.2, Thm 5.5), so evaluation runs
    under configurable resource limits — step fuel, per-bag support,
    encoded size, multiplicity digits, fixpoint steps, wall-clock deadline
    — checked at every compiled-closure boundary.  {!run} reports
    exhaustion as a structured [Error] locating the node that ran dry.  An
    optional {!Telemetry.t} sink collects a per-operator span tree whose
    peaks — the largest intermediate support, multiplicity and cardinality
    per node — are the observable the complexity experiments measure and
    the figures [balgi explain] prints. *)

exception Eval_error of string

module Env : Map.S with type key = string

type env = Value.t Env.t

val env_of_list : (string * Value.t) list -> env

val run :
  ?budget:Budget.t ->
  ?limits:Budget.limits ->
  ?telemetry:Telemetry.t ->
  env ->
  Expr.t ->
  (Value.t, Budget.exhaustion) result
(** Governed evaluation.  A pre-started [?budget] takes precedence over
    [?limits] (pass one to inspect {!Budget.fuel_spent} afterwards);
    with neither, {!Budget.default} applies.  Budget exhaustion — including
    what used to surface as the ad-hoc [Bag.Too_large] — returns as a
    located [Error]; no budget-related exception escapes.  The same holds
    for the two adversity channels: {!Budget.cancel} during evaluation
    returns a [Cancelled] verdict (checked at every fuel charge, on every
    domain), and a firing {!Fault} injection site — [eval.step],
    [bag.alloc] — returns an [Injected] verdict naming the
    site, located at the charging node when the evaluator can attribute
    it.  The only exception [run] raises is {!Eval_error} (a dynamic type
    error or unbound variable: caller bugs, not resource adversity).

    The tree engine is sequential: it takes no pool, and every kernel
    and compiled closure runs on the calling domain.  It is the reference
    the pooled vec engine is checked against (test_parallel.ml).
    @raise Eval_error on dynamic type errors or unbound variables. *)

val truthy : Value.t -> bool
(** The boolean convention of the paper's example queries: a bag result is
    true iff nonempty.  @raise Eval_error on non-bag values. *)

(** {1 Engine internals}

    The per-node governance both engines share: {!Veval} compiles to the
    same {!state} and calls these functions directly, so fuel, fault,
    observation, trace and run-epilogue behaviour has one definition.
    Not for use outside the engines. *)

type state = private {
  budget : Budget.t;
  run_id : int;
  telemetry : Telemetry.t option;
  pool : Pool.t option;  (** passed to the vec kernels, never to closures *)
  mutable obs_cell : int ref;
  mutable peak_support : int;
  mutable peak_count : Bignat.t;
}

type att = { id : int; op : string; sp : Telemetry.span option }
(** One compiled node: preorder id, operator label, span when a sink is
    attached. *)

val attribute :
  Telemetry.t option -> parent:int -> id:int -> op:string -> att
(** Attribute a node being compiled, registering its span in the sink. *)

val spend : state -> att -> int -> unit
(** Charge fuel at a node: the [eval.step] fault site, the span and trace
    mirrors, then the governor. *)

val observe : state -> att -> Value.t -> Value.t
(** Check a boxed result against the per-value budgets, record it in the
    span and charge its support. *)

val too_large : state -> att -> 'a
(** The located [Support] verdict for an output beyond [int] range. *)

val power_guard : state -> att -> Value.t -> unit
(** Charge [P]/[Pb] for their expected output before materialising it. *)

val iterate :
  state -> att -> bound:Value.t option -> (Value.t -> Value.t) -> Value.t -> Value.t
(** Inflationary iteration from a seed, under the fixpoint and deadline
    accounts. *)

val invoke_instrumented :
  observe:(state -> att -> 'a -> 'a) ->
  state ->
  att ->
  (state -> 'e -> 'a) ->
  'e ->
  'a
(** One node invocation with trace events and span timing; engines take
    this path only when tracing is on or a sink is attached. *)

type run_metrics = {
  runs : Metrics.counter;
  ok : Metrics.counter;
  verdicts : Metrics.counter;
  fuel : Metrics.histogram;
  run_ns : Metrics.histogram;
  peak_support : Metrics.histogram option;
}

val govern :
  run_metrics ->
  ?budget:Budget.t ->
  ?limits:Budget.limits ->
  ?telemetry:Telemetry.t ->
  ?pool:Pool.t ->
  ?engine:string ->
  Expr.t ->
  (state -> 'a) ->
  ('a, Budget.exhaustion) result
(** Run a compiled evaluation of [e] on a fresh state (budget chosen as in
    {!run}; [?pool] is the vec engine's, for its kernels): the run's trace
    span and metrics, and the classification of
    its outcome — a value, a budget verdict (the published one), an
    injected fault below node attribution (a verdict at node 0), or a
    re-raised caller bug. *)
