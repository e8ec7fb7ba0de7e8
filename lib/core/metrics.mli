(** A process-wide metrics registry: counters, gauges and log-bucketed
    latency histograms, with a Prometheus-text snapshot.

    Metrics are the {e aggregated} observability surface next to the
    {!Obs} event stream: an event tells you what happened once, a metric
    tells you the distribution over a whole run (or a whole service
    lifetime).  All instruments are safe to update from any domain — a
    counter bump is one [Atomic.fetch_and_add], a histogram observation
    two — so the evaluator, the pool, the fault registry and the server's
    worker domains update them directly.

    {b Buckets.}  Histograms are log-bucketed with eight sub-buckets per
    octave (values below 16 are exact), giving ~12.5% relative resolution
    over the full [int] range with a fixed 512-slot table.  Percentiles
    (p50/p90/p99, any quantile) are read back as the upper bound of the
    bucket holding that rank — the standard HDR-style approximation.

    {b Naming.}  Follow Prometheus conventions: [snake_case], a unit
    suffix ([_ns], [_total]), a [balg_] prefix for the engine's own
    instruments.  Registration is idempotent: asking twice for the same
    name returns the same instrument (like {!Fault.register}). *)

type t
(** A registry: a named collection of instruments. *)

val create : unit -> t

val default : t
(** The engine's shared registry; [balgi eval --metrics] snapshots it. *)

(** {1 Counters} *)

type counter

val counter : ?help:string -> t -> string -> counter
(** Find-or-create.  A counter only goes up. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : ?help:string -> t -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : ?help:string -> t -> string -> histogram

val observe : histogram -> int -> unit
(** Record one (non-negative) observation, e.g. nanoseconds or fuel
    steps.  Negative values clamp to 0. *)

val hist_count : histogram -> int
val hist_sum : histogram -> int

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0,1]: the upper bound of the bucket
    containing the [ceil (q * count)]-th smallest observation; [0.] when
    empty.  [q] outside [0,1] clamps. *)

(** {1 Snapshots} *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] headers, counters and
    gauges as single samples, histograms as cumulative [_bucket{le=..}]
    series (non-empty buckets only) plus [_sum]/[_count], and a
    [# percentiles] comment line with p50/p90/p99 per histogram.
    Instruments print in name order, so snapshots diff cleanly. *)

val reset : t -> unit
(** Zero every instrument (tests; a long-lived registry never resets). *)
