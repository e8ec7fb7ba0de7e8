(** Per-operator evaluation telemetry: a span tree mirroring the compiled
    expression.

    When an evaluation runs with a telemetry sink attached, every compiled
    node registers a {!span} (keyed by the same preorder node id the
    {!Budget} governor uses for attribution) and records per-invocation
    counters: invocations, governor steps charged, inclusive wall time,
    inclusive allocated words, peak result support / encoded-size tag /
    multiplicity / cardinality, and memo hits/misses.  The tree is what
    [balgi --stats] / [--trace] and [balgi explain] print, what
    [balgi explain --analyze] reads its measured column from, and what
    [bench/main.exe --json] folds into [BENCH_eval.json].

    Invariant (tested): {!total_steps} over a completed evaluation equals
    the governor's spent fuel — spans and the budget are charged by the
    same code path. *)

type span = {
  id : int;  (** compiled-closure node id (preorder, 1-based) *)
  op : string;  (** {!Expr.op_name} label *)
  mutable invocations : int;
  mutable steps : int;  (** governor fuel charged at this node *)
  mutable time_s : float;  (** inclusive wall time (children included) *)
  mutable alloc_words : float;  (** inclusive allocated words *)
  mutable peak_support : int;  (** largest result support seen *)
  mutable peak_size : int;  (** largest result {!Value.size_tag} seen *)
  mutable peak_count : Bignat.t;  (** largest multiplicity in a result *)
  mutable peak_cardinal : Bignat.t;  (** largest result cardinality *)
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable children : span list;  (** reverse registration order *)
}

type t

val create : unit -> t

val register : t -> parent:int -> id:int -> op:string -> span
(** Called by the evaluator while compiling; [parent = 0] marks a root. *)

val roots : t -> span list
(** Root spans in syntactic order. *)

val iter : t -> (span -> unit) -> unit

val find : t -> int -> span option
(** The span registered under a node id. *)

(** {1 Recording} (hot path; called from compiled closures) *)

val add_steps : span -> int -> unit
val record_result :
  span -> support:int -> size:int -> count:Bignat.t -> cardinal:Bignat.t -> unit
(** Fold one result into the span's peaks.  The vec engine passes
    {!Bignat.zero} for [count] and [cardinal] on columnar results. *)

val record_memo_hit : span -> unit
val record_memo_miss : span -> unit

(** {1 Aggregation} *)

val total_steps : t -> int
val total_invocations : t -> int

type agg = {
  a_op : string;
  a_spans : int;  (** distinct nodes with this operator *)
  a_invocations : int;
  a_steps : int;
  a_time_s : float;  (** inclusive wall time summed over the family *)
  a_alloc_words : float;
  a_peak_support : int;
  a_memo_hits : int;
  a_memo_misses : int;
}

type sort = By_steps | By_time | By_alloc

val per_op : ?sort:sort -> t -> agg list
(** One row per operator family, sorted descending by the chosen column
    (default {!By_steps}); ties break on the operator name. *)

(** {1 Rendering} *)

val pp_tree : ?trace:bool -> Format.formatter -> t -> unit
(** The span tree in evaluation (syntactic) order.  With [~trace:true],
    adds inclusive time, allocation and memo columns per span. *)

val to_string : ?trace:bool -> t -> string

val summary_json : t -> string
(** Compact one-line JSON object ({["{\"steps\": .., \"spans\": ..,
    \"peak_support\": ..}"]}) for embedding in BENCH_eval.json rows. *)
