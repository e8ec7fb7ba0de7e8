(** The resource governor for evaluation.

    The algebra contains queries of arbitrarily high hyper-exponential
    complexity (Prop 3.2, Thm 6.2), so a production evaluator must {e govern}
    resources rather than hope a guard fires in time.  A {!t} is a running
    account against a set of {!limits}: step fuel (abstract work units —
    one per compiled-closure invocation plus one per distinct element of
    every materialised intermediate bag, with [P]/[Pb] charged for their
    expected output {e before} materialisation), a bound on the encoded
    size of any intermediate value (via the O(1) {!Value.size_tag}), a
    bound on materialised support, a bound on multiplicity digits, a
    fixpoint step bound, and an optional wall-clock deadline.

    Exhaustion is reported as a structured {!exhaustion} record naming the
    resource, the evaluator node (id and operator label) where the account
    ran dry, and the spent/limit figures — the evaluator's [run] entry
    point returns it as an [Error], replacing the ad-hoc [Bag.Too_large]
    guard with a located, machine-readable verdict. *)

type resource =
  | Fuel  (** step fuel: closure invocations + materialised support *)
  | Support  (** distinct elements of a single intermediate bag *)
  | Size  (** encoded-size tag of an intermediate value *)
  | Count_digits  (** decimal digits of a single multiplicity *)
  | Fix_steps  (** iterations of one [Fix]/[BFix] loop *)
  | Deadline  (** wall-clock milliseconds since {!start} *)
  | Cancelled  (** {!cancel} was called (Ctrl-C, a client gone away) *)
  | Injected  (** a {!Fault} injection site fired; [op] names the site *)

val resource_to_string : resource -> string

type limits = {
  fuel : int;  (** total step fuel; [max_int] = unlimited *)
  max_support : int;  (** bound on distinct elements per bag *)
  max_size : int;  (** bound on {!Value.size_tag} of any result *)
  max_count_digits : int;  (** bound on decimal digits of any multiplicity *)
  max_fix_steps : int;  (** bound on fixpoint iterations *)
  deadline_s : float option;  (** wall-clock seconds from {!start} *)
}

val unlimited : limits
(** Every bound at [max_int], no deadline. *)

val default : limits
(** The evaluator's historical tractability guard: support 2,000,000,
    10,000 multiplicity digits, 100,000 fixpoint steps; fuel, size and
    deadline unlimited. *)

type exhaustion = {
  resource : resource;
  at_node : int;  (** compiled-closure node id (preorder, 1-based) *)
  op : string;  (** {!Expr.op_name} of that node *)
  spent : int;  (** account balance when the limit was crossed *)
  limit : int;
}

exception Budget_exceeded of exhaustion
(** Internal control-flow signal; the evaluator catches it at the API
    boundary and returns the payload as an [Error].  Never escapes
    [Eval.run]. *)

val exhaustion_to_string : exhaustion -> string

type t
(** A running account.  One [t] governs one evaluation.  The accounts are
    {!Atomic.t} counters so that {!cancel} can reach a running evaluation
    from another thread or domain.  Only the evaluation's calling domain
    charges them (the vec engine's pooled kernels charge nothing), so a
    pooled run cuts off at exactly the sequential run's spend. *)

val create : limits -> t
(** Open the account with the deadline clock {e unarmed}: fuel, support
    and the other bounds are live immediately, but every deadline probe
    passes until {!arm} starts the clock.  This is the constructor for
    work that may {e wait} before it runs — a request parked in an
    admission queue must not burn wall-clock deadline it never got to
    spend on evaluation. *)

val arm : t -> unit
(** Start the deadline clock now ([deadline_s] counts from this call).
    Idempotent; the first call wins.  Must happen-before evaluation on
    the domain that will charge the account (the same discipline as
    handing the account to a pool). *)

val armed : t -> bool

val start : limits -> t
(** [create] + [arm]: open the account with the deadline clock already
    running — the right constructor when evaluation begins immediately. *)

val limits : t -> limits
val fuel_spent : t -> int

val verdict : t -> exhaustion option
(** The published exhaustion verdict, if the account has tripped.  A
    {!cancel} from another thread can race the evaluation's own verdict;
    the stored verdict is kept at the {e smallest} preorder node id, so
    a cancel (node 0) outranks a verdict published after it. *)

val cancel : t -> unit
(** Cooperatively cancel the evaluation this account governs: publishes a
    {!Cancelled} verdict (unless a verdict already exists) that the
    evaluation observes at its next fuel charge and unwinds from — the hook a
    SIGINT handler or a disconnecting client calls.  Safe from a signal
    handler or another domain; idempotent. *)

val cancelled : t -> bool
(** True iff the published verdict is a {!Cancelled} one. *)

val exceeded : t -> resource -> node:int -> op:string -> spent:int -> limit:int -> 'a
(** Publish the verdict (minimum node id wins) and raise
    {!Budget_exceeded} for this account. *)

val charge : t -> node:int -> op:string -> int -> unit
(** Spend [n] fuel units attributed to the given node.  Saturating; checks
    the wall-clock deadline every few dozen charges, and consults the
    published verdict — so a {!cancel} unwinds the evaluation at its
    next charge.
    @raise Budget_exceeded on fuel exhaustion, a passed deadline, or an
    already-published verdict. *)

val check_deadline : t -> node:int -> op:string -> unit
(** Unconditional deadline check (used at fixpoint iterations and before
    powerset materialisation, where single steps can be long). *)

val check_support : t -> node:int -> op:string -> int -> unit
val check_size : t -> node:int -> op:string -> int -> unit
val check_count_digits : t -> node:int -> op:string -> int -> unit
val check_fix_steps : t -> node:int -> op:string -> int -> unit
