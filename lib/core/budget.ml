(* The resource governor: a running account of evaluation work against a
   set of limits.  See budget.mli for the model. *)

type resource =
  | Fuel
  | Support
  | Size
  | Count_digits
  | Fix_steps
  | Deadline
  | Cancelled
  | Injected

let resource_to_string = function
  | Fuel -> "fuel"
  | Support -> "support"
  | Size -> "size"
  | Count_digits -> "count-digits"
  | Fix_steps -> "fix-steps"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"
  | Injected -> "injected-fault"

type limits = {
  fuel : int;
  max_support : int;
  max_size : int;
  max_count_digits : int;
  max_fix_steps : int;
  deadline_s : float option;
}

let unlimited =
  {
    fuel = max_int;
    max_support = max_int;
    max_size = max_int;
    max_count_digits = max_int;
    max_fix_steps = max_int;
    deadline_s = None;
  }

let default =
  {
    unlimited with
    max_support = 2_000_000;
    max_count_digits = 10_000;
    max_fix_steps = 100_000;
  }

type exhaustion = {
  resource : resource;
  at_node : int;
  op : string;
  spent : int;
  limit : int;
}

exception Budget_exceeded of exhaustion

let pp_amount n = if n = max_int then "unbounded" else string_of_int n

let exhaustion_to_string x =
  match x.resource with
  | Cancelled ->
      Printf.sprintf "evaluation cancelled after %s fuel" (pp_amount x.spent)
  | Injected ->
      Printf.sprintf "injected fault (site %s) at node %d" x.op x.at_node
  | _ ->
      Printf.sprintf "budget exhausted: %s at node %d (%s): spent %s, limit %s"
        (resource_to_string x.resource)
        x.at_node x.op (pp_amount x.spent) (pp_amount x.limit)

type t = {
  limits : limits;
  mutable started : float;  (** wall-clock origin of the deadline *)
  mutable deadline : float;  (** absolute deadline, [infinity] when none *)
  mutable armed : bool;  (** {!arm} has started the deadline clock *)
  fuel_spent : int Atomic.t;
  ticks : int Atomic.t;  (** charge counter, paces the deadline probes *)
  tripped : exhaustion option Atomic.t;
      (** first verdict, kept at the minimum preorder node id so a
          cancel from another thread (node 0) outranks a verdict that
          races in after it *)
}

(* Probe the wall clock only every [deadline_stride] charges: a
   gettimeofday per compiled-closure invocation would be measurable on the
   memo-hit fast path. *)
let deadline_stride = 32

(* Account creation and clock start are split so a request can sit in an
   admission queue without burning its deadline: an unarmed account has
   [deadline = infinity], so every deadline probe passes until {!arm}
   pins the clock to the dequeue instant.  [started] is still set here so
   [elapsed_ms] reports something sensible for never-armed accounts. *)
let create limits =
  {
    limits;
    started = Unix.gettimeofday ();
    deadline = infinity;
    armed = false;
    fuel_spent = Atomic.make 0;
    ticks = Atomic.make 0;
    tripped = Atomic.make None;
  }

let arm t =
  if not t.armed then begin
    t.armed <- true;
    let now = Unix.gettimeofday () in
    t.started <- now;
    t.deadline <-
      (match t.limits.deadline_s with None -> infinity | Some s -> now +. s)
  end

let armed t = t.armed

let start limits =
  let t = create limits in
  arm t;
  t

let limits t = t.limits
let fuel_spent t = Atomic.get t.fuel_spent
let verdict t = Atomic.get t.tripped

(* Publish the verdict before raising, keeping the smallest node id: the
   candidate is CASed in unless a strictly earlier (preorder) node — or a
   cancel, at node 0 — already won. *)
let exceeded t resource ~node ~op ~spent ~limit =
  let x = { resource; at_node = node; op; spent; limit } in
  let rec publish () =
    match Atomic.get t.tripped with
    | Some y when y.at_node <= x.at_node -> ()
    | cur -> if not (Atomic.compare_and_set t.tripped cur (Some x)) then publish ()
  in
  publish ();
  if Obs.on () then Obs.emit Obs.I ~cat:"budget" ~name:(resource_to_string resource) ~args:[ ("node", Obs.Int node); ("op", Obs.Str op); ("spent", Obs.Int spent); ("limit", Obs.Int limit) ];
  raise (Budget_exceeded x)

let elapsed_ms t = int_of_float ((Unix.gettimeofday () -. t.started) *. 1e3)

let deadline_ms t =
  match t.limits.deadline_s with
  | None -> max_int
  | Some s -> int_of_float (s *. 1e3)

let check_deadline t ~node ~op =
  if t.deadline < infinity && Unix.gettimeofday () > t.deadline then
    exceeded t Deadline ~node ~op ~spent:(elapsed_ms t) ~limit:(deadline_ms t)

(* Cooperative cancellation: publish a [Cancelled] verdict into the shared
   [tripped] slot.  The evaluation already consults that slot on its next
   fuel charge, so the flag propagates at fuel-charge granularity with no
   cost added to the hot path.  At node
   id 0 the verdict outranks any real exhaustion that races in later (the
   smallest-node-id rule), while a verdict published {e before} the cancel
   stands — evaluation was already unwinding.

   No trace event here: [cancel] may run inside a signal handler, where
   taking the ring-registration mutex could deadlock against an
   interrupted emitter.  The evaluator's run-end instant records the
   Cancelled verdict instead. *)
let cancel t =
  let x =
    {
      resource = Cancelled;
      at_node = 0;
      op = "(cancelled)";
      spent = Atomic.get t.fuel_spent;
      limit = 0;
    }
  in
  ignore (Atomic.compare_and_set t.tripped None (Some x))

let cancelled t =
  match Atomic.get t.tripped with
  | Some { resource = Cancelled; _ } -> true
  | _ -> false

(* One fetch-and-add on the shared account; a wrap past [max_int] (only
   reachable with unlimited fuel after ~2^62 charges) is pinned back to
   [max_int] — the benign race on that correction cannot un-trip a finite
   limit, which is checked against the pre-wrap sum.

   The fuel is spent {e before} the tripped/cancelled consultation: the
   evaluator mirrors every charge into its telemetry span first, so
   raising after the fetch-and-add keeps the steps == fuel invariant exact
   even on the charge that observes a cancellation. *)
let charge t ~node ~op n =
  let spent = Atomic.fetch_and_add t.fuel_spent n + n in
  (match Atomic.get t.tripped with
  | Some x -> raise (Budget_exceeded x)
  | None -> ());
  let spent =
    if spent < 0 then begin
      Atomic.set t.fuel_spent max_int;
      max_int
    end
    else spent
  in
  if spent > t.limits.fuel then
    exceeded t Fuel ~node ~op ~spent ~limit:t.limits.fuel;
  if t.deadline < infinity then
    if Atomic.fetch_and_add t.ticks 1 land (deadline_stride - 1) = 0 then
      check_deadline t ~node ~op

let check_support t ~node ~op n =
  if n > t.limits.max_support then
    exceeded t Support ~node ~op ~spent:n ~limit:t.limits.max_support

let check_size t ~node ~op n =
  if n > t.limits.max_size then
    exceeded t Size ~node ~op ~spent:n ~limit:t.limits.max_size

let check_count_digits t ~node ~op n =
  if n > t.limits.max_count_digits then
    exceeded t Count_digits ~node ~op ~spent:n ~limit:t.limits.max_count_digits

let check_fix_steps t ~node ~op n =
  if n > t.limits.max_fix_steps then
    exceeded t Fix_steps ~node ~op ~spent:n ~limit:t.limits.max_fix_steps
