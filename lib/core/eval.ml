(** The reference interpreter for BALG.

    Evaluation is exact: multiplicities are {!Bignat.t}s and every operator
    follows the §3 semantics literally.  Because the algebra can express
    queries of arbitrarily high hyper-exponential complexity (Prop 3.2,
    Thm 5.5), evaluation runs under a {!Budget} governor: step fuel,
    per-bag support, encoded-size and multiplicity-digit bounds, a fixpoint
    step bound and an optional wall-clock deadline, all checked at every
    compiled-closure boundary.  Exhaustion surfaces as a structured
    [Error (Budget.exhaustion)] from {!run}, locating the node where the
    account ran dry.

    The expression is {e compiled} to a closure tree before evaluation:
    each node gets a stable preorder id (the attribution key shared by the
    governor and the {!Telemetry} span tree), and operator nodes whose
    free variables are all {e stable} (not bound by a MAP/σ binder applied
    per element, nor by a fixpoint binder that changes every iteration) are
    backed by a memo table keyed by (node id, fingerprint of the free-var
    bindings).  [Fix]/[BFix] iteration and repeated [Let]-bound subqueries
    then hit cache instead of re-evaluating; the spans record hit/miss
    counts.

    [P]/[Pb] are charged for their {e expected} output support — the
    product of (multiplicity + 1) over the input, computed in O(support) —
    before anything is materialised, so a hyper-exponential powerset
    nesting is cut off by the fuel or support budget without allocating
    the intermediate bag.

    With a {!Telemetry} sink attached, every span records the largest
    result support, multiplicity and cardinality its node produced; the
    complexity experiments (E10, E11, E15) read the growth shapes claimed
    by Theorems 4.4, 5.1 and 6.2 off these peaks, and [balgi explain] is a
    view over the same spans.

    The per-node accounting below ([spend], [observe], [power_guard], the
    instrumented invocation and the run epilogue) is shared with {!Veval},
    which compiles to the same {!state}. *)

exception Eval_error of string

let error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

module Env = Map.Make (String)

type env = Value.t Env.t

let env_of_list l = List.fold_left (fun m (x, v) -> Env.add x v m) Env.empty l

(* ------------------------------------------------------------------ *)
(* Compilation to closures: budget governance, telemetry spans and
   memoisation of stable operator nodes.  Every closure runs on the
   calling domain, and the tree engine's own kernels are sequential: the
   pool in [state] is carried for the vec engine's kernels only. *)

type state = {
  budget : Budget.t;  (** atomic, so another thread can cancel the run *)
  run_id : int;  (** keys the per-domain memo tables *)
  telemetry : Telemetry.t option;  (** the sink, when one is attached *)
  pool : Pool.t option;  (** handed to the vec kernels only *)
  mutable obs_cell : int ref;
      (** fuel charged to the {e currently executing} node, for the trace
          exporter: each traced node invocation installs a fresh cell and
          its end event reports the cell's total, so summing the [steps]
          arg over all end events reproduces the spent fuel exactly (the
          trace-side mirror of the telemetry steps == fuel invariant).
          The cell is dynamically scoped — a state never leaves the
          calling domain, so a plain ref suffices. *)
  mutable peak_support : int;
      (** the governor's own peaks: [peak_support] feeds the per-run
          metric, [peak_count] gates the count-digit check to new peaks
          ([Bignat.digits] prints) *)
  mutable peak_count : Bignat.t;
}

type att = { id : int; op : string; sp : Telemetry.span option }

let attribute telemetry ~parent ~id ~op =
  let sp =
    match telemetry with
    | Some t -> Some (Telemetry.register t ~parent ~id ~op)
    | None -> None
  in
  { id; op; sp }

(* Injection site (see fault.mli): a fault at the evaluator's fuel-charge
   boundary — the finest-grained place evaluation can die — published as a
   located [Injected] verdict at the charging node.  The check precedes
   the telemetry mirror so a firing site records no steps it did not pay
   fuel for.  Both engines charge through here: one site, one knob. *)
let step_site = Fault.register "eval.step"

(* Every unit of fuel charged to the governor is mirrored into the node's
   span, so the span tree's total step count always equals the spent fuel
   (the --stats invariant, tested in test_budget.ml and test_parallel.ml). *)
let spend st att n =
  if Fault.fire step_site then
    Budget.exceeded st.budget Budget.Injected ~node:att.id
      ~op:(Fault.name step_site)
      ~spent:(Budget.fuel_spent st.budget) ~limit:0;
  (match att.sp with
  | Some sp -> Telemetry.add_steps sp n
  | None -> ());
  (* Mirror into the trace accumulator before [charge] can raise, for the
     same reason the telemetry mirror precedes it: the charge that trips
     the account must still appear in the exported steps. *)
  st.obs_cell := !(st.obs_cell) + n;
  Budget.charge st.budget ~node:att.id ~op:att.op n

(* Enforce the per-value budgets on a boxed result, record it in the span,
   and charge fuel proportional to the materialised support.  The
   cardinality is only computed for a sink. *)
let observe st att v =
  (match Value.view v with
  | Value.Bag pairs ->
      let support = ref 0 in
      let mc = ref Bignat.zero in
      List.iter
        (fun (_, c) ->
          incr support;
          if Bignat.compare c !mc > 0 then mc := c)
        pairs;
      let support = !support and mc = !mc in
      if support > st.peak_support then st.peak_support <- support;
      Budget.check_support st.budget ~node:att.id ~op:att.op support;
      if Bignat.compare mc st.peak_count > 0 then begin
        st.peak_count <- mc;
        Budget.check_count_digits st.budget ~node:att.id ~op:att.op
          (Bignat.digits mc)
      end;
      let size = Value.size_tag v in
      Budget.check_size st.budget ~node:att.id ~op:att.op size;
      (match att.sp with
      | Some sp ->
          Telemetry.record_result sp ~support ~size ~count:mc
            ~cardinal:(Value.cardinal v)
      | None -> ());
      spend st att support
  | Value.Atom _ | Value.Tuple _ -> (
      let size = Value.size_tag v in
      Budget.check_size st.budget ~node:att.id ~op:att.op size;
      match att.sp with
      | Some sp ->
          Telemetry.record_result sp ~support:0 ~size
            ~count:Bignat.zero ~cardinal:Bignat.zero
      | None -> ()));
  v

(* One node invocation with its instruments: the trace begin/end events
   around a fresh self-steps cell (balanced on the exception path too, so
   an exhausted or faulted run still exports a well-formed trace) and,
   with a sink, the span's invocation count plus inclusive wall time and
   allocation.  Engines call this only when [Obs.on] or a span is
   attached; their uninstrumented path is [spend]; [observe (raw ...)]
   inline, so the hot path pays no extra indirect call. *)
let invoke_instrumented ~observe st att raw env =
  let traced = Obs.on () in
  let saved = st.obs_cell in
  if traced then begin
    if Obs.on () then Obs.emit Obs.B ~cat:"eval" ~name:att.op ~args:[ ("node", Obs.Int att.id) ];
    st.obs_cell <- ref 0
  end;
  let close () =
    if traced then begin
      let cell = st.obs_cell in
      st.obs_cell <- saved;
      if Obs.on () then Obs.emit Obs.E ~cat:"eval" ~name:att.op ~args:[ ("node", Obs.Int att.id); ("steps", Obs.Int !cell) ]
    end
  in
  match
    spend st att 1;
    match att.sp with
    | None -> observe st att (raw st env)
    | Some sp -> (
        sp.Telemetry.invocations <- sp.Telemetry.invocations + 1;
        let t0 = Unix.gettimeofday () in
        let a0 = Gc.allocated_bytes () in
        let finish () =
          sp.Telemetry.time_s <-
            sp.Telemetry.time_s +. (Unix.gettimeofday () -. t0);
          sp.Telemetry.alloc_words <-
            sp.Telemetry.alloc_words
            +. ((Gc.allocated_bytes () -. a0) /. float (Sys.word_size / 8))
        in
        match raw st env with
        | v ->
            finish ();
            observe st att v
        | exception exn ->
            finish ();
            raise exn)
  with
  | v ->
      close ();
      v
  | exception exn ->
      close ();
      raise exn

(* Keep the table from growing without bound inside huge fixpoints; a reset
   loses cached work but never correctness. *)
let memo_capacity = 1 lsl 16

(* Per-domain memo tables, keyed off domain-local storage: a run reads and
   writes only its calling domain's table, so concurrent runs on Exec
   worker domains need no locks at all.  Tables are recycled across runs
   by tagging them with the run id: node ids restart at 1 for every
   compilation, so a stale entry from a previous run must never be
   visible. *)
type memo_tbl = (int * int, (Value.t option list * Value.t) list ref) Hashtbl.t

let memo_slot : (int ref * memo_tbl) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref (-1), Hashtbl.create 256))

let memo_table st : memo_tbl =
  let rid, tbl = Domain.DLS.get memo_slot in
  if !rid <> st.run_id then begin
    rid := st.run_id;
    Hashtbl.reset tbl (* domain-local: DLS table, never shared *)
  end;
  tbl

let binding_equal a b =
  match (a, b) with
  | None, None -> true
  | Some v, Some w -> Value.equal v w
  | None, Some _ | Some _, None -> false

let bindings_equal xs ys = List.for_all2 binding_equal xs ys

let fingerprint vals =
  List.fold_left
    (fun h v ->
      match v with
      | None -> (h * 0x01000193) lxor 0x5bd1e995
      | Some v -> (h * 0x01000193) lxor Value.hash v)
    0x811c9dc5 vals

type compiled = state -> env -> Value.t

type reg = { ctr : int ref; telemetry : Telemetry.t option }

(* An expected output beyond [int] range (reported as a saturated
   [max_int]) is impossible to materialise whatever the limits: a located
   [Support] verdict, the structured replacement for the old ad-hoc
   [Bag.Too_large] escape. *)
let too_large st att =
  let limit = (Budget.limits st.budget).Budget.max_support in
  Budget.exceeded st.budget Budget.Support ~node:att.id ~op:att.op
    ~spent:max_int ~limit

(* Charge a power operator for its expected output before materialising
   anything: a hyper-exponential [P(P(...))] tower dies here, on the fuel
   or support account, without allocating the intermediate bag.  After
   this guard passes, the (unguarded) kernel cannot overflow. *)
let power_guard st att b =
  let n = Bag.expected_subbags b in
  if n = max_int then too_large st att;
  Budget.check_deadline st.budget ~node:att.id ~op:att.op;
  Budget.check_support st.budget ~node:att.id ~op:att.op n;
  spend st att n

(* Inflationary iteration: X ↦ (step(X) ∪ X) [∩ bound].  With a bound the
   chain is increasing and bounded, hence terminating; without one the step
   budget applies (BALG + IFP is Turing complete, Thm 6.6).  The stability
   check benefits from the hash tags: unequal iterates refute in O(1).
   Both engines iterate here, on boxed values. *)
let iterate st att ~bound step seed =
  let clamp v = match bound with None -> v | Some b -> Bag.inter v b in
  let rec go steps current =
    Budget.check_fix_steps st.budget ~node:att.id ~op:att.op steps;
    Budget.check_deadline st.budget ~node:att.id ~op:att.op;
    let next = clamp (Bag.union_max (step current) current) in
    if Value.equal next current then current else go (steps + 1) next
  in
  go 0 (clamp seed)

(* [volatile] holds the binders whose bindings change per element or per
   fixpoint iteration; nodes mentioning them would only churn the table. *)
let rec compile reg ~parent volatile e : compiled =
  incr reg.ctr;
  let id = !(reg.ctr) in
  let att = attribute reg.telemetry ~parent ~id ~op:(Expr.op_name e) in
  let raw = compile_node reg ~att volatile e in
  let invoke =
    match att.sp with
    | None ->
        fun st env ->
          if Obs.on () then invoke_instrumented ~observe st att raw env
          else begin
            spend st att 1;
            observe st att (raw st env)
          end
    | Some _ -> fun st env -> invoke_instrumented ~observe st att raw env
  in
  let memoisable =
    match e with
    | Expr.Var _ | Expr.Lit _ | Expr.Tuple _ | Expr.Proj _ | Expr.Sing _ ->
        false
    | _ -> Expr.Vars.disjoint (Expr.free_vars e) volatile
  in
  if not memoisable then invoke
  else begin
    let fv = Expr.Vars.elements (Expr.free_vars e) in
    fun st env ->
      let vals = List.map (fun x -> Env.find_opt x env) fv in
      let key = (id, fingerprint vals) in
      let hit r =
        spend st att 1;
        (match att.sp with
        | Some sp ->
            sp.Telemetry.invocations <- sp.Telemetry.invocations + 1;
            Telemetry.record_memo_hit sp
        | None -> ());
        r
      in
      let compute () =
        (match att.sp with
        | Some sp -> Telemetry.record_memo_miss sp
        | None -> ());
        invoke st env
      in
      let memo = memo_table st in
      match Hashtbl.find_opt memo key with
      | Some entries -> (
          match
            List.find_opt (fun (vs, _) -> bindings_equal vs vals) !entries
          with
          | Some (_, r) -> hit r
          | None ->
              let r = compute () in
              entries := (vals, r) :: !entries;
              r)
      | None ->
          let r = compute () in
          if Hashtbl.length memo >= memo_capacity then
            Hashtbl.reset memo (* domain-local: DLS table, never shared *);
          Hashtbl.add memo key (ref [ (vals, r) ]) (* domain-local: DLS table *);
          r
  end

and compile_node reg ~att volatile e : compiled =
  let sub e = compile reg ~parent:att.id volatile e in
  let under x e = compile reg ~parent:att.id (Expr.Vars.add x volatile) e in
  let stable x e = compile reg ~parent:att.id (Expr.Vars.remove x volatile) e in
  (* Binary operators evaluate their operands right then left, the order
     exhaustion attribution has always followed. *)
  let bin a b kernel =
    let ca = sub a and cb = sub b in
    fun st env ->
      let vb = cb st env in
      let va = ca st env in
      kernel st va vb
  in
  match e with
  | Expr.Var x -> (
      fun _st env ->
        match Env.find_opt x env with
        | Some v -> v
        | None -> error "unbound variable %s" x)
  | Expr.Lit (v, _) -> fun _st _env -> v
  | Expr.Tuple es ->
      let cs = List.map sub es in
      fun st env -> Value.tuple (List.map (fun c -> c st env) cs)
  | Expr.Proj (i, e) -> (
      let c = sub e in
      fun st env ->
        let v = c st env in
        match Value.view v with
        | Value.Tuple vs when i >= 1 && i <= List.length vs ->
            List.nth vs (i - 1)
        | _ -> error "cannot project attribute %d of %s" i (Value.to_string v))
  | Expr.Sing e ->
      let c = sub e in
      fun st env -> Value.of_sorted_assoc [ (c st env, Bignat.one) ]
  | Expr.UnionAdd (a, b) -> bin a b (fun _st va vb -> Bag.union_add va vb)
  | Expr.Diff (a, b) -> bin a b (fun _st va vb -> Bag.diff va vb)
  | Expr.UnionMax (a, b) -> bin a b (fun _st va vb -> Bag.union_max va vb)
  | Expr.Inter (a, b) -> bin a b (fun _st va vb -> Bag.inter va vb)
  | Expr.Product (a, b) ->
      bin a b (fun _st va vb -> Bag.product va vb)
  | Expr.Join (i, j, a, b) ->
      bin a b (fun _st va vb -> Bag.join_eq i j va vb)
  | Expr.Powerset e ->
      let c = sub e in
      fun st env ->
        let b = c st env in
        power_guard st att b;
        Bag.powerset b
  | Expr.Powerbag e ->
      let c = sub e in
      fun st env ->
        let b = c st env in
        power_guard st att b;
        Bag.powerbag b
  | Expr.Destroy e ->
      let c = sub e in
      fun st env -> Bag.destroy (c st env)
  (* Generalized projection MAP λx.<α_{i1}(x), ...> runs as the direct
     {!Bag.proj} kernel; on malformed data ([Invalid_argument]) the generic
     closure replays the bag so error behaviour is unchanged. *)
  | Expr.Map (x, body, e0) -> (
      let cbody = under x body and c = sub e0 in
      let generic st env b = Bag.map (fun v -> cbody st (Env.add x v env)) b in
      match Expr.as_proj e with
      | Some (ixs, _) ->
          fun st env ->
            let b = c st env in
            (try Bag.proj ixs b
             with Invalid_argument _ -> generic st env b)
      | None -> fun st env -> generic st env (c st env))
  (* σ_{i=j}: positional-equality selection runs as {!Bag.select_eq}, with
     the same generic fallback on malformed data. *)
  | Expr.Select
      ( x,
        (Expr.Proj (i, Expr.Var x1) as l),
        (Expr.Proj (j, Expr.Var x2) as r),
        e )
    when x1 = x && x2 = x ->
      let cl = under x l and cr = under x r and c = sub e in
      fun st env ->
        let b = c st env in
        (try Bag.select_eq i j b
         with Invalid_argument _ ->
           Bag.select
             (fun v ->
               let env' = Env.add x v env in
               Value.equal (cl st env') (cr st env'))
             b)
  | Expr.Select (x, l, r, e) ->
      let cl = under x l and cr = under x r and c = sub e in
      fun st env ->
        Bag.select
          (fun v ->
            let env' = Env.add x v env in
            Value.equal (cl st env') (cr st env'))
          (c st env)
  | Expr.Dedup e ->
      let c = sub e in
      fun st env -> Bag.dedup (c st env)
  | Expr.Nest (ixs, e) ->
      let c = sub e in
      fun st env -> Bag.nest ixs (c st env)
  | Expr.Unnest (i, e) ->
      let c = sub e in
      fun st env -> Bag.unnest i (c st env)
  | Expr.Let (x, e, body) ->
      let c = sub e and cbody = stable x body in
      fun st env -> cbody st (Env.add x (c st env) env)
  | Expr.Fix (x, body, seed) ->
      let cbody = under x body and cseed = sub seed in
      fun st env ->
        iterate st att ~bound:None (fun v -> cbody st (Env.add x v env)) (cseed st env)
  | Expr.BFix (bound, x, body, seed) ->
      let cbound = sub bound and cbody = under x body and cseed = sub seed in
      fun st env ->
        let bound = cbound st env in
        iterate st att ~bound:(Some bound)
          (fun v -> cbody st (Env.add x v env))
          (cseed st env)

(* ------------------------------------------------------------------ *)
(* Entry points. *)

type run_metrics = {
  runs : Metrics.counter;
  ok : Metrics.counter;
  verdicts : Metrics.counter;
  fuel : Metrics.histogram;
  run_ns : Metrics.histogram;
  peak_support : Metrics.histogram option;
}

let metrics =
  let r = Metrics.default in
  {
    runs = Metrics.counter r "balg_eval_runs_total" ~help:"Evaluations started";
    ok =
      Metrics.counter r "balg_eval_ok_total"
        ~help:"Evaluations that returned a value";
    verdicts =
      Metrics.counter r "balg_eval_verdicts_total"
        ~help:"Evaluations that ended in a structured exhaustion verdict";
    fuel = Metrics.histogram r "balg_eval_fuel" ~help:"Fuel spent per evaluation";
    run_ns =
      Metrics.histogram r "balg_eval_run_ns"
        ~help:"Wall time per evaluation in nanoseconds";
    peak_support =
      Some
        (Metrics.histogram r "balg_eval_peak_support"
           ~help:"Largest intermediate bag support per evaluation");
  }

(* Close the run's trace span and record its metrics — on every exit path,
   verdicts included: the final instant event carries the outcome and the
   spent fuel, which is what scripts/check_trace.sh reconciles against the
   per-node step counts. *)
let finish_run m st t0 outcome_args =
  Metrics.observe m.fuel (Budget.fuel_spent st.budget);
  Metrics.observe m.run_ns (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
  Option.iter (fun h -> Metrics.observe h st.peak_support) m.peak_support;
  if Obs.on () then Obs.emit Obs.E ~cat:"eval" ~name:"run" ~args:[ ("steps", Obs.Int !(st.obs_cell)) ];
  if Obs.on () then Obs.emit Obs.I ~cat:"eval" ~name:"done" ~args:(("fuel", Obs.Int (Budget.fuel_spent st.budget)) :: outcome_args)

let verdict m st t0 (x : Budget.exhaustion) =
  Metrics.incr m.verdicts;
  finish_run m st t0
    [
      ("outcome", Obs.Str "verdict");
      ("resource", Obs.Str (Budget.resource_to_string x.Budget.resource));
      ("node", Obs.Int x.Budget.at_node);
      ("op", Obs.Str x.Budget.op);
    ];
  Error x

(* Distinct run ids recycle the per-domain memo tables between runs. *)
let run_ids = Atomic.make 1

let govern m ?budget ?limits ?telemetry ?pool ?engine e f =
  let budget =
    match (budget, limits) with
    | Some b, _ -> b
    | None, Some l -> Budget.start l
    | None, None -> Budget.start Budget.default
  in
  let st =
    {
      budget;
      run_id = Atomic.fetch_and_add run_ids 1;
      telemetry;
      pool;
      obs_cell = ref 0;
      peak_support = 0;
      peak_count = Bignat.zero;
    }
  in
  Metrics.incr m.runs;
  let t0 = Unix.gettimeofday () in
  if Obs.on () then Obs.set_trace_id st.run_id;
  let engine_arg =
    match engine with Some name -> [ ("engine", Obs.Str name) ] | None -> []
  in
  if Obs.on () then Obs.emit Obs.B ~cat:"eval" ~name:"run" ~args:(("run", Obs.Int st.run_id) :: ("size", Obs.Int (Expr.size e)) :: engine_arg);
  match f st with
  | v ->
      Metrics.incr m.ok;
      finish_run m st t0 [ ("outcome", Obs.Str "ok") ];
      Ok v
  | exception Budget.Budget_exceeded x ->
      (* A concurrent [Budget.cancel] can publish its verdict between this
         run's check and its raise; the published verdict (kept at the
         smallest node id) is the one to report. *)
      verdict m st t0
        (match Budget.verdict st.budget with Some y -> y | None -> x)
  | exception Fault.Injected site ->
      (* An injected failure below the evaluator's attribution (a kernel
         allocation point, a pool task): structured verdict at node 0 —
         "before/outside any node" — carrying the site name.  The faults
         the evaluator can locate (eval.step) arrive as Budget_exceeded
         above instead. *)
      verdict m st t0
        { Budget.resource = Budget.Injected; at_node = 0; op = site;
          spent = 0; limit = 0 }
  | exception exn ->
      (* A caller bug (Eval_error, ...) still closes the trace span before
         propagating, so the export stays balanced. *)
      finish_run m st t0 [ ("outcome", Obs.Str "exception") ];
      raise exn

let run ?budget ?limits ?telemetry env e =
  let compiled =
    compile { ctr = ref 0; telemetry } ~parent:0 Expr.Vars.empty e
  in
  govern metrics ?budget ?limits ?telemetry e (fun st -> compiled st env)

(** Boolean convention for queries: a result is true when the output bag is
    nonempty (cf. Example 4.1's [≠ ∅] tests). *)
let truthy v =
  match Value.view v with
  | Value.Bag [] -> false
  | Value.Bag _ -> true
  | Value.Atom _ | Value.Tuple _ ->
      error "truthiness of a non-bag value %s" (Value.to_string v)
