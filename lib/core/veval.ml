(** The vectorized execution engine.

    Compilation mirrors {!Eval}: every AST node becomes a closure with a
    stable preorder id (the attribution key shared with the governor and
    the telemetry span tree), charged one unit of fuel per invocation plus
    the materialised support of its result.  The difference is the value
    representation: nodes exchange {e hybrid} values that are lazily
    convertible between the boxed {!Value.t} world and the columnar
    {!Vec.t} world, each direction memoised so a representation is built
    at most once per node result.  Kernel-capable nodes run the {!Vec}
    kernel when both operands convert; otherwise (or when a kernel raises
    {!Vec.Unsupported} on an awkward shape) they demote to the exact tree
    data path for that subtree — recorded in the execution plan as
    [tree (fallback)] so coverage is visible in [balgi explain].

    Budget parity: the support, count-digit, fixpoint and deadline
    accounts are enforced on vec results too (support against the
    coalesced row count, digits against the count column), so tight
    budgets exhaust under either engine; only the fuel {e amounts} differ
    because vec charges per row batch.  The steps == fuel trace invariant
    is preserved: every unit charged lands in the innermost traced node's
    cell exactly as in {!Eval}.

    Parallelism lives {e inside} the kernels ({!Vec.select_scalar} and
    {!Vec.join} chunk contiguous row ranges over the pool); the compiled
    closures themselves run on the calling domain, as in {!Eval}, so
    hybrid values are never shared across domains, their memoising
    mutation needs no locks, and a pooled run spends the sequential run's
    fuel. *)

type engine = Tree | Vec

let engine_to_string = function Tree -> "tree" | Vec -> "vec"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "tree" -> Some Tree
  | "vec" -> Some Vec
  | _ -> None

let default_engine () =
  match Sys.getenv_opt "BALG_ENGINE" with
  | Some s -> ( match engine_of_string s with Some e -> e | None -> Tree)
  | None -> Tree

type plan = {
  p_id : int;
  p_op : string;
  mutable p_engine : string;
  mutable p_children : plan list;
}

let plan_to_string p =
  let buf = Buffer.create 256 in
  let rec go indent p =
    Buffer.add_string buf
      (Printf.sprintf "%s%-14s [%s]\n" indent p.p_op p.p_engine);
    List.iter (go (indent ^ "  ")) p.p_children
  in
  go "" p;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Hybrid values: a node result living in either representation, with
   both conversion directions memoised.  States are domain-private (see
   the module comment), so plain mutation suffices. *)

type vec_state =
  | VUnknown
  | VNo
  | VYes of Vec.t
  | VShared of (unit -> Vec.t option)
      (** a relation whose columns the caller keeps (see [run]) *)

type hv = { mutable hval : Value.t option; mutable hvec : vec_state }

let of_val v = { hval = Some v; hvec = VUnknown }
let of_vec x = { hval = None; hvec = VYes x }

let as_value h =
  match h.hval with
  | Some v -> v
  | None ->
      let v =
        match h.hvec with
        | VYes x -> Vec.to_value x
        | VNo | VUnknown | VShared _ -> assert false
      in
      h.hval <- Some v;
      v

(* [None] when the value does not fit the columnar layout; the verdict is
   cached so a scalar or heterogeneous binding is probed only once.  A
   shared relation asks its owner instead of importing. *)
let as_vec h =
  match h.hvec with
  | VYes x -> Some x
  | VNo -> None
  | (VUnknown | VShared _) as s ->
      let r =
        match (s, h.hval) with
        | VShared columns, _ -> columns ()
        | _, Some v when Value.is_bag v -> (
            match Vec.of_value v with
            | x -> Some x
            | exception Vec.Unsupported _ -> None)
        | _, (Some _ | None) -> None
      in
      h.hvec <- (match r with Some x -> VYes x | None -> VNo);
      r

module Env = Eval.Env

type henv = hv Env.t

(* With [columns], every relation's columnar form comes from the caller's
   memo on its first vec read; kernels only read their inputs, so one
   vector serves every run that shares the relation. *)
let lift_env ?columns (env : Eval.env) : henv =
  match columns with
  | None -> Env.map of_val env
  | Some columns ->
      Env.mapi
        (fun x v -> { hval = Some v; hvec = VShared (fun () -> columns x v) })
        env

(* ------------------------------------------------------------------ *)
(* Governance: Eval's state, fuel charge, boxed-result observation and
   power guard, called directly.  Only columnar results need their own
   observation. *)

type state = Eval.state

(* Columnar results: the row count bounds the distinct support from
   above, so it stands in for the support account; when it alone would
   trip the limit the vector is coalesced first and the exact distinct
   count re-checked, keeping verdicts aligned with the tree engine.  The
   count-digit account is enforced against the count column; the
   encoded-size account is not (no cheap columnar analogue) — size-bound
   workloads run the tree engine. *)
let observe_vec (st : state) (att : Eval.att) x =
  let lim = (Budget.limits st.budget).Budget.max_support in
  let x = if Vec.rows x > lim then Vec.coalesce x else x in
  let support = Vec.rows x in
  Budget.check_support st.budget ~node:att.id ~op:att.op support;
  if support > 0 then
    Budget.check_count_digits st.budget ~node:att.id ~op:att.op
      (Vec.max_count_digits x);
  (match att.sp with
  | Some sp ->
      Telemetry.record_result sp ~support ~size:0 ~count:Bignat.zero
        ~cardinal:Bignat.zero
  | None -> ());
  Eval.spend st att support;
  x

let observe_hv st att h =
  (match (h.hval, h.hvec) with
  | None, VYes x ->
      (* vec-resident result: observe columns, keep any coalescing *)
      h.hvec <- VYes (observe_vec st att x)
  | _ -> ignore (Eval.observe st att (as_value h)));
  h

(* ------------------------------------------------------------------ *)
(* Scalar-program extraction: the MAP/σ bodies the kernels can run
   column-wise.  Anything else — references to outer variables, nested
   binders, bag operators — returns [None] and the node keeps the tree
   data path. *)

let rec scalar_of x (e : Expr.t) : Vec.scalar option =
  match e with
  | Expr.Var y when y = x -> Some Vec.SRow
  | Expr.Proj (i, e') -> (
      match scalar_of x e' with
      | Some s -> Some (Vec.SField (i, s))
      | None -> None)
  | Expr.Lit (v, _) -> Some (Vec.SConst v)
  | Expr.Tuple es ->
      let ss = List.filter_map (scalar_of x) es in
      if List.length ss = List.length es then Some (Vec.SRecord ss) else None
  (* MAP λy.<a> e' — the [ones] idiom behind the derived aggregates:
     the cardinality of e' as an integer-bag, one array sum per row. *)
  | Expr.Map (_, Expr.Tuple [ Expr.Lit (a, _) ], e') -> (
      match (Value.view a, scalar_of x e') with
      | Value.Atom name, Some s -> Some (Vec.SOnes (name, s))
      | _ -> None)
  | _ -> None

let vectorizes x e = Option.is_some (scalar_of x e)

(* ------------------------------------------------------------------ *)
(* Compilation. *)

type compiled = state -> henv -> hv

type reg = { ctr : int ref; telemetry : Telemetry.t option }

let demote pn = pn.p_engine <- "tree (fallback)"

let rec compile reg ~parent e : compiled * plan =
  incr reg.ctr;
  let id = !(reg.ctr) in
  let op = Expr.op_name e in
  let att = Eval.attribute reg.telemetry ~parent ~id ~op in
  let pn = { p_id = id; p_op = op; p_engine = "tree"; p_children = [] } in
  let kids = ref [] in
  let sub e =
    let c, k = compile reg ~parent:id e in
    kids := k :: !kids;
    c
  in
  let raw = compile_node ~att ~pn ~sub e in
  pn.p_children <- List.rev !kids;
  let invoke =
    match att.sp with
    | None ->
        fun st env ->
          if Obs.on () then
            Eval.invoke_instrumented ~observe:observe_hv st att raw env
          else begin
            Eval.spend st att 1;
            observe_hv st att (raw st env)
          end
    | Some _ ->
        fun st env -> Eval.invoke_instrumented ~observe:observe_hv st att raw env
  in
  (invoke, pn)

and compile_node ~att ~pn ~sub (e : Expr.t) : compiled =
  let error fmt =
    Format.kasprintf (fun s -> raise (Eval.Eval_error s)) fmt
  in
  (* Binary bag operators: sequential right-then-left operand order (the
     tree engine's historical order), vec kernel when both operands
     convert, sticky runtime demotion otherwise. *)
  let vbin label a b vkernel tkernel =
    let ca = sub a in
    let cb = sub b in
    pn.p_engine <- label;
    fun st env ->
      let hb = cb st env in
      let ha = ca st env in
      match (as_vec ha, as_vec hb) with
      | Some xa, Some xb -> (
          match vkernel st xa xb with
          | x -> of_vec x
          | exception Vec.Unsupported _ ->
              demote pn;
              of_val (tkernel st (as_value ha) (as_value hb)))
      | _ ->
          demote pn;
          of_val (tkernel st (as_value ha) (as_value hb))
  in
  (* Unary bag operators, same shape. *)
  let vun label e0 vkernel tkernel =
    let c = sub e0 in
    pn.p_engine <- label;
    fun st env ->
      let h = c st env in
      match as_vec h with
      | Some x -> (
          match vkernel st x with
          | r -> of_vec r
          | exception Vec.Unsupported _ ->
              demote pn;
              of_val (tkernel (as_value h)))
      | None ->
          demote pn;
          of_val (tkernel (as_value h))
  in
  match e with
  | Expr.Var x -> (
      fun _st env ->
        match Env.find_opt x env with
        | Some h -> h
        | None -> error "unbound variable %s" x)
  | Expr.Lit (v, _) ->
      (* One hybrid cell per compiled literal: its columnar conversion is
         memoised across invocations of this run. *)
      let h = of_val v in
      fun _st _env -> h
  | Expr.Tuple es ->
      let cs = List.map sub es in
      fun st env ->
        of_val (Value.tuple (List.map (fun c -> as_value (c st env)) cs))
  | Expr.Proj (i, e0) -> (
      let c = sub e0 in
      fun st env ->
        let v = as_value (c st env) in
        match Value.view v with
        | Value.Tuple vs when i >= 1 && i <= List.length vs ->
            of_val (List.nth vs (i - 1))
        | _ -> error "cannot project attribute %d of %s" i (Value.to_string v))
  | Expr.Sing e0 ->
      let c = sub e0 in
      fun st env ->
        of_val (Value.of_sorted_assoc [ (as_value (c st env), Bignat.one) ])
  | Expr.UnionAdd (a, b) ->
      vbin "vec:union_add" a b
        (fun _st xa xb -> Vec.union_add xa xb)
        (fun _st va vb -> Bag.union_add va vb)
  | Expr.Diff (a, b) ->
      vbin "vec:monus" a b
        (fun _st xa xb -> Vec.monus xa xb)
        (fun _st va vb -> Bag.diff va vb)
  | Expr.UnionMax (a, b) ->
      vbin "vec:union_max" a b
        (fun _st xa xb -> Vec.union_max xa xb)
        (fun _st va vb -> Bag.union_max va vb)
  | Expr.Inter (a, b) ->
      vbin "vec:inter" a b
        (fun _st xa xb -> Vec.inter xa xb)
        (fun _st va vb -> Bag.inter va vb)
  | Expr.Product (a, b) ->
      (* Pre-materialisation guard: charge and bound the expected row
         count before the kernel allocates.  Duplicate rows inflate the
         estimate, so coalesce first when the raw product of row counts
         would trip the support account — the verdict then matches what
         the tree engine would reach after materialising. *)
      vbin "vec:product" a b
        (fun st xa xb ->
          let lim = (Budget.limits st.budget).Budget.max_support in
          let xa, xb =
            if Vec.expected_product_rows xa xb > lim then
              (Vec.coalesce xa, Vec.coalesce xb)
            else (xa, xb)
          in
          let n = Vec.expected_product_rows xa xb in
          if n = max_int then Eval.too_large st att;
          Budget.check_support st.budget ~node:att.id ~op:att.op n;
          Vec.product xa xb)
        (fun _st va vb -> Bag.product va vb)
  | Expr.Join (i, j, a, b) ->
      (* Hash join: output rows are bounded by the raw product, but the
         kernel only materialises matches, so no pre-charge beyond the
         support check the kernel's result gets from [observe_hv]. *)
      vbin "vec:join" a b
        (fun st xa xb -> Vec.join ?pool:st.pool i j xa xb)
        (fun _st va vb -> Bag.join_eq i j va vb)
  | Expr.Powerset e0 ->
      let c = sub e0 in
      fun st env ->
        let b = as_value (c st env) in
        Eval.power_guard st att b;
        of_val (Bag.powerset b)
  | Expr.Powerbag e0 ->
      let c = sub e0 in
      fun st env ->
        let b = as_value (c st env) in
        Eval.power_guard st att b;
        of_val (Bag.powerbag b)
  | Expr.Destroy e0 ->
      vun "vec:destroy" e0 (fun _st x -> Vec.destroy x) Bag.destroy
  | Expr.Map (x, body, e0) -> (
      let cbody = sub body in
      let c = sub e0 in
      let tree_map st env h =
        Bag.map
          (fun v -> as_value (cbody st (Env.add x (of_val v) env)))
          (as_value h)
      in
      match scalar_of x body with
      | Some s ->
          (* a pure positional projection gets its own label, so plans
             tell the proj kernel from a general map *)
          pn.p_engine <-
            (match Expr.as_proj e with
            | Some (_ :: _, _) -> "vec:proj"
            | _ -> "vec:map");
          fun st env -> (
            let h = c st env in
            match as_vec h with
            | Some xv -> (
                match Vec.map_scalar s xv with
                | r -> of_vec r
                | exception Vec.Unsupported _ ->
                    demote pn;
                    of_val (tree_map st env h))
            | None ->
                demote pn;
                of_val (tree_map st env h))
      | None -> fun st env -> of_val (tree_map st env (c st env)))
  | Expr.Select (x, l, r, e0) -> (
      let cl = sub l in
      let cr = sub r in
      let c = sub e0 in
      let tree_select st env h =
        Bag.select
          (fun v ->
            let env' = Env.add x (of_val v) env in
            Value.equal (as_value (cl st env')) (as_value (cr st env')))
          (as_value h)
      in
      match (scalar_of x l, scalar_of x r) with
      | Some sl, Some sr ->
          pn.p_engine <- "vec:select";
          fun st env -> (
            let h = c st env in
            match as_vec h with
            | Some xv -> (
                match Vec.select_scalar ?pool:st.pool sl sr xv with
                | r -> of_vec r
                | exception Vec.Unsupported _ ->
                    demote pn;
                    of_val (tree_select st env h))
            | None ->
                demote pn;
                of_val (tree_select st env h))
      | _ -> fun st env -> of_val (tree_select st env (c st env)))
  | Expr.Dedup e0 -> vun "vec:dedup" e0 (fun _st x -> Vec.dedup x) Bag.dedup
  | Expr.Nest (ixs, e0) ->
      vun "vec:nest" e0 (fun _st x -> Vec.nest ixs x) (Bag.nest ixs)
  | Expr.Unnest (i, e0) ->
      vun "vec:unnest" e0 (fun _st x -> Vec.unnest i x) (Bag.unnest i)
  | Expr.Let (x, e0, body) ->
      let c = sub e0 in
      let cbody = sub body in
      fun st env -> cbody st (Env.add x (c st env) env)
  (* Fixpoints iterate on boxed values (the stability check needs
     canonical values); the body itself still vectorizes internally. *)
  | Expr.Fix (x, body, seed) ->
      let cbody = sub body in
      let cseed = sub seed in
      fun st env ->
        of_val
          (Eval.iterate st att ~bound:None
             (fun v -> as_value (cbody st (Env.add x (of_val v) env)))
             (as_value (cseed st env)))
  | Expr.BFix (bound, x, body, seed) ->
      let cbound = sub bound in
      let cbody = sub body in
      let cseed = sub seed in
      fun st env ->
        let b = as_value (cbound st env) in
        of_val
          (Eval.iterate st att ~bound:(Some b)
             (fun v -> as_value (cbody st (Env.add x (of_val v) env)))
             (as_value (cseed st env)))

(* ------------------------------------------------------------------ *)
(* Entry points. *)

let metrics =
  let r = Metrics.default in
  {
    Eval.runs =
      Metrics.counter r "balg_veval_runs_total"
        ~help:"Vectorized evaluations started";
    ok =
      Metrics.counter r "balg_veval_ok_total"
        ~help:"Vectorized evaluations that returned a value";
    verdicts =
      Metrics.counter r "balg_veval_verdicts_total"
        ~help:"Vectorized evaluations that ended in an exhaustion verdict";
    fuel =
      Metrics.histogram r "balg_veval_fuel"
        ~help:"Fuel spent per vectorized evaluation";
    run_ns =
      Metrics.histogram r "balg_veval_run_ns"
        ~help:"Wall time per vectorized evaluation in nanoseconds";
    peak_support = None;
  }

let run ?budget ?limits ?telemetry ?pool ?report ?columns env e =
  let compiled, plan = compile { ctr = ref 0; telemetry } ~parent:0 e in
  Fun.protect
    ~finally:(fun () -> match report with Some f -> f plan | None -> ())
    (fun () ->
      Eval.govern metrics ?budget ?limits ?telemetry ?pool ~engine:"vec" e
        (fun st -> as_value (compiled st (lift_env ?columns env))))

let run_engine engine ?budget ?limits ?telemetry ?pool ?report ?columns env e =
  match engine with
  | Tree -> Eval.run ?budget ?limits ?telemetry env e
  | Vec -> run ?budget ?limits ?telemetry ?pool ?report ?columns env e
