(** Cost-based plan optimisation.

    Sits between [check] and evaluation: {!optimize} rewrites an
    expression using the sound algebraic laws of {!Rewrite} plus three
    optimiser-specific families —

    - {e dead-column pruning}: projection-shaped [MAP]s narrow through
      [×] ([prune-map-product]) and collapse [nest]s whose groups are
      never read ([prune-nest-keys]);
    - {e join planning}: a cross-operand equality selection over a
      product becomes the keyed hash join {!Expr.Join}
      ([join-extract]), recursing down left-deep product chains;
    - {e pushdown through MAP}: selections slide under
      projection-shaped [MAP]s ([select-through-proj]) and
      cardinality-shaped [MAP]s skip their inner restructuring
      ([ones-pushdown], sound because MAP preserves total cardinality).

    In [Cost] mode every candidate rewrite {!Rewrite.drive} proposes is
    gated by a cost model over {!Props} estimates with per-engine kernel
    constants (the vectorized kernels of {!Vec} are charged less than the
    boxed tree walk); [Off] is the identity.  Every decision — applied or rejected — is recorded
    with both cost figures so [balgi explain] can show the chosen plan
    next to the roads not taken.

    The [opt.rewrite] fault site makes planning chaos-testable: a firing
    hit abandons the remaining rewrites and ships the expression as-is,
    so an armed optimiser can only lose speed, never correctness. *)

type mode = Off | Cost

let mode_to_string = function Off -> "off" | Cost -> "cost"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Some Off
  | "cost" -> Some Cost
  | _ -> None

(* Mirrors Veval.default_engine: the env var picks the CLI default, and
   unknown values silently mean "off" so a stale setting cannot wedge
   every invocation. *)
let default_mode () =
  match Sys.getenv_opt "BALG_OPT" with
  | Some s -> ( match mode_of_string s with Some m -> m | None -> Off)
  | None -> Off

let rewrite_site = Fault.register "opt.rewrite"

(* Bench-gate self-test knob: with the objective inverted the planner
   only accepts cost-increasing rewrites — i.e. none of the beneficial
   ones — so deliberately miscosted plans regress against the optimised
   baseline and must trip the gate.  Never set outside bench/tests. *)
let invert_cost = ref false

let m_applied =
  Metrics.counter ~help:"optimizer rewrites applied" Metrics.default
    "balg_opt_rewrites_applied_total"

let m_rejected =
  Metrics.counter ~help:"optimizer rewrites rejected by the cost model"
    Metrics.default "balg_opt_rewrites_rejected_total"

(* --- cost model ------------------------------------------------------------ *)

let clamp_rows r = float_of_int (min r 1_000_000_000)

(* [k] is the per-row kernel constant: work the columnar engine does in
   flat array sweeps is cheaper than the boxed tree walk.  A map/select
   body gets it exactly when {!Veval.vectorizes} says the engine runs it
   column-wise; any other body is walked per row on either engine, under
   {!Rewrite.body_env} — the environment the planner typed it in, so a
   bound variable costs the same here as in the decision that rewrote
   around it. *)
let cost ?(vals = []) engine tenv e =
  let k = match engine with Veval.Vec -> 0.35 | Veval.Tree -> 1.0 in
  let fr env e = clamp_rows (Props.infer ~vals env e).Props.rows in
  let rec go env e =
    match e with
    | Expr.Var _ | Expr.Lit _ -> 0.0
    | Expr.Tuple es -> List.fold_left (fun a c -> a +. go env c) 1.0 es
    | Expr.Proj (_, e0) | Expr.Sing e0 -> 1.0 +. go env e0
    | Expr.UnionAdd (a, b)
    | Expr.Diff (a, b)
    | Expr.UnionMax (a, b)
    | Expr.Inter (a, b) ->
        go env a +. go env b +. (k *. (fr env a +. fr env b))
    | Expr.Product (a, b) ->
        (* materialises the full cross product *)
        go env a +. go env b +. (k *. (fr env a *. fr env b))
    | Expr.Join (_, _, a, b) ->
        (* build + probe + emit only the matches *)
        go env a +. go env b +. (k *. (fr env a +. fr env b +. fr env e))
    | Expr.Powerset e0 | Expr.Powerbag e0 -> go env e0 +. fr env e
    | Expr.Destroy e0 -> go env e0 +. (k *. fr env e)
    | Expr.Map (x, body, e0) ->
        let per_row =
          if Veval.vectorizes x body then k
          else 1.0 +. go (Rewrite.body_env env e) body
        in
        go env e0 +. (fr env e0 *. per_row)
    | Expr.Select (x, l, r, e0) ->
        let per_row =
          if Veval.vectorizes x l && Veval.vectorizes x r then k
          else
            let env' = Rewrite.body_env env e in
            1.0 +. go env' l +. go env' r
        in
        go env e0 +. (fr env e0 *. per_row)
    | Expr.Dedup e0 -> go env e0 +. (k *. fr env e0)
    | Expr.Nest (_, e0) ->
        (* grouping builds and canonicalises segment columns — several
           sweeps over the input, not one *)
        go env e0 +. (3.0 *. k *. fr env e0)
    | Expr.Unnest (_, e0) -> go env e0 +. (k *. fr env e)
    | Expr.Let (_, e0, body) -> go env e0 +. go (Rewrite.body_env env e) body
    | Expr.Fix (_, body, seed) ->
        go env seed +. (8.0 *. (1.0 +. go (Rewrite.body_env env e) body))
    | Expr.BFix (b, _, body, seed) ->
        go env b +. go env seed
        +. (8.0 *. (1.0 +. go (Rewrite.body_env env e) body))
  in
  go tenv e

(* --- the rewrite families -------------------------------------------------- *)

(* π over × splits when the projected columns partition left-before-right:
   multiplicities factor through the product, so projecting each side
   separately and re-crossing coalesces to the identical bag while the
   product materialises narrower (or, with an empty side, vanishingly
   small) tuples. *)
let rule_prune_map_product =
  {
    Rewrite.name = "prune-map-product";
    applies =
      (fun env e ->
        match Expr.as_proj e with
        | Some (ixs, Expr.Product (a, b)) -> (
            match (Rewrite.arity_of env a, Rewrite.arity_of env b) with
            | Some ka, Some kb
              when List.for_all (fun i -> i >= 1 && i <= ka + kb) ixs ->
                let rec split acc = function
                  | i :: rest when i <= ka -> split (i :: acc) rest
                  | rest -> (List.rev acc, rest)
                in
                let la, lb = split [] ixs in
                let identity =
                  la = List.init ka (fun i -> i + 1)
                  && lb = List.init kb (fun i -> ka + i + 1)
                in
                if List.for_all (fun i -> i > ka) lb && not identity then
                  Some
                    (Expr.Product
                       ( Expr.proj_attrs la a,
                         Expr.proj_attrs (List.map (fun i -> i - ka) lb) b ))
                else None
            | _ -> None)
        | _ -> None);
  }

(* A projection reading only the key columns of a nest never looks at the
   groups, and distinct groups have distinct full keys — so as long as
   every key position is kept the whole grouping is a dedup of the key
   projection over the raw input. *)
let rule_prune_nest_keys =
  {
    Rewrite.name = "prune-nest-keys";
    applies =
      (fun _env e ->
        match Expr.as_proj e with
        | Some (ps, Expr.Nest (ixs, e0)) ->
            let nkeys = List.length ixs in
            if
              ps <> []
              && List.for_all (fun p -> p >= 1 && p <= nkeys) ps
              && List.for_all
                   (fun q -> List.mem q ps)
                   (List.init nkeys (fun i -> i + 1))
            then
              Some
                (Expr.Dedup
                   (Expr.proj_attrs
                      (List.map (fun p -> List.nth ixs (p - 1)) ps)
                      e0))
            else None
        | _ -> None);
  }

(* σ_{x.i = x.j} over a × b with the two attributes on opposite sides is
   exactly the keyed equijoin, and Bag.join_eq / Vec.join materialise only
   the matches.  Left-deep product chains plan bottom-up: the inner
   product extracts first, leaving the outer selection over
   (join × c) to extract in the next pass. *)
let rule_join_extract =
  {
    Rewrite.name = "join-extract";
    applies =
      (fun env -> function
        | Expr.Select
            ( x,
              Expr.Proj (i, Expr.Var x1),
              Expr.Proj (j, Expr.Var x2),
              Expr.Product (a, b) )
          when String.equal x1 x && String.equal x2 x -> (
            match (Rewrite.arity_of env a, Rewrite.arity_of env b) with
            | Some ka, Some kb ->
                if i >= 1 && i <= ka && j > ka && j <= ka + kb then
                  Some (Expr.Join (i, j - ka, a, b))
                else if j >= 1 && j <= ka && i > ka && i <= ka + kb then
                  Some (Expr.Join (j, i - ka, a, b))
                else None
            | _ -> None)
        | _ -> None);
  }

(* σ_P(MAP_f e) = MAP_f(σ_{P∘f} e) for any f — filtering images keeps
   exactly the rows whose image passes.  Restricted to projection-shaped
   maps and projection/closed condition operands so the pushed selection
   keeps the vectorizable select_eq shape. *)
let rule_select_through_proj =
  {
    Rewrite.name = "select-through-proj";
    applies =
      (fun _env -> function
        | Expr.Select (x, l, r, (Expr.Map (y, body, e0) as m)) -> (
            match Expr.as_proj m with
            | Some (ps, _) ->
                let np = List.length ps in
                let translate op =
                  match op with
                  | Expr.Proj (i, Expr.Var z)
                    when String.equal z x && i >= 1 && i <= np ->
                      Some (fun x' -> Expr.Proj (List.nth ps (i - 1), Expr.Var x'))
                  | op when not (Expr.Vars.mem x (Expr.free_vars op)) ->
                      Some (fun _ -> op)
                  | _ -> None
                in
                (match (translate l, translate r) with
                | Some fl, Some fr ->
                    let x' = Expr.fresh_var x in
                    Some
                      (Expr.Map
                         (y, body, Expr.Select (x', fl x', fr x', e0)))
                | _ -> None)
            | None -> None)
        | _ -> None);
  }

(* MAP preserves total cardinality, so a map whose body ignores its row
   sees only *how many* elements the inner map produced — the inner
   restructuring is dead work. *)
let rule_ones_pushdown =
  {
    Rewrite.name = "ones-pushdown";
    applies =
      (fun _env -> function
        | Expr.Map (y, body, Expr.Map (_, _, e0))
          when not (Expr.Vars.mem y (Expr.free_vars body)) ->
            Some (Expr.Map (y, body, e0))
        | _ -> None);
  }

let rules =
  [
    rule_join_extract;
    rule_select_through_proj;
    rule_prune_map_product;
    rule_prune_nest_keys;
    rule_ones_pushdown;
  ]

(* --- driving --------------------------------------------------------------- *)

type decision = {
  d_rule : string;
  d_before : Expr.t;
  d_after : Expr.t;
  d_cost_before : float;
  d_cost_after : float;
  d_accepted : bool;
}

type report = {
  r_mode : mode;
  r_engine : Veval.engine;
  r_input : Expr.t;
  r_output : Expr.t;
  r_decisions : decision list;
  r_faulted : bool;
}

let max_decisions = 200

(* The AC orientation rules are cost-symmetric, so cost mode could never
   accept them; {!Rewrite.normalize} keeps them to put AC operands in
   canonical order. *)
let cost_rules =
  List.filter
    (fun r ->
      not
        (List.memq r
           Rewrite.[ rule_comm_unionadd; rule_comm_unionmax; rule_comm_inter ]))
    Rewrite.sound_rules
  @ rules

let optimize ?(vals = []) ?(engine = Veval.Tree) mode tenv e0 =
  if Obs.on () then Obs.emit Obs.B ~cat:"opt" ~name:"optimize" ~args:[ ("size", Obs.Int (Expr.size e0)); ("mode", Obs.Str (mode_to_string mode)) ];
  let decisions = ref [] and ndec = ref 0 and faulted = ref false in
  let record d =
    if !ndec < max_decisions then begin
      decisions := d :: !decisions;
      incr ndec
    end
  in
  let accept tenv rule e e' =
    if Fault.fire rewrite_site then begin
      (* degrade: ship the plan as it stands *)
      faulted := true;
      Rewrite.Stop
    end
    else begin
      let cb = cost ~vals engine tenv e and ca = cost ~vals engine tenv e' in
      let ok = if !invert_cost then ca > cb else ca < cb in
      record
        {
          d_rule = rule;
          d_before = e;
          d_after = e';
          d_cost_before = cb;
          d_cost_after = ca;
          d_accepted = ok;
        };
      Metrics.incr (if ok then m_applied else m_rejected);
      if ok then Rewrite.Accept else Rewrite.Reject
    end
  in
  let output =
    match mode with
    | Off -> e0
    | Cost -> fst (Rewrite.drive ~accept cost_rules tenv e0)
  in
  let report =
    {
      r_mode = mode;
      r_engine = engine;
      r_input = e0;
      r_output = output;
      r_decisions = List.rev !decisions;
      r_faulted = !faulted;
    }
  in
  if Obs.on () then Obs.emit Obs.E ~cat:"opt" ~name:"optimize" ~args:[ ("size", Obs.Int (Expr.size output)); ("decisions", Obs.Int (List.length report.r_decisions)) ];
  (output, report)

(* The evaluation-path entry: planning failures must never take down a
   query that would have run fine unoptimised. *)
let prepare ?vals ?engine mode tenv e =
  match optimize ?vals ?engine mode tenv e with
  | e', _ -> e'
  | exception _ -> e

(* --- explain rendering ----------------------------------------------------- *)

let truncate_expr width e =
  let s = Expr.to_string e in
  if String.length s <= width then s else String.sub s 0 (width - 3) ^ "..."

let report_to_string ?(vals = []) tenv r =
  let b = Buffer.create 512 in
  let figures e =
    Printf.sprintf "cost=%.0f  props=%s"
      (cost ~vals r.r_engine tenv e)
      (Props.to_string (Props.infer ~vals tenv e))
  in
  Buffer.add_string b
    (Printf.sprintf "optimizer: mode=%s engine=%s%s\n" (mode_to_string r.r_mode)
       (match r.r_engine with Veval.Tree -> "tree" | Veval.Vec -> "vec")
       (if r.r_faulted then "  [degraded: opt.rewrite fault]" else ""));
  Buffer.add_string b (Printf.sprintf "  input  %s\n" (figures r.r_input));
  Buffer.add_string b (Printf.sprintf "  output %s\n" (figures r.r_output));
  if r.r_decisions = [] then
    Buffer.add_string b "  (no rewrite opportunities)\n"
  else
    List.iter
      (fun d ->
        Buffer.add_string b
          (Printf.sprintf "  %s %-22s cost %.0f -> %.0f  %s => %s\n"
             (if d.d_accepted then "applied " else "rejected")
             d.d_rule d.d_cost_before d.d_cost_after
             (truncate_expr 48 d.d_before)
             (truncate_expr 48 d.d_after)))
      r.r_decisions;
  Buffer.contents b
