(** Algebraic rewriting for BALG expressions.

    §3 notes that the operations satisfy the classical laws (associativity
    and commutativity of [∪+], [∪], [∩]; selections commute with products …)
    and that these can drive optimisation "in the same spirit as
    optimization of queries over sets".  It also warns, citing [CV93], that
    classical {e set} techniques do not carry over: equivalences that hold
    under set semantics can change multiplicities.

    This module implements both sides: a library of {e bag-sound} rules
    (used by the normaliser and the E18 experiment) and a library of
    {e set-only} rules that are deliberately unsound for bags — the
    experiment shows the randomized equivalence checker catching them. *)

type rule = {
  name : string;
  applies : Typecheck.env -> Expr.t -> Expr.t option;
      (** [Some e'] when the rule rewrites the given node *)
}

(* Expressions contain only atoms, ints, strings and arrays, so the
   polymorphic comparison is a legitimate total order for normalising the
   operand order of AC operators. *)
let expr_compare : Expr.t -> Expr.t -> int = Stdlib.compare

let arity_of env e =
  match Typecheck.infer env e with
  | Ty.Bag (Ty.Tuple ts) -> Some (List.length ts)
  | _ -> None
  | exception Typecheck.Type_error _ -> None

(* Projection indices mentioned by a selection condition that only touches
   its tuple variable through projections; None when the variable is used
   some other way.  Occurrences of [x] under a binder that rebinds the same
   name are a *different* variable and must not be counted: walking through
   shadowing binders used to misattribute inner uses to the outer tuple
   variable, letting select-pushdown fire (and shift) on conditions it does
   not actually understand. *)
let proj_indices_of x e =
  let exception Other_use in
  let acc = ref [] in
  let rec go e =
    match e with
    | Expr.Proj (i, Expr.Var y) when String.equal x y -> acc := i :: !acc
    | Expr.Var y when String.equal x y -> raise Other_use
    | Expr.Map (y, body, src) ->
        if not (String.equal x y) then go body;
        go src
    | Expr.Select (y, l, r, src) ->
        if not (String.equal x y) then begin
          go l;
          go r
        end;
        go src
    | Expr.Let (y, bound, body) ->
        go bound;
        if not (String.equal x y) then go body
    | Expr.Fix (y, body, seed) ->
        if not (String.equal x y) then go body;
        go seed
    | Expr.BFix (bound, y, body, seed) ->
        go bound;
        if not (String.equal x y) then go body;
        go seed
    | _ -> List.iter go (Expr.children e)
  in
  match go e with () -> Some !acc | exception Other_use -> None

(* Shift every free Proj on [x] by [-k] (used when pushing a selection to
   the right operand of a product).  Subterms under a binder that rebinds
   [x] are left untouched — their [x] is bound locally, and shifting it
   used to silently change what a shadowed projection computed. *)
let rec shift_projs x k e =
  match e with
  | Expr.Proj (i, Expr.Var y) when String.equal x y -> Expr.Proj (i - k, Expr.Var y)
  | Expr.Var _ | Expr.Lit _ -> e
  | Expr.Map (y, body, src) when String.equal x y ->
      Expr.Map (y, body, shift_projs x k src)
  | Expr.Select (y, l, r, src) when String.equal x y ->
      Expr.Select (y, l, r, shift_projs x k src)
  | Expr.Let (y, bound, body) when String.equal x y ->
      Expr.Let (y, shift_projs x k bound, body)
  | Expr.Fix (y, body, seed) when String.equal x y ->
      Expr.Fix (y, body, shift_projs x k seed)
  | Expr.BFix (bound, y, body, seed) when String.equal x y ->
      Expr.BFix (shift_projs x k bound, y, body, shift_projs x k seed)
  | _ -> map_children (shift_projs x k) e

and map_children f e =
  match e with
  | Expr.Var _ | Expr.Lit _ -> e
  | Expr.Tuple es -> Expr.Tuple (List.map f es)
  | Expr.Proj (i, e) -> Expr.Proj (i, f e)
  | Expr.Sing e -> Expr.Sing (f e)
  | Expr.UnionAdd (a, b) -> Expr.UnionAdd (f a, f b)
  | Expr.Diff (a, b) -> Expr.Diff (f a, f b)
  | Expr.UnionMax (a, b) -> Expr.UnionMax (f a, f b)
  | Expr.Inter (a, b) -> Expr.Inter (f a, f b)
  | Expr.Product (a, b) -> Expr.Product (f a, f b)
  | Expr.Join (i, j, a, b) -> Expr.Join (i, j, f a, f b)
  | Expr.Powerset e -> Expr.Powerset (f e)
  | Expr.Powerbag e -> Expr.Powerbag (f e)
  | Expr.Destroy e -> Expr.Destroy (f e)
  | Expr.Map (x, body, e) -> Expr.Map (x, f body, f e)
  | Expr.Select (x, l, r, e) -> Expr.Select (x, f l, f r, f e)
  | Expr.Dedup e -> Expr.Dedup (f e)
  | Expr.Nest (ixs, e) -> Expr.Nest (ixs, f e)
  | Expr.Unnest (i, e) -> Expr.Unnest (i, f e)
  | Expr.Let (x, e, body) -> Expr.Let (x, f e, f body)
  | Expr.Fix (x, body, seed) -> Expr.Fix (x, f body, f seed)
  | Expr.BFix (bound, x, body, seed) -> Expr.BFix (f bound, x, f body, f seed)

(* The environment of a binder's body: [x] at [ty_of env e], or removed
   when that does not infer, so the body never sees the type of an outer
   binding it shadows. *)
let bind env x ty_of e =
  match ty_of env e with
  | t -> Typecheck.Env.add x t env
  | exception Typecheck.Type_error _ -> Typecheck.Env.remove x env

let elem_ty env e =
  match Typecheck.infer env e with
  | Ty.Bag t -> t
  | _ -> raise (Typecheck.Type_error "binder over a non-bag")

let body_env env e =
  match e with
  | Expr.Map (x, _, src) | Expr.Select (x, _, _, src) -> bind env x elem_ty src
  | Expr.Let (x, bound, _) -> bind env x Typecheck.infer bound
  | Expr.Fix (x, _, seed) | Expr.BFix (_, x, _, seed) ->
      bind env x Typecheck.infer seed
  | _ -> env

let map_children_env f env e =
  match e with
  | Expr.Map (x, body, src) -> Expr.Map (x, f (body_env env e) body, f env src)
  | Expr.Select (x, l, r, src) ->
      let env' = body_env env e in
      Expr.Select (x, f env' l, f env' r, f env src)
  | Expr.Let (x, bound, body) -> Expr.Let (x, f env bound, f (body_env env e) body)
  | Expr.Fix (x, body, seed) -> Expr.Fix (x, f (body_env env e) body, f env seed)
  | Expr.BFix (bound, x, body, seed) ->
      Expr.BFix (f env bound, x, f (body_env env e) body, f env seed)
  | _ -> map_children (f env) e

let is_empty_lit = function
  | Expr.Lit (v, _) -> Value.is_empty_bag v
  | _ -> false

(** {1 Bag-sound rules} *)

let commute name ctor =
  {
    name;
    applies =
      (fun _ e ->
        match ctor e with
        | Some (a, b, rebuild) when expr_compare a b > 0 -> Some (rebuild b a)
        | _ -> None);
  }

let rule_comm_unionadd =
  commute "comm-union-add" (function
    | Expr.UnionAdd (a, b) -> Some (a, b, fun x y -> Expr.UnionAdd (x, y))
    | _ -> None)

let rule_comm_unionmax =
  commute "comm-union-max" (function
    | Expr.UnionMax (a, b) -> Some (a, b, fun x y -> Expr.UnionMax (x, y))
    | _ -> None)

let rule_comm_inter =
  commute "comm-inter" (function
    | Expr.Inter (a, b) -> Some (a, b, fun x y -> Expr.Inter (x, y))
    | _ -> None)

let rule_assoc_unionadd =
  {
    name = "assoc-union-add";
    applies =
      (fun _ -> function
        | Expr.UnionAdd (Expr.UnionAdd (a, b), c) ->
            Some (Expr.UnionAdd (a, Expr.UnionAdd (b, c)))
        | _ -> None);
  }

let rule_idempotent =
  {
    name = "idempotence";
    applies =
      (fun _ -> function
        | Expr.Inter (a, b) when expr_compare a b = 0 -> Some a
        | Expr.UnionMax (a, b) when expr_compare a b = 0 -> Some a
        | Expr.Dedup (Expr.Dedup e) -> Some (Expr.Dedup e)
        | Expr.Dedup (Expr.Powerset e) -> Some (Expr.Powerset e)
        | _ -> None);
  }

let rule_self_difference =
  {
    name = "self-difference";
    applies =
      (fun env -> function
        | Expr.Diff (a, b) when expr_compare a b = 0 -> (
            match Typecheck.infer env a with
            | ty -> Some (Expr.Lit (Value.bag_of_assoc [], ty))
            | exception Typecheck.Type_error _ -> None)
        | _ -> None);
  }

let rule_empty_units =
  {
    name = "empty-units";
    applies =
      (fun env -> function
        | Expr.UnionAdd (a, b) when is_empty_lit b -> Some a
        | Expr.UnionAdd (a, b) when is_empty_lit a -> Some b
        | Expr.UnionMax (a, b) when is_empty_lit b -> Some a
        | Expr.UnionMax (a, b) when is_empty_lit a -> Some b
        | Expr.Diff (a, b) when is_empty_lit b -> Some a
        | Expr.Inter (a, b) when is_empty_lit a || is_empty_lit b -> (
            match Typecheck.infer env a with
            | ty -> Some (Expr.Lit (Value.bag_of_assoc [], ty))
            | exception Typecheck.Type_error _ -> None)
        | _ -> None);
  }

let rule_destroy_sing =
  {
    name = "destroy-sing";
    applies =
      (fun env -> function
        | Expr.Destroy (Expr.Sing e) -> (
            match Typecheck.infer env e with
            | Ty.Bag _ -> Some e
            | _ -> None
            | exception Typecheck.Type_error _ -> None)
        | _ -> None);
  }

(** [unnest(nest)] with prefix keys is the identity: grouping on the first
    [k] attributes and immediately expanding the appended group reproduces
    the input bag, multiplicities included. *)
let rule_unnest_nest =
  {
    name = "unnest-nest";
    applies =
      (fun _ -> function
        | Expr.Unnest (i, Expr.Nest (ixs, e))
          when i = List.length ixs + 1
               && List.mapi (fun j _ -> j + 1) ixs = ixs ->
            Some e
        | _ -> None);
  }

let rule_map_identity =
  {
    name = "map-identity";
    applies =
      (fun _ -> function
        | Expr.Map (x, Expr.Var y, e) when String.equal x y -> Some e
        | _ -> None);
  }

(** [MAP λx.outer (MAP λy.inner e) → MAP λy.outer[inner/x] e].  Fusing puts
    [outer] under the inner binder, so a free [y] in [outer] (reaching past
    [x] to an enclosing binder) would be captured and silently re-pointed at
    the inner element — the substitution itself is capture-avoiding, the
    rule's re-binding was not.  α-rename the inner binder first when that
    would happen. *)
let rule_map_fusion =
  {
    name = "map-fusion";
    applies =
      (fun _ -> function
        | Expr.Map (x, outer, Expr.Map (y, inner, e)) ->
            if Expr.Vars.mem y (Expr.Vars.remove x (Expr.free_vars outer)) then
              let z = Expr.fresh_var y in
              let inner' = Expr.subst y (Expr.Var z) inner in
              Some (Expr.Map (z, Expr.subst x inner' outer, e))
            else Some (Expr.Map (y, Expr.subst x inner outer, e))
        | _ -> None);
  }

(** Selection pushdown through a product (the "push selections" of §3):
    when the condition only touches attributes of one operand, filter that
    operand before multiplying.  Sound for bags — multiplicities factor
    through the product. *)
let rule_select_pushdown =
  {
    name = "select-pushdown";
    applies =
      (fun env -> function
        | Expr.Select (x, l, r, Expr.Product (a, b)) -> (
            match (arity_of env a, proj_indices_of x l, proj_indices_of x r) with
            | Some ka, Some il, Some ir ->
                let ixs = il @ ir in
                if ixs <> [] && List.for_all (fun i -> i <= ka) ixs then
                  Some (Expr.Product (Expr.Select (x, l, r, a), b))
                else if List.for_all (fun i -> i > ka) ixs && ixs <> [] then
                  Some
                    (Expr.Product
                       ( a,
                         Expr.Select (x, shift_projs x ka l, shift_projs x ka r, b)
                       ))
                else None
            | _ -> None)
        | _ -> None);
  }

let sound_rules =
  [
    rule_empty_units;
    rule_idempotent;
    rule_self_difference;
    rule_destroy_sing;
    rule_unnest_nest;
    rule_map_identity;
    rule_map_fusion;
    rule_select_pushdown;
    rule_assoc_unionadd;
    rule_comm_unionadd;
    rule_comm_unionmax;
    rule_comm_inter;
  ]

(** {1 Set-only rules — deliberately unsound for bags (CV93)} *)

(** [π{_1..k}(R × R) → R]: a classical conjunctive-query minimisation step.
    Under sets it is an identity; under bags the left side has every tuple
    with multiplicity [|R|] times its own. *)
let rule_selfproduct_elim_setonly =
  {
    name = "self-product-projection (set-only)";
    applies =
      (fun env e ->
        match Expr.as_proj e with
        | Some (ixs, Expr.Product (a, b)) when expr_compare a b = 0 -> (
            match arity_of env a with
            | Some k when ixs = List.init k (fun i -> i + 1) -> Some a
            | _ -> None)
        | _ -> None);
  }

(** [ε(e) → e]: the identity on sets, rarely on bags. *)
let rule_dedup_elim_setonly =
  {
    name = "dedup-elimination (set-only)";
    applies = (fun _ -> function Expr.Dedup e -> Some e | _ -> None);
  }

let set_only_rules = [ rule_selfproduct_elim_setonly; rule_dedup_elim_setonly ]

(** {1 Driving} *)

type verdict = Accept | Reject | Stop

(* Every node is rewritten under the environment it is typed in (binder
   variables included), so rules that read arities see the binding in
   scope, not an outer one it shadows. *)
let drive ~accept rules env e =
  let applied = ref [] and fired = ref 0 and stopped = ref false in
  let rec at_node env e =
    let rec fire e fuel =
      if fuel = 0 then e
      else
        match
          List.find_map
            (fun r ->
              if !stopped then None
              else
                match r.applies env e with
                | Some e' when expr_compare e' e <> 0 -> (
                    match accept env r.name e e' with
                    | Accept -> Some (r.name, e')
                    | Reject -> None
                    | Stop ->
                        stopped := true;
                        None)
                | _ -> None)
            rules
        with
        | Some (name, e') ->
            applied := name :: !applied;
            incr fired;
            if Obs.on () then Obs.emit Obs.I ~cat:"rewrite" ~name ~args:[ ("size", Obs.Int (Expr.size e')) ];
            fire e' (fuel - 1)
        | None -> e
    in
    if !stopped then e else fire (map_children_env at_node env e) 16
  in
  let rec passes n e =
    let before = !fired in
    let e' = at_node env e in
    if n = 1 || !stopped || !fired = before then e' else passes (n - 1) e'
  in
  let e' = passes 8 e in
  (e', List.rev !applied)

(** Rewrite to a fixpoint of the sound rules (bounded number of passes).
    Returns the normal form and the rule applications performed. *)
let normalize ?(rules = sound_rules) env e =
  if Obs.on () then Obs.emit Obs.B ~cat:"rewrite" ~name:"normalize" ~args:[ ("size", Obs.Int (Expr.size e)) ];
  match drive ~accept:(fun _ _ _ _ -> Accept) rules env e with
  | e', log ->
      if Obs.on () then Obs.emit Obs.E ~cat:"rewrite" ~name:"normalize" ~args:[ ("rules", Obs.Int (List.length log)); ("size", Obs.Int (Expr.size e')) ];
      (e', log)
  | exception exn ->
      if Obs.on () then Obs.emit Obs.E ~cat:"rewrite" ~name:"normalize" ~args:[];
      raise exn
