(** The polynomial abstract interpreter of Propositions 4.1 and 4.5.

    The inexpressibility proofs of §4 rest on one claim: for every BALG{^1}
    expression [e] (with duplicate elimination allowed, Prop 4.5) over a bag
    variable [B], and every tuple [t], there are a threshold [N{_t}] and a
    polynomial [P{_t}] such that on the family [B{_n}] (n occurrences of the
    single tuple [<a>]) the multiplicity of [t] in [e(B{_n})] is exactly
    [P{_t}(n)] for every [n > N{_t}].  Since such polynomials are eventually
    monotone, no BALG{^1} expression computes [bag-even], [ε] or [−] is not
    redundant, etc.

    This module {e mechanizes the claim's inductive construction}: it
    abstract-interprets an expression into the finite map
    [tuple ↦ polynomial] plus a single validity threshold, following the
    induction of the proof case by case (additive union adds polynomials,
    difference takes the eventually-positive part, products multiply,
    MAP sums over preimages, selection filters statically, ε clamps to 0/1).
    The result is validated against the concrete interpreter in the tests
    and in experiment E6. *)

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type entries = (Value.t * Poly.t) list
(** tuple ↦ occurrence-count polynomial, no zero polynomials stored *)

type analysis = { entries : entries; threshold : int }

(* During interpretation, a variable is bound either to a concrete value
   (tuple binders of MAP / selection) or to an abstract bag. *)
type binding = Conc of Value.t | Abs of entries

type ctx = {
  input : Expr.var;  (* the bag variable interpreted as B_n *)
  mutable threshold : int;
  env : binding Eval.Env.t;
}

let bump ctx n = if n > ctx.threshold then ctx.threshold <- n

let input_tuple = Value.tuple [ Value.atom "a" ]

let merge_entries f (a : entries) (b : entries) : entries =
  let keys =
    List.sort_uniq Value.compare (List.map fst a @ List.map fst b)
  in
  List.filter_map
    (fun k ->
      let pa = Option.value ~default:Poly.zero (List.assoc_opt k a)
      and pb = Option.value ~default:Poly.zero (List.assoc_opt k b) in
      let p = f pa pb in
      if Poly.is_zero p then None else Some (k, p))
    keys

(* Eventually-positive part: the abstract counterpart of monus on counts. *)
let monus_poly ctx pa pb =
  let d = Poly.sub pa pb in
  bump ctx (Poly.sign_stable_from d);
  if Poly.limit_sign d > 0 then d else Poly.zero

let min_poly ctx pa pb =
  let s, n = Poly.compare_eventually pa pb in
  bump ctx n;
  if s <= 0 then pa else pb

let max_poly ctx pa pb =
  let s, n = Poly.compare_eventually pa pb in
  bump ctx n;
  if s >= 0 then pa else pb

type res = Abag of entries | Cval of Value.t

let as_entries = function
  | Abag e -> e
  | Cval v -> (
      match Value.view v with
      | Value.Bag pairs ->
          (* a concrete bag literal: constant polynomials *)
          List.map (fun (v, c) -> (v, Poly.const (Bigint.of_bignat c))) pairs
      | Value.Atom _ | Value.Tuple _ ->
          unsupported "expected a bag, found concrete value %s"
            (Value.to_string v))

let as_conc = function
  | Cval v -> v
  | Abag _ -> unsupported "bag-valued expression used in object position"

let rec ainterp ctx (e : Expr.t) : res =
  match e with
  | Expr.Var x -> (
      (* a [let] or binder of the input's name shadows the input *)
      match Eval.Env.find_opt x ctx.env with
      | Some (Conc v) -> Cval v
      | Some (Abs entries) -> Abag entries
      | None when String.equal x ctx.input -> Abag [ (input_tuple, Poly.x) ]
      | None -> unsupported "unbound variable %s" x)
  | Expr.Lit (v, _) -> Cval v
  | Expr.Tuple es -> Cval (Value.tuple (List.map (fun e -> as_conc (ainterp ctx e)) es))
  | Expr.Proj (i, e) -> (
      let v = as_conc (ainterp ctx e) in
      match Value.view v with
      | Value.Tuple vs when i >= 1 && i <= List.length vs -> Cval (List.nth vs (i - 1))
      | _ -> unsupported "projection %d of %s" i (Value.to_string v))
  | Expr.UnionAdd (a, b) ->
      Abag (merge_entries Poly.add (as_entries (ainterp ctx a)) (as_entries (ainterp ctx b)))
  | Expr.Diff (a, b) ->
      Abag
        (merge_entries (monus_poly ctx) (as_entries (ainterp ctx a))
           (as_entries (ainterp ctx b)))
  | Expr.UnionMax (a, b) ->
      Abag
        (merge_entries (max_poly ctx) (as_entries (ainterp ctx a))
           (as_entries (ainterp ctx b)))
  | Expr.Inter (a, b) ->
      Abag
        (merge_entries (min_poly ctx) (as_entries (ainterp ctx a))
           (as_entries (ainterp ctx b)))
  | Expr.Product (a, b) ->
      let ea = as_entries (ainterp ctx a) and eb = as_entries (ainterp ctx b) in
      let cross =
        List.concat_map
          (fun (t1, p1) ->
            List.map
              (fun (t2, p2) ->
                (Value.tuple (Value.as_tuple t1 @ Value.as_tuple t2), Poly.mul p1 p2))
              eb)
          ea
      in
      (* distinct tuple pairs produce distinct concatenations only when
         arities are fixed, which typing guarantees; still coalesce. *)
      Abag
        (List.fold_left
           (fun acc (t, p) -> merge_entries Poly.add acc [ (t, p) ])
           [] cross)
  | Expr.Join (i, j, a, b) ->
      (* the Product case restricted to matching key components — exactly
         σ_{i = ka+j} applied to the abstract cross product *)
      let ea = as_entries (ainterp ctx a) and eb = as_entries (ainterp ctx b) in
      let key k t =
        match List.nth_opt (Value.as_tuple t) (k - 1) with
        | Some v -> v
        | None -> unsupported "join attribute %d of %s" k (Value.to_string t)
      in
      let cross =
        List.concat_map
          (fun (t1, p1) ->
            List.filter_map
              (fun (t2, p2) ->
                if Value.equal (key i t1) (key j t2) then
                  Some
                    ( Value.tuple (Value.as_tuple t1 @ Value.as_tuple t2),
                      Poly.mul p1 p2 )
                else None)
              eb)
          ea
      in
      Abag
        (List.fold_left
           (fun acc (t, p) -> merge_entries Poly.add acc [ (t, p) ])
           [] cross)
  | Expr.Map (x, body, e) ->
      let entries = as_entries (ainterp ctx e) in
      let images =
        List.map
          (fun (t, p) ->
            let ctx' = { ctx with env = Eval.Env.add x (Conc t) ctx.env } in
            (as_conc (ainterp ctx' body), p))
          entries
      in
      Abag
        (List.fold_left
           (fun acc (t, p) -> merge_entries Poly.add acc [ (t, p) ])
           [] images)
  | Expr.Select (x, l, r, e) ->
      let entries = as_entries (ainterp ctx e) in
      Abag
        (List.filter
           (fun (t, _) ->
             let ctx' = { ctx with env = Eval.Env.add x (Conc t) ctx.env } in
             Value.equal (as_conc (ainterp ctx' l)) (as_conc (ainterp ctx' r)))
           entries)
  | Expr.Dedup e ->
      let entries = as_entries (ainterp ctx e) in
      Abag
        (List.filter_map
           (fun (t, p) ->
             bump ctx (Poly.sign_stable_from p);
             if Poly.limit_sign p > 0 then Some (t, Poly.one) else None)
           entries)
  | Expr.Let (x, e, body) -> (
      match ainterp ctx e with
      | Cval v -> ainterp { ctx with env = Eval.Env.add x (Conc v) ctx.env } body
      | Abag entries ->
          ainterp { ctx with env = Eval.Env.add x (Abs entries) ctx.env } body)
  | Expr.Sing _ -> unsupported "bagging creates nested bags (not BALG^1)"
  | Expr.Powerset _ | Expr.Powerbag _ | Expr.Destroy _ ->
      unsupported "powerset/destroy change bag nesting (not BALG^1)"
  | Expr.Nest _ | Expr.Unnest _ ->
      unsupported "nest/unnest change bag nesting (not BALG^1)"
  | Expr.Fix _ | Expr.BFix _ -> unsupported "fixpoints are outside Prop 4.1"

(** Analyse expression [e] over the input family [B{_n} = {{<a>:n}}] named
    by [input].  @raise Unsupported outside the BALG{^1}+ε fragment. *)
let analyze ~input e =
  let ctx = { input; threshold = 0; env = Eval.Env.empty } in
  let entries = as_entries (ainterp ctx e) in
  { entries; threshold = ctx.threshold }

(** Predicted multiplicity of tuple [t] at input size [n] (valid for
    [n > threshold]). *)
let predicted_count analysis t ~n =
  match List.assoc_opt t analysis.entries with
  | None -> Bignat.zero
  | Some p -> (
      match Bigint.to_bignat_opt (Poly.eval_int p n) with
      | Some c -> c
      | None ->
          (* negative prediction inside the validity region would be a bug *)
          invalid_arg "Polyab.predicted_count: negative count")

(** Compare the abstract prediction against the concrete evaluator on
    [B{_n}]; sound only for [n > analysis.threshold]. *)
let agrees_with_eval ~input e analysis ~n =
  let bn = Value.replicate (Bignat.of_int n) input_tuple in
  let concrete =
    match Eval.run (Eval.env_of_list [ (input, bn) ]) e with
    | Ok v -> Value.as_bag v
    | Error x -> failwith (Budget.exhaustion_to_string x)
  in
  let predicted =
    List.filter_map
      (fun (t, p) ->
        let c = Poly.eval_int p n in
        match Bigint.to_bignat_opt c with
        | Some c when not (Bignat.is_zero c) -> Some (t, c)
        | Some _ -> None
        | None -> None)
      analysis.entries
  in
  Value.equal (Value.bag_of_assoc concrete) (Value.bag_of_assoc predicted)

(** The structural consequence used by Prop 4.5: every output count is a
    polynomial, hence eventually monotone; [bag-even] (count alternating
    between [n] and [0]) is therefore not expressible.  For a given analysis
    and tuple, report the polynomial. *)
let polynomial_of analysis t = List.assoc_opt t analysis.entries
