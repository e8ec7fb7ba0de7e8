(** Bottom-up static properties of algebra expressions: the analysis side
    of the cost-based optimiser ({!Opt}).

    For every node we infer a small property record — tuple arity where
    the type is a flat bag, a saturating estimate (and, where possible, an
    exact figure) of the output {e support}, and a distinctness fact (all
    multiplicities equal one).  Distinctness is what makes several of the
    optimiser's rewrites sound to {e prefer} (e.g. keyed joins over
    distinct operands stay distinct, so later [dedup]s are free), and
    support estimates are what the cost model multiplies kernel constants
    against.

    Cardinality bounds come from two sources, mirroring the paper's
    stratification: where the expression falls in the BALG{^1}(+ε)
    fragment over a single bag input, {!Polyab} gives the {e exact}
    occurrence-count polynomial of Proposition 4.1, which we evaluate at
    the input's actual cardinality; everywhere else we fall back to
    structural support heuristics (products multiply, selections shrink,
    [nest]/[dedup] bound by their input).  The polynomial, when present,
    is kept on the record so [balgi explain] can show the paper-native
    bound alongside the heuristic one. *)

module Env = Map.Make (String)

type t = {
  arity : int option;  (** tuple width when the node is a flat bag of tuples *)
  rows : int;  (** saturating estimate of the output support *)
  exact : bool;  (** [rows] is exact, not a heuristic *)
  distinct : bool;  (** every multiplicity is provably one *)
  card : Poly.t option;
      (** total-cardinality polynomial in the input cardinality, via
          {!Polyab} when the BALG{^1}+ε fragment applies *)
}

(* Support estimate used for relations whose contents are unknown (a free
   variable with no binding supplied): the 300-row bench relations and the
   QCheck instances both live within an order of magnitude of this. *)
let default_rows = 64

let sat_add = Value.sat_add
let sat_mul = Value.sat_mul

let sat_pow2 n = if n >= 62 then max_int else 1 lsl n

(* Halving-style guesses never drop to zero: an empty estimate would make
   the cost model treat whole subplans as free. *)
let shrink n d = max 1 (n / d)

(* Polyab tracks literal bags concretely, entry by entry — fine for the
   small relations of the paper's examples, quadratic blowup on the
   multi-hundred-row bench literals.  The abstraction only pays for
   itself on small inputs anyway; past this the heuristics take over. *)
let polyab_literal_cap = 32

let literals_small e =
  let small = ref true in
  let rec go e =
    (match e with
    | Expr.Lit (v, _)
      when Value.is_bag v && Value.support_size v > polyab_literal_cap ->
        small := false
    | _ -> ());
    if !small then List.iter go (Expr.children e)
  in
  go e;
  !small

(* The Proposition 4.1 path: a closed-or-single-input expression analysed
   over the family B_n yields one occurrence polynomial per output tuple;
   their sum is the total cardinality as a polynomial in n.  Outside the
   fragment Polyab refuses and we return None. *)
let polyab_card e =
  if not (literals_small e) then None
  else
  match Expr.Vars.elements (Expr.free_vars e) with
  | [] | [ _ ] -> (
      let input =
        match Expr.Vars.elements (Expr.free_vars e) with
        | [ x ] -> x
        | _ -> "__polyab_input"
      in
      try
        let a = Polyab.analyze ~input e in
        Some
          (List.fold_left
             (fun p (_, q) -> Poly.add p q)
             Poly.zero a.Polyab.entries)
      with Polyab.Unsupported _ -> None)
  | _ -> None

(* Evaluate a cardinality polynomial at the (known) input cardinality,
   saturating into the support-estimate domain. *)
let poly_rows p ~n =
  let v = Poly.eval_int p n in
  if Bigint.sign v <= 0 then 0
  else
    match Bigint.to_bignat_opt v with
    | None -> max_int
    | Some b -> ( match Bignat.to_int_opt b with None -> max_int | Some k -> k)

let all_unit_counts v =
  Value.is_bag v
  && List.for_all (fun (_, c) -> Bignat.is_one c) (Value.as_bag v)

let of_value v =
  if Value.is_bag v then
    {
      arity =
        (match Value.view v with
        | Value.Bag ((t, _) :: _) -> (
            match Value.view t with
            | Value.Tuple ts -> Some (List.length ts)
            | _ -> None)
        | _ -> None);
      rows = Value.support_size v;
      exact = true;
      distinct = all_unit_counts v;
      card = None;
    }
  else { arity = None; rows = 1; exact = true; distinct = true; card = None }

let scalar = { arity = None; rows = 1; exact = true; distinct = true; card = None }

let unknown_bag =
  { arity = None; rows = default_rows; exact = false; distinct = false; card = None }

(* Measured correction factors (Calib) scale the heuristic estimates;
   exact figures and saturated estimates are left alone.  Factors apply
   per node inside the recursion, so a calibrated child feeds its
   corrected rows to the parent's formula — multiplicative errors
   compose the same way they were measured. *)
let apply_calib calib e p =
  if p.exact || p.rows = max_int then p
  else
    match calib (Calib.op_key (Expr.op_name e)) with
    | None -> p
    | Some f when f = 1.0 -> p
    | Some f ->
        let r = float_of_int p.rows *. f in
        let rows =
          if r >= 4.6e18 then max_int else max 1 (int_of_float (r +. 0.5))
        in
        { p with rows }

(* The facts of a supplied relation — its [of_value] record and its
   cardinality as an int — cost O(rows) each, and the planner asks for them
   at every node of every candidate plan it costs.  Each domain memoises
   them for the [vals] list it saw last, compared physically (lists and
   values are immutable), so one planning run pays once per relation.  The
   list is held by an ephemeron: the memo never keeps a database snapshot
   alive after its request. *)
let leaf_memo = Domain.DLS.new_key (fun () -> ref None)

let leaf vals x =
  match List.assoc_opt x vals with
  | None -> None
  | Some v -> (
      let memo = Domain.DLS.get leaf_memo in
      let tbl =
        match Option.bind !memo (fun eph -> Ephemeron.K1.query eph vals) with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 16 in
            memo := Some (Ephemeron.K1.make vals tbl);
            tbl
      in
      match Hashtbl.find_opt tbl x with
      | Some _ as r -> r
      | None ->
          let card =
            if Value.is_bag v then Bignat.to_int_opt (Value.cardinal v) else None
          in
          let r = (of_value v, card) in
          Hashtbl.add tbl x r (* domain-local: DLS memo *);
          Some r)

let infer ?(vals = []) ?calib (tenv : Typecheck.env) e =
  let calib =
    match calib with Some f -> f | None -> Calib.lookup_current
  in
  (* Known input cardinality for the Polyab path: only meaningful when the
     expression reads a single relation. *)
  let input_card x = Option.bind (leaf vals x) snd in
  let rec go (penv : t Env.t) e : t =
    let p =
      match e with
      | Expr.Var x -> (
          match Env.find_opt x penv with
          | Some p -> p
          | None -> (
              match leaf vals x with
              | Some (p, _) -> p
              | None -> (
                  match Typecheck.Env.find_opt x tenv with
                  | Some (Ty.Bag (Ty.Tuple ts)) ->
                      { unknown_bag with arity = Some (List.length ts) }
                  | Some (Ty.Bag _) -> unknown_bag
                  | _ -> scalar)))
      | Expr.Lit (v, _) -> of_value v
      | Expr.Tuple _ | Expr.Proj _ -> scalar
      | Expr.Sing _ -> { scalar with arity = None; rows = 1 }
      | Expr.UnionAdd (a, b) ->
          let pa = go penv a and pb = go penv b in
          {
            arity = pa.arity;
            rows = sat_add pa.rows pb.rows;
            exact = false;
            distinct = false;
            card = None;
          }
      | Expr.Diff (a, b) ->
          let pa = go penv a in
          ignore (go penv b);
          { pa with exact = false; card = None }
      | Expr.UnionMax (a, b) ->
          let pa = go penv a and pb = go penv b in
          {
            arity = pa.arity;
            rows = sat_add pa.rows pb.rows;
            exact = false;
            distinct = pa.distinct && pb.distinct;
            card = None;
          }
      | Expr.Inter (a, b) ->
          let pa = go penv a and pb = go penv b in
          {
            arity = pa.arity;
            rows = min pa.rows pb.rows;
            exact = false;
            distinct = pa.distinct || pb.distinct;
            card = None;
          }
      | Expr.Product (a, b) ->
          let pa = go penv a and pb = go penv b in
          {
            arity =
              (match (pa.arity, pb.arity) with
              | Some i, Some j -> Some (i + j)
              | _ -> None);
            rows = sat_mul pa.rows pb.rows;
            (* distinct × distinct pairs stay pairwise distinct, so the
               product of exact supports is itself exact *)
            exact = pa.exact && pb.exact && pa.distinct && pb.distinct;
            distinct = pa.distinct && pb.distinct;
            card = None;
          }
      | Expr.Join (i, j, a, b) ->
          ignore (i, j);
          let pa = go penv a and pb = go penv b in
          {
            arity =
              (match (pa.arity, pb.arity) with
              | Some i, Some j -> Some (i + j)
              | _ -> None);
            (* near-unique key heuristic: each row of the larger side meets
               about one partner, so the match count tracks max, not the
               product *)
            rows = max pa.rows pb.rows;
            exact = false;
            distinct = pa.distinct && pb.distinct;
            card = None;
          }
      | Expr.Powerset e0 ->
          let p0 = go penv e0 in
          {
            arity = None;
            rows = sat_pow2 p0.rows;
            exact = false;
            distinct = true;
            card = None;
          }
      | Expr.Powerbag e0 ->
          let p0 = go penv e0 in
          {
            arity = None;
            rows = sat_pow2 (sat_add p0.rows 2);
            exact = false;
            distinct = false;
            card = None;
          }
      | Expr.Destroy e0 ->
          let p0 = go penv e0 in
          {
            arity = None;
            rows = sat_mul 8 p0.rows;
            exact = false;
            distinct = false;
            card = None;
          }
      | Expr.Map (x, body, e0) ->
          let p0 = go penv e0 in
          let pb = go (Env.add x scalar penv) body in
          ignore pb;
          (* MAP coalesces images, so the input support is an upper bound;
             projections typically keep most rows apart *)
          {
            arity = None;
            rows = p0.rows;
            exact = false;
            distinct = false;
            card = None;
          }
      | Expr.Select (x, l, r, e0) ->
          let p0 = go penv e0 in
          ignore (go (Env.add x scalar penv) l);
          ignore (go (Env.add x scalar penv) r);
          {
            p0 with
            rows = shrink p0.rows 3 (* equality predicates are selective *);
            exact = false;
            card = None;
          }
      | Expr.Dedup e0 ->
          let p0 = go penv e0 in
          { p0 with distinct = true; card = None }
      | Expr.Nest (ixs, e0) ->
          let p0 = go penv e0 in
          ignore ixs;
          {
            arity = Option.map (fun _ -> List.length ixs + 1) p0.arity;
            rows = shrink p0.rows 2 (* groups merge rows sharing a key *);
            exact = false;
            distinct = true;
            card = None;
          }
      | Expr.Unnest (_, e0) ->
          let p0 = go penv e0 in
          {
            arity = Option.map (fun k -> k) p0.arity;
            rows = sat_mul 4 p0.rows;
            exact = false;
            distinct = false;
            card = None;
          }
      | Expr.Let (x, e0, body) ->
          let p0 = go penv e0 in
          go (Env.add x p0 penv) body
      | Expr.Fix (x, body, seed) ->
          let ps = go penv seed in
          let pb = go (Env.add x { ps with exact = false } penv) body in
          {
            arity = ps.arity;
            rows = sat_mul 8 (max ps.rows pb.rows);
            exact = false;
            distinct = false;
            card = None;
          }
      | Expr.BFix (bound, x, body, seed) ->
          let pbound = go penv bound in
          let ps = go penv seed in
          ignore (go (Env.add x { ps with exact = false } penv) body);
          (* the inflationary iteration is clamped inside the bound *)
          {
            arity = pbound.arity;
            rows = pbound.rows;
            exact = false;
            distinct = false;
            card = None;
          }
    in
    apply_calib calib e p
  in
  let p = go Env.empty e in
  let arity = match p.arity with Some _ as a -> a | None -> Rewrite.arity_of tenv e in
  (* Refine with the paper-native bound where the fragment applies: the
     polynomial evaluated at the input's cardinality bounds the output
     cardinality, hence the support. *)
  match polyab_card e with
  | None -> { p with arity }
  | Some poly ->
      let rows =
        match Expr.Vars.elements (Expr.free_vars e) with
        | [ x ] -> (
            match input_card x with
            | Some n -> min p.rows (poly_rows poly ~n)
            | None -> p.rows)
        | [] -> min p.rows (poly_rows poly ~n:0)
        | _ -> p.rows
      in
      { p with arity; rows; card = Some poly }

let to_string p =
  Printf.sprintf "{arity=%s; rows%s%s%s%s}"
    (match p.arity with Some k -> string_of_int k | None -> "?")
    (if p.exact then "=" else "~")
    (if p.rows = max_int then "inf" else string_of_int p.rows)
    (if p.distinct then "; distinct" else "")
    (match p.card with
    | Some poly -> "; card=" ^ Poly.to_string poly
    | None -> "")
