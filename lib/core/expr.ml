(** Abstract syntax of the bag algebra BALG (§3), plus the fixpoint
    extensions of §6.

    The paper separates object-level constructors (tupling [τ], bagging [β],
    attribute projection [α{_i}]) from bag-level operators and uses λ
    notation for the functions passed to MAP and selection.  We fold both
    levels into a single expression language with explicit binders: [Map
    (x, body, e)] is [MAP{_λx.body}(e)] and [Select (x, l, r, e)] is
    [σ{_λx. l = r}(e)].  This is exactly the algebra — the binders never
    iterate, they are applied pointwise to bag members — but it lets λ bodies
    mention outer bags, which the paper's own derived forms require (e.g. the
    definition of [−] from [P] in §3). *)

type var = string

type t =
  | Var of var
  | Lit of Value.t * Ty.t  (** literal constant with its type *)
  | Tuple of t list  (** tupling [τ] *)
  | Proj of int * t  (** attribute projection [α{_i}], 1-based *)
  | Sing of t  (** bagging [β]: the singleton bag *)
  | UnionAdd of t * t  (** additive union [∪+] *)
  | Diff of t * t  (** subtraction [−] (monus on counts) *)
  | UnionMax of t * t  (** maximal union [∪] *)
  | Inter of t * t  (** intersection [∩] *)
  | Product of t * t  (** Cartesian product [×] *)
  | Join of int * int * t * t
      (** keyed equijoin [σ{_a.i=b.j}(a × b)] with concatenated tuples —
          a derived form (it abbreviates select-over-product, same
          multiplicities), produced by the {!Opt} planner so both engines
          can run it as a hash join instead of materialising the product *)
  | Powerset of t  (** [P] — one occurrence of each subbag *)
  | Powerbag of t  (** [Pb] (Definition 5.1) *)
  | Destroy of t  (** bag-destroy [δ] *)
  | Map of var * t * t  (** restructuring [MAP] *)
  | Select of var * t * t * t  (** selection [σ{_φ=φ'}] *)
  | Dedup of t  (** duplicate elimination [ε] *)
  | Let of var * t * t  (** local binding (syntactic sugar) *)
  | Fix of var * t * t
      (** inflationary fixpoint (Theorem 6.6): iterate
          [X ↦ body(X) ∪ X] from the seed until stable *)
  | BFix of t * var * t * t
      (** bounded fixpoint ([Suc93], §6): like {!Fix} but every iterate is
          intersected with the bound, guaranteeing termination *)
  | Nest of int list * t
      (** the set-nesting operator discussed in §7 ([PG88, Won93]): group a
          bag of tuples by the listed (1-based) attributes, collecting the
          remaining attributes — with their multiplicities — into a bag
          appended as a last component; each group occurs once *)
  | Unnest of int * t
      (** inverse restructuring: expand the bag-valued attribute [i],
          multiplying multiplicities *)

(** {1 Convenience constructors} *)

let var x = Var x
let lit v ty = Lit (v, ty)
let atom s = Lit (Value.atom s, Ty.Atom)
let empty ty = Lit (Value.empty_bag, ty)
let tuple es = Tuple es
let proj i e = Proj (i, e)
let sing e = Sing e
let ( ++ ) a b = UnionAdd (a, b)
let ( -- ) a b = Diff (a, b)
let ( |||) a b = UnionMax (a, b)
let ( &&& ) a b = Inter (a, b)
let ( *** ) a b = Product (a, b)
let join i j a b = Join (i, j, a, b)
let powerset e = Powerset e
let powerbag e = Powerbag e
let destroy e = Destroy e
let map x body e = Map (x, body, e)
let select x l r e = Select (x, l, r, e)
let dedup e = Dedup e
let let_ x e body = Let (x, e, body)
let fix x body seed = Fix (x, body, seed)
let bfix bound x body seed = BFix (bound, x, body, seed)

(** [proj_attrs [i1; ...; in] e] is the generalized projection
    [π{_i1,...,in}], i.e. [MAP{_λx.<α_i1 x, ..., α_in x>}]. *)
let proj_attrs ixs e =
  let x = "%pi" in
  Map (x, Tuple (List.map (fun i -> Proj (i, Var x)) ixs), e)

(** [as_proj e] inverts {!proj_attrs}: [Some (ixs, src)] when [e] is a MAP
    whose body is the tuple [<x.i1, ..., x.in>] of its own variable. *)
let as_proj = function
  | Map (x, Tuple es, src) ->
      let rec collect acc = function
        | [] -> Some (List.rev acc, src)
        | Proj (i, Var y) :: rest when String.equal y x -> collect (i :: acc) rest
        | _ -> None
      in
      collect [] es
  | _ -> None

(** [ones e] is [MAP{_λx.<a>}(e)]: a bag of [card e] copies of the unary
    tuple [<a>] — the integer-as-bag image of the cardinality of [e]. *)
let ones ?(on = "a") e =
  Map ("%one", Tuple [ Lit (Value.atom on, Ty.Atom) ], e)

(** {1 Traversal} *)

(** Immediate subexpressions, in syntactic order. *)
let children = function
  | Var _ | Lit _ -> []
  | Tuple es -> es
  | Proj (_, e) | Sing e | Powerset e | Powerbag e | Destroy e | Dedup e
  | Nest (_, e) | Unnest (_, e) ->
      [ e ]
  | UnionAdd (a, b) | Diff (a, b) | UnionMax (a, b) | Inter (a, b)
  | Product (a, b)
  | Join (_, _, a, b) ->
      [ a; b ]
  | Map (_, body, e) -> [ body; e ]
  | Select (_, l, r, e) -> [ l; r; e ]
  | Let (_, e, body) -> [ e; body ]
  | Fix (_, body, seed) -> [ body; seed ]
  | BFix (bound, _, body, seed) -> [ bound; body; seed ]

let rec size e = 1 + List.fold_left (fun acc c -> acc + size c) 0 (children e)

(** Short operator label for a node — the attribution name shared by the
    profiler, the telemetry span tree and budget-exhaustion reports. *)
let op_name : t -> string = function
  | Var x -> "var " ^ x
  | Lit _ -> "lit"
  | Tuple _ -> "tuple"
  | Proj (i, _) -> Printf.sprintf "proj %d" i
  | Sing _ -> "sing"
  | UnionAdd _ -> "union_add"
  | Diff _ -> "diff"
  | UnionMax _ -> "union_max"
  | Inter _ -> "inter"
  | Product _ -> "product"
  | Join (i, j, _, _) -> Printf.sprintf "join %d=%d" i j
  | Powerset _ -> "powerset"
  | Powerbag _ -> "powerbag"
  | Destroy _ -> "destroy"
  | Map _ -> "map"
  | Select _ -> "select"
  | Dedup _ -> "dedup"
  | Let (x, _, _) -> "let " ^ x
  | Fix _ -> "fix"
  | BFix _ -> "bfix"
  | Nest (ixs, _) ->
      Printf.sprintf "nest [%s]" (String.concat "," (List.map string_of_int ixs))
  | Unnest (i, _) -> Printf.sprintf "unnest %d" i

module Vars = Set.Make (String)

let rec free_vars = function
  | Var x -> Vars.singleton x
  | Lit _ -> Vars.empty
  | Tuple es -> List.fold_left (fun s e -> Vars.union s (free_vars e)) Vars.empty es
  | Proj (_, e) | Sing e | Powerset e | Powerbag e | Destroy e | Dedup e
  | Nest (_, e) | Unnest (_, e) ->
      free_vars e
  | UnionAdd (a, b) | Diff (a, b) | UnionMax (a, b) | Inter (a, b)
  | Product (a, b)
  | Join (_, _, a, b) ->
      Vars.union (free_vars a) (free_vars b)
  | Map (x, body, e) -> Vars.union (Vars.remove x (free_vars body)) (free_vars e)
  | Select (x, l, r, e) ->
      Vars.union
        (Vars.remove x (Vars.union (free_vars l) (free_vars r)))
        (free_vars e)
  | Let (x, e, body) -> Vars.union (free_vars e) (Vars.remove x (free_vars body))
  | Fix (x, body, seed) ->
      Vars.union (Vars.remove x (free_vars body)) (free_vars seed)
  | BFix (bound, x, body, seed) ->
      Vars.union (free_vars bound)
        (Vars.union (Vars.remove x (free_vars body)) (free_vars seed))

(* Atomic: the optimizer alpha-renames concurrently on server worker
   domains, and a torn increment could hand two domains the same name.
   Capture-freshness is per-expression, but unique names keep decision
   logs and traces unambiguous too. *)
let fresh_counter = Atomic.make 0

let fresh_var hint =
  Printf.sprintf "%%%s%d" hint (Atomic.fetch_and_add fresh_counter 1 + 1)

(** Capture-avoiding substitution of [replacement] for free occurrences of
    [x]. *)
let rec subst x replacement e =
  let s e = subst x replacement e in
  let under y body =
    if String.equal x y then (y, body)
    else if Vars.mem y (free_vars replacement) then begin
      let y' = fresh_var "r" in
      (y', subst x replacement (subst y (Var y') body))
    end
    else (y, s body)
  in
  match e with
  | Var y -> if String.equal x y then replacement else e
  | Lit _ -> e
  | Tuple es -> Tuple (List.map s es)
  | Proj (i, e) -> Proj (i, s e)
  | Sing e -> Sing (s e)
  | UnionAdd (a, b) -> UnionAdd (s a, s b)
  | Diff (a, b) -> Diff (s a, s b)
  | UnionMax (a, b) -> UnionMax (s a, s b)
  | Inter (a, b) -> Inter (s a, s b)
  | Product (a, b) -> Product (s a, s b)
  | Join (i, j, a, b) -> Join (i, j, s a, s b)
  | Powerset e -> Powerset (s e)
  | Powerbag e -> Powerbag (s e)
  | Destroy e -> Destroy (s e)
  | Dedup e -> Dedup (s e)
  | Nest (ixs, e) -> Nest (ixs, s e)
  | Unnest (i, e) -> Unnest (i, s e)
  | Map (y, body, e) ->
      let y, body = under y body in
      Map (y, body, s e)
  | Select (y, l, r, e) ->
      if String.equal x y then Select (y, l, r, s e)
      else if Vars.mem y (free_vars replacement) then begin
        let y' = fresh_var "r" in
        let l' = subst x replacement (subst y (Var y') l)
        and r' = subst x replacement (subst y (Var y') r) in
        Select (y', l', r', s e)
      end
      else Select (y, s l, s r, s e)
  | Let (y, e, body) ->
      let e = s e in
      let y, body = under y body in
      Let (y, e, body)
  | Fix (y, body, seed) ->
      let seed = s seed in
      let y, body = under y body in
      Fix (y, body, seed)
  | BFix (bound, y, body, seed) ->
      let bound = s bound and seed = s seed in
      let y, body = under y body in
      BFix (bound, y, body, seed)

(** {1 Rendering} *)

let rec pp ppf e =
  let list = Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp in
  match e with
  | Var x -> Format.pp_print_string ppf x
  | Lit (v, ty) when Value.is_empty_bag v -> Format.fprintf ppf "empty(%a)" Ty.pp ty
  | Lit (v, _) -> Value.pp ppf v
  | Tuple es -> Format.fprintf ppf "<%a>" list es
  | Proj (i, e) -> Format.fprintf ppf "%a.%d" pp_atomic e i
  | Sing e -> Format.fprintf ppf "sing(%a)" pp e
  | UnionAdd (a, b) -> Format.fprintf ppf "(%a ++ %a)" pp a pp b
  | Diff (a, b) -> Format.fprintf ppf "(%a -- %a)" pp a pp b
  | UnionMax (a, b) -> Format.fprintf ppf "(%a \\/ %a)" pp a pp b
  | Inter (a, b) -> Format.fprintf ppf "(%a /\\ %a)" pp a pp b
  | Product (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Join (i, j, a, b) -> Format.fprintf ppf "join[%d,%d](%a, %a)" i j pp a pp b
  | Powerset e -> Format.fprintf ppf "powerset(%a)" pp e
  | Powerbag e -> Format.fprintf ppf "powerbag(%a)" pp e
  | Destroy e -> Format.fprintf ppf "destroy(%a)" pp e
  | Map (x, body, e) -> Format.fprintf ppf "map(%s -> %a, %a)" x pp body pp e
  | Select (x, l, r, e) ->
      Format.fprintf ppf "select(%s -> %a == %a, %a)" x pp l pp r pp e
  | Dedup e -> Format.fprintf ppf "dedup(%a)" pp e
  | Let (x, e, body) -> Format.fprintf ppf "let %s = %a in %a" x pp e pp body
  | Fix (x, body, seed) -> Format.fprintf ppf "fix(%s -> %a, %a)" x pp body pp seed
  | BFix (bound, x, body, seed) ->
      Format.fprintf ppf "bfix(%a, %s -> %a, %a)" pp bound x pp body pp seed
  | Nest (ixs, e) ->
      Format.fprintf ppf "nest[%s](%a)"
        (String.concat ", " (List.map string_of_int ixs))
        pp e
  | Unnest (i, e) -> Format.fprintf ppf "unnest[%d](%a)" i pp e

and pp_atomic ppf e =
  match e with
  | Var _ | Lit _ | Tuple _ | Proj _ -> pp ppf e
  | _ -> Format.fprintf ppf "(%a)" pp e

let to_string e = Format.asprintf "%a" pp e
