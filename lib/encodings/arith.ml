(** Lemma 5.7: compiling bounded arithmetic into the bag algebra.

    An integer [i] is the bag with [i] occurrences of [<a>]; addition is
    [∪+], multiplication is Cartesian product followed by restructuring, and
    bounded quantification ranges over a domain bag [D] of integer-bags
    (the paper builds [D(b{_n}) = P(E{^i}(b{_n}))] with the powerbag-based
    doubling [E]).  A formula with its quantified variables in scope compiles
    to the bag of satisfying assignments — a (duplicate-free) subbag of
    [D{^d}] — and a sentence compiles to a bag of empty tuples, nonempty iff
    the sentence is true.

    Variables are numbered by quantifier nesting from the outside in:
    [TVar 1] is the outermost quantified variable. *)

open Balg

type term =
  | TVar of int  (** 1-based, outermost quantifier first *)
  | TConst of int
  | TInput  (** the input integer [n], i.e. the bag [b{_n}] *)
  | TAdd of term * term
  | TMul of term * term

type formula =
  | Eq of term * term
  | Le of term * term
  | And of formula * formula
  | Or of formula * formula
  | Not of formula
  | Exists of formula  (** binds variable [d+1] where [d] is the depth *)
  | Forall of formula

(** {1 Reference semantics} (bounded quantification over [0..bound]) *)

let rec eval_term env ~input = function
  | TVar i -> List.nth env (i - 1)
  | TConst c -> c
  | TInput -> input
  | TAdd (s, t) -> eval_term env ~input s + eval_term env ~input t
  | TMul (s, t) -> eval_term env ~input s * eval_term env ~input t

let rec eval_formula ?(env = []) ~bound ~input = function
  | Eq (s, t) -> eval_term env ~input s = eval_term env ~input t
  | Le (s, t) -> eval_term env ~input s <= eval_term env ~input t
  | And (f, g) ->
      eval_formula ~env ~bound ~input f && eval_formula ~env ~bound ~input g
  | Or (f, g) ->
      eval_formula ~env ~bound ~input f || eval_formula ~env ~bound ~input g
  | Not f -> not (eval_formula ~env ~bound ~input f)
  | Exists f ->
      List.exists
        (fun v -> eval_formula ~env:(env @ [ v ]) ~bound ~input f)
        (List.init (bound + 1) Fun.id)
  | Forall f ->
      List.for_all
        (fun v -> eval_formula ~env:(env @ [ v ]) ~bound ~input f)
        (List.init (bound + 1) Fun.id)

(** {1 Compilation to BALG} *)

(* Multiplication of integer-bags: card(b1 × b2) = i*j, collapsed back onto
   <a> by the restructuring MAP. *)
let mul_nat e1 e2 = Derived.ones (Expr.Product (e1, e2))

(* A term, as an expression over the assignment tuple [w] of arity d. *)
let rec compile_term ~input w = function
  | TVar i -> Expr.Proj (i, Expr.Var w)
  | TConst c -> Derived.nat_lit c
  | TInput -> input
  | TAdd (s, t) ->
      Expr.UnionAdd (compile_term ~input w s, compile_term ~input w t)
  | TMul (s, t) -> mul_nat (compile_term ~input w s) (compile_term ~input w t)

let rec depth_of = function
  | Eq _ | Le _ -> 0
  | And (f, g) | Or (f, g) -> max (depth_of f) (depth_of g)
  | Not f -> depth_of f
  | Exists f | Forall f -> depth_of f

(* D^d as a bag of d-tuples of integer-bags; d = 0 gives the boolean unit
   {{<>}}. *)
let domain_power domain1 d =
  if d = 0 then
    Expr.Lit (Value.bag_of_list [ Value.tuple [] ], Ty.Bag (Ty.Tuple []))
  else
    let rec go k = if k = 1 then domain1 else Expr.Product (go (k - 1), domain1) in
    go d

(** [compile ~domain1 ~input ~depth f]: the bag of satisfying assignments of
    [f] under quantification domain [domain1] (a bag of 1-tuples of
    integer-bags), with [depth] variables in scope. *)
let rec compile ~domain1 ~input ~depth f =
  let dd = domain_power domain1 depth in
  match f with
  | Eq (s, t) ->
      let w = Expr.fresh_var "ar_w" in
      Expr.Select (w, compile_term ~input w s, compile_term ~input w t, dd)
  | Le (s, t) ->
      (* s <= t  iff  s -- t = 0 *)
      let w = Expr.fresh_var "ar_w" in
      Expr.Select
        ( w,
          Expr.Diff (compile_term ~input w s, compile_term ~input w t),
          Expr.Lit (Value.empty_bag, Ty.nat),
          dd )
  | And (f, g) ->
      Expr.Inter
        (compile ~domain1 ~input ~depth f, compile ~domain1 ~input ~depth g)
  | Or (f, g) ->
      Expr.UnionMax
        (compile ~domain1 ~input ~depth f, compile ~domain1 ~input ~depth g)
  | Not f -> Expr.Diff (dd, compile ~domain1 ~input ~depth f)
  | Exists f ->
      let inner = compile ~domain1 ~input ~depth:(depth + 1) f in
      if depth = 0 then
        (* project onto the empty tuple *)
        let w = Expr.fresh_var "ar_e" in
        Expr.Dedup (Expr.Map (w, Expr.Tuple [], inner))
      else
        Expr.Dedup (Expr.proj_attrs (List.init depth (fun i -> i + 1)) inner)
  | Forall f -> compile ~domain1 ~input ~depth (Not (Exists (Not f)))

(** Compile a sentence: the result is a bag of empty tuples, nonempty iff
    the sentence holds under quantification bounded by the domain. *)
let compile_sentence ~domain1 ~input f =
  if depth_of f <> 0 then invalid_arg "Arith.compile_sentence: open formula";
  compile ~domain1 ~input ~depth:0 f

(** Literal quantification domain [0..bound], for tests and experiments. *)
let literal_domain1 bound =
  Expr.Lit
    ( Value.bag_of_list (List.init (bound + 1) (fun i -> Value.tuple [ Value.nat i ])),
      Ty.Bag (Ty.Tuple [ Ty.nat ]) )

(** The paper's domain over the input bag: wraps
    [D(b) = P(E{^i}(b))] (powerbag-based doubling) into 1-tuples. *)
let paper_domain1 ~i b =
  let d = Expr.fresh_var "ar_d" in
  Expr.Map (d, Expr.Tuple [ Expr.Var d ], Derived.domain ~via_powerbag:true i b)

(** Truth through the algebra, with quantifiers bounded by [0..bound]. *)
let holds_via_algebra ?limits ~bound ~input f =
  let e =
    compile_sentence ~domain1:(literal_domain1 bound)
      ~input:(Derived.nat_lit input) f
  in
  match Eval.run ?limits (Eval.env_of_list []) e with
  | Ok v -> Eval.truthy v
  | Error x -> failwith (Budget.exhaustion_to_string x)
