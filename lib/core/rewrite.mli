(** Algebraic rewriting: the §3 laws as bag-sound rules, plus the [CV93]
    set-only rules that the paper warns about.

    Rules are applied bottom-up to a fixpoint by {!drive}, the one driver
    behind both {!normalize} and the cost-based planner {!Opt.optimize}.
    Soundness of the default rule set is property-tested against the
    interpreter; the {!set_only_rules} preserve set semantics but change
    multiplicities — experiment E18 shows the randomized equivalence
    checker catching them. *)

type rule = {
  name : string;
  applies : Typecheck.env -> Expr.t -> Expr.t option;
      (** [Some e'] when the rule rewrites the given node *)
}

val expr_compare : Expr.t -> Expr.t -> int
(** Structural total order on expressions (used to orient AC operators). *)

val arity_of : Typecheck.env -> Expr.t -> int option
(** Tuple width of a flat bag-of-tuples expression, [None] when the type
    is something else or does not infer (e.g. under an unrecorded binder). *)

val body_env : Typecheck.env -> Expr.t -> Typecheck.env
(** The environment a binder node's body is typed in: a [map] or [select]
    body sees its variable at the source's element type, a [let] body at
    the bound expression's type, a [fix]/[bfix] body at the seed's type.
    A binder type that does not infer removes the name rather than leave
    an outer binding it shadows visible.  Non-binder nodes return [env].
    {!Opt.cost} walks binder bodies with this same step. *)

val map_children_env :
  (Typecheck.env -> Expr.t -> Expr.t) -> Typecheck.env -> Expr.t -> Expr.t
(** Rebuild a node with [f env'] applied to each immediate subexpression,
    where [env'] is the environment that child is typed in ({!body_env}
    for binder bodies).  This is the traversal step of {!drive}. *)

(** {1 Bag-sound rules} *)

val rule_comm_unionadd : rule
val rule_comm_unionmax : rule
val rule_comm_inter : rule
val rule_assoc_unionadd : rule

val rule_idempotent : rule
(** [e ∩ e → e], [e ∪ e → e], [ε ε → ε], [ε P → P]. *)

val rule_self_difference : rule
val rule_empty_units : rule
val rule_destroy_sing : rule

val rule_unnest_nest : rule
(** [unnest(nest)] with prefix keys is the identity. *)

val rule_map_identity : rule
val rule_map_fusion : rule

val rule_select_pushdown : rule
(** Push a selection into the product operand its condition touches —
    sound for bags because multiplicities factor through the product. *)

val sound_rules : rule list

(** {1 Set-only rules (deliberately bag-unsound, [CV93])} *)

val rule_selfproduct_elim_setonly : rule
(** [π{_1..k}(R × R) → R]: conjunctive-query minimisation, an identity on
    sets, wrong on bags. *)

val rule_dedup_elim_setonly : rule

val set_only_rules : rule list

(** {1 Driving} *)

(** What the caller of {!drive} says to a proposed rewrite: take it, pass
    it over (the next rule is offered), or stop all rewriting and ship the
    tree as it stands. *)
type verdict = Accept | Reject | Stop

val drive :
  accept:(Typecheck.env -> string -> Expr.t -> Expr.t -> verdict) ->
  rule list ->
  Typecheck.env ->
  Expr.t ->
  Expr.t * string list
(** [drive ~accept rules env e] rewrites [e] bottom-up in passes.  At each
    node, after its children, the rules are offered in order; the first
    proposal [e'] that [accept env' name e e'] takes replaces the node
    ([env'] is the node's own environment, see {!map_children_env}), and
    the node is offered again, at most 16 firings per node.  Passes repeat
    while one fires, at most 8.  Each firing emits a [rewrite] {!Obs}
    instant named after its rule.  Returns the result and the names of
    the accepted firings, in order. *)

val normalize :
  ?rules:rule list -> Typecheck.env -> Expr.t -> Expr.t * string list
(** {!drive} accepting every firing: rewrite to a fixpoint (bounded);
    returns the normal form and the names of the rule applications
    performed, in order. *)
