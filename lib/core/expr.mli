(** Abstract syntax of BALG (§3) with the fixpoint (§6) and nesting (§7)
    extensions.

    Object-level constructors (tupling, bagging, projection) and bag-level
    operators share one expression language with explicit binders: [Map (x,
    body, e)] is MAP{_λx.body}(e), and [Select (x, l, r, e)] is
    σ{_λx.l=r}(e).  λ bodies may mention outer bags, which the paper's own
    derived forms require. *)

type var = string

type t =
  | Var of var
  | Lit of Value.t * Ty.t  (** literal constant with its declared type *)
  | Tuple of t list  (** tupling [τ] *)
  | Proj of int * t  (** attribute projection [α{_i}], 1-based *)
  | Sing of t  (** bagging [β] *)
  | UnionAdd of t * t  (** additive union [∪+] *)
  | Diff of t * t  (** subtraction (monus) [−] *)
  | UnionMax of t * t  (** maximal union [∪] *)
  | Inter of t * t  (** intersection [∩] *)
  | Product of t * t  (** Cartesian product [×] *)
  | Join of int * int * t * t
      (** keyed equijoin [σ{_a.i=b.j}(a × b)], concatenated tuples — a
          derived form produced by the {!Opt} planner; both engines run
          it as a hash join, bit-identical to select-over-product *)
  | Powerset of t  (** [P] *)
  | Powerbag of t  (** [Pb] (Definition 5.1) *)
  | Destroy of t  (** bag-destroy [δ] *)
  | Map of var * t * t  (** restructuring MAP *)
  | Select of var * t * t * t  (** selection σ{_φ=φ'} *)
  | Dedup of t  (** duplicate elimination [ε] *)
  | Let of var * t * t
  | Fix of var * t * t  (** inflationary fixpoint (Thm 6.6) *)
  | BFix of t * var * t * t  (** bounded fixpoint: bound, binder, body, seed *)
  | Nest of int list * t  (** §7 nest: group by the listed attributes *)
  | Unnest of int * t  (** expand a bag-valued attribute in place *)

(** {1 Constructors} *)

val var : var -> t
val lit : Value.t -> Ty.t -> t
val atom : string -> t

val empty : Ty.t -> t
(** Typed empty-bag literal. *)

val tuple : t list -> t
val proj : int -> t -> t
val sing : t -> t
val ( ++ ) : t -> t -> t
val ( -- ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( &&& ) : t -> t -> t
val ( *** ) : t -> t -> t

val join : int -> int -> t -> t -> t
(** [join i j a b] is σ{_x.i = x.(ka+j)}(a × b) as one keyed operator. *)

val powerset : t -> t
val powerbag : t -> t
val destroy : t -> t
val map : var -> t -> t -> t
val select : var -> t -> t -> t -> t
val dedup : t -> t
val let_ : var -> t -> t -> t
val fix : var -> t -> t -> t
val bfix : t -> var -> t -> t -> t

val proj_attrs : int list -> t -> t
(** Generalized projection [π{_i1..in}] as a MAP; indices may repeat. *)

val as_proj : t -> (int list * t) option
(** The inverse of {!proj_attrs}, whatever the bound variable's name:
    [Some (ixs, e)] for [MAP{_λx.<α_i1 x, ..., α_in x>}(e)]. *)

val ones : ?on:string -> t -> t
(** [MAP{_λx.<a>}(e)]: the cardinality of [e] as an integer-bag. *)

(** {1 Traversal} *)

val children : t -> t list
val size : t -> int

val op_name : t -> string
(** Short operator label ("powerset", "let x", ...): the attribution name
    shared by {!Explain}, the {!Telemetry} span tree, and budget-exhaustion
    reports. *)

module Vars : Set.S with type elt = string

val free_vars : t -> Vars.t

val fresh_var : string -> var
(** Fresh names contain [%], which user programs cannot clash with
    accidentally (the lexer accepts it, so printing round-trips). *)

val subst : var -> t -> t -> t
(** [subst x r e]: capture-avoiding substitution of [r] for [x] in [e]. *)

(** {1 Rendering}

    The printed form is exactly the surface syntax accepted by
    [Baglang.Parser]. *)

val pp : Format.formatter -> t -> unit
val pp_atomic : Format.formatter -> t -> unit
val to_string : t -> string
