(** Complex-object values: atoms, tuples, and bags with {!Bignat.t}
    multiplicities.

    Bags are kept in a canonical form — elements sorted by {!compare},
    strictly positive coalesced counts — so that structural operations on the
    representation implement bag equality and the subbag order directly.  An
    element [o] {e n-belongs} to a bag when its stored count is [n] (§2).

    Every node is tagged with a precomputed structural hash and a saturating
    encoded-size, so equality can refute in O(1) and the bag kernels can
    bucket by hash instead of deep-comparing.  The tags are maintained
    exclusively by the smart constructors; [t] is abstract in the interface
    so the invariants cannot be broken from outside. *)

type t = {
  node : view;
  hash : int;  (** structural: equal values have equal hashes *)
  size : int;  (** {!encoded_size} saturated to [int] ([max_int] = too big) *)
}

and view =
  | Atom of string
  | Tuple of t list
  | Bag of (t * Bignat.t) list
      (** invariant: strictly increasing in {!compare}, counts > 0 *)

let view v = v.node
let hash v = v.hash
let size_tag v = v.size

(* Saturating machine arithmetic for the size tags.  Both operands are
   non-negative, so overflow shows up as a sign flip or a divide check. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b

let count_tag c = match Bignat.to_int_opt c with Some n -> n | None -> max_int

(* FNV-1a-style mixing; the per-kind seeds keep [Atom x], [Tuple [x]] and
   [Bag [x, 1]] apart. *)
let mix h k = (h * 0x01000193) lxor (k land max_int)
let seed_atom = 0x2f0b13
let seed_tuple = 0x3a9d25
let seed_bag = 0x511e47

let rec compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Atom x, Atom y -> String.compare x y
    | Atom _, (Tuple _ | Bag _) -> -1
    | Tuple _, Atom _ -> 1
    | Tuple xs, Tuple ys -> List.compare compare xs ys
    | Tuple _, Bag _ -> -1
    | Bag xs, Bag ys ->
        List.compare
          (fun (v, c) (w, d) ->
            let cv = compare v w in
            if cv <> 0 then cv else Bignat.compare c d)
          xs ys
    | Bag _, (Atom _ | Tuple _) -> 1

let equal a b =
  a == b || (a.hash = b.hash && a.size = b.size && compare a b = 0)

(** {1 Constructors} *)

let atom s = { node = Atom s; hash = mix seed_atom (Hashtbl.hash s); size = 1 }

let tuple vs =
  let rec go h sz = function
    | [] -> { node = Tuple vs; hash = h; size = sz }
    | v :: rest -> go (mix h v.hash) (sat_add sz v.size) rest
  in
  go seed_tuple 1 vs

(* Trusted: [pairs] must already be canonical; only the tags are computed. *)
let of_sorted_assoc pairs =
  let rec go h sz = function
    | [] -> { node = Bag pairs; hash = h; size = sz }
    | (v, c) :: rest ->
        go
          (mix (mix h v.hash) (Bignat.hash c))
          (sat_add sz (sat_mul (count_tag c) v.size))
          rest
  in
  go seed_bag 1 pairs

let empty_bag = of_sorted_assoc []

(* Hash-keyed table over values: O(1) expected lookup, with the stored hash
   so membership never walks distinct structures. *)
module VH = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash v = v.hash
end)

(* Canonicalisation strategies.  For shallow elements an ordinary sort is
   fastest: adjacent-duplicate detection goes through {!equal}, whose hash
   tags refute distinct neighbours in O(1).  For deep elements (nested
   bags), duplicates are coalesced through a hash table first, so equal
   elements are never deep-compared against each other and the sort only
   ever sees the distinct support.  Every loop is tail-recursive —
   multi-hundred-thousand-element inputs come out of the Prop 3.2
   experiments. *)

let sort_coalesce pairs =
  let sorted = List.sort (fun (v, _) (w, _) -> compare v w) pairs in
  let rec go acc = function
    | [] -> List.rev acc
    | [ p ] -> List.rev (p :: acc)
    | (v, c) :: ((w, d) :: rest as tl) ->
        if equal v w then go acc ((v, Bignat.add c d) :: rest)
        else go ((v, c) :: acc) tl
  in
  of_sorted_assoc (go [] sorted)

let hash_coalesce pairs =
  let tbl = VH.create 64 in
  let distinct = ref [] in
  List.iter
    (fun (v, c) ->
      match VH.find_opt tbl v with
      | None ->
          let r = ref c in
          VH.add tbl v r;
          distinct := (v, r) :: !distinct
      | Some r -> r := Bignat.add !r c)
    pairs;
  let sorted = List.sort (fun (v, _) (w, _) -> compare v w) !distinct in
  of_sorted_assoc (List.map (fun (v, r) -> (v, !r)) sorted)

(* Positive counts, strictly increasing elements: the pairs already are a
   bag.  Stops at the first zero, duplicate or descent, so input in no
   particular order pays a step or two. *)
let rec canonical = function
  | [] -> true
  | [ (_, c) ] -> not (Bignat.is_zero c)
  | (v, c) :: ((w, _) :: _ as rest) ->
      (not (Bignat.is_zero c)) && compare v w < 0 && canonical rest

(* Canonicalise an arbitrary association list into a bag: drop zeros,
   coalesce counts additively, sort.  Text rendered from a bag (a WAL
   record, a shipped record, a snapshot) parses back to canonical pairs,
   which are taken as they are. *)
let bag_of_assoc (pairs : (t * Bignat.t) list) : t =
  match pairs with
  | _ :: _ when canonical pairs -> of_sorted_assoc pairs
  | _ -> (
      let pairs = List.filter (fun (_, c) -> not (Bignat.is_zero c)) pairs in
      match pairs with
      | [] -> empty_bag
      | [ p ] -> of_sorted_assoc [ p ]
      | _ ->
          let deep =
            let rec probe budget = function
              | (v, _) :: rest when budget > 0 ->
                  v.size >= 16 || probe (budget - 1) rest
              | _ -> false
            in
            probe 4 pairs
          in
          if deep then hash_coalesce pairs else sort_coalesce pairs)

let bag_of_list vs = bag_of_assoc (List.map (fun v -> (v, Bignat.one)) vs)

(** The bag [B{^t}{_i}]: exactly [i] occurrences of [t] and nothing else. *)
let replicate count v =
  if Bignat.is_zero count then empty_bag else of_sorted_assoc [ (v, count) ]

(** Integer-as-bag encoding of §3: [n] occurrences of the unary tuple
    [<a>]. *)
let nat ?(on = "a") n = replicate (Bignat.of_int n) (tuple [ atom on ])

(** {1 Accessors} *)

let as_bag v =
  match v.node with
  | Bag pairs -> pairs
  | Atom _ | Tuple _ -> invalid_arg "Value.as_bag: not a bag"

let as_tuple v =
  match v.node with
  | Tuple vs -> vs
  | Atom _ | Bag _ -> invalid_arg "Value.as_tuple: not a tuple"

let is_bag v = match v.node with Bag _ -> true | Atom _ | Tuple _ -> false
let is_empty_bag v = match v.node with Bag [] -> true | _ -> false

(** Multiplicity with which [v] belongs to bag [b] (zero if absent).  The
    support is sorted, so the scan stops at the first element above [v]. *)
let count_in v b =
  let rec go = function
    | [] -> Bignat.zero
    | (w, c) :: rest ->
        let cv = compare w v in
        if cv < 0 then go rest else if cv = 0 then c else Bignat.zero
  in
  go (as_bag b)

(** Total number of occurrences — the paper's size of a bag. *)
let cardinal b =
  List.fold_left (fun acc (_, c) -> Bignat.add acc c) Bignat.zero (as_bag b)

let support b = List.map fst (as_bag b)
let support_size b = List.length (as_bag b)

(** {1 Structure measures} *)

let rec bag_nesting v =
  match v.node with
  | Atom _ -> 0
  | Tuple vs -> List.fold_left (fun acc v -> max acc (bag_nesting v)) 0 vs
  | Bag pairs ->
      1 + List.fold_left (fun acc (v, _) -> max acc (bag_nesting v)) 0 pairs

(** Size of the standard encoding (§2): duplicates are counted explicitly.
    Returned as a {!Bignat.t} because sizes can themselves explode.  When the
    size tag did not saturate it is already the answer. *)
let rec encoded_size v =
  if v.size < max_int then Bignat.of_int v.size
  else
    match v.node with
    | Atom _ -> Bignat.one
    | Tuple vs ->
        List.fold_left (fun acc v -> Bignat.add acc (encoded_size v)) Bignat.one vs
    | Bag pairs ->
        List.fold_left
          (fun acc (v, c) -> Bignat.add acc (Bignat.mul c (encoded_size v)))
          Bignat.one pairs

(** All atomic constants occurring in a value. *)
let atoms v =
  let module S = Set.Make (String) in
  let rec go acc v =
    match v.node with
    | Atom s -> S.add s acc
    | Tuple vs -> List.fold_left go acc vs
    | Bag pairs -> List.fold_left (fun acc (v, _) -> go acc v) acc pairs
  in
  S.elements (go S.empty v)

(** {1 Typing} *)

(** [has_type ty v] checks [v] against [ty]; an empty bag inhabits every bag
    type. *)
let rec has_type ty v =
  match (ty, v.node) with
  | Ty.Atom, Atom _ -> true
  | Ty.Tuple ts, Tuple vs ->
      List.length ts = List.length vs && List.for_all2 has_type ts vs
  | Ty.Bag t, Bag pairs -> List.for_all (fun (v, _) -> has_type t v) pairs
  | (Ty.Atom | Ty.Tuple _ | Ty.Bag _), _ -> false

(** Best-effort type inference.  Returns [None] for heterogeneous bags; an
    empty bag infers as a bag of atoms (the least informative choice —
    prefer {!has_type} when a type is known). *)
let rec infer v =
  match v.node with
  | Atom _ -> Some Ty.Atom
  | Tuple vs ->
      let tys = List.map infer vs in
      if List.exists Option.is_none tys then None
      else Some (Ty.Tuple (List.map Option.get tys))
  | Bag [] -> Some (Ty.Bag Ty.Atom)
  | Bag ((v0, _) :: rest) -> (
      match infer v0 with
      | None -> None
      | Some t ->
          if List.for_all (fun (v, _) -> has_type t v) rest then Some (Ty.Bag t)
          else None)

(** {1 Rendering} *)

(* One recursive walk appending to a single [Buffer], with no formatter
   state or intermediate strings per node.  Counts print exactly: through
   [string_of_int] when they fit an [int], {!Bignat.to_string} beyond. *)
let rec add_to_buffer buf v =
  match v.node with
  | Atom s ->
      Buffer.add_char buf '\'';
      Buffer.add_string buf s
  | Tuple vs ->
      Buffer.add_char buf '<';
      List.iteri
        (fun i w ->
          if i > 0 then Buffer.add_string buf ", ";
          add_to_buffer buf w)
        vs;
      Buffer.add_char buf '>'
  | Bag pairs ->
      Buffer.add_string buf "{{";
      List.iteri
        (fun i (w, c) ->
          if i > 0 then Buffer.add_string buf ", ";
          add_to_buffer buf w;
          if not (Bignat.is_one c) then begin
            Buffer.add_char buf ':';
            Buffer.add_string buf
              (match Bignat.to_int_opt c with
              | Some n -> string_of_int n
              | None -> Bignat.to_string c)
          end)
        pairs;
      Buffer.add_string buf "}}"

let to_string v =
  let buf = Buffer.create 256 in
  add_to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

(** Decode an integer-as-bag value back to its count (total cardinality). *)
let nat_value b = cardinal b
