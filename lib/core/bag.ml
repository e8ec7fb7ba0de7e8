(* Injection site (see fault.mli): fires at the kernels' pre-materialisation
   points — the places a real allocation failure would strike — so the
   chaos suite can prove an allocation death inside a kernel surfaces as a
   structured verdict, not a crash. *)
let alloc_site = Fault.register "bag.alloc"

let pairs = Value.as_bag

(* Hash table over values, keyed by the precomputed structural hash. *)
module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Merge two sorted association lists, combining multiplicities with [f]
   (absent elements count zero) and dropping zero results.  Both inputs are
   canonical, so the output is too.  Tail-recursive: bags with hundreds of
   thousands of distinct elements come out of the Prop 3.2 workloads. *)
let merge f a b =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], [] -> List.rev acc
    | (v, c) :: xs', [] -> go (push v (f c Bignat.zero) acc) xs' []
    | [], (w, d) :: ys' -> go (push w (f Bignat.zero d) acc) [] ys'
    | (v, c) :: xs', (w, d) :: ys' ->
        let cv = Value.compare v w in
        if cv < 0 then go (push v (f c Bignat.zero) acc) xs' ys
        else if cv > 0 then go (push w (f Bignat.zero d) acc) xs ys'
        else go (push v (f c d) acc) xs' ys'
  and push v c acc = if Bignat.is_zero c then acc else (v, c) :: acc in
  Value.of_sorted_assoc (go [] (pairs a) (pairs b))

let union_add a b = merge Bignat.add a b
let diff a b = merge Bignat.monus a b
let union_max a b = merge Bignat.max a b
let inter a b = merge Bignat.min a b

(* One linear co-walk of the two sorted supports instead of a count_in probe
   per element. *)
let subbag a b =
  let rec go xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (v, c) :: xs', (w, d) :: ys' ->
        let cv = Value.compare v w in
        if cv < 0 then false
        else if cv > 0 then go xs ys'
        else Bignat.compare c d <= 0 && go xs' ys'
  in
  go (pairs a) (pairs b)

(* Cartesian product.  When every element of [a] is a tuple of one fixed
   arity, nested-loop order over the two sorted supports already yields the
   concatenated tuples in canonical order: distinct [(v, w)] pairs
   concatenate to distinct tuples, and because all prefixes have the same
   length the first component dominates the comparison.  The result then
   goes through the trusted constructor — no re-sort, no coalescing. *)
let product a b =
  Fault.inject alloc_site;
  let pa = pairs a in
  let bs = List.map (fun (w, d) -> (Value.as_tuple w, d)) (pairs b) in
  (* the product rows, in reverse canonical order *)
  let rows =
    List.fold_left
      (fun acc (v, c) ->
        let vt = Value.as_tuple v in
        List.fold_left
          (fun acc (wt, d) -> (Value.tuple (vt @ wt), Bignat.mul c d) :: acc)
          acc bs)
      [] pa
  in
  let uniform_arity =
    match pa with
    | [] -> true
    | (v0, _) :: rest ->
        let k = List.length (Value.as_tuple v0) in
        List.for_all (fun (v, _) -> List.length (Value.as_tuple v) = k) rest
  in
  if uniform_arity then Value.of_sorted_assoc (List.rev rows)
  else Value.bag_of_assoc rows

let scale k b =
  if Bignat.is_zero k then Value.empty_bag
  else
    Value.of_sorted_assoc
      (List.map (fun (v, c) -> (v, Bignat.mul k c)) (pairs b))

let destroy b =
  List.fold_left
    (fun acc (inner, c) -> union_add acc (scale c inner))
    Value.empty_bag (pairs b)

let dedup b =
  Value.of_sorted_assoc (List.map (fun (v, _) -> (v, Bignat.one)) (pairs b))

let map f b =
  Value.bag_of_assoc (List.map (fun (v, c) -> (f v, c)) (pairs b))

let select p b =
  Value.of_sorted_assoc (List.filter (fun (v, _) -> p v) (pairs b))

(* Generalized projection — MAP λx.<α_{i1}(x), ..., α_{ik}(x)> as a direct
   kernel; the evaluator compiles that Map shape straight to this. *)
let proj ixs b =
  let ixs = Array.of_list ixs in
  let project (v, c) =
    let vs = Array.of_list (Value.as_tuple v) in
    let n = Array.length vs in
    ( Value.tuple
        (Array.to_list
           (Array.map
              (fun i ->
                if i < 1 || i > n then
                  invalid_arg "Bag.proj: attribute out of range"
                else vs.(i - 1))
              ixs)),
      c )
  in
  Value.bag_of_assoc (List.map project (pairs b))

(* σ_{i=j} — positional-equality selection as a direct kernel; filtering a
   canonical bag preserves canonicity. *)
let select_eq i j b =
  let keep (v, _) =
    let vs = Value.as_tuple v in
    match (List.nth_opt vs (i - 1), List.nth_opt vs (j - 1)) with
    | Some x, Some y -> Value.equal x y
    | _ -> invalid_arg "Bag.select_eq: attribute out of range"
  in
  Value.of_sorted_assoc (List.filter keep (pairs b))

(* Keyed equijoin: [join_eq i j a b] is σ_{i = ka+j}(a × b) — the fused
   form the optimizer emits for Select_eq-over-Product — computed as a
   hash join instead of materialising the product.  [b]'s support is
   bucketed by its [j]-th component (structural hash, Value.equal probes),
   then [a]'s support streams through the table; matching pairs
   concatenate with multiplied counts, exactly the rows the unfused plan
   keeps, and [bag_of_assoc] restores canonical order — so the result is
   bit-identical to [select_eq i (ka + j) (product a b)]. *)
let join_eq i j a b =
  Fault.inject alloc_site;
  let table : (Value.t list * Bignat.t) list ref VH.t = VH.create 64 in
  List.iter
    (fun (w, d) ->
      let wt = Value.as_tuple w in
      match List.nth_opt wt (j - 1) with
      | None -> invalid_arg "Bag.join_eq: right attribute out of range"
      | Some key -> (
          match VH.find_opt table key with
          | Some members -> members := (wt, d) :: !members
          | None -> VH.add table key (ref [ (wt, d) ]) (* domain-local: fresh table per call *)))
    (pairs b);
  let rows =
    List.fold_left
      (fun acc (v, c) ->
        let vt = Value.as_tuple v in
        match List.nth_opt vt (i - 1) with
        | None -> invalid_arg "Bag.join_eq: left attribute out of range"
        | Some key -> (
            match VH.find_opt table key with
            | None -> acc
            | Some members ->
                List.fold_left
                  (fun acc (wt, d) ->
                    (Value.tuple (vt @ wt), Bignat.mul c d) :: acc)
                  acc !members))
      [] (pairs a)
  in
  Value.bag_of_assoc rows

(* Nest: group by the listed attributes; the remaining attributes keep
   their multiplicities inside the per-group bag, each group occurs once.
   Groups are keyed by the key-tuple's structural hash — values that are
   [Value.equal] land in the same group no matter how they were built — and
   each tuple is split through an array, not repeated [List.nth]. *)
let nest ixs b =
  Fault.inject alloc_site;
  let ixs_arr = Array.of_list ixs in
  let split v =
    let vs = Array.of_list (Value.as_tuple v) in
    let n = Array.length vs in
    let kept = Array.make n false in
    Array.iter
      (fun i ->
        if i < 1 || i > n then invalid_arg "Bag.nest: attribute out of range"
        else kept.(i - 1) <- true)
      ixs_arr;
    let keep = Array.to_list (Array.map (fun i -> vs.(i - 1)) ixs_arr) in
    let rest = ref [] in
    for j = n - 1 downto 0 do
      if not kept.(j) then rest := vs.(j) :: !rest
    done;
    (keep, Value.tuple !rest)
  in
  let groups : (Value.t * Bignat.t) list ref VH.t = VH.create 16 in
  let order = ref [] in
  List.iter
    (fun (v, c) ->
      let keep, rest = split v in
      let key = Value.tuple keep in
      match VH.find_opt groups key with
      | None ->
          order := key :: !order;
          VH.add groups key (ref [ (rest, c) ]) (* domain-local: fresh table per call *)
      | Some members -> members := (rest, c) :: !members)
    (pairs b);
  Value.bag_of_assoc
    (List.rev_map
       (fun key ->
         let members = !(VH.find groups key) in
         ( Value.tuple (Value.as_tuple key @ [ Value.bag_of_assoc members ]),
           Bignat.one ))
       !order)

(* Unnest: expand the bag-valued attribute [i] in place, multiplying
   multiplicities. *)
let unnest i b =
  Fault.inject alloc_site;
  let expanded =
    List.fold_left
      (fun acc (v, c) ->
        let vs = Array.of_list (Value.as_tuple v) in
        let n = Array.length vs in
        if i < 1 || i > n then invalid_arg "Bag.unnest: attribute out of range";
        let prefix = Array.to_list (Array.sub vs 0 (i - 1)) in
        let suffix = Array.to_list (Array.sub vs i (n - i)) in
        List.fold_left
          (fun acc (member, d) ->
            ( Value.tuple (prefix @ Value.as_tuple member @ suffix),
              Bignat.mul c d )
            :: acc)
          acc
          (pairs vs.(i - 1)))
      [] (pairs b)
  in
  Value.bag_of_assoc expanded

let max_count b =
  List.fold_left (fun acc (_, c) -> Bignat.max acc c) Bignat.zero (pairs b)

(* Expected powerset/powerbag output support: for every distinct element
   with multiplicity m there are m+1 choices, so the total number of
   subbags is prod (m_i + 1).  O(support), allocation-free, and
   {e saturating} at [max_int]: a wrapping [acc * (m + 1)] can land back
   inside a caller's bound (e.g. 16 * 2^60 ≡ 0 mod 2^64) and silence the
   guard right before the enumeration OOMs.  A multiplicity beyond [int]
   range also saturates.  This is the {e only} size guard for the power
   operators — callers (the evaluator's budget pre-charge, [Explain]'s
   config cap) decide the bound and own the structured verdict. *)
let expected_subbags b =
  List.fold_left
    (fun acc (_, c) ->
      if acc = max_int then max_int
      else
        match Bignat.to_int_opt c with
        | None -> max_int
        | Some m -> Value.sat_mul acc (Value.sat_add m 1))
    1 (pairs b)

(* All ways to keep 0..m_i copies of each element.  [weight] computes the
   multiplicity contributed by keeping k of m copies: 1 for the powerset,
   C(m, k) for the powerbag.  Because the support is processed in sorted
   order and smaller elements are consed onto tails drawn from the rest of
   the support, every generated content list is itself canonical — the
   trusted constructor applies — and the k = 0 choice reuses the tail
   as-is, so common suffixes are physically shared across subbags.  Weights
   and small counts are computed once per distinct element, not once per
   subbag. *)
let enumerate_subbags weight b =
  Fault.inject alloc_site;
  let rec go = function
    | [] -> [ ([], Bignat.one) ]
    | (v, c) :: rest ->
        let tails = go rest in
        let m =
          match Bignat.to_int_opt c with
          | Some m -> m
          | None ->
              invalid_arg
                "Bag.powerset/powerbag: multiplicity exceeds int range \
                 (guard with expected_subbags)"
        in
        let wts = Array.init (m + 1) (fun k -> weight m k) in
        let counts = Array.init m (fun k -> Bignat.of_int (k + 1)) in
        List.fold_left
          (fun acc (tail, w) ->
            let acc = ref ((tail, Bignat.mul w wts.(0)) :: acc) in
            for k = 1 to m do
              acc := ((v, counts.(k - 1)) :: tail, Bignat.mul w wts.(k)) :: !acc
            done;
            !acc)
          [] tails
  in
  Value.bag_of_assoc
    (List.rev_map
       (fun (content, w) -> (Value.of_sorted_assoc content, w))
       (go (pairs b)))

let powerset b = enumerate_subbags (fun _ _ -> Bignat.one) b
let powerbag b = enumerate_subbags (fun m k -> Bignat.binomial m k) b
