(* Segmented flat vectors: bags laid out column-wise for the vectorized
   engine (see vec.mli for the representation contract).

   Design rules that keep the kernels simple and bit-compatible with the
   tree evaluator:

   - Atoms are interned to dense integer codes in one global table, so
     equality and hashing of atom cells are machine-int operations and a
     code from one vector compares meaningfully against any other.
   - Rows are NOT kept distinct or sorted.  Every kernel is free to emit
     duplicate rows in any order; [to_value] (and the kernels that need
     per-distinct-row totals) coalesce by hashing codes.  Canonical order
     is restored exactly once, by [Value.bag_of_assoc] at the boundary,
     which is why chunked parallel slices recombine bit-identically.
   - Inner bag segments ARE kept canonical (Value.compare order, coalesced,
     positive counts): [of_value] imports canonical bags and [nest] — the
     only kernel that builds new segments — sorts and coalesces, so
     nested-bag cells compare by an aligned segment walk. *)

exception Unsupported of string

let unsupported msg = raise (Unsupported msg)

(* Pre-materialisation injection point: every kernel that allocates output
   columns passes through here (the vectorized sibling of [bag.alloc]). *)
let alloc_site = Fault.register "vec.alloc"

(* ------------------------------------------------------------------ *)
(* Atom interning.  Writers serialise on [intern_mu]; [decode] reads the
   current array snapshot without the lock — a code only becomes visible
   to another domain through a synchronising hand-off (Pool.run join), by
   which point the slot it names is published. *)

let intern_mu = Mutex.create ()
let intern_tbl : (string, int) Hashtbl.t = Hashtbl.create 1024
let intern_names : string array ref = ref (Array.make 1024 "")
let intern_n = ref 0

let intern s =
  Mutex.protect intern_mu (fun () ->
      match Hashtbl.find_opt intern_tbl s with
      | Some c -> c
      | None ->
          let c = !intern_n in
          let cap = Array.length !intern_names in
          if c = cap then begin
            let bigger = Array.make (2 * cap) "" in
            Array.blit !intern_names 0 bigger 0 cap;
            intern_names := bigger
          end;
          !intern_names.(c) <- s;
          incr intern_n;
          Hashtbl.add intern_tbl s c (* domain-local: writes serialised on intern_mu *);
          c)

let decode c = !intern_names.(c)

(* A per-conversion memo in front of the global table: repeated atoms in
   one bag pay the mutex once. *)
let memo_interner () =
  let local = Hashtbl.create 64 in
  fun s ->
    match Hashtbl.find_opt local s with
    | Some c -> c
    | None ->
        let c = intern s in
        Hashtbl.add local s c (* domain-local: fresh memo per conversion *);
        c

(* ------------------------------------------------------------------ *)
(* Count columns: small machine ints with a sparse Bignat spill.  A slot
   holds the multiplicity when >= 0; [spilled] marks an entry whose exact
   value lives in the spill table.  A count is spilled iff it does not fit
   an [int], so representation is a function of the value — equal counts
   always have equal representations. *)

type counts = { small : int array; spill : (int, Bignat.t) Hashtbl.t }

let spilled = -1

let cnt_make n = { small = Array.make n 0; spill = Hashtbl.create 0 }
let cnt_ones n = { small = Array.make n 1; spill = Hashtbl.create 0 }

let cnt_get c i =
  let m = c.small.(i) in
  if m >= 0 then Bignat.of_int m else Hashtbl.find c.spill i

(* Write [b] into slot [k] of count arrays under construction. *)
let set_slot small spill k (b : Bignat.t) =
  match Bignat.to_int_opt b with
  | Some m -> small.(k) <- m
  | None ->
      small.(k) <- spilled;
      Hashtbl.replace spill k b (* domain-local: fresh counts under construction *)

let cnt_set c i b = set_slot c.small c.spill i b

(* Slot [j] += count [i] of [c]: machine ints until the sum leaves [int]
   range. *)
let add_slot small spill j c i =
  let a = small.(j) and b = c.small.(i) in
  if a >= 0 && b >= 0 && a + b >= 0 then small.(j) <- a + b
  else begin
    let cur = if a >= 0 then Bignat.of_int a else Hashtbl.find spill j in
    small.(j) <- spilled;
    Hashtbl.replace spill j (Bignat.add cur (cnt_get c i)) (* domain-local: fresh accumulator *)
  end

(* Slot [k] := count [i] of [ca] * count [j] of [cb], int fast path. *)
let mul_slot small spill k ca i cb j =
  let a = ca.small.(i) and b = cb.small.(j) in
  if a = 1 && b >= 0 then small.(k) <- b
  else if b = 1 && a >= 0 then small.(k) <- a
  else if (a = 0 && b >= 0) || (b = 0 && a >= 0) then small.(k) <- 0
  else if a > 0 && b > 0 && a <= max_int / b then small.(k) <- a * b
  else set_slot small spill k (Bignat.mul (cnt_get ca i) (cnt_get cb j))

let cnt_hash c i =
  let m = c.small.(i) in
  if m >= 0 then m else Bignat.hash (Hashtbl.find c.spill i)

let cnt_eq ca i cb j =
  let a = ca.small.(i) and b = cb.small.(j) in
  if a >= 0 then a = b
  else b < 0 && Bignat.equal (Hashtbl.find ca.spill i) (Hashtbl.find cb.spill j)

(* Mirrors Bignat.compare; a spilled count exceeds every small one. *)
let cnt_compare ca i cb j =
  let a = ca.small.(i) and b = cb.small.(j) in
  if a >= 0 && b >= 0 then compare a b
  else if a >= 0 then -1
  else if b >= 0 then 1
  else Bignat.compare (Hashtbl.find ca.spill i) (Hashtbl.find cb.spill j)

let gather_counts (c : counts) (idx : int array) : counts =
  let n = Array.length idx in
  let small = Array.make n 0 in
  let spill = Hashtbl.create 0 in
  for k = 0 to n - 1 do
    let i = idx.(k) in
    let m = c.small.(i) in
    small.(k) <- m;
    if m < 0 then
      Hashtbl.replace spill k (Hashtbl.find c.spill i) (* domain-local: fresh counts *)
  done;
  { small; spill }

let concat_counts (parts : counts list) : counts =
  match parts with
  | [ c ] -> c
  | _ ->
      let total = List.fold_left (fun acc c -> acc + Array.length c.small) 0 parts in
      let small = Array.make total 0 in
      let spill = Hashtbl.create 0 in
      let pos = ref 0 in
      List.iter
        (fun c ->
          let n = Array.length c.small in
          Array.blit c.small 0 small !pos n;
          Hashtbl.iter
            (fun i b ->
              Hashtbl.replace spill (!pos + i) b (* domain-local: fresh counts *))
            c.spill;
          pos := !pos + n)
        parts;
      { small; spill }

(* Pairwise products cnt_a(ia.(k)) * cnt_b(ib.(k)), int fast path. *)
let mul_counts ca ia cb ib : counts =
  let n = Array.length ia in
  assert (Array.length ib = n);
  let small = Array.make n 0 in
  let spill = Hashtbl.create 0 in
  for k = 0 to n - 1 do
    mul_slot small spill k ca ia.(k) cb ib.(k)
  done;
  { small; spill }

(* ------------------------------------------------------------------ *)
(* Columns.  Row counts are threaded by the owner ([t.rows] at top level,
   the segment offsets inside a bag column): a [CTuple [||]] column cannot
   recover its own length. *)

type col =
  | CAtom of int array  (** interned atom codes *)
  | CTuple of col array  (** struct-of-arrays; all columns share the rows *)
  | CBag of seg

and seg = {
  off : int array;  (** rows+1 monotone offsets into [elems] *)
  elems : col;
  ecnt : counts;  (** one multiplicity per element slot *)
}

type t = { rows : int; data : col; cnts : counts }

let rows t = t.rows

let max_count_digits t =
  let msmall = ref 0 in
  Array.iter (fun m -> if m > !msmall then msmall := m) t.cnts.small;
  let d = ref (String.length (string_of_int !msmall)) in
  Hashtbl.iter
    (fun _ b ->
      let db = Bignat.digits b in
      if db > !d then d := db)
    t.cnts.spill;
  !d

(* --- structural shape (for building and for merge compatibility) --- *)

type shape = SAny | SAtom | STuple of shape list | SBag of shape

let rec unify a b =
  match (a, b) with
  | SAny, s | s, SAny -> s
  | SAtom, SAtom -> a
  | STuple x, STuple y when List.length x = List.length y ->
      STuple (List.map2 unify x y)
  | SBag x, SBag y -> SBag (unify x y)
  | _ -> unsupported "heterogeneous bag"

let rec shape_of v =
  match Value.view v with
  | Value.Atom _ -> SAtom
  | Value.Tuple vs -> STuple (List.map shape_of vs)
  | Value.Bag pairs ->
      SBag (List.fold_left (fun acc (w, _) -> unify acc (shape_of w)) SAny pairs)

(* Same column representation: required before cross-vector merges so the
   per-cell walks line up.  (Value-level equality still decides matches —
   an all-empty-segments bag column compares equal to an empty segment of
   any element shape by the length check.) *)
let rec same_rep c1 c2 =
  match (c1, c2) with
  | CAtom _, CAtom _ -> true
  | CTuple a, CTuple b ->
      Array.length a = Array.length b
      && (let k = Array.length a in
          let rec go i = i = k || (same_rep a.(i) b.(i) && go (i + 1)) in
          go 0)
  | CBag a, CBag b -> same_rep a.elems b.elems
  | _ -> false

(* --- per-cell operations ------------------------------------------- *)

let mix h k = (h * 0x01000193) lxor k

(* Injective on codes (an odd multiplier permutes the residues the mask
   keeps), so two atom cells hash equal exactly when their codes do. *)
let atom_hash code = (code + 1) * 0x9e3779b1 land max_int

(* Structural hash of one cell; equal cells (same or different vectors)
   hash equal because atom codes are global and segments are canonical. *)
let rec cell_hash (c : col) (i : int) : int =
  match c with
  | CAtom a -> atom_hash a.(i)
  | CTuple cs ->
      let h = ref 0x811c9dc5 in
      for p = 0 to Array.length cs - 1 do
        h := mix !h (cell_hash cs.(p) i)
      done;
      !h land max_int
  | CBag { off; elems; ecnt } ->
      let h = ref 0x5bd1e995 in
      for k = off.(i) to off.(i + 1) - 1 do
        h := mix !h (cell_hash elems k);
        h := mix !h (cnt_hash ecnt k)
      done;
      !h land max_int

let rec cell_eq (c1 : col) (i : int) (c2 : col) (j : int) : bool =
  match (c1, c2) with
  | CAtom a, CAtom b -> a.(i) = b.(j)
  | CTuple xs, CTuple ys ->
      let k = Array.length xs in
      Array.length ys = k
      && (let rec go p = p = k || (cell_eq xs.(p) i ys.(p) j && go (p + 1)) in
          go 0)
  | CBag s1, CBag s2 ->
      (* canonical segments: equality is an aligned walk *)
      let b1 = s1.off.(i) and b2 = s2.off.(j) in
      let l = s1.off.(i + 1) - b1 in
      s2.off.(j + 1) - b2 = l
      && (let rec go p =
            p = l
            || (cell_eq s1.elems (b1 + p) s2.elems (b2 + p)
               && cnt_eq s1.ecnt (b1 + p) s2.ecnt (b2 + p)
               && go (p + 1))
          in
          go 0)
  | _ -> false

(* Total order on cells of one column, mirroring [Value.compare] exactly
   (atoms by name, tuples lexicographic, bags lexicographic on
   (element, count) pairs with length as final tiebreak) — this is the
   order [nest] sorts fresh segments into. *)
let rec cell_compare (c : col) (i : int) (j : int) : int =
  match c with
  | CAtom a -> String.compare (decode a.(i)) (decode a.(j))
  | CTuple cs ->
      let k = Array.length cs in
      let rec go p =
        if p = k then 0
        else
          let cv = cell_compare cs.(p) i j in
          if cv <> 0 then cv else go (p + 1)
      in
      go 0
  | CBag { off; elems; ecnt } ->
      let bi = off.(i) and bj = off.(j) in
      let li = off.(i + 1) - bi and lj = off.(j + 1) - bj in
      let rec go p =
        if p = li && p = lj then 0
        else if p = li then -1
        else if p = lj then 1
        else
          let cv = cell_compare elems (bi + p) (bj + p) in
          if cv <> 0 then cv
          else
            let cc = cnt_compare ecnt (bi + p) ecnt (bj + p) in
            if cc <> 0 then cc else go (p + 1)
      in
      go 0

(* --- gather / concat ----------------------------------------------- *)

let rec gather_col (c : col) (idx : int array) : col =
  match c with
  | CAtom a ->
      let out = Array.make (Array.length idx) 0 in
      for k = 0 to Array.length idx - 1 do
        out.(k) <- a.(idx.(k))
      done;
      CAtom out
  | CTuple cs -> CTuple (Array.map (fun comp -> gather_col comp idx) cs)
  | CBag { off; elems; ecnt } ->
      let n = Array.length idx in
      let off' = Array.make (n + 1) 0 in
      for k = 0 to n - 1 do
        let i = idx.(k) in
        off'.(k + 1) <- off'.(k) + off.(i + 1) - off.(i)
      done;
      let total = off'.(n) in
      let sub = Array.make total 0 in
      let pos = ref 0 in
      for k = 0 to n - 1 do
        let i = idx.(k) in
        for p = off.(i) to off.(i + 1) - 1 do
          sub.(!pos) <- p;
          incr pos
        done
      done;
      CBag { off = off'; elems = gather_col elems sub; ecnt = gather_counts ecnt sub }

let rec concat_cols (parts : col list) : col =
  match parts with
  | [] -> CAtom [||]
  | [ c ] -> c
  | proto :: _ -> (
      match proto with
      | CAtom _ ->
          CAtom
            (Array.concat
               (List.map
                  (function CAtom a -> a | _ -> unsupported "concat: shape")
                  parts))
      | CTuple cs ->
          let k = Array.length cs in
          CTuple
            (Array.init k (fun ci ->
                 concat_cols
                   (List.map
                      (function
                        | CTuple xs when Array.length xs = k -> xs.(ci)
                        | _ -> unsupported "concat: shape")
                      parts)))
      | CBag _ ->
          let segs =
            List.map
              (function CBag s -> s | _ -> unsupported "concat: shape")
              parts
          in
          let nrows =
            List.fold_left (fun acc s -> acc + Array.length s.off - 1) 0 segs
          in
          let off = Array.make (nrows + 1) 0 in
          let row = ref 0 and shift = ref 0 in
          List.iter
            (fun s ->
              let n = Array.length s.off - 1 in
              for i = 1 to n do
                off.(!row + i) <- !shift + s.off.(i)
              done;
              row := !row + n;
              shift := !shift + s.off.(n))
            segs;
          CBag
            {
              off;
              elems = concat_cols (List.map (fun s -> s.elems) segs);
              ecnt = concat_counts (List.map (fun s -> s.ecnt) segs);
            })

let concat_vecs (parts : t list) : t =
  match parts with
  | [ v ] -> v
  | _ ->
      {
        rows = List.fold_left (fun acc v -> acc + v.rows) 0 parts;
        data = concat_cols (List.map (fun v -> v.data) parts);
        cnts = concat_counts (List.map (fun v -> v.cnts) parts);
      }

(* ------------------------------------------------------------------ *)
(* The one hash index behind every grouping kernel (DESIGN §12): flat int
   arrays, no boxed buckets.  A power of two >= 2 * capacity slots,
   addressed by the top bits of a multiplicative mix of the hash, head
   chains of entries; each entry keeps its row and that row's
   [cell_hash], which a probe compares before the cells.  An index is
   filled by the kernel that creates it and read-only after that, so
   [join]'s pooled probe slices share one without locks. *)

type index = {
  mutable shift : int;  (** [Sys.int_size] minus log2 of the slot count *)
  mutable head : int array;  (** slot -> newest entry, -1 when empty *)
  mutable next : int array;  (** entry -> older entry of the same slot, or -1 *)
  mutable hkey : int array;  (** entry -> [cell_hash] of its row *)
  mutable row : int array;
  mutable len : int;
  limit : int;  (** rows the kernel adds from: no more entries than this *)
}

let slot ix h = (h * 0x1e3779b97f4a7c15) lsr ix.shift

(* Room for [cap] entries; the chains are rebuilt from the stored hashes. *)
let index_resize ix cap =
  let bits = ref 1 in
  while 1 lsl !bits < 2 * cap do
    incr bits
  done;
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 ix.len;
    b
  in
  ix.shift <- Sys.int_size - !bits;
  ix.head <- Array.make (1 lsl !bits) (-1);
  ix.next <- grow ix.next;
  ix.hkey <- grow ix.hkey;
  ix.row <- grow ix.row;
  for e = 0 to ix.len - 1 do
    let s = slot ix ix.hkey.(e) in
    ix.next.(e) <- ix.head.(s);
    ix.head.(s) <- e
  done

(* An empty index over [rows] rows, with room for 1024 entries at first:
   a low-cardinality grouping never allocates in proportion to its input. *)
let index_create rows =
  let ix =
    { shift = 0; head = [||]; next = [||]; hkey = [||]; row = [||];
      len = 0; limit = rows }
  in
  index_resize ix (max 1 (min rows 1024));
  ix

(* Append an entry for row [r] with hash [h]; returns the entry.  Grouping
   kernels add rows in order, so a full index grows to the entry count its
   first [r + 1] rows project onto all of them (a quarter over): a
   high-cardinality grouping resizes once or twice.  It always at least
   doubles, which is all [join]'s descending build relies on. *)
let index_add ix h r =
  let e = ix.len in
  if e = Array.length ix.next then begin
    let projected =
      int_of_float (float e *. float ix.limit /. float (r + 1) *. 1.25)
    in
    index_resize ix (min ix.limit (max (2 * e) projected))
  end;
  let s = slot ix h in
  ix.hkey.(e) <- h;
  ix.row.(e) <- r;
  ix.next.(e) <- ix.head.(s);
  ix.head.(s) <- e;
  ix.len <- e + 1;
  e

let rec chain_find ix ci c i h e =
  if e < 0 then -1
  else if ix.hkey.(e) = h && cell_eq ci ix.row.(e) c i then e
  else chain_find ix ci c i h ix.next.(e)

(* The entry whose row of [ci] equals cell [i] of [c] (of hash [h]), or
   -1 when there is none. *)
let index_find ix ci h c i = chain_find ix ci c i h ix.head.(slot ix h)

(* Grouping, with [ix] indexing rows of [c] itself: the entry of the row
   equal to row [i], which becomes a new entry when there is none. *)
let index_group ix c i =
  let h = cell_hash c i in
  let e = index_find ix c h c i in
  if e >= 0 then e else index_add ix h i

(* Coalescing: one entry per distinct row (its first occurrence, so
   entries come in first-seen order) and the merged counts indexed by
   entry, summed as machine ints until a sum leaves [int] range. *)
let distinct_index (t : t) : index * counts =
  let n = t.rows in
  let ix = index_create n in
  let acc = ref (Array.make (min n 1024) 0) in
  let acc_spill = Hashtbl.create 0 in
  let add_to e i =
    if e >= Array.length !acc then begin
      let b = Array.make (Array.length ix.next) 0 in
      Array.blit !acc 0 b 0 e;
      acc := b
    end;
    add_slot !acc acc_spill e t.cnts i
  in
  (match t.data with
  | CTuple cs when Array.for_all (function CAtom _ -> true | _ -> false) cs ->
      (* flat tuples of atoms: [cell_hash] and [cell_eq] as int loops *)
      let cols = Array.map (function CAtom a -> a | _ -> assert false) cs in
      let k = Array.length cols in
      let rec same r i p =
        p = k || (cols.(p).(r) = cols.(p).(i) && same r i (p + 1))
      in
      let rec find i h e =
        if e < 0 then index_add ix h i
        else if ix.hkey.(e) = h && same ix.row.(e) i 0 then e
        else find i h ix.next.(e)
      in
      for i = 0 to n - 1 do
        let h = ref 0x811c9dc5 in
        for p = 0 to k - 1 do
          h := mix !h (atom_hash cols.(p).(i))
        done;
        let h = !h land max_int in
        add_to (find i h ix.head.(slot ix h)) i
      done
  | _ ->
      for i = 0 to n - 1 do
        add_to (index_group ix t.data i) i
      done);
  (ix, { small = Array.sub !acc 0 ix.len; spill = acc_spill })

(* Representative row indices in first-seen order plus their counts. *)
let distinct_rows (t : t) : int array * counts =
  let ix, cnts = distinct_index t in
  (Array.sub ix.row 0 ix.len, cnts)

let coalesce t =
  let reps, cnts = distinct_rows t in
  { rows = Array.length reps; data = gather_col t.data reps; cnts }

(* ------------------------------------------------------------------ *)
(* Boundary conversions. *)

(* Build a column for [vals] of the given unified shape. *)
let rec build_shaped im shape (vals : Value.t array) (n : int) : col =
  match shape with
  | SAny -> CAtom [||] (* only reachable with n = 0 *)
  | SAtom ->
      CAtom
        (Array.map
           (fun v ->
             match Value.view v with
             | Value.Atom s -> im s
             | _ -> unsupported "shape: expected atom")
           vals)
  | STuple shs ->
      CTuple
        (Array.of_list
           (List.mapi
              (fun ci sh ->
                let comp =
                  Array.map (fun v -> List.nth (Value.as_tuple v) ci) vals
                in
                build_shaped im sh comp n)
              shs))
  | SBag esh ->
      let off = Array.make (n + 1) 0 in
      Array.iteri
        (fun i v ->
          match Value.view v with
          | Value.Bag pairs -> off.(i + 1) <- off.(i) + List.length pairs
          | _ -> unsupported "shape: expected bag")
        vals;
      let total = off.(n) in
      let evals = Array.make total Value.empty_bag in
      let ecnt = cnt_make total in
      Array.iteri
        (fun i v ->
          match Value.view v with
          | Value.Bag pairs ->
              List.iteri
                (fun k (w, c) ->
                  let p = off.(i) + k in
                  evals.(p) <- w;
                  cnt_set ecnt p c)
                pairs
          | _ -> assert false)
        vals;
      CBag { off; elems = build_shaped im esh evals total; ecnt }

let of_value v =
  Fault.inject alloc_site;
  match Value.view v with
  | Value.Bag pairs ->
      let n = List.length pairs in
      let vals = Array.make (max n 1) Value.empty_bag in
      let cnts = cnt_make n in
      List.iteri
        (fun i (w, c) ->
          vals.(i) <- w;
          cnt_set cnts i c)
        pairs;
      let vals = if n = Array.length vals then vals else Array.sub vals 0 n in
      let shape =
        Array.fold_left (fun acc w -> unify acc (shape_of w)) SAny vals
      in
      { rows = n; data = build_shaped (memo_interner ()) shape vals n; cnts }
  | _ -> unsupported "of_value: not a bag"

(* Decode one cell back to a boxed value.  [cache] maps atom codes to their
   (hash-tagged) Value so repeated atoms share one allocation; segments are
   canonical by invariant, so the trusted constructor applies. *)
let rec cell_value cache (c : col) (i : int) : Value.t =
  match c with
  | CAtom a -> (
      let code = a.(i) in
      match Hashtbl.find_opt cache code with
      | Some v -> v
      | None ->
          let v = Value.atom (decode code) in
          Hashtbl.add cache code v (* domain-local: fresh decode cache *);
          v)
  | CTuple cs ->
      Value.tuple (Array.to_list (Array.map (fun comp -> cell_value cache comp i) cs))
  | CBag { off; elems; ecnt } ->
      Value.of_sorted_assoc
        (List.init
           (off.(i + 1) - off.(i))
           (fun k ->
             let p = off.(i) + k in
             (cell_value cache elems p, cnt_get ecnt p)))

let to_value t =
  let reps, cnts = distinct_rows t in
  let cache = Hashtbl.create 64 in
  Value.bag_of_assoc
    (List.init (Array.length reps) (fun j ->
         (cell_value cache t.data reps.(j), cnt_get cnts j)))

(* ------------------------------------------------------------------ *)
(* Scalar programs (vectorized MAP bodies / σ operands). *)

type scalar =
  | SRow
  | SField of int * scalar
  | SConst of Value.t
  | SRecord of scalar list
  | SOnes of string * scalar

(* Replicate a closed value across [n] rows. *)
let broadcast v n : col =
  let vals = Array.make (max n 1) v in
  let vals = if n = Array.length vals then vals else Array.sub vals 0 n in
  let shape = if n = 0 then SAny else shape_of v in
  build_shaped (memo_interner ()) shape vals n

(* Per-row segment cardinality as a one-element bag of <atom> — the
   vectorized [ones] aggregate.  Sums stay machine ints until they leave
   [int] range. *)
let ones_col code ({ off; elems = _; ecnt } : seg) (nrows : int) : col =
  assert (Array.length off = nrows + 1);
  let sum_small = Array.make (max nrows 1) 0 in
  let sum_spill = Hashtbl.create 0 in
  for i = 0 to nrows - 1 do
    for k = off.(i) to off.(i + 1) - 1 do
      add_slot sum_small sum_spill i ecnt k
    done
  done;
  let off' = Array.make (nrows + 1) 0 in
  let m = ref 0 in
  for i = 0 to nrows - 1 do
    if sum_small.(i) <> 0 then incr m;
    off'.(i + 1) <- !m
  done;
  let m = !m in
  let small = Array.make m 0 in
  let spill = Hashtbl.create 0 in
  let p = ref 0 in
  for i = 0 to nrows - 1 do
    if sum_small.(i) <> 0 then begin
      small.(!p) <- sum_small.(i);
      if sum_small.(i) < 0 then
        Hashtbl.replace spill !p (* domain-local: fresh counts *)
          (Hashtbl.find sum_spill i);
      incr p
    end
  done;
  CBag
    {
      off = off';
      elems = CTuple [| CAtom (Array.make m code) |];
      ecnt = { small; spill };
    }

let rec eval_scalar (t : t) (s : scalar) : col =
  match s with
  | SRow -> t.data
  | SField (i, s') -> (
      match eval_scalar t s' with
      | CTuple cs when i >= 1 && i <= Array.length cs -> cs.(i - 1)
      | _ -> unsupported "projection out of range")
  | SConst v -> broadcast v t.rows
  | SRecord ss -> CTuple (Array.of_list (List.map (eval_scalar t) ss))
  | SOnes (name, s') -> (
      match eval_scalar t s' with
      | CBag seg -> ones_col (intern name) seg t.rows
      | _ -> unsupported "ones over a non-bag column")

(* ------------------------------------------------------------------ *)
(* Kernels. *)

(* Re-raise a captured task exception (kernels are pure, so the first
   error is equivalent to the sequential one). *)
let pool_run pool tasks =
  List.map (function Ok v -> v | Error e -> raise e) (Pool.run pool tasks)

(* At most [k] contiguous [lo, hi) ranges covering [0, n). *)
let ranges k n =
  if n <= 0 then []
  else begin
    let k = max 1 (min k n) in
    let q = n / k and r = n mod k in
    let rec go lo i acc =
      if i = k then List.rev acc
      else
        let len = q + if i < r then 1 else 0 in
        go (lo + len) (i + 1) ((lo, lo + len) :: acc)
    in
    go 0 0 []
  end

let tuple_cols = function
  | CTuple cs -> cs
  | _ -> unsupported "not a bag of tuples"

(* A zero-row operand yields a zero-row result without looking at its
   column: [of_value] gives the empty bag no shape ([CAtom [||]]), and a
   zero-row vector's shape is never read — [to_value] makes it [{{}}],
   and the union and merge kernels skip a zero-row side. *)
let no_rows () = { rows = 0; data = CAtom [||]; cnts = cnt_make 0 }

let expected_product_rows a b = Value.sat_mul a.rows b.rows

(* Cartesian product: two index vectors in nested-loop order, one gather
   per column, counts multiplied pairwise. *)
let product_rows a b =
  if expected_product_rows a b = max_int then
    unsupported "product: expected rows exceed int range";
  let acols = tuple_cols a.data and bcols = tuple_cols b.data in
  let ra = a.rows and rb = b.rows in
  let n = ra * rb in
  (* Block fast path for all-atom operands: a left column repeats each
     cell [rb] times ([Array.fill] per outer row) and a right column
     tiles whole-column copies ([Array.blit] per outer row) — straight
     memset/memcpy instead of two index vectors plus per-cell gathers. *)
  let is_atom = function CAtom _ -> true | _ -> false in
  let all_atoms =
    Array.for_all is_atom acols && Array.for_all is_atom bcols
  in
  let atom_cells = function CAtom xs -> xs | _ -> assert false in
  let fast () =
    let left c =
      let xa = atom_cells c in
      let out = Array.make (max n 1) 0 in
      for i = 0 to ra - 1 do
        Array.fill out (i * rb) rb xa.(i)
      done;
      CAtom out
    in
    let right c =
      let xb = atom_cells c in
      let out = Array.make (max n 1) 0 in
      for i = 0 to ra - 1 do
        Array.blit xb 0 out (i * rb) rb
      done;
      CAtom out
    in
    (* Pairwise count products on the (i, j) grid, without index vectors:
       a unit left count over a spill-free right block is one blit. *)
    let small = Array.make (max n 1) 0 in
    let spill = Hashtbl.create 0 in
    let b_spill_free = Hashtbl.length b.cnts.spill = 0 in
    let k = ref 0 in
    for i = 0 to ra - 1 do
      let ai = a.cnts.small.(i) in
      if ai = 1 && b_spill_free then begin
        Array.blit b.cnts.small 0 small !k rb;
        k := !k + rb
      end
      else
        for j = 0 to rb - 1 do
          mul_slot small spill !k a.cnts i b.cnts j;
          incr k
        done
    done;
    {
      rows = n;
      data = CTuple (Array.append (Array.map left acols) (Array.map right bcols));
      cnts = { small; spill };
    }
  in
  let slow () =
    let ia = Array.make (max n 1) 0 and ib = Array.make (max n 1) 0 in
    (* bounds: k counts 0..n-1; both arrays have at least n slots by
       construction one line up *)
    let k = ref 0 in
    for i = 0 to ra - 1 do
      for j = 0 to rb - 1 do
        Array.unsafe_set ia !k i; (* bounds: !k < n, see loop note above *)
        Array.unsafe_set ib !k j; (* bounds: !k < n, same index *)
        incr k
      done
    done;
    assert (!k = n);
    let ia = if n = Array.length ia then ia else Array.sub ia 0 n in
    let ib = if n = Array.length ib then ib else Array.sub ib 0 n in
    {
      rows = n;
      data =
        CTuple
          (Array.append
             (Array.map (fun c -> gather_col c ia) acols)
             (Array.map (fun c -> gather_col c ib) bcols));
      cnts = mul_counts a.cnts ia b.cnts ib;
    }
  in
  if all_atoms then fast () else slow ()

let product a b =
  Fault.inject alloc_site;
  if a.rows = 0 || b.rows = 0 then no_rows () else product_rows a b

(* Growable int buffer: the probe side of [join] collects its matches in
   two of these instead of consing lists. *)
type ibuf = { mutable buf : int array; mutable fill : int }

let ibuf_make n = { buf = Array.make (max n 16) 0; fill = 0 }

let ibuf_push b x =
  if b.fill = Array.length b.buf then begin
    let bigger = Array.make (2 * b.fill) 0 in
    Array.blit b.buf 0 bigger 0 b.fill;
    b.buf <- bigger
  end;
  b.buf.(b.fill) <- x;
  b.fill <- b.fill + 1

let ibuf_contents b = Array.sub b.buf 0 b.fill

(* Keyed equijoin: σ_{i = ka+j}(a × b) without the product.  [b]'s rows
   go into one index keyed by their [j]-th cell (cell_hash works across
   vectors: atom codes are global, segments canonical); [a]'s rows probe
   it and matched (left, right) index pairs drive one gather per column
   plus a pairwise count product — the same output rows the product
   kernel would build and select_scalar would keep, so [to_value]
   coalesces them to the identical canonical bag.  Atom keys compare
   codes directly (their hash is injective).  With a pool, probe slices
   cover contiguous ranges of [a]'s rows against the shared index, which
   is read-only once built. *)
let join_rows ?pool i j a b =
  let acols = tuple_cols a.data and bcols = tuple_cols b.data in
  if i < 1 || i > Array.length acols then
    unsupported "join: left attribute out of range";
  if j < 1 || j > Array.length bcols then
    unsupported "join: right attribute out of range";
  let ka = acols.(i - 1) and kb = bcols.(j - 1) in
  let ix = index_create b.rows in
  (* descending inserts leave every chain in ascending row order, so the
     matches of one probe row come out in [b]'s (canonical) row order *)
  for r = b.rows - 1 downto 0 do
    ignore (index_add ix (cell_hash kb r) r)
  done;
  let probe_slice (lo, hi) =
    let ia = ibuf_make (hi - lo) and ib = ibuf_make (hi - lo) in
    (match (ka, kb) with
    | CAtom xa, CAtom xb ->
        for r = lo to hi - 1 do
          let code = xa.(r) in
          let e = ref ix.head.(slot ix (atom_hash code)) in
          while !e >= 0 do
            let rb = ix.row.(!e) in
            if xb.(rb) = code then begin
              ibuf_push ia r;
              ibuf_push ib rb
            end;
            e := ix.next.(!e)
          done
        done
    | _ ->
        for r = lo to hi - 1 do
          let h = cell_hash ka r in
          let e = ref ix.head.(slot ix h) in
          while !e >= 0 do
            let rb = ix.row.(!e) in
            if ix.hkey.(!e) = h && cell_eq ka r kb rb then begin
              ibuf_push ia r;
              ibuf_push ib rb
            end;
            e := ix.next.(!e)
          done
        done);
    let ia = ibuf_contents ia and ib = ibuf_contents ib in
    {
      rows = Array.length ia;
      data =
        CTuple
          (Array.append
             (Array.map (fun c -> gather_col c ia) acols)
             (Array.map (fun c -> gather_col c ib) bcols));
      cnts = mul_counts a.cnts ia b.cnts ib;
    }
  in
  match pool with
  | Some p when Pool.jobs p > 1 && a.rows >= Pool.chunk_min p ->
      let parts =
        pool_run p
          (List.map (fun r () -> probe_slice r) (ranges (4 * Pool.jobs p) a.rows))
      in
      concat_vecs parts
  | _ -> probe_slice (0, a.rows)

let join ?pool i j a b =
  Fault.inject alloc_site;
  if a.rows = 0 || b.rows = 0 then no_rows () else join_rows ?pool i j a b

let map_scalar s t =
  Fault.inject alloc_site;
  if t.rows = 0 then no_rows () else
  { rows = t.rows; data = eval_scalar t s; cnts = t.cnts }

(* Kept row indices of [lo, hi) where the two operand columns agree.  The
   atom/atom case is two-pass — count, then fill an exactly-sized array —
   because selections are usually sparse and a [hi - lo]-slot scratch
   array would be a large major-heap allocation per kernel call. *)
let select_keep (cl : col) (cr : col) lo hi : int array =
  match (cl, cr) with
  | CAtom xa, CAtom xb ->
      assert (hi <= Array.length xa && hi <= Array.length xb && lo >= 0);
      let n = ref 0 in
      for i = lo to hi - 1 do
        if Array.unsafe_get xa i = Array.unsafe_get xb i (* bounds: lo <= i < hi <= length xa, xb by the assertion above *)
        then incr n
      done;
      let keep = Array.make (max !n 1) 0 in
      let k = ref 0 in
      for i = lo to hi - 1 do
        if Array.unsafe_get xa i = Array.unsafe_get xb i (* bounds: i as above *)
        then begin
          Array.unsafe_set keep !k i; (* bounds: !k < n, both passes see the same rows *)
          incr k
        end
      done;
      if !n = 0 then [||] else keep
  | _ ->
      let keep = Array.make (max (hi - lo) 1) 0 in
      let k = ref 0 in
      for i = lo to hi - 1 do
        if cell_eq cl i cr i then begin
          keep.(!k) <- i;
          incr k
        end
      done;
      Array.sub keep 0 !k

let select_scalar ?pool l r t =
  Fault.inject alloc_site;
  if t.rows = 0 then no_rows () else
  let cl = eval_scalar t l and cr = eval_scalar t r in
  let keep =
    match pool with
    | Some p when Pool.jobs p > 1 && t.rows >= Pool.chunk_min p ->
        Array.concat
          (pool_run p
             (List.map
                (fun (lo, hi) () -> select_keep cl cr lo hi)
                (ranges (4 * Pool.jobs p) t.rows)))
    | _ -> select_keep cl cr 0 t.rows
  in
  { rows = Array.length keep; data = gather_col t.data keep; cnts = gather_counts t.cnts keep }

let union_add a b =
  Fault.inject alloc_site;
  if a.rows = 0 then b
  else if b.rows = 0 then a
  else if not (same_rep a.data b.data) then unsupported "union: shape mismatch"
  else concat_vecs [ a; b ]

(* Generic count merge over the distinct supports of both sides (diff,
   intersection, maximum union).  Matched rows take f(ca, cb); unmatched
   a-rows take f(ca, 0) and unmatched b-rows f(0, cb); zero results are
   dropped.  [union_max] runs in every fixpoint round, so counts stay
   machine ints through [fi] and only a spilled operand goes through the
   exact [f] (monus, min and max of two ints never overflow). *)
let merge_op ~fi ~f a b =
  Fault.inject alloc_site;
  if a.rows > 0 && b.rows > 0 && not (same_rep a.data b.data) then
    unsupported "merge: shape mismatch";
  let ixa, ca = distinct_index a and ixb, cb = distinct_index b in
  let na = ixa.len and nb = ixb.len in
  (* f of entry [ja] of [ca] and entry [jb] of [cb] (-1: absent, count 0)
     into slot [k]; false when the result is zero *)
  let merge small spill k ja jb =
    let x = if ja < 0 then 0 else ca.small.(ja)
    and y = if jb < 0 then 0 else cb.small.(jb) in
    if x >= 0 && y >= 0 then begin
      let m = fi x y in
      small.(k) <- m;
      m <> 0
    end
    else begin
      let big c j = if j < 0 then Bignat.zero else cnt_get c j in
      let m = f (big ca ja) (big cb jb) in
      set_slot small spill k m;
      not (Bignat.is_zero m)
    end
  in
  let part src n keep small spill =
    {
      rows = n;
      data = gather_col src.data (Array.sub keep 0 n);
      cnts = { small = Array.sub small 0 n; spill };
    }
  in
  let matched = Array.make (max nb 1) false in
  let keep = Array.make (max na 1) 0 and small = Array.make (max na 1) 0 in
  let spill = Hashtbl.create 0 and n = ref 0 in
  for ja = 0 to na - 1 do
    let i = ixa.row.(ja) in
    let jb = index_find ixb b.data ixa.hkey.(ja) a.data i in
    if jb >= 0 then matched.(jb) <- true;
    if merge small spill !n ja jb then begin
      keep.(!n) <- i;
      incr n
    end
  done;
  let pa = part a !n keep small spill in
  let keep = Array.make (max nb 1) 0 and small = Array.make (max nb 1) 0 in
  let spill = Hashtbl.create 0 and n = ref 0 in
  for jb = 0 to nb - 1 do
    if (not matched.(jb)) && merge small spill !n (-1) jb then begin
      keep.(!n) <- ixb.row.(jb);
      incr n
    end
  done;
  let pb = part b !n keep small spill in
  if pa.rows = 0 then pb
  else if pb.rows = 0 then pa
  else concat_vecs [ pa; pb ]

let monus a b =
  merge_op ~fi:(fun x y -> if x > y then x - y else 0) ~f:Bignat.monus a b

let inter a b = merge_op ~fi:Int.min ~f:Bignat.min a b
let union_max a b = merge_op ~fi:Int.max ~f:Bignat.max a b

let dedup t =
  Fault.inject alloc_site;
  let reps, _ = distinct_rows t in
  let n = Array.length reps in
  { rows = n; data = gather_col t.data reps; cnts = cnt_ones n }

(* Group by the key attributes (in the order given, mirroring Bag.nest):
   each group becomes one output row carrying the key columns plus a
   canonical segment of the rest-tuples.  The fresh segments are coalesced
   and sorted into Value order — the invariant every other kernel's cell
   walks depend on. *)
let nest ixs t =
  Fault.inject alloc_site;
  if t.rows = 0 then no_rows () else
  match t.data with
  | CTuple cs ->
      let nattr = Array.length cs in
      let ixa = Array.of_list ixs in
      Array.iter
        (fun i -> if i < 1 || i > nattr then unsupported "nest: attribute out of range")
        ixa;
      let keycols = Array.map (fun i -> cs.(i - 1)) ixa in
      let kept = Array.make (max nattr 1) false in
      Array.iter (fun i -> kept.(i - 1) <- true) ixa;
      let restcols =
        let acc = ref [] in
        for j = nattr - 1 downto 0 do
          if not kept.(j) then acc := cs.(j) :: !acc
        done;
        Array.of_list !acc
      in
      let n = t.rows in
      let ix = index_create n in
      let grp = Array.init n (index_group ix (CTuple keycols)) in
      let ng = ix.len in
      let sizes = Array.make (max ng 1) 0 in
      for i = 0 to n - 1 do
        sizes.(grp.(i)) <- sizes.(grp.(i)) + 1
      done;
      let members = Array.init ng (fun g -> Array.make sizes.(g) 0) in
      let fill = Array.make (max ng 1) 0 in
      for i = 0 to n - 1 do
        let g = grp.(i) in
        members.(g).(fill.(g)) <- i;
        fill.(g) <- fill.(g) + 1
      done;
      let segs =
        Array.map
          (fun midx ->
            let inner =
              {
                rows = Array.length midx;
                data = CTuple (Array.map (fun c -> gather_col c midx) restcols);
                cnts = gather_counts t.cnts midx;
              }
            in
            let ireps, icnts = distinct_rows inner in
            let order = Array.init (Array.length ireps) (fun k -> k) in
            Array.sort
              (fun x y -> cell_compare inner.data ireps.(x) ireps.(y))
              order;
            let rows_sorted = Array.map (fun k -> ireps.(k)) order in
            ( Array.length rows_sorted,
              gather_col inner.data rows_sorted,
              gather_counts icnts order ))
          members
      in
      let off = Array.make (ng + 1) 0 in
      Array.iteri (fun g (len, _, _) -> off.(g + 1) <- off.(g) + len) segs;
      let elems = concat_cols (Array.to_list (Array.map (fun (_, c, _) -> c) segs)) in
      let ecnt = concat_counts (Array.to_list (Array.map (fun (_, _, c) -> c) segs)) in
      let gidx = Array.sub ix.row 0 ng in
      {
        rows = ng;
        data =
          CTuple
            (Array.append
               (Array.map (fun c -> gather_col c gidx) keycols)
               [| CBag { off; elems; ecnt } |]);
        cnts = cnt_ones ng;
      }
  | _ -> unsupported "nest: not a bag of tuples"

(* Source row of every element slot of a segment column. *)
let seg_src_rows (off : int array) nrows total : int array =
  assert (Array.length off = nrows + 1 && off.(nrows) = total);
  let src = Array.make (max total 1) 0 in
  for i = 0 to nrows - 1 do
    for k = off.(i) to off.(i + 1) - 1 do
      src.(k) <- i
    done
  done;
  if total = Array.length src then src else Array.sub src 0 total

let identity n = Array.init n (fun i -> i)

(* Unnest: splice the members of bag attribute [ix] in place.  Element
   order inside segments is already row-major, so the output row index IS
   the element slot — only the sibling attributes need gathering. *)
let unnest ix t =
  Fault.inject alloc_site;
  if t.rows = 0 then no_rows () else
  match t.data with
  | CTuple cs when ix >= 1 && ix <= Array.length cs -> (
      match cs.(ix - 1) with
      | CBag { off; elems; ecnt } ->
          let total = off.(t.rows) in
          let src = seg_src_rows off t.rows total in
          let mids =
            match elems with
            | CTuple ecols -> ecols
            | _ when total = 0 -> [||]
            | _ -> unsupported "unnest: members are not tuples"
          in
          let gath c = gather_col c src in
          let prefix = Array.map gath (Array.sub cs 0 (ix - 1)) in
          let suffix =
            Array.map gath (Array.sub cs ix (Array.length cs - ix))
          in
          {
            rows = total;
            data = CTuple (Array.concat [ prefix; mids; suffix ]);
            cnts = mul_counts t.cnts src ecnt (identity total);
          }
      | _ -> unsupported "unnest: attribute is not a bag column")
  | CTuple _ -> unsupported "unnest: attribute out of range"
  | _ -> unsupported "unnest: not a bag of tuples"

(* Destroy: flatten one level of bag nesting, multiplying outer counts
   into the member counts. *)
let destroy t =
  Fault.inject alloc_site;
  if t.rows = 0 then no_rows () else
  match t.data with
  | CBag { off; elems; ecnt } ->
      let total = off.(t.rows) in
      let src = seg_src_rows off t.rows total in
      {
        rows = total;
        data = elems;
        cnts = mul_counts t.cnts src ecnt (identity total);
      }
  | _ -> unsupported "destroy: not a bag of bags"
