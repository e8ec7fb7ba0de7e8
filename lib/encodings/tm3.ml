(** Theorem 6.1: simulating a Turing machine inside BALG{^3} with the
    powerset.

    The construction follows the proof: a candidate computation is a bag of
    4-tuples [<t, j, sym, st>] (time index, cell index, cell content, state
    or the marker [g]); the expression powersets the space of all such
    tuples, [P(D × D × A × Q)], and keeps exactly the bags that encode an
    accepting run:

    - [phi1]: the time-1 layer equals the encoded input tape ([enc(B)]);
    - [phi2]: every pair of consecutive layers differs by a legal move —
      realised, as in the paper, with a move-window relation [M(B)] built by
      mapping over the index domain [D(B)];
    - [phi_contig] (implicit in the paper's indexing discipline): every
      later layer has a predecessor, so layers form a contiguous run;
    - [phi3]: some cell carries the accepting state.

    The paper's index domain [D(B) = P(E{^i}(B))] makes the expression
    hyper-exponential by design; the builder therefore takes the domain as a
    parameter.  With the literal domain [1..m] the whole expression is {e
    evaluable} for a one-move machine (experiment E14 runs it end to end);
    with {!paper_domain} it is the verbatim Theorem 6.1 shape, which we
    typecheck and classify but do not run. *)

open Balg

let marker = "g"

let nat1 = Derived.nat_lit 1
let succ_nat e = Expr.UnionAdd (e, nat1)

let window_ty = Ty.Bag (Ty.Tuple [ Ty.nat; Ty.Atom; Ty.Atom ])

(** A bag of 1-tuples wrapping the integer-bags [1..m]. *)
let literal_domain m =
  Expr.Lit
    ( Value.bag_of_list (List.init m (fun i -> Value.tuple [ Value.nat (i + 1) ])),
      Ty.Bag (Ty.Tuple [ Ty.nat ]) )

(** The paper's domain: all subbags of [E^i(B)] wrapped into 1-tuples
    (hyper-exponentially large; for typechecking the verbatim shape). *)
let paper_domain i b =
  let d = Expr.fresh_var "t61_d" in
  Expr.Map
    (d, Expr.Tuple [ Expr.Var d ],
     Derived.domain ~via_powerbag:false i b)

let atoms_bag_of names =
  Expr.Lit
    ( Value.bag_of_list (List.map (fun s -> Value.tuple [ Value.atom s ]) names),
      Ty.Bag (Ty.Tuple [ Ty.Atom ]) )

(** [space_expr ~domain tm]: the bag of all candidate cells
    [D × D × A × Q∪{g}]. *)
let space_expr ~domain tm =
  Expr.Product
    ( Expr.Product (domain, domain),
      Expr.Product
        ( atoms_bag_of tm.Turing.Tm.alphabet,
          atoms_bag_of (marker :: tm.Turing.Tm.states) ) )

(** The encoded input: the single legal time-1 tape as a bag-of-bags
    literal, [<j, sym, st>] cells with the head on cell 1. *)
let enc_value tm ~space input =
  let sym_at j =
    match List.nth_opt input (j - 1) with Some s -> s | None -> tm.Turing.Tm.blank
  in
  let tape =
    Value.bag_of_list
      (List.init space (fun i ->
           let j = i + 1 in
           Value.tuple
             [
               Value.nat j;
               Value.atom (sym_at j);
               Value.atom (if j = 1 then tm.Turing.Tm.start else marker);
             ]))
  in
  Expr.Lit (Value.bag_of_list [ tape ], Ty.Bag window_ty)

(** [move_windows ~domain tm]: the relation [M(B)] — one
    [<before-window, after-window>] pair per legal move and head position,
    built by MAPping over the domain exactly as in the proof. *)
let move_windows ~domain tm =
  let open Expr in
  let window_pair (q1, a1, q2, a2, dir) =
    let p = fresh_var "t61_p" in
    (* p = <j, b>: head-window position and bystander symbol *)
    let j = Proj (1, Var p) in
    let cell pos sym st = Sing (Tuple [ pos; sym; st ]) in
    let b = Proj (2, Var p) in
    let wb, wa =
      match dir with
      | Turing.Tm.Right ->
          ( UnionAdd (cell j (atom a1) (atom q1), cell (succ_nat j) b (atom marker)),
            UnionAdd (cell j (atom a2) (atom marker), cell (succ_nat j) b (atom q2)) )
      | Turing.Tm.Left ->
          ( UnionAdd (cell j b (atom marker), cell (succ_nat j) (atom a1) (atom q1)),
            UnionAdd (cell j b (atom q2), cell (succ_nat j) (atom a2) (atom marker)) )
    in
    Map (p, Tuple [ wb; wa ],
         Product (domain, atoms_bag_of tm.Turing.Tm.alphabet))
  in
  let moves =
    List.concat_map
      (fun q ->
        List.filter_map
          (fun a ->
            match tm.Turing.Tm.delta (q, a) with
            | Some (q2, a2, dir) -> Some (q, a, q2, a2, dir)
            | None -> None)
          tm.Turing.Tm.alphabet)
      tm.Turing.Tm.states
  in
  match List.map window_pair moves with
  | [] ->
      Expr.Lit (Value.empty_bag, Ty.Bag (Ty.Tuple [ window_ty; window_ty ]))
  | first :: rest ->
      Expr.Dedup (List.fold_left (fun acc m -> Expr.UnionMax (acc, m)) first rest)

(* The time-t layer of candidate x, as <j, sym, st> cells. *)
let layer x t =
  let u = Expr.fresh_var "t61_l" in
  Expr.proj_attrs [ 2; 3; 4 ]
    (Expr.Select (u, Expr.Proj (1, Expr.Var u), t, x))

(* Times having a successor layer inside x. *)
let times_with_succ x =
  let w = Expr.fresh_var "t61_w" in
  Expr.Dedup
    (Expr.proj_attrs [ 1 ]
       (Expr.Select
          (w, succ_nat (Expr.Proj (1, Expr.Var w)), Expr.Proj (5, Expr.Var w),
           Expr.Product (x, x))))

let all_times x = Expr.Dedup (Expr.proj_attrs [ 1 ] x)

(** The full Theorem 6.1 expression.  [domain] must contain at least the
    indices [1..space] for time and tape positions. *)
let tm_expr ~domain tm ~space input =
  let open Expr in
  let enc = enc_value tm ~space input in
  let m_rel = move_windows ~domain tm in
  let x = fresh_var "t61_x" in
  let xv = Var x in
  (* phi1: the time-1 layer is the encoded input *)
  let phi1 e =
    Select (x, Inter (Sing (layer xv nat1), enc), Sing (layer xv nat1), e)
  in
  (* phi_contig: every time is 1 or a successor of a present time *)
  let phi_contig e =
    let w = fresh_var "t61_s" in
    let one_tuple =
      Lit (Value.bag_of_list [ Value.tuple [ Value.nat 1 ] ], Ty.Bag (Ty.Tuple [ Ty.nat ]))
    in
    let succs = Map (w, Tuple [ succ_nat (Proj (1, Var w)) ], all_times xv) in
    Select
      ( x,
        Diff (all_times xv, UnionMax (one_tuple, Dedup succs)),
        empty (Ty.Bag (Ty.Tuple [ Ty.nat ])),
        e )
  in
  (* phi2: every consecutive pair of layers is a legal move *)
  let phi2 e =
    let w = fresh_var "t61_j" in
    let t = Proj (1, Var w) and wb = Proj (2, Var w) and wa = Proj (3, Var w) in
    let at = layer xv t and bt = layer xv (succ_nat t) in
    let legal =
      Expr.Dedup
        (Expr.proj_attrs [ 1 ]
           (Select
              ( w, Diff (at, wb), Diff (bt, wa),
                Select
                  ( w, Inter (bt, wa), wa,
                    Select
                      ( w, Inter (at, wb), wb,
                        Product (times_with_succ xv, m_rel) ) ) )))
    in
    Select
      ( x,
        Diff (times_with_succ xv, legal),
        empty (Ty.Bag (Ty.Tuple [ Ty.nat ])),
        e )
  in
  (* phi3: the accepting state appears *)
  let phi3 e =
    let u = fresh_var "t61_f" in
    Select
      ( x,
        Dedup
          (Derived.ones
             (Select (u, Proj (4, Var u), atom tm.Turing.Tm.accept, xv))),
        Lit
          ( Value.bag_of_list [ Value.tuple [ Value.atom "a" ] ],
            Ty.Bag (Ty.Tuple [ Ty.Atom ]) ),
        e )
  in
  phi3 (phi2 (phi_contig (phi1 (Powerset (space_expr ~domain tm)))))

(** Evaluable instance: literal domain [1..m]. *)
let tm_expr_literal tm ~space input = tm_expr ~domain:(literal_domain space) tm ~space input

(** Verbatim paper shape over a free input bag [B] with domain
    [P(E{^i}(B))]; for static analysis only. *)
let tm_expr_paper ~i tm ~space input =
  tm_expr ~domain:(paper_domain i (Expr.Var "B")) tm ~space input

(** Decide acceptance by evaluating the literal-domain expression. *)
let accepts ?limits tm ~space input =
  let e = tm_expr_literal tm ~space input in
  match Eval.run ?limits (Eval.env_of_list []) e with
  | Ok v -> Eval.truthy v
  | Error x -> failwith (Budget.exhaustion_to_string x)
