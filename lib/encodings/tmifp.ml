(** Theorem 6.6, executably: BALG{^2} + IFP simulates Turing machines.

    A machine configuration history is a bag of 4-tuples
    [<t, j, sym, st>] where [t] and [j] are integer-bags (time and cell
    index), [sym] is the cell content and [st] is either the machine state
    (on the head cell) or the marker [g].  The inflationary fixpoint grows
    the bag one time layer per iteration: each algebra iteration derives the
    time-[t+1] layer from the time-[t] layer by joining the head cell with
    its neighbour and carrying every other cell across unchanged — exactly
    the (a)–(c) clauses in the proof.  The iteration reaches a fixpoint when
    the machine halts (no move applies), which is how the paper's IFP
    terminates. *)

open Balg

let marker = "g"

let cell_ty = Ty.Tuple [ Ty.nat; Ty.nat; Ty.Atom; Ty.Atom ]
let conf_ty = Ty.Bag cell_ty

let nat1 = Derived.nat_lit 1
let succ_nat e = Expr.UnionAdd (e, nat1)

(** The literal initial configuration: time 1, the input written from cell 1
    on, blanks up to [space], head on cell 1 in the start state. *)
let seed_value (tm : Turing.Tm.t) ~space input =
  let cell j sym st =
    Value.tuple [ Value.nat 1; Value.nat j; Value.atom sym; Value.atom st ]
  in
  let sym_at j =
    match List.nth_opt input (j - 1) with Some s -> s | None -> tm.Turing.Tm.blank
  in
  Value.bag_of_list
    (List.init space (fun i ->
         let j = i + 1 in
         cell j (sym_at j)
           (if j = 1 then tm.Turing.Tm.start else marker)))

(* One move rule: derive the successor layer contributions of the move
   (q1, a1) -> (q2, a2, dir) from the history [x]. *)
let move_expr (x : Expr.t) ~(q1 : string) ~(a1 : string) ~(q2 : string)
    ~(a2 : string) ~(dir : Turing.Tm.move) =
  let open Expr in
  let u = fresh_var "tm_u" and w = fresh_var "tm_w" in
  (* head cells of any time layer carrying (a1, q1) *)
  let heads =
    Select (u, Proj (3, Var u), atom a1,
      Select (u, Proj (4, Var u), atom q1, x))
  in
  let head_tj = proj_attrs [ 1; 2 ] heads in
  (* every cell paired with the head of its own time layer:
     <t, i, sym, st, t', j> with t = t' *)
  let same_time =
    Select (w, Proj (1, Var w), Proj (5, Var w), Product (x, head_tj))
  in
  (* cells not under the head (marker g) at those layers *)
  let bystanders = Select (w, Proj (4, Var w), atom marker, same_time) in
  (* the cell the head moves onto *)
  let neighbour_sel =
    match dir with
    | Turing.Tm.Right ->
        Select (w, Proj (2, Var w), succ_nat (Proj (6, Var w)), bystanders)
    | Turing.Tm.Left ->
        Select (w, succ_nat (Proj (2, Var w)), Proj (6, Var w), bystanders)
  in
  let bump_time body e = Map (w, body, e) in
  let new_head =
    (* the written cell loses the head marker *)
    bump_time
      (Tuple [ succ_nat (Proj (1, Var w)); Proj (2, Var w); atom a2; atom marker ])
      heads
  in
  let new_neighbour =
    bump_time
      (Tuple [ succ_nat (Proj (1, Var w)); Proj (2, Var w); Proj (3, Var w); atom q2 ])
      neighbour_sel
  in
  let frame =
    bump_time
      (Tuple
         [ succ_nat (Proj (1, Var w)); Proj (2, Var w); Proj (3, Var w); Proj (4, Var w) ])
      (Diff (bystanders, neighbour_sel))
  in
  UnionMax (new_head, UnionMax (new_neighbour, frame))

let moves_of tm =
  List.concat_map
    (fun q ->
      List.filter_map
        (fun a ->
          match tm.Turing.Tm.delta (q, a) with
          | Some (q2, a2, dir) -> Some (q, a, q2, a2, dir)
          | None -> None)
        tm.Turing.Tm.alphabet)
    tm.Turing.Tm.states

(** The fixpoint body: all applicable move rules, deduplicated. *)
let step_expr tm x =
  let contributions =
    List.map
      (fun (q1, a1, q2, a2, dir) -> move_expr x ~q1 ~a1 ~q2 ~a2 ~dir)
      (moves_of tm)
  in
  match contributions with
  | [] -> x
  | first :: rest ->
      Expr.Dedup (List.fold_left (fun acc c -> Expr.UnionMax (acc, c)) first rest)

(** The full history of the computation as one IFP expression over the seed
    variable [B0]. *)
let history_expr tm = Expr.Fix ("X", step_expr tm (Expr.Var "X"), Expr.Var "B0")

(** Nonempty iff the machine reaches its accepting state. *)
let accept_expr tm =
  let u = Expr.fresh_var "tm_acc" in
  Expr.Select
    (u, Expr.Proj (4, Expr.Var u), Expr.atom tm.Turing.Tm.accept, history_expr tm)

(** The final (fixpoint) time layer, projected to [<j, sym, st>] — the
    output tape decoding step of the proof. *)
let final_tape_expr tm =
  let open Expr in
  let h = fresh_var "tm_h" and w = fresh_var "tm_w" and u = fresh_var "tm_u" in
  Let
    ( h,
      history_expr tm,
      let times = Dedup (proj_attrs [ 1 ] (Var h)) in
      (* times having a successor layer *)
      let with_succ =
        Dedup
          (proj_attrs [ 1 ]
             (Select (w, succ_nat (Proj (1, Var w)), Proj (2, Var w),
                Product (times, times))))
      in
      let final_t = Diff (times, with_succ) in
      (* join the history with the final time on the time component *)
      proj_attrs [ 2; 3; 4 ]
        (Select (u, Proj (1, Var u), Proj (5, Var u), Product (Var h, final_t))) )

(** Count of [1] symbols on the final tape, as an integer-bag — used to read
    off the result of the unary-successor machine. *)
let ones_output_expr tm =
  let u = Expr.fresh_var "tm_o" in
  Derived.ones
    (Expr.Select (u, Expr.Proj (2, Expr.Var u), Expr.atom "1", final_tape_expr tm))

(** Run a machine through the algebra.  Returns the truthiness of
    {!accept_expr} on the given unary/symbol input. *)
let run_on ?limits tm ~space input e =
  let env = Eval.env_of_list [ ("B0", seed_value tm ~space input) ] in
  match Eval.run ?limits env e with
  | Ok v -> v
  | Error x -> failwith (Budget.exhaustion_to_string x)

let simulate ?limits tm ~space input =
  run_on ?limits tm ~space input (accept_expr tm)

let accepts ?limits tm ~space input = Eval.truthy (simulate ?limits tm ~space input)

let output_ones ?limits tm ~space input =
  Bignat.to_int_exn
    (Value.nat_value (run_on ?limits tm ~space input (ones_output_expr tm)))

(** Typing environment for the expressions above. *)
let type_env = Typecheck.env_of_list [ ("B0", conf_ty) ]
