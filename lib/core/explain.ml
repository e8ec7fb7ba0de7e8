(** EXPLAIN ANALYZE for bag-algebra queries: a view over one governed
    {!Eval.run} with a {!Telemetry} sink.

    Per operator, the measured figures — invocations and the largest
    result support — are the spans of the run the engine really performed
    (fast-path kernels included, so a projection body the [proj] kernel
    never ran reports no calls), set next to the raw {!Props.infer}
    estimate.  Budgets, faults and traces apply as in any evaluation. *)

type annotated = {
  an_op : string;
  an_est : int;
  an_exact : bool;
  an_actual : int;
  an_calls : int;
  an_engine : string option;
  an_children : annotated list;
}

let analyze ?limits ?(env = Eval.Env.empty) ?(vals = []) ~tenv ~engine e =
  (* Measured rows always come from the governed tree run's spans; under
     the vec engine a second run supplies the result value and its
     per-subtree engine labels.  Both engines are bit-identical by the
     differential suite, so the double evaluation only costs time, never
     changes the answer. *)
  let t = Telemetry.create () in
  let labels = Hashtbl.create 16 in
  let rec label (p : Veval.plan) =
    Hashtbl.replace labels p.Veval.p_id p.Veval.p_engine;
    List.iter label p.Veval.p_children
  in
  let measured =
    match Eval.run ?limits ~telemetry:t env e with
    | Error _ as r -> r
    | Ok v -> (
        match engine with
        | Veval.Tree -> Ok v
        | Veval.Vec -> Veval.run ?limits ~report:label env e)
  in
  (* Estimates are the raw uncalibrated heuristics: analyze measures the
     estimator itself, so an ambient calibration must not contaminate
     the baseline. *)
  let raw = Props.infer ~vals ~calib:(fun _ -> None) tenv in
  (* Span ids are the compiler's preorder over {!Expr.children}. *)
  let next = ref 0 in
  let rec annot e =
    incr next;
    let id = !next in
    let est = raw e in
    let calls, actual =
      match Telemetry.find t id with
      | Some sp -> (sp.Telemetry.invocations, sp.Telemetry.peak_support)
      | None -> (0, 0)
    in
    let children = List.map annot (Expr.children e) in
    {
      an_op = Expr.op_name e;
      an_est = est.Props.rows;
      an_exact = est.Props.exact;
      an_actual = actual;
      an_calls = calls;
      an_engine = Hashtbl.find_opt labels id;
      an_children = children;
    }
  in
  Result.map (fun v -> (v, annot e)) measured

let rec fold_annotated f acc a =
  List.fold_left (fold_annotated f) (f acc a) a.an_children

(* Operators whose estimate is a heuristic and was actually exercised:
   the population both the error table's summary and the calibration
   table draw from. *)
let calibratable a =
  a.an_calls > 0 && (not a.an_exact) && a.an_est < max_int

let calibration_of a =
  fold_annotated
    (fun acc n ->
      if calibratable n then (Calib.op_key n.an_op, n.an_est, n.an_actual) :: acc
      else acc)
    [] a
  |> List.rev |> Calib.of_observations

let q_error est actual =
  let e = float_of_int (max 1 est) and a = float_of_int (max 1 actual) in
  if a >= e then a /. e else e /. a

let pp_analysis ppf a =
  let fmt_rows n = if n = max_int then "inf" else string_of_int n in
  Format.fprintf ppf "%-32s %12s %12s %8s %6s  %s@\n" "operator" "est rows"
    "actual" "err" "calls" "engine";
  let rec row indent a =
    let err =
      if a.an_calls = 0 then "-"
      else Format.sprintf "%.2fx" (q_error a.an_est a.an_actual)
    in
    Format.fprintf ppf "%-32s %12s %12s %8s %6d  %s@\n"
      (String.make indent ' ' ^ a.an_op)
      (fmt_rows a.an_est ^ if a.an_exact then "=" else "~")
      (fmt_rows a.an_actual) err a.an_calls
      (Option.value a.an_engine ~default:"tree");
    List.iter (row (indent + 2)) a.an_children
  in
  row 0 a;
  let errs =
    fold_annotated
      (fun acc n ->
        if calibratable n then q_error n.an_est n.an_actual :: acc else acc)
      [] a
    |> List.sort compare
  in
  match errs with
  | [] -> Format.fprintf ppf "q-error: no heuristic operators exercised@\n"
  | _ ->
      let n = List.length errs in
      let median = List.nth errs (n / 2) in
      let worst = List.nth errs (n - 1) in
      Format.fprintf ppf
        "q-error over %d heuristic operator%s: median=%.2fx max=%.2fx@\n" n
        (if n = 1 then "" else "s")
        median worst

let analysis_to_string a = Format.asprintf "%a" (fun ppf -> pp_analysis ppf) a
