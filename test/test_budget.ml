(* The resource governor and the telemetry span tree: structured verdicts
   with node attribution, pre-materialisation cut-off of powerset towers,
   every budget resource, and the --stats invariant (span steps == spent
   fuel). *)

open Balg
module B = Bignat

let rel1 n =
  Value.bag_of_list
    (List.init n (fun i -> Value.tuple [ Value.atom (Printf.sprintf "e%02d" i) ]))

let rel2 n =
  Value.bag_of_list
    (List.init n (fun i ->
         Value.tuple
           [
             Value.atom (Printf.sprintf "n%d" (i mod 5));
             Value.atom (Printf.sprintf "n%d" ((i + 1) mod 5));
           ]))

let run ?budget ?limits ?telemetry e =
  Eval.run ?budget ?limits ?telemetry (Eval.env_of_list []) e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let expect_exhaustion name resource r =
  match r with
  | Error x when x.Budget.resource = resource -> x
  | Error x ->
      Alcotest.fail
        (Printf.sprintf "%s: wrong resource in %s" name
           (Budget.exhaustion_to_string x))
  | Ok _ -> Alcotest.fail (name ^ ": expected Budget_exceeded")

(* P(P(Q)) over a 20-element bag with a 10^6-step fuel budget: the inner
   powerset's expected output (2^20 subbags) is charged before anything is
   materialised, so the governor answers immediately — structured error,
   correct node id, no OOM, well under a second. *)
let test_fuel_mid_powerset () =
  let q = Expr.lit (rel1 20) (Ty.relation 1) in
  (* preorder ids: 1 = outer P, 2 = inner P, 3 = the literal *)
  let e = Expr.Powerset (Expr.Powerset q) in
  let t0 = Unix.gettimeofday () in
  let x =
    expect_exhaustion "fuel" Budget.Fuel
      (run ~limits:{ Budget.unlimited with Budget.fuel = 1_000_000 } e)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "trips at the inner powerset" "powerset" x.Budget.op;
  Alcotest.(check int) "node id" 2 x.Budget.at_node;
  Alcotest.(check int) "limit reported" 1_000_000 x.Budget.limit;
  Alcotest.(check bool) "spent crossed the limit" true
    (x.Budget.spent > 1_000_000);
  Alcotest.(check bool) "answers fast (<1s)" true (dt < 1.0)

(* A deep P(P(...P(Q)...)) tower is cut off by the pre-charge without
   materialising anything — bounded memory, immediate answer. *)
let test_deep_tower_no_oom () =
  let rec tower k e = if k = 0 then e else tower (k - 1) (Expr.Powerset e) in
  let e = tower 6 (Expr.lit (rel1 30) (Ty.relation 1)) in
  let t0 = Unix.gettimeofday () in
  ignore
    (expect_exhaustion "tower" Budget.Fuel
       (run ~limits:{ Budget.unlimited with Budget.fuel = 1_000_000 } e));
  Alcotest.(check bool) "fast" true (Unix.gettimeofday () -. t0 < 1.0)

(* With no fuel limit the same tower still dies on the support account —
   the unified replacement for the old Bag.Too_large escape. *)
let test_tower_support_verdict () =
  (* 2^24 expected subbags exceeds the default 2M support cap, so the
     verdict lands before anything is materialised *)
  let e = Expr.Powerset (Expr.Powerset (Expr.lit (rel1 24) (Ty.relation 1))) in
  let x = expect_exhaustion "support" Budget.Support (run e) in
  Alcotest.(check string) "at a powerset" "powerset" x.Budget.op

let test_size_limit () =
  let e = Expr.lit (rel1 20) (Ty.relation 1) in
  let x =
    expect_exhaustion "size" Budget.Size
      (run ~limits:{ Budget.unlimited with Budget.max_size = 10 } e)
  in
  Alcotest.(check int) "limit" 10 x.Budget.limit;
  Alcotest.(check bool) "spent is the size tag" true (x.Budget.spent > 10)

let test_deadline () =
  (* the deadline is probed at every fixpoint iteration, so an already
     expired deadline trips at the fix node deterministically *)
  let g =
    Value.bag_of_list
      [
        Value.tuple [ Value.atom "a"; Value.atom "b" ];
        Value.tuple [ Value.atom "b"; Value.atom "c" ];
      ]
  in
  let e = Derived.transitive_closure (Expr.lit g (Ty.relation 2)) in
  let x =
    expect_exhaustion "deadline" Budget.Deadline
      (run ~limits:{ Budget.unlimited with Budget.deadline_s = Some 0.0 } e)
  in
  Alcotest.(check bool) "attributed to a node" true (x.Budget.at_node >= 1)

let test_fix_steps () =
  let seed = Expr.lit (rel1 1) (Ty.relation 1) in
  let body = Expr.(Var "X" ++ Var "X") in
  let x =
    expect_exhaustion "fix" Budget.Fix_steps
      (run
         ~limits:{ Budget.unlimited with Budget.max_fix_steps = 50 }
         (Expr.Fix ("X", body, seed)))
  in
  Alcotest.(check string) "at the fix node" "fix" x.Budget.op;
  Alcotest.(check int) "limit" 50 x.Budget.limit

let test_count_digits () =
  (* repeated squaring of multiplicities: 10 -> 100 -> 10^4 -> 10^8 *)
  let b =
    Expr.lit
      (Value.replicate (B.of_int 10) (Value.tuple [ Value.atom "a" ]))
      (Ty.relation 1)
  in
  let rec squared k e =
    if k = 0 then e else squared (k - 1) (Expr.proj_attrs [ 1 ] Expr.(e *** e))
  in
  ignore
    (expect_exhaustion "digits" Budget.Count_digits
       (run
          ~limits:{ Budget.unlimited with Budget.max_count_digits = 5 }
          (squared 3 b)))

(* The --stats invariant: the telemetry span tree's total step count equals
   the governor's spent fuel, on queries exercising kernels, binders, the
   memo table and fixpoints — and also on runs that end in exhaustion. *)
let check_steps_match name e limits =
  let budget = Budget.start limits in
  let t = Telemetry.create () in
  ignore (run ~budget ~telemetry:t e);
  Alcotest.(check int)
    (name ^ ": span steps == spent fuel")
    (Budget.fuel_spent budget) (Telemetry.total_steps t)

let test_steps_match_fuel () =
  let g = rel2 12 in
  check_steps_match "self-join"
    (Derived.selfjoin (Expr.lit g (Ty.relation 2)))
    Budget.unlimited;
  check_steps_match "transitive closure"
    (Derived.transitive_closure (Expr.lit g (Ty.relation 2)))
    Budget.unlimited;
  check_steps_match "powerset"
    (Expr.Destroy (Expr.Powerset (Expr.lit (rel1 8) (Ty.relation 1))))
    Budget.unlimited;
  check_steps_match "exhausted run"
    (Expr.Powerset (Expr.Powerset (Expr.lit (rel1 20) (Ty.relation 1))))
    { Budget.unlimited with Budget.fuel = 1_000 }

let test_telemetry_tree () =
  let e = Derived.selfjoin (Expr.lit (rel2 6) (Ty.relation 2)) in
  let t = Telemetry.create () in
  ignore (Expect.ok (run ~telemetry:t e));
  (match Telemetry.roots t with
  | [ root ] ->
      Alcotest.(check int) "root id" 1 root.Telemetry.id;
      Alcotest.(check bool) "root has children" true
        (root.Telemetry.children <> [])
  | _ -> Alcotest.fail "expected a single root span");
  let rendered = Telemetry.to_string ~trace:true t in
  Alcotest.(check bool) "rendering mentions steps" true
    (contains rendered "steps=");
  Alcotest.(check bool) "per-op table nonempty" true (Telemetry.per_op t <> [])

(* Budget verdicts pretty-print with resource, node and figures. *)
let test_verdict_rendering () =
  let x =
    expect_exhaustion "rendering" Budget.Fuel
      (run
         ~limits:{ Budget.unlimited with Budget.fuel = 10 }
         (Derived.selfjoin (Expr.lit (rel2 6) (Ty.relation 2))))
  in
  let s = Budget.exhaustion_to_string x in
  Alcotest.(check bool) "names the resource" true
    (contains s "fuel");
  Alcotest.(check bool) "names the node" true (contains s "node")

(* The create/arm seam: an unarmed account's deadline clock is not
   running, so wall-clock time spent waiting (an admission queue, a
   parked request) is never billed against the deadline.  The regression
   scenario: an account with a 50ms deadline waits 120ms before arming —
   it must still evaluate successfully, while an account armed at
   creation (Budget.start) over the same wait correctly trips. *)
let test_create_arm_deadline_seam () =
  (* a fixpoint probes the deadline at every iteration, deterministically *)
  let e = Derived.transitive_closure (Expr.lit (rel2 6) (Ty.relation 2)) in
  let limits = { Budget.unlimited with Budget.deadline_s = Some 0.05 } in
  let queued = Budget.create limits in
  Alcotest.(check bool) "created unarmed" false (Budget.armed queued);
  Unix.sleepf 0.12;
  (* the queue wait is over: the worker arms the account and evaluates *)
  Budget.arm queued;
  Alcotest.(check bool) "armed" true (Budget.armed queued);
  (match run ~budget:queued e with
  | Ok _ -> ()
  | Error x ->
      Alcotest.fail
        ("queued request must not be billed for its wait: "
        ^ Budget.exhaustion_to_string x));
  (* counter-case: the clock armed at creation over the same wait trips *)
  let eager = Budget.start limits in
  Alcotest.(check bool) "start arms immediately" true (Budget.armed eager);
  Unix.sleepf 0.12;
  ignore (expect_exhaustion "armed-at-create" Budget.Deadline (run ~budget:eager e))

(* arm is idempotent and the first call wins: re-arming after the
   deadline passed must not grant a fresh allowance. *)
let test_arm_idempotent () =
  let limits = { Budget.unlimited with Budget.deadline_s = Some 0.05 } in
  let b = Budget.create limits in
  Budget.arm b;
  Unix.sleepf 0.12;
  Budget.arm b (* must NOT restart the clock *);
  ignore
    (expect_exhaustion "re-arm" Budget.Deadline
       (run ~budget:b
          (Derived.transitive_closure (Expr.lit (rel2 6) (Ty.relation 2)))))

let () =
  Alcotest.run "budget"
    [
      ( "governor",
        [
          Alcotest.test_case "fuel mid-powerset" `Quick test_fuel_mid_powerset;
          Alcotest.test_case "deep tower no OOM" `Quick test_deep_tower_no_oom;
          Alcotest.test_case "tower support verdict" `Quick
            test_tower_support_verdict;
          Alcotest.test_case "size limit" `Quick test_size_limit;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "fix steps" `Quick test_fix_steps;
          Alcotest.test_case "count digits" `Quick test_count_digits;
          Alcotest.test_case "create/arm deadline seam" `Quick
            test_create_arm_deadline_seam;
          Alcotest.test_case "arm idempotent" `Quick test_arm_idempotent;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "steps match fuel" `Quick test_steps_match_fuel;
          Alcotest.test_case "span tree" `Quick test_telemetry_tree;
          Alcotest.test_case "verdict rendering" `Quick test_verdict_rendering;
        ] );
    ]
