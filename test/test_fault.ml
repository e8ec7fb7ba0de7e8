(* Tests for the fault-injection registry (determinism, trigger shapes,
   zero-cost disarmed path) and for cancellation-safe evaluation:
   Budget.cancel yields a structured Cancelled verdict, injected eval
   faults yield a located Injected verdict, and in both cases every pool
   domain is joined afterwards. *)

open Balg

let site = Fault.register "test.site"

let fire_seq ?seed spec n =
  Fault.with_faults ?seed spec (fun () ->
      List.init n (fun _ -> Fault.fire site))

(* --- the registry ---------------------------------------------------------- *)

let test_disarmed_never_fires () =
  Alcotest.(check bool) "disarmed at startup" false (Fault.armed ());
  List.iter
    (fun _ -> Alcotest.(check bool) "no fire" false (Fault.fire site))
    (List.init 100 Fun.id);
  (* and with_faults restores the disarmed state afterwards *)
  ignore (fire_seq "test.site:always" 3);
  Alcotest.(check bool) "disarmed after with_faults" false (Fault.armed ());
  Alcotest.(check bool) "no fire after with_faults" false (Fault.fire site)

let test_trigger_shapes () =
  Alcotest.(check (list bool))
    "always fires on every hit"
    [ true; true; true ]
    (fire_seq "test.site:always" 3);
  Alcotest.(check (list bool))
    "n=K fires exactly once, on the K-th hit"
    [ false; false; true; false; false ]
    (fire_seq "test.site:n=3" 5);
  Alcotest.(check (list bool))
    "every=K fires on multiples of K"
    [ false; true; false; true; false; true ]
    (fire_seq "test.site:every=2" 6);
  Alcotest.(check (list bool))
    "off never fires"
    [ false; false; false ]
    (fire_seq "test.site:off" 3)

let test_probabilistic_determinism () =
  let a = fire_seq ~seed:17 "test.site:p=0.5" 200 in
  let b = fire_seq ~seed:17 "test.site:p=0.5" 200 in
  Alcotest.(check (list bool)) "same seed replays the same sequence" a b;
  let fires = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "p=0.5 fires a nontrivial fraction" true
    (fires > 50 && fires < 150)

let test_bad_specs_rejected () =
  List.iter
    (fun spec ->
      match Fault.configure spec with
      | Ok () -> Alcotest.failf "spec %S should have been rejected" spec
      | Error _ -> Alcotest.(check bool) "nothing armed" false (Fault.armed ()))
    [ "nonsense"; "test.site:"; "test.site:n=x"; "test.site:p=2.5"; ":always" ]

(* --- cancellation ----------------------------------------------------------- *)

let roomy_limits =
  {
    Budget.default with
    Budget.fuel = 50_000_000;
    max_support = 500_000;
    max_size = 50_000_000;
  }

let selfjoin_query seed =
  let rng = Random.State.make [| seed |] in
  let bag = Baggen.Genval.flat_bag rng ~n_atoms:10 ~arity:2 ~size:60 ~max_count:2 in
  Derived.selfjoin (Expr.lit bag (Ty.relation 2))

let test_precancelled_budget () =
  (* deterministic: a budget cancelled before the first charge must yield
     the Cancelled verdict at node 0, never a value *)
  let q = selfjoin_query 7 in
  let budget = Budget.start roomy_limits in
  Budget.cancel budget;
  Alcotest.(check bool) "cancelled observable" true (Budget.cancelled budget);
  match Eval.run ~budget (Eval.env_of_list []) q with
  | Ok _ -> Alcotest.fail "expected a Cancelled verdict"
  | Error x ->
      Alcotest.(check bool) "resource = Cancelled" true
        (x.Budget.resource = Budget.Cancelled);
      Alcotest.(check int) "located at node 0" 0 x.Budget.at_node

let test_cancel_does_not_override_verdict () =
  (* an already-published exhaustion verdict stands: cancel after the trip
     must not rewrite history *)
  let q = selfjoin_query 13 in
  let limits = { roomy_limits with Budget.max_support = 100 } in
  let budget = Budget.start limits in
  (match Eval.run ~budget (Eval.env_of_list []) q with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error x ->
      Alcotest.(check bool) "support verdict first" true
        (x.Budget.resource = Budget.Support));
  Budget.cancel budget;
  match Budget.verdict budget with
  | Some x ->
      Alcotest.(check bool) "original verdict survives cancel" true
        (x.Budget.resource = Budget.Support)
  | None -> Alcotest.fail "verdict vanished"

let test_concurrent_cancel_joins_pool () =
  (* A cancel raced from another domain mid-way through a pooled vec
     run: it must end in Ok (finished first) or a structured Cancelled
     verdict — never a raw exception — and the pool must be fully joined
     either way.  At least one of the runs reaches a pooled kernel. *)
  let q = selfjoin_query 23 in
  Testpool.ran_pooled "concurrent cancel" @@ fun () ->
  let outcomes =
    List.map
      (fun delay ->
        let budget = Budget.start roomy_limits in
        let p = Pool.create ~chunk_min:1 ~jobs:Testpool.jobs () in
        let canceller =
          Domain.spawn (fun () ->
              Unix.sleepf delay;
              Budget.cancel budget)
        in
        let r = Veval.run ~budget ~pool:p (Eval.env_of_list []) q in
        Domain.join canceller;
        Pool.shutdown p;
        Alcotest.(check int) "no live domains after shutdown" 0 (Pool.live p);
        match r with
        | Ok _ -> `Finished
        | Error x when x.Budget.resource = Budget.Cancelled -> `Cancelled
        | Error x ->
            Alcotest.failf "unexpected verdict: %s"
              (Budget.exhaustion_to_string x))
      [ 0.0; 0.0005; 0.002; 0.01 ]
  in
  ignore outcomes

(* --- injected verdicts ------------------------------------------------------ *)

let test_injected_eval_verdict () =
  (* the eval.step site converts a firing hit into a located Injected
     verdict, and the same seed+spec replays the identical verdict.  A
     binder body runs once per distinct element (~30 here), so the site
     sees comfortably more hits than the n=20 trigger needs. *)
  let q =
    let rng = Random.State.make [| 7 |] in
    let bag =
      Baggen.Genval.flat_bag rng ~n_atoms:10 ~arity:1 ~size:60 ~max_count:2
    in
    Expr.Map ("x", Expr.Sing (Expr.Var "x"), Expr.lit bag (Ty.relation 1))
  in
  let verdict () =
    Fault.with_faults ~seed:3 "eval.step:n=20" (fun () ->
        match Eval.run ~limits:roomy_limits (Eval.env_of_list []) q with
        | Ok _ -> Alcotest.fail "expected an Injected verdict"
        | Error x -> x)
  in
  let x = verdict () in
  Alcotest.(check bool) "resource = Injected" true
    (x.Budget.resource = Budget.Injected);
  Alcotest.(check string) "op names the site" "eval.step" x.Budget.op;
  Alcotest.(check bool) "located at a real node" true (x.Budget.at_node >= 0);
  let y = verdict () in
  Alcotest.(check bool) "same seed, same verdict" true (x = y)

let test_injected_kernel_verdict () =
  (* bag.alloc faults are caught at the Eval.run boundary *)
  let q = selfjoin_query 7 in
  Fault.with_faults ~seed:5 "bag.alloc:always" (fun () ->
      match Eval.run ~limits:roomy_limits (Eval.env_of_list []) q with
      | Ok _ -> Alcotest.fail "expected an Injected verdict"
      | Error x ->
          Alcotest.(check bool) "resource = Injected" true
            (x.Budget.resource = Budget.Injected);
          Alcotest.(check string) "op names the site" "bag.alloc" x.Budget.op)

let test_injected_vec_kernel_verdict () =
  (* the vec engine's kernel-allocation site surfaces the same structured
     verdict through Veval.run — an allocation death inside a columnar
     kernel never escapes as a crash *)
  let q = selfjoin_query 7 in
  Fault.with_faults ~seed:5 "vec.alloc:always" (fun () ->
      match Veval.run ~limits:roomy_limits (Eval.env_of_list []) q with
      | Ok _ -> Alcotest.fail "expected an Injected verdict"
      | Error x ->
          Alcotest.(check bool) "resource = Injected" true
            (x.Budget.resource = Budget.Injected);
          Alcotest.(check string) "op names the site" "vec.alloc" x.Budget.op)

let () =
  Alcotest.run "fault"
    [
      ( "registry",
        [
          Alcotest.test_case "disarmed never fires" `Quick
            test_disarmed_never_fires;
          Alcotest.test_case "trigger shapes" `Quick test_trigger_shapes;
          Alcotest.test_case "probabilistic determinism" `Quick
            test_probabilistic_determinism;
          Alcotest.test_case "bad specs rejected" `Quick test_bad_specs_rejected;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "pre-cancelled budget" `Quick
            test_precancelled_budget;
          Alcotest.test_case "cancel does not override verdict" `Quick
            test_cancel_does_not_override_verdict;
          Alcotest.test_case "concurrent cancel joins pool" `Quick
            test_concurrent_cancel_joins_pool;
        ] );
      ( "injection",
        [
          Alcotest.test_case "eval.step verdict" `Quick
            test_injected_eval_verdict;
          Alcotest.test_case "bag.alloc verdict" `Quick
            test_injected_kernel_verdict;
          Alcotest.test_case "vec.alloc verdict" `Quick
            test_injected_vec_kernel_verdict;
        ] );
    ]
