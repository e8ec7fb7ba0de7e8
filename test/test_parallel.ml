(* Tests for pooled evaluation: the work-sharing pool itself, and the
   guarantee that a pool changes nothing observable.  Only the vec
   engine's selection and join kernels use the pool (the tree engine is
   sequential); every compiled closure runs on the calling domain, so a
   pooled vec run must return the same value or verdict, spend the same
   fuel and build the same span tree as the sequential run, with the
   steps == fuel telemetry invariant intact.  Every pooled test checks
   that the pool actually ran a batch.

   The pool under test ({!Testpool}) uses [chunk_min = 1] so the chunked
   kernels fire even on the tiny inputs a test can afford. *)

open Balg
open Testpool

(* --- the pool itself ------------------------------------------------------- *)

let test_pool_ordering () =
  with_test_pool (fun p ->
      let results =
        Pool.run p (List.init 40 (fun i () -> i * i))
        |> List.map (function Ok n -> n | Error e -> raise e)
      in
      Alcotest.(check (list int))
        "results come back in input order"
        (List.init 40 (fun i -> i * i))
        results)

let test_pool_exceptions () =
  with_test_pool (fun p ->
      let results =
        Pool.run p
          [
            (fun () -> 1);
            (fun () -> failwith "boom");
            (fun () -> 3);
          ]
      in
      match results with
      | [ Ok 1; Error (Failure msg); Ok 3 ] when msg = "boom" -> ()
      | _ -> Alcotest.fail "per-thunk results or captured exception wrong")

let test_pool_nested () =
  (* a task that itself calls [Pool.run] on the same pool: the owner helps
     drain the queue, so this must not deadlock even with jobs = 2 *)
  with_test_pool (fun p ->
      let inner i =
        Pool.run p (List.init 5 (fun j () -> (10 * i) + j))
        |> List.map (function Ok n -> n | Error e -> raise e)
        |> List.fold_left ( + ) 0
      in
      let results =
        Pool.run p (List.init 8 (fun i () -> inner i))
        |> List.map (function Ok n -> n | Error e -> raise e)
      in
      Alcotest.(check (list int))
        "nested batches complete"
        (List.init 8 (fun i -> (50 * i) + 10))
        results)

let test_chunks () =
  Alcotest.(check (list (list int))) "empty" [] (Pool.chunks 4 []);
  Alcotest.(check (list (list int)))
    "fewer elements than chunks"
    [ [ 1 ]; [ 2 ] ]
    (Pool.chunks 4 [ 1; 2 ]);
  let l = List.init 23 Fun.id in
  let cs = Pool.chunks 4 l in
  Alcotest.(check int) "at most k chunks" 4 (List.length cs);
  Alcotest.(check (list int)) "concat restores the list" l (List.concat cs);
  List.iter
    (fun c ->
      Alcotest.(check bool) "near-equal sizes" true
        (List.length c >= 5 && List.length c <= 6))
    cs

(* --- sequential vs pooled differential ------------------------------------ *)

let env_spec = [ ("R", 1); ("S", 2) ]

(* Roomy limits let (almost) every run finish, so values are compared;
   tight limits make fuel and support verdicts common, so verdicts are. *)
let roomy_limits =
  {
    Budget.default with
    Budget.fuel = 20_000_000;
    max_support = 200_000;
    max_size = 5_000_000;
  }

let tight_limits = { Budget.default with Budget.fuel = 80; max_support = 16 }

(* Everything a vec run exposes: its value or its verdict's resource, node
   and op, the fuel it spent, and its span tree (calls, steps and peak
   support per node). *)
let observe_run ?pool limits env e =
  let budget = Budget.start limits in
  let t = Telemetry.create () in
  let outcome =
    match Veval.run ~budget ~telemetry:t ?pool env e with
    | Ok v -> Ok v
    | Error x -> Error (x.Budget.resource, x.Budget.at_node, x.Budget.op)
  in
  (outcome, Budget.fuel_spent budget, Telemetry.to_string t)

let outcome_to_string = function
  | Ok v -> Value.to_string v
  | Error (r, node, op) ->
      Printf.sprintf "%s at #%d %s" (Budget.resource_to_string r) node op

let differential gen gen_name =
  QCheck.Test.make
    ~name:(Printf.sprintf "parallel eval is bit-identical (%s)" gen_name)
    ~count:60
    QCheck.(make Gen.int)
    (fun seed ->
      with_test_pool (fun p ->
          let rng = Random.State.make [| seed |] in
          let e = gen rng env_spec 4 (1 + Random.State.int rng 2) in
          List.for_all
            (fun _ ->
              let inst = Baggen.Genexpr.instance rng env_spec in
              let env = Eval.env_of_list inst in
              List.for_all
                (fun (lname, limits) ->
                  let o, fuel, tree = observe_run limits env e in
                  let o', fuel', tree' = observe_run ~pool:p limits env e in
                  let same_outcome =
                    match (o, o') with
                    | Ok v, Ok v' -> Value.equal v v'
                    | Error x, Error x' -> x = x'
                    | Ok _, Error _ | Error _, Ok _ -> false
                  in
                  same_outcome && fuel = fuel' && tree = tree'
                  || QCheck.Test.fail_reportf
                       "%s limits, %s\n\
                        sequential: %s, fuel %d\n%s\n\
                        pooled:     %s, fuel %d\n%s"
                       lname
                       (Expr.to_string e) (outcome_to_string o) fuel tree
                       (outcome_to_string o') fuel' tree')
                [ ("roomy", roomy_limits); ("tight", tight_limits) ])
            (List.init 6 Fun.id)))

let differential_flat =
  differential (Baggen.Genexpr.flat ?allow_diff:None ?allow_dedup:None) "flat"

let differential_nested = differential Baggen.Genexpr.nested "nested"

(* --- telemetry: steps == fuel survives domain joins ------------------------ *)

let selfjoin_query rng =
  let bag = Baggen.Genval.flat_bag rng ~n_atoms:10 ~arity:2 ~size:60 ~max_count:2 in
  Derived.selfjoin (Expr.lit bag (Ty.relation 2))

let test_steps_equal_fuel () =
  let q = selfjoin_query (Random.State.make [| 7 |]) in
  with_test_pool (fun p ->
      let budget = Budget.start roomy_limits in
      let t = Telemetry.create () in
      (match
         ran_pooled "steps == fuel" (fun () ->
             Veval.run ~budget ~telemetry:t ~pool:p (Eval.env_of_list []) q)
       with
      | Ok _ -> ()
      | Error x -> Alcotest.failf "unexpected exhaustion: %s" (Budget.exhaustion_to_string x));
      Alcotest.(check int)
        "every telemetry step of a pooled run is a governor fuel unit"
        (Budget.fuel_spent budget)
        (Telemetry.total_steps t))

(* --- deterministic exhaustion ---------------------------------------------- *)

let test_deterministic_exhaustion () =
  (* a pooled hash join whose output exceeds max_support: the probe
     slices charge nothing, the calling domain checks the joined result,
     and the verdict is the same run after run *)
  let rng = Random.State.make [| 13 |] in
  let r =
    Expr.lit
      (Baggen.Genval.flat_bag rng ~n_atoms:10 ~arity:2 ~size:60 ~max_count:2)
      (Ty.relation 2)
  in
  let q = Expr.Join (1, 1, r, r) in
  let limits = { Budget.default with Budget.fuel = 1_000_000; max_support = 100 } in
  with_test_pool (fun p ->
      let verdict () =
        match
          ran_pooled "exhaustion" (fun () ->
              Veval.run ~limits ~pool:p (Eval.env_of_list []) q)
        with
        | Ok _ -> Alcotest.fail "expected exhaustion"
        | Error x -> (x.Budget.resource, x.Budget.at_node, x.Budget.op)
      in
      let first = verdict () in
      List.iter
        (fun _ ->
          let again = verdict () in
          Alcotest.(check bool)
            "same structured verdict on every parallel run" true
            (first = again))
        (List.init 5 Fun.id))

(* --- chaos differential ----------------------------------------------------- *)

(* CI's chaos leg sweeps BALG_FAULT / BALG_FAULT_SEED over several seeds;
   locally the defaults below apply.  Only this suite arms the spec — the
   library never reads the environment on its own, so the rest of the test
   binary runs fault-free even under the sweep. *)
let chaos_spec =
  Option.value
    (Sys.getenv_opt "BALG_FAULT")
    ~default:"pool.task:p=0.05,vec.alloc:p=0.05,bag.alloc:p=0.05,eval.step:p=0.01"

let chaos_seed =
  match Sys.getenv_opt "BALG_FAULT_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

let chaos_differential =
  (* worker-death / allocation / step faults during a pooled vec run: the
     result is the clean sequential tree value, bit-identical, or a
     structured verdict — never a raw exception, never a wrong value *)
  QCheck.Test.make
    ~name:"chaos: faulted parallel run is bit-identical or a verdict"
    ~count:40
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let e = Baggen.Genexpr.nested rng env_spec 4 (1 + Random.State.int rng 2) in
      let inst = Baggen.Genexpr.instance rng env_spec in
      let env = Eval.env_of_list inst in
      let oracle = Eval.run ~limits:roomy_limits env e in
      let chaotic =
        Fault.with_faults ~seed:(chaos_seed + seed) chaos_spec (fun () ->
            with_test_pool (fun p ->
                Veval.run ~limits:roomy_limits ~pool:p env e))
      in
      match (oracle, chaotic) with
      | Ok v, Ok v' -> Value.equal v v'
      | _, Error _ -> true (* structured verdict: acceptable under faults *)
      | Error _, Ok _ -> true)

let test_chaos_pool_shutdown () =
  (* spawn faults degrade the pool (fewer workers, helping caller keeps
     progress); task faults surface as per-thunk Injected errors; and
     shutdown must still leave zero live domains *)
  Fault.with_faults ~seed:7 "pool.spawn:every=2,pool.task:p=0.2" (fun () ->
      let p = Pool.create ~chunk_min:1 ~jobs () in
      let results = Pool.run p (List.init 40 (fun i () -> i)) in
      Alcotest.(check int) "every thunk answered" 40 (List.length results);
      List.iteri
        (fun i -> function
          | Ok v -> Alcotest.(check int) "in-order value" i v
          | Error (Fault.Injected _) -> ()
          | Error e ->
              Alcotest.failf "unexpected error: %s" (Printexc.to_string e))
        results;
      Pool.shutdown p;
      Alcotest.(check int) "zero live domains" 0 (Pool.live p))

(* A property over many generated queries, failing unless some of them
   ran a pool batch: a single query may have no selection or join. *)
let pooled_property t =
  let name, speed, f = QCheck_alcotest.to_alcotest t in
  (name, speed, fun () -> ran_pooled name f)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "exception capture" `Quick test_pool_exceptions;
          Alcotest.test_case "nested batches" `Quick test_pool_nested;
          Alcotest.test_case "chunks" `Quick test_chunks;
        ] );
      ( "differential",
        [
          pooled_property differential_flat;
          pooled_property differential_nested;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "steps == fuel across joins" `Quick
            test_steps_equal_fuel;
          Alcotest.test_case "deterministic exhaustion verdict" `Quick
            test_deterministic_exhaustion;
        ] );
      ( "chaos",
        [
          pooled_property chaos_differential;
          Alcotest.test_case "degraded pool still shuts down clean" `Quick
            test_chaos_pool_shutdown;
        ] );
    ]
