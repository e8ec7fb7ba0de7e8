(* Shared by the test executables that run the vec engine's kernels on a
   domain pool.  [BALG_TEST_JOBS] (default 4, at least 2) sets the domain
   count so CI can pin it; [chunk_min = 1] makes the chunked kernels fire
   on the tiny inputs a test can afford. *)
open Balg

let jobs =
  match Sys.getenv_opt "BALG_TEST_JOBS" with
  | Some s -> ( try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

let with_test_pool f =
  let p = Pool.create ~chunk_min:1 ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let batches = Metrics.counter Metrics.default "balg_pool_batches_total"

(* [f ()], failing the test unless it submitted at least one batch to a
   pool, so a pooled test never silently checks a sequential run. *)
let ran_pooled what f =
  let before = Metrics.counter_value batches in
  let r = f () in
  if Metrics.counter_value batches <= before then
    Alcotest.failf "%s: the pool ran no batch" what;
  r
