(* Shared by the test executables: the value of a governed run, or a test
   failure naming the verdict. *)
let ok = function
  | Ok v -> v
  | Error x -> Alcotest.fail (Balg.Budget.exhaustion_to_string x)
