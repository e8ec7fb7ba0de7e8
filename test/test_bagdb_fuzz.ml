(* Corrupted-database fuzzing.  The loader's contract (bagdb.mli): every
   malformed input — truncation, bit flips, duplicated declarations,
   injected garbage, oversized multiplicities, I/O failure — surfaces as a
   located Db_error, never as an uncaught lexer/parser exception, a crash,
   or a silently wrong database. *)

open Balg
module Bagdb = Baglang.Bagdb

let gen_db seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 3 in
  List.init n (fun i ->
      let arity = 1 + Random.State.int rng 2 in
      let v =
        Baggen.Genval.flat_bag rng ~n_atoms:4 ~arity
          ~size:(1 + Random.State.int rng 6)
          ~max_count:3
      in
      (Printf.sprintf "b%d" i, Ty.relation arity, v))

(* One random corruption; composed twice in the property below. *)
let mutate rng s =
  let n = String.length s in
  if n = 0 then s
  else
    match Random.State.int rng 5 with
    | 0 -> String.sub s 0 (Random.State.int rng n) (* truncate *)
    | 1 ->
        (* flip one bit *)
        let b = Bytes.of_string s in
        let i = Random.State.int rng n in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 7)));
        Bytes.to_string b
    | 2 ->
        (* duplicate a line (duplicate bag names must be rejected) *)
        let lines = String.split_on_char '\n' s in
        let i = Random.State.int rng (List.length lines) in
        lines
        |> List.mapi (fun j l -> if j = i then [ l; l ] else [ l ])
        |> List.concat |> String.concat "\n"
    | 3 ->
        (* insert garbage bytes *)
        let i = Random.State.int rng (n + 1) in
        String.sub s 0 i ^ "\x00{<!" ^ String.sub s i (n - i)
    | _ ->
        (* delete one byte *)
        let i = Random.State.int rng n in
        String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)

let prop_mutated_parse_total =
  QCheck.Test.make
    ~name:"mutated .bagdb parses or raises located Db_error, nothing else"
    ~count:800
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let source = Bagdb.render (gen_db seed) in
      let s = mutate rng (mutate rng source) in
      (* any other exception escapes and fails the property *)
      match Bagdb.parse s with
      | _ -> true
      | exception Bagdb.Db_error e ->
          e.Bagdb.offset >= 0
          && e.Bagdb.offset <= String.length s
          && String.length e.Bagdb.reason > 0)

let test_valid_roundtrip () =
  let db = gen_db 1234 in
  let db' = Bagdb.parse (Bagdb.render db) in
  Alcotest.(check int) "same decl count" (List.length db) (List.length db');
  List.iter2
    (fun (n, ty, v) (n', ty', v') ->
      Alcotest.(check string) "name" n n';
      Alcotest.(check bool) "type" true (ty = ty');
      Alcotest.(check bool) "value" true (Value.equal v v'))
    db db'

(* Nested bag types: elements that are bags, and tuples holding bags, so
   both canonicalisation paths (sort, and hash-then-sort for deep
   elements) see rendered text. *)
let nested_types =
  Ty.
    [
      relation 2;
      Bag (Tuple [ Atom; Bag Atom ]);
      Bag (Bag (Tuple [ Atom; Atom ]));
      Bag (Tuple [ Atom; Bag (Tuple [ Atom; Bag Atom ]) ]);
    ]

let gen_nested rng =
  let ty = List.nth nested_types (Random.State.int rng (List.length nested_types)) in
  (ty, Baggen.Genval.of_type rng ~n_atoms:5 ~width:5 ~max_count:4 ty)

let prop_nested_roundtrip =
  QCheck.Test.make ~name:"render/parse roundtrip on nested databases" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        List.init (1 + Random.State.int rng 3) (fun i ->
            let ty, v = gen_nested rng in
            (Printf.sprintf "n%d" i, ty, v))
      in
      let source = Bagdb.render db in
      let db' = Bagdb.parse source in
      List.for_all2
        (fun (n, ty, v) (n', ty', v') ->
          String.equal n n' && Ty.equal ty ty' && Value.equal v v')
        db db'
      && String.equal source (Bagdb.render db'))

(* A literal in any order, with elements repeated and zero counts mixed
   in, parses to the canonical bag: text that is not already canonical
   must take the sorting path. *)
let prop_unordered_literal =
  QCheck.Test.make ~name:"shuffled literals with repeats parse canonical" ~count:300
    QCheck.(make Gen.int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let ty, v = gen_nested rng in
      let parts =
        List.concat_map
          (fun (w, c) ->
            (* split each count into unit occurrences plus the rest *)
            let c = Bignat.to_int_exn c in
            let units = Random.State.int rng (c + 1) in
            let rest = if units = c then [] else [ (w, c - units) ] in
            let zero = if Random.State.int rng 4 = 0 then [ (w, 0) ] else [] in
            List.init units (fun _ -> (w, 1)) @ rest @ zero)
          (Value.as_bag v)
      in
      let parts = Array.of_list parts in
      for i = Array.length parts - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = parts.(i) in
        parts.(i) <- parts.(j);
        parts.(j) <- t
      done;
      let literal =
        "{{ "
        ^ String.concat ", "
            (Array.to_list
               (Array.map
                  (fun (w, k) ->
                    Value.to_string w ^ if k = 1 then "" else ":" ^ string_of_int k)
                  parts))
        ^ " }}"
      in
      match Bagdb.parse ("bag b : " ^ Ty.to_string ty ^ " = " ^ literal) with
      | [ (_, _, v') ] ->
          Value.equal v v' && String.equal (Value.to_string v) (Value.to_string v')
      | _ -> false)

let test_duplicate_names_rejected () =
  let source = "bag r : {{<U>}} = {{ <'a> }}\nbag r : {{<U>}} = {{ <'b> }}" in
  match Bagdb.parse source with
  | _ -> Alcotest.fail "duplicate bag names must be rejected"
  | exception Bagdb.Db_error e ->
      Alcotest.(check bool) "reason mentions duplicate" true
        (String.length e.Bagdb.reason > 0)

(* The located regression for the duplicate diagnostic: the reported
   offset must fall inside the SECOND (offending) definition's span —
   specifically at its name token — not at the first definition or at the
   end of input.  Layout below: the first decl spans [0,28), the newline
   is 28, the second decl starts at 29 and its name token 'r' sits at
   offset 33 ("bag " is 4 bytes). *)
let test_duplicate_offset_in_second_span () =
  let first = "bag r : {{<U>}} = {{ <'a> }}" in
  let second = "bag r : {{<U>}} = {{ <'b> }}" in
  let source = first ^ "\n" ^ second in
  let second_start = String.length first + 1 in
  match Bagdb.parse source with
  | _ -> Alcotest.fail "duplicate bag names must be rejected"
  | exception Bagdb.Db_error e ->
      Alcotest.(check bool) "offset inside the second definition" true
        (e.Bagdb.offset >= second_start
        && e.Bagdb.offset < String.length source);
      Alcotest.(check int) "offset is the offending name token"
        (second_start + 4) e.Bagdb.offset

let test_oversized_count_rejected () =
  let huge =
    Value.bag_of_assoc
      [ (Value.tuple [ Value.atom "a" ], Bignat.of_string (String.make 101 '9')) ]
  in
  let source = Bagdb.render [ ("b", Ty.relation 1, huge) ] in
  (match Bagdb.parse ~max_count_digits:100 source with
  | _ -> Alcotest.fail "101-digit multiplicity must be rejected"
  | exception Bagdb.Db_error _ -> ());
  (* under a roomier limit the same input is fine *)
  match Bagdb.parse ~max_count_digits:200 source with
  | db -> Alcotest.(check int) "loads under roomier limit" 1 (List.length db)
  | exception Bagdb.Db_error e ->
      Alcotest.failf "unexpected rejection: %s" (Bagdb.error_to_string e)

(* --- file-level loads ------------------------------------------------------- *)

let with_temp content f =
  let path = Filename.temp_file "balg_fuzz" ".bagdb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc content);
      f path)

let test_load_roundtrip () =
  let db = gen_db 42 in
  with_temp (Bagdb.render db) (fun path ->
      let db' = Bagdb.load path in
      Alcotest.(check int) "same decl count" (List.length db)
        (List.length db'))

let test_load_missing_file () =
  match Bagdb.load "/nonexistent/path/xyz.bagdb" with
  | _ -> Alcotest.fail "expected Db_error"
  | exception Bagdb.Db_error e ->
      Alcotest.(check bool) "error names the path" true
        (e.Bagdb.path = Some "/nonexistent/path/xyz.bagdb")

let test_load_under_injected_short_read () =
  (* the bagdb.load fault site truncates the content at a deterministic
     offset: each load must end in a database or a Db_error, and the same
     seed must replay the same outcome *)
  let source = Bagdb.render (gen_db 99) in
  with_temp source (fun path ->
      let outcome seed =
        Fault.with_faults ~seed "bagdb.load:always" (fun () ->
            match Bagdb.load path with
            | db -> Ok (List.length db)
            | exception Bagdb.Db_error e -> Error e.Bagdb.offset)
      in
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d deterministic" seed)
            true
            (outcome seed = outcome seed))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let () =
  Alcotest.run "bagdb_fuzz"
    [
      ( "parse",
        [
          QCheck_alcotest.to_alcotest prop_mutated_parse_total;
          Alcotest.test_case "valid roundtrip" `Quick test_valid_roundtrip;
          QCheck_alcotest.to_alcotest prop_nested_roundtrip;
          QCheck_alcotest.to_alcotest prop_unordered_literal;
          Alcotest.test_case "duplicate names rejected" `Quick
            test_duplicate_names_rejected;
          Alcotest.test_case "duplicate offset in second span" `Quick
            test_duplicate_offset_in_second_span;
          Alcotest.test_case "oversized multiplicity rejected" `Quick
            test_oversized_count_rejected;
        ] );
      ( "load",
        [
          Alcotest.test_case "file roundtrip" `Quick test_load_roundtrip;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "injected short read" `Quick
            test_load_under_injected_short_read;
        ] );
    ]
