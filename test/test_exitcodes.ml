(* The error-path exit-code contract of the balgi CLI, pinned across the
   full engine x optimizer matrix: a parse error, a database error and a
   type error exit with code 1, a budget verdict with 2 — identically on
   --engine tree|vec and --optimize off|rules|cost, with the same stderr
   shape, for eval, explain and explain --analyze alike.  A plan-level
   divergence (say, the vec engine or the cost optimizer turning a verdict
   into a crash) shows up here as a matrix cell with the wrong code or the
   wrong diagnostic class.  One more CLI contract rides along: --jobs
   starts a pool for the vec engine only. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* dune runs tests with cwd = _build/default/test, so the sibling binary
   is one directory up; the later candidates cover running the test
   executable from the repo root by hand *)
let balgi =
  List.find_opt Sys.file_exists
    [ "../bin/balgi.exe"; "_build/default/bin/balgi.exe"; "bin/balgi.exe" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_balgi args =
  match balgi with
  | None -> Alcotest.fail "balgi.exe not built (expected at ../bin/balgi.exe)"
  | Some exe ->
      let out = Filename.temp_file "balgi_out" ".txt" in
      let err = Filename.temp_file "balgi_err" ".txt" in
      let cmd =
        Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out) (Filename.quote err)
      in
      let code = Sys.command cmd in
      let stdout_s = read_file out and stderr_s = read_file err in
      Sys.remove out;
      Sys.remove err;
      (code, stdout_s, stderr_s)

(* stderr "shape": which diagnostic family the run produced *)
let classify err =
  (* order matters: a database error's reason can itself embed a
     parse/lex diagnostic from the validating loader *)
  if contains err "database error" then "db"
  else if contains err "parse error" || contains err "lex error" then "parse"
  else if contains err "type error" then "type"
  else if contains err "budget exhausted" then "verdict"
  else if contains err "tractability guard" then "guard"
  else if contains err "evaluation error" then "eval"
  else "other: " ^ String.trim err

let combos =
  [
    ("tree", "off");
    ("tree", "cost");
    ("vec", "off");
    ("vec", "cost");
  ]

let with_temp content f =
  let path = Filename.temp_file "exitcodes" ".bagdb" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let surfaces = [ [ "eval" ]; [ "explain" ]; [ "explain"; "--analyze" ] ]

let matrix ?(surfaces = surfaces) name args_of want_code want_class =
  List.iter
    (fun surface ->
      List.iter
        (fun (engine, opt) ->
          let cell =
            Printf.sprintf "%s @ %s --engine %s --optimize %s" name
              (String.concat " " surface) engine opt
          in
          let code, _, err = run_balgi (surface @ args_of engine opt) in
          Alcotest.(check int) (cell ^ ": exit code") want_code code;
          Alcotest.(check string) (cell ^ ": stderr shape") want_class
            (classify err))
        combos)
    surfaces

let test_parse_error_matrix () =
  matrix "parse error"
    (fun engine opt ->
      [ "--engine"; engine; "--optimize"; opt; "R ++" ])
    1 "parse"

let test_db_error_matrix () =
  with_temp "bag R : {{<U>}} = {{ <'a\nthis is not a bagdb file" (fun db ->
      matrix "db error"
        (fun engine opt ->
          [ "-d"; db; "--engine"; engine; "--optimize"; opt; "R" ])
        1 "db")

let test_type_error_matrix () =
  with_temp "bag R : {{<U>}} = {{ <'a>, <'b> }}" (fun db ->
      matrix "type error"
        (fun engine opt ->
          [ "-d"; db; "--engine"; engine; "--optimize"; opt; "Zebra" ])
        1 "type")

let test_verdict_matrix () =
  with_temp "bag R : {{<U>}} = {{ <'a>, <'b>, <'c> }}" (fun db ->
      (* explain takes no budget flags: --fuel is eval's alone *)
      matrix ~surfaces:[ [ "eval" ] ] "budget verdict"
        (fun engine opt ->
          [
            "-d"; db; "--fuel"; "5"; "--engine"; engine; "--optimize"; opt;
            "powerset(R ++ R)";
          ])
        2 "verdict");
  (* a support overflow under the default limits: every surface prints
     eval's located verdict line *)
  matrix "support verdict"
    (fun engine opt ->
      [
        "--engine"; engine; "--optimize"; opt;
        "destroy(powerset(powerset({{<'a>,<'b>,<'c>,<'d>,<'e>}})))";
      ])
    2 "verdict"

(* the success column of the matrix, as a control: same result text and
   a zero exit everywhere *)
let test_success_matrix () =
  with_temp "bag R : {{<U>}} = {{ <'a>, <'b>:2 }}" (fun db ->
      let outputs =
        List.map
          (fun (engine, opt) ->
            let code, out, err =
              run_balgi
                [ "eval"; "-d"; db; "--engine"; engine; "--optimize"; opt; "R ++ R" ]
            in
            Alcotest.(check int)
              (Printf.sprintf "success exit @ %s/%s" engine opt)
              0 code;
            Alcotest.(check string)
              (Printf.sprintf "empty stderr @ %s/%s: %s" engine opt err)
              "" err;
            out)
          combos
      in
      match outputs with
      | [] -> ()
      | first :: rest ->
          List.iter
            (Alcotest.(check string) "bit-identical output across the matrix"
               first)
            rest)

(* --jobs chunks only the vec engine's kernels: under --engine tree it
   must change nothing, not even start a pool, while the vec engine with
   the same flags does create one (the control that the trace shows pool
   events at all). *)
let test_tree_engine_starts_no_pool () =
  let query = "select(x -> x.2 == x.3, {{<'a,'b>,<'b,'c>:2}} * {{<'b,'d>,<'c,'e>}})" in
  let traced engine jobs =
    let trace = Filename.temp_file "balgi_trace" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
      (fun () ->
        let code, out, err =
          run_balgi
            [ "eval"; "--engine"; engine; "--jobs"; jobs; "--trace-out"; trace; query ]
        in
        Alcotest.(check int) (Printf.sprintf "exit @ %s --jobs %s: %s" engine jobs err) 0 code;
        (out, contains (read_file trace) {|"name":"create","cat":"pool"|}))
  in
  let seq, _ = traced "tree" "1" and pooled, created = traced "tree" "4" in
  Alcotest.(check string) "same reply at --jobs 4 as at --jobs 1" seq pooled;
  Alcotest.(check bool) "tree engine trace has no pool/create event" false created;
  let _, vec_created = traced "vec" "4" in
  Alcotest.(check bool) "vec engine trace has a pool/create event" true vec_created

let () =
  Alcotest.run "exitcodes"
    [
      ( "matrix",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error_matrix;
          Alcotest.test_case "db error" `Quick test_db_error_matrix;
          Alcotest.test_case "type error" `Quick test_type_error_matrix;
          Alcotest.test_case "budget verdict" `Quick test_verdict_matrix;
          Alcotest.test_case "success control" `Quick test_success_matrix;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "tree engine starts no pool" `Quick
            test_tree_engine_starts_no_pool;
        ] );
    ]
