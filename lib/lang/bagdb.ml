(* The [.bagdb] loader; see bagdb.mli for the validation contract. *)

open Balg

type error = { path : string option; offset : int; reason : string }

exception Db_error of error

let error_to_string e =
  match e.path with
  | Some p -> Printf.sprintf "%s: offset %d: %s" p e.offset e.reason
  | None -> Printf.sprintf "offset %d: %s" e.offset e.reason

type t = (string * Ty.t * Value.t) list

(* Injection site (see fault.mli): simulates the I/O failures a production
   loader meets — a short read truncates the content at a deterministic,
   seed-derived offset before parsing. *)
let load_site = Fault.register "bagdb.load"

let m_loads = Metrics.counter Metrics.default "balg_bagdb_loads_total"
    ~help:"Database files loaded successfully"

let m_load_errors = Metrics.counter Metrics.default "balg_bagdb_errors_total"
    ~help:"Database loads rejected with a located Db_error"

let db_error ?path ~offset fmt =
  Printf.ksprintf (fun reason -> raise (Db_error { path; offset; reason })) fmt

(* Reject absurd multiplicities before any Bignat arithmetic is asked to
   chew on them: a count with millions of digits is a corruption (or an
   attack), not data.  One walk over the parsed value. *)
let rec check_counts ?path ~offset ~max_digits v =
  match Value.view v with
  | Value.Atom _ -> ()
  | Value.Tuple vs -> List.iter (check_counts ?path ~offset ~max_digits) vs
  | Value.Bag pairs ->
      List.iter
        (fun (w, c) ->
          if Bignat.digits c > max_digits then
            db_error ?path ~offset
              "multiplicity has %d digits (limit %d)" (Bignat.digits c)
              max_digits;
          check_counts ?path ~offset ~max_digits w)
        pairs

let parse ?path ?(max_count_digits = 10_000) (source : string) : t =
  (* Every way the lexer/parser/typechecker can reject the input funnels
     into a located Db_error; the final catch-all keeps the "nothing but
     Db_error" contract even for failure shapes we did not anticipate
     (fuzzing's job is to find those). *)
  let wrap ~offset f =
    try f () with
    | Db_error _ as e -> raise e
    | Lexer.Lex_error (msg, pos) -> db_error ?path ~offset:pos "lex error: %s" msg
    | Parser.Parse_error (msg, pos) ->
        db_error ?path ~offset:pos "parse error: %s" msg
    | Typecheck.Type_error msg -> db_error ?path ~offset "type error: %s" msg
    | Stack_overflow -> db_error ?path ~offset "nesting too deep"
    | e -> db_error ?path ~offset "malformed input: %s" (Printexc.to_string e)
  in
  let st = wrap ~offset:0 (fun () -> Lexer.cursor source) in
  let rec decls acc seen =
    match Parser.peek st with
    | Lexer.EOF, _ -> List.rev acc
    | Lexer.IDENT "bag", offset ->
        let decl =
          wrap ~offset (fun () ->
              Parser.advance st;
              (* The duplicate diagnostic must point {e into} the second,
                 offending definition — at the repeated name itself, not at
                 the original declaration (or merely at this record's [bag]
                 keyword): peek the identifier's own offset before
                 consuming it. *)
              let name_offset = snd (Parser.peek st) in
              let name = Parser.expect_ident st in
              if List.mem name seen then
                db_error ?path ~offset:name_offset "duplicate bag name %s"
                  name;
              Parser.expect st Lexer.COLON;
              let ty = Parser.parse_ty st in
              Parser.expect st Lexer.EQUAL;
              let v = Parser.parse_value st in
              check_counts ?path ~offset ~max_digits:max_count_digits v;
              if not (Value.has_type ty v) then
                db_error ?path ~offset
                  "bag %s: value %s does not have declared type %s" name
                  (Value.to_string v) (Ty.to_string ty);
              (name, ty, v))
        in
        let n, _, _ = decl in
        decls (decl :: acc) (n :: seen)
    | t, offset ->
        db_error ?path ~offset "expected 'bag', found %s"
          (Lexer.token_to_string t)
  in
  decls [] []

let load ?max_count_digits path =
  if Obs.on () then Obs.emit Obs.B ~cat:"bagdb" ~name:"load" ~args:[ ("path", Obs.Str path) ];
  match
    let content =
      try
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | Sys_error msg -> db_error ~path ~offset:0 "cannot read: %s" msg
      | End_of_file -> db_error ~path ~offset:0 "short read (file truncated?)"
    in
    let content =
      match Fault.fire_payload load_site with
      | None -> content
      | Some cut -> String.sub content 0 (cut mod (String.length content + 1))
    in
    parse ~path ?max_count_digits content
  with
  | db ->
      Metrics.incr m_loads;
      if Obs.on () then Obs.emit Obs.E ~cat:"bagdb" ~name:"load" ~args:[ ("bags", Obs.Int (List.length db)) ];
      db
  | exception (Db_error e as exn) ->
      Metrics.incr m_load_errors;
      if Obs.on () then Obs.emit Obs.E ~cat:"bagdb" ~name:"load" ~args:[ ("error", Obs.Str e.reason); ("offset", Obs.Int e.offset) ];
      raise exn

let type_env (db : t) = Typecheck.env_of_list (List.map (fun (n, ty, _) -> (n, ty)) db)
let value_env (db : t) = Eval.env_of_list (List.map (fun (n, _, v) -> (n, v)) db)

let render (db : t) =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i (n, ty, v) ->
      if i > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf "bag ";
      Buffer.add_string buf n;
      Buffer.add_string buf " : ";
      Buffer.add_string buf (Ty.to_string ty);
      Buffer.add_string buf " = ";
      Value.add_to_buffer buf v)
    db;
  Buffer.contents buf
