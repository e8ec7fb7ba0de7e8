(* The balgd server stack, in-process: the store's COW snapshots, WAL
   persistence and torn-tail recovery, the result cache, the
   admission-controlled executor (including the deadline-vs-queue-wait
   regression the Budget create/arm split exists for), and the protocol
   server end to end — concurrent sessions differentially checked against
   direct library evaluation, under injected faults when BALG_FAULT asks
   for chaos. *)

open Balg
module Parser = Baglang.Parser
module Bagdb = Baglang.Bagdb
module Store = Balgserver.Store
module Cache = Balgserver.Cache
module Exec = Balgserver.Exec
module Server = Balgserver.Server
module Client = Balgserver.Client
module Frame = Balgserver.Frame
module Repl = Balgserver.Repl

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let seed_src =
  "bag R : {{<U>}} = {{ <'a>, <'b>:2, <'c> }}\n\
   bag G : {{<U, U>}} = {{ <'a,'b>, <'b,'c> }}"

let seed () = Bagdb.parse seed_src

let rel1_of names =
  Value.bag_of_list (List.map (fun n -> Value.tuple [ Value.atom n ]) names)

let graph =
  Value.bag_of_list
    [
      Value.tuple [ Value.atom "a"; Value.atom "b" ];
      Value.tuple [ Value.atom "b"; Value.atom "c" ];
    ]

let temp_dir =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "balg_server_test_%d_%d" (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

let wait_until ?(timeout_s = 10.0) ?(what = "condition") pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () >= deadline then
      Alcotest.fail ("timed out waiting for " ^ what)
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* --- frames ---------------------------------------------------------------- *)

let test_frame_roundtrip () =
  let line = Frame.encode ~seq:7 "bag Z : {{<U>}} = {{ <'z> }}" in
  Alcotest.(check bool) "newline-terminated" true
    (line.[String.length line - 1] = '\n');
  (match Frame.decode_line (String.sub line 0 (String.length line - 1)) with
  | Ok r ->
      Alcotest.(check int) "seq survives" 7 r.Frame.seq;
      Alcotest.(check string) "payload survives"
        "bag Z : {{<U>}} = {{ <'z> }}" r.Frame.payload
  | Error m -> Alcotest.fail ("roundtrip: " ^ m));
  (* decode_at over a concatenation walks frame boundaries *)
  let two = Frame.encode ~seq:1 "drop A" ^ Frame.encode ~seq:2 "drop B" in
  (match Frame.decode_at two ~pos:0 with
  | Ok (r, next) ->
      Alcotest.(check int) "first frame" 1 r.Frame.seq;
      (match Frame.decode_at two ~pos:next with
      | Ok (r2, next2) ->
          Alcotest.(check int) "second frame" 2 r2.Frame.seq;
          Alcotest.(check int) "consumed exactly" (String.length two) next2
      | Error _ -> Alcotest.fail "second frame must decode")
  | Error _ -> Alcotest.fail "first frame must decode");
  match Frame.encode ~seq:1 "two\nlines" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a payload with a newline must be rejected"

(* The gate a follower runs on every shipped line, and recovery on every
   stored one: a single flipped bit in a parseable record must fail the
   CRC, not slip through the parser. *)
let test_frame_bit_flip () =
  let line = Frame.encode ~seq:3 "bag Z : {{<U>}} = {{ <'z> }}" in
  let line = String.sub line 0 (String.length line - 1) in
  let i = String.length line - 3 in
  let flipped =
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
      line
  in
  (match Frame.decode_line flipped with
  | Error m -> Alcotest.(check bool) "names the crc" true (contains m "crc")
  | Ok _ -> Alcotest.fail "a bit-flipped payload must fail the CRC");
  (* a truncated payload is a length mismatch, not a parse accident *)
  (match Frame.decode_line (String.sub line 0 (String.length line - 4)) with
  | Error m ->
      Alcotest.(check bool) "names the length" true
        (contains m "length" || contains m "crc")
  | Ok _ -> Alcotest.fail "a short payload must be rejected");
  (* garbage before the header *)
  match Frame.decode_line ("x" ^ line) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a mangled header must be rejected"

let test_frame_torn () =
  let whole = Frame.encode ~seq:1 "drop A" in
  let torn = String.sub whole 0 (String.length whole - 3) in
  match Frame.decode_at torn ~pos:0 with
  | Error `Torn -> ()
  | Error (`Corrupt m) -> Alcotest.fail ("torn read as corrupt: " ^ m)
  | Ok _ -> Alcotest.fail "an unterminated frame must read as torn"

(* --- store ----------------------------------------------------------------- *)

let ok_or_fail = function Ok () -> () | Error m -> Alcotest.fail m

let test_store_cow () =
  let st = Store.open_store ~dir:None ~seed:(seed ()) () in
  let before = Store.snapshot st in
  (match Store.apply st (Store.Def ("Z", Ty.relation 1, rel1_of [ "z" ])) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* the old snapshot is immutable: a request that captured it keeps
     evaluating against it no matter what writes land meanwhile *)
  Alcotest.(check int) "captured snapshot unchanged" 2 (List.length before);
  Alcotest.(check int) "new snapshot sees the write" 3
    (List.length (Store.snapshot st));
  Alcotest.(check int) "revision bumped" 1 (Store.revision st);
  (match Store.apply st (Store.Drop "Z") with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "drop published" 2 (List.length (Store.snapshot st));
  (match Store.apply st (Store.Drop "nope") with
  | Ok () -> Alcotest.fail "dropping an unknown bag must fail"
  | Error _ -> ());
  Store.close st

(* The per-revision view: built once per revision, and a relation's
   columns are imported once and shared until that relation is written. *)
let test_store_view_columns () =
  let st = Store.open_store ~dir:None ~seed:(seed ()) () in
  let rel view name =
    match List.find_opt (fun (n, _, _) -> n = name) view.Store.db with
    | Some (_, _, v) -> v
    | None -> Alcotest.fail ("no relation " ^ name)
  in
  let cols view name =
    match view.Store.columns name (rel view name) with
    | Some x -> x
    | None -> Alcotest.fail (name ^ " must be columnar")
  in
  let apply op = ok_or_fail (Store.apply st op) in
  let v1 = Store.view st in
  Alcotest.(check bool) "one view per revision" true (v1 == Store.view st);
  let r1 = cols v1 "R" in
  Alcotest.(check bool) "columns imported once" true (r1 == cols v1 "R");
  Alcotest.(check bool) "columns hold the relation" true
    (Value.equal (rel v1 "R") (Vec.to_value r1));
  Alcotest.(check bool) "a value the view does not hold is imported apart"
    true
    (match v1.Store.columns "R" (rel1_of [ "a"; "b"; "b"; "c" ]) with
    | Some x -> x != r1
    | None -> false);
  (* a def of another relation keeps R's columns *)
  apply (Store.Def ("S", Ty.relation 1, rel1_of [ "s" ]));
  let v2 = Store.view st in
  Alcotest.(check bool) "a write starts a new view" false (v1 == v2);
  Alcotest.(check bool) "R keeps its columns across a def of S" true
    (r1 == cols v2 "R");
  (* a def of R gives it fresh columns of the new contents *)
  apply (Store.Def ("R", Ty.relation 1, rel1_of [ "n" ]));
  let v3 = Store.view st in
  let r3 = cols v3 "R" in
  Alcotest.(check bool) "redefined R gets new columns" false (r1 == r3);
  Alcotest.(check bool) "and imports them once" true (r3 == cols v3 "R");
  Alcotest.(check bool) "new columns hold the new contents" true
    (Value.equal (rel1_of [ "n" ]) (Vec.to_value r3));
  (* a reader still holding the old view keeps its own columns *)
  Alcotest.(check bool) "old view still reads the old R" true
    (Value.equal (rel v1 "R") (Vec.to_value (cols v1 "R")));
  (* drop, then re-def under the same name *)
  apply (Store.Drop "R");
  Alcotest.(check bool) "dropped R is gone from the view" false
    (List.exists (fun (n, _, _) -> n = "R") (Store.view st).Store.db);
  apply (Store.Def ("R", Ty.relation 1, rel1_of [ "m"; "m" ]));
  let v5 = Store.view st in
  Alcotest.(check bool) "re-defined R reads its new contents" true
    (Value.equal (rel1_of [ "m"; "m" ]) (Vec.to_value (cols v5 "R")));
  (* a snapshot install replaces every relation's columns *)
  let g5 = cols v5 "G" in
  let g = rel1_of [ "g" ] in
  ok_or_fail
    (Store.install_snapshot st [ ("G", Ty.relation 1, g) ] ~seq:(Store.log_seq st));
  let v6 = Store.view st in
  let g6 = cols v6 "G" in
  Alcotest.(check bool) "installed G gets new columns" false (g5 == g6);
  Alcotest.(check bool) "and imports them once" true (g6 == cols v6 "G");
  Alcotest.(check bool) "installed G reads the snapshot" true
    (Value.equal g (Vec.to_value g6));
  Store.close st

let test_store_wal_roundtrip () =
  let dir = temp_dir () in
  let st = Store.open_store ~dir:(Some dir) ~seed:(seed ()) () in
  (match Store.apply st (Store.Def ("Z", Ty.relation 1, rel1_of [ "z" ])) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Store.apply st (Store.Drop "G") with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let before = Bagdb.render (Store.snapshot st) in
  Store.close st;
  (* restart: snapshot + WAL replay must land on the identical database *)
  let st2 = Store.open_store ~dir:(Some dir) () in
  Alcotest.(check string) "recovered byte-identical" before
    (Bagdb.render (Store.snapshot st2));
  Alcotest.(check int) "replayed both records" 2 (Store.recovered_records st2);
  Alcotest.(check int) "nothing truncated" 0 (Store.truncated_bytes st2);
  Store.close st2

let test_store_torn_tail () =
  let dir = temp_dir () in
  let st = Store.open_store ~dir:(Some dir) ~seed:(seed ()) () in
  (match Store.apply st (Store.Def ("Z", Ty.relation 1, rel1_of [ "z" ])) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let before = Bagdb.render (Store.snapshot st) in
  Store.close st;
  (* a kill mid-append leaves a torn record: recovery must stop at the
     surviving prefix and truncate the tail, not reject the whole log *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "wal.log")
  in
  output_string oc "bag Q : {{<U>}} = {{ <'q";
  close_out oc;
  let st2 = Store.open_store ~dir:(Some dir) () in
  Alcotest.(check string) "prefix state recovered" before
    (Bagdb.render (Store.snapshot st2));
  Alcotest.(check int) "one surviving record" 1 (Store.recovered_records st2);
  Alcotest.(check bool) "torn tail measured" true
    (Store.truncated_bytes st2 > 0);
  Store.close st2;
  (* the tail is gone from disk: a further restart is clean *)
  let st3 = Store.open_store ~dir:(Some dir) () in
  Alcotest.(check int) "second restart truncates nothing" 0
    (Store.truncated_bytes st3);
  Alcotest.(check string) "state stable across restarts" before
    (Bagdb.render (Store.snapshot st3));
  Store.close st3

let test_store_wal_append_fault () =
  let dir = temp_dir () in
  let st = Store.open_store ~dir:(Some dir) ~seed:(seed ()) () in
  (match Store.apply st (Store.Def ("Z", Ty.relation 1, rel1_of [ "z" ])) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let before = Bagdb.render (Store.snapshot st) in
  Fault.with_faults ~seed:1 "wal.append:always" (fun () ->
      match Store.apply st (Store.Def ("Q", Ty.relation 1, rel1_of [ "q" ])) with
      | Ok () -> Alcotest.fail "a torn append must not publish"
      | Error _ -> ());
  Alcotest.(check string) "published contents unchanged" before
    (Bagdb.render (Store.snapshot st));
  Alcotest.(check bool) "store went read-only" true (Store.read_only st);
  (match Store.apply st (Store.Def ("Q2", Ty.relation 1, rel1_of [ "q" ])) with
  | Ok () -> Alcotest.fail "read-only store must reject writes"
  | Error m -> Alcotest.(check bool) "says read-only" true (contains m "read-only"));
  Store.close st;
  (* restart: the torn record is dropped, landing on the pre-fault state *)
  let st2 = Store.open_store ~dir:(Some dir) () in
  Alcotest.(check string) "recovery lands on pre-fault state" before
    (Bagdb.render (Store.snapshot st2));
  Alcotest.(check bool) "torn record dropped" true
    (Store.truncated_bytes st2 > 0);
  Alcotest.(check bool) "writable again after restart" true
    (not (Store.read_only st2));
  Store.close st2

let test_store_compact () =
  let dir = temp_dir () in
  let st = Store.open_store ~dir:(Some dir) ~seed:(seed ()) () in
  (match Store.apply st (Store.Def ("Z", Ty.relation 1, rel1_of [ "z" ])) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "wal non-empty before compact" true
    (Store.wal_size st > 0);
  (match Store.compact st with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check int) "wal empty after compact" 0 (Store.wal_size st);
  let before = Bagdb.render (Store.snapshot st) in
  Store.close st;
  let st2 = Store.open_store ~dir:(Some dir) () in
  Alcotest.(check string) "compacted snapshot is the whole state" before
    (Bagdb.render (Store.snapshot st2));
  Alcotest.(check int) "no wal records to replay" 0
    (Store.recovered_records st2);
  Store.close st2

(* Satellite (d): a bit-flipped record in the MIDDLE of the log — still
   perfectly parseable as text — must be caught by the CRC, and replay
   must truncate at that frame: the records behind it are gone too,
   because a log with a corrupt middle has no trustworthy suffix. *)
let test_store_crc_bit_flip () =
  let dir = temp_dir () in
  let st = Store.open_store ~dir:(Some dir) ~seed:(seed ()) () in
  List.iter
    (fun n ->
      match Store.apply st (Store.Def (n, Ty.relation 1, rel1_of [ "x" ])) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ "Z"; "W"; "V" ];
  Store.close st;
  let wal = Filename.concat dir "wal.log" in
  let content = read_file wal in
  (* flip one character inside the SECOND frame's payload: 'x' -> 'y'
     keeps the record parseable, so only the checksum can object *)
  let lines = String.split_on_char '\n' content in
  let second = List.nth lines 1 in
  let i = String.rindex second 'x' in
  let flipped =
    String.mapi (fun j c -> if j = i then 'y' else c) second
  in
  write_file wal
    (String.concat "\n"
       (List.mapi (fun k l -> if k = 1 then flipped else l) lines));
  let st2 = Store.open_store ~dir:(Some dir) () in
  Alcotest.(check int) "replay stops after the first record" 1
    (Store.recovered_records st2);
  Alcotest.(check bool) "corruption detected, not read as torn" true
    (Store.corruption_detected st2);
  Alcotest.(check bool) "corrupt tail measured" true
    (Store.truncated_bytes st2 > 0);
  Alcotest.(check bool) "state is the surviving prefix" true
    (List.exists (fun (n, _, _) -> n = "Z") (Store.snapshot st2)
    && not (List.exists (fun (n, _, _) -> n = "W") (Store.snapshot st2)));
  Alcotest.(check int) "offset is the surviving prefix's" 1
    (Store.log_seq st2);
  Store.close st2;
  (* the corrupt tail was truncated from disk: the next restart is clean *)
  let st3 = Store.open_store ~dir:(Some dir) () in
  Alcotest.(check bool) "second restart sees no corruption" false
    (Store.corruption_detected st3);
  Alcotest.(check int) "second restart truncates nothing" 0
    (Store.truncated_bytes st3);
  Store.close st3

(* The replication surface of the store, without any server: bootstrap
   snapshot at offset 0, framed catch-up records after it, idempotent
   duplicate delivery, gap detection, and byte-compatible follower logs. *)
let test_store_replication_api () =
  let pdir = temp_dir () and fdir = temp_dir () in
  let p = Store.open_store ~dir:(Some pdir) ~seed:(seed ()) () in
  List.iter
    (fun n ->
      match Store.apply p (Store.Def (n, Ty.relation 1, rel1_of [ "x" ])) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ "Z"; "W"; "V" ];
  (* a fresh follower (offset 0) must get a snapshot, never records: the
     records apply on top of the seed, which it does not have *)
  let f = Store.open_store ~dir:(Some fdir) () in
  (match Store.read_from p ~after:0 with
  | `Records _ -> Alcotest.fail "offset 0 must bootstrap via snapshot"
  | `Snapshot (db, sq) -> (
      Alcotest.(check int) "snapshot at the primary's offset" 3 sq;
      match Store.install_snapshot f db ~seq:sq with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("install: " ^ m)));
  Alcotest.(check string) "bootstrap lands on identical contents"
    (Bagdb.render (Store.snapshot p))
    (Bagdb.render (Store.snapshot f));
  Alcotest.(check int) "follower offset advanced" 3 (Store.log_seq f);
  (* two more primary writes ship as framed records *)
  (match Store.apply p (Store.Drop "W") with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Store.apply p (Store.Def ("Q", Ty.relation 1, rel1_of [ "q" ])) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match Store.read_from p ~after:(Store.log_seq f) with
  | `Snapshot _ -> Alcotest.fail "tail still covers offset 3"
  | `Records rs ->
      Alcotest.(check int) "two records to ship" 2 (List.length rs);
      List.iter
        (fun (sq, payload) ->
          match Store.op_of_payload payload with
          | Error m -> Alcotest.fail ("op_of_payload: " ^ m)
          | Ok op -> (
              match Store.apply_replicated f ~seq:sq op with
              | Ok () -> ()
              | Error m -> Alcotest.fail ("apply_replicated: " ^ m)))
        rs;
      (* duplicate delivery (a resync overlap) is a no-op, not an error *)
      (match rs with
      | (sq, payload) :: _ -> (
          match Store.apply_replicated f ~seq:sq
                  (Result.get_ok (Store.op_of_payload payload))
          with
          | Ok () -> ()
          | Error m -> Alcotest.fail ("duplicate must be ok: " ^ m))
      | [] -> assert false));
  Alcotest.(check string) "caught up byte-identical"
    (Bagdb.render (Store.snapshot p))
    (Bagdb.render (Store.snapshot f));
  (* a sequence gap must be refused: the follower has to resync *)
  (match
     Store.apply_replicated f ~seq:(Store.log_seq f + 2)
       (Store.Def ("G2", Ty.relation 1, rel1_of [ "g" ]))
   with
  | Error m -> Alcotest.(check bool) "names the gap" true (contains m "gap")
  | Ok () -> Alcotest.fail "a gap must be an error");
  (* byte compatibility: the frames the follower appended are literally
     the primary's log tail — a promoted follower's WAL needs no rewrite *)
  let pwal = read_file (Filename.concat pdir "wal.log") in
  let fwal = read_file (Filename.concat fdir "wal.log") in
  Alcotest.(check bool) "follower log is a suffix of the primary's" true
    (String.length fwal > 0
    && String.length pwal >= String.length fwal
    && String.equal fwal
         (String.sub pwal
            (String.length pwal - String.length fwal)
            (String.length fwal)));
  (* after the primary compacts, a lagging offset forces a snapshot *)
  (match Store.compact p with Ok () -> () | Error m -> Alcotest.fail m);
  (match Store.read_from p ~after:1 with
  | `Snapshot _ -> ()
  | `Records _ -> Alcotest.fail "compaction folded offset 1 away");
  Store.close p;
  Store.close f

(* --- cache ----------------------------------------------------------------- *)

(* --- wait_change: woken by publish, timed by the store's timer ---------- *)

(* [publish] runs on another thread after a short delay; the waiter must
   return true long before its 10 s timeout. *)
let check_wakes what st publish =
  let seen = Store.log_seq st in
  let th =
    Thread.create
      (fun () ->
        Unix.sleepf 0.1;
        publish ())
      ()
  in
  let t0 = Unix.gettimeofday () in
  let woke = Store.wait_change st ~seen ~timeout_s:10.0 in
  let dt = Unix.gettimeofday () -. t0 in
  Thread.join th;
  Alcotest.(check bool) (what ^ ": woken by the publish") true woke;
  if dt >= 1.0 then Alcotest.failf "%s: woke after %.3f s" what dt

let test_store_wait_wakes_on_publish () =
  let p = Store.open_store ~dir:None ~seed:(seed ()) () in
  let f = Store.open_store ~dir:None () in
  Fun.protect
    ~finally:(fun () ->
      Store.close p;
      Store.close f)
    (fun () ->
      check_wakes "apply" p (fun () ->
          ok_or_fail (Store.apply p (Store.Def ("Z", Ty.relation 1, rel1_of [ "z" ]))));
      check_wakes "install_snapshot" f (fun () ->
          let db, seq = Store.state p in
          ok_or_fail (Store.install_snapshot f db ~seq));
      check_wakes "apply_replicated" f (fun () ->
          ok_or_fail
            (Store.apply_replicated f ~seq:(Store.log_seq f + 1)
               (Store.Def ("Y", Ty.relation 1, rel1_of [ "y" ]))));
      (* a record already past [seen] answers at once *)
      Alcotest.(check bool) "already changed" true
        (Store.wait_change f ~seen:0 ~timeout_s:10.0))

let test_store_wait_times_out () =
  let st = Store.open_store ~dir:None ~seed:(seed ()) () in
  Fun.protect
    ~finally:(fun () -> Store.close st)
    (fun () ->
      let seen = Store.log_seq st in
      List.iter
        (fun timeout_s ->
          let t0 = Unix.gettimeofday () in
          let woke = Store.wait_change st ~seen ~timeout_s in
          let dt = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool) "idle wait reports no change" false woke;
          if dt < timeout_s || dt > timeout_s +. 1.0 then
            Alcotest.failf "a %.2f s wait returned after %.3f s" timeout_s dt)
        (* a later deadline first, then an earlier one the timer must
           re-plan for *)
        [ 0.4; 0.15 ];
      (* two waiters with different deadlines each return at their own *)
      let late = ref 0. in
      let th =
        Thread.create
          (fun () ->
            let t0 = Unix.gettimeofday () in
            ignore (Store.wait_change st ~seen ~timeout_s:0.6);
            late := Unix.gettimeofday () -. t0)
          ()
      in
      let t0 = Unix.gettimeofday () in
      Alcotest.(check bool) "early waiter" false
        (Store.wait_change st ~seen ~timeout_s:0.2);
      let early = Unix.gettimeofday () -. t0 in
      Thread.join th;
      if early < 0.2 || early > 0.55 then
        Alcotest.failf "the 0.2 s waiter returned after %.3f s" early;
      if !late < 0.6 then
        Alcotest.failf "the 0.6 s waiter returned after %.3f s" !late)

(* Threads of this process, as the kernel lists them ([None] off Linux). *)
let os_threads () =
  match Sys.readdir "/proc/self/task" with
  | tasks -> Some (Array.length tasks)
  | exception Sys_error _ -> None

(* Joined threads can linger in the task list for a moment: sample until
   the count holds still. *)
let settled_threads () =
  let rec go prev k =
    Unix.sleepf 0.05;
    let n = os_threads () in
    if n = prev || k = 0 then n else go n (k - 1)
  in
  go (os_threads ()) 40

let test_store_close_stops_timer () =
  (* the first thread a process creates also starts the runtime's tick
     thread, which stays: start it before counting *)
  Thread.join (Thread.create ignore ());
  let before = settled_threads () in
  let st = Store.open_store ~dir:None ~seed:(seed ()) () in
  let seen = Store.log_seq st in
  (* a waiter parked on a 10 s deadline keeps the timer armed *)
  let result = ref None in
  let th =
    Thread.create
      (fun () -> result := Some (Store.wait_change st ~seen ~timeout_s:10.0))
      ()
  in
  Unix.sleepf 0.1;
  (match (before, os_threads ()) with
  | Some b, Some n ->
      (* the waiter and the timer *)
      Alcotest.(check bool) "the first wait starts a timer thread" true (n >= b + 2)
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  Store.close st;
  let dt = Unix.gettimeofday () -. t0 in
  Thread.join th;
  if dt > 1.0 then Alcotest.failf "close took %.3f s with a timer armed" dt;
  Alcotest.(check (option bool)) "close wakes the waiter" (Some false) !result;
  Alcotest.(check bool) "a closed store does not block" false
    (Store.wait_change st ~seen ~timeout_s:10.0);
  match before with
  | None -> ()
  | Some b ->
      wait_until ~timeout_s:5.0 ~what:"the timer thread to exit" (fun () ->
          match os_threads () with Some n -> n <= b | None -> false)

let test_cache_basics () =
  let db = seed () in
  let c = Cache.create ~capacity:2 () in
  let e = Parser.expr_of_string "R ++ R" in
  let key, rels = Cache.key ~engine:Veval.Tree ~mode:Opt.Off ~db e in
  Alcotest.(check bool) "miss on empty" true
    (Cache.find c ~key ~rels = None);
  Cache.add c ~key ~rels (Value.atom "v") (Ty.relation 1);
  (match Cache.find c ~key ~rels with
  | Some (v, _) ->
      Alcotest.(check bool) "hit returns the stored value" true
        (Value.equal v (Value.atom "v"))
  | None -> Alcotest.fail "expected a hit");
  (* a write to a referenced relation invalidates *)
  Cache.invalidate c "R";
  Alcotest.(check bool) "miss after invalidation" true
    (Cache.find c ~key ~rels = None);
  Alcotest.(check int) "entry dropped" 0 (Cache.length c);
  (* a write to an unreferenced relation does not *)
  Cache.add c ~key ~rels (Value.atom "v") (Ty.relation 1);
  Cache.invalidate c "G";
  Alcotest.(check bool) "unrelated invalidation keeps the entry" true
    (Cache.find c ~key ~rels <> None);
  (* the capacity bound evicts FIFO *)
  let add_query q =
    let e = Parser.expr_of_string q in
    let key, rels = Cache.key ~engine:Veval.Tree ~mode:Opt.Off ~db e in
    Cache.add c ~key ~rels (Value.atom q) (Ty.relation 1)
  in
  add_query "R /\\ R";
  add_query "R -- R";
  Alcotest.(check int) "capacity bound holds" 2 (Cache.length c)

let test_cache_key_discriminates () =
  let db = seed () in
  let e = Parser.expr_of_string "R ++ R" in
  let k1, _ = Cache.key ~engine:Veval.Tree ~mode:Opt.Off ~db e in
  let k2, _ = Cache.key ~engine:Veval.Vec ~mode:Opt.Off ~db e in
  let k3, _ = Cache.key ~engine:Veval.Tree ~mode:Opt.Cost ~db e in
  Alcotest.(check bool) "engine in the fingerprint" true (k1 <> k2);
  Alcotest.(check bool) "optimizer mode in the fingerprint" true (k1 <> k3);
  (* same query, different relation contents: different key *)
  let db' =
    List.map
      (fun (n, ty, v) ->
        if n = "R" then (n, ty, rel1_of [ "x"; "y" ]) else (n, ty, v))
      db
  in
  let k4, _ = Cache.key ~engine:Veval.Tree ~mode:Opt.Off ~db:db' e in
  Alcotest.(check bool) "relation contents in the fingerprint" true (k1 <> k4)

(* --- executor / admission -------------------------------------------------- *)

let ok_outcome = `Ok (Value.atom "done", Ty.relation 1)

let tc_query () = Derived.transitive_closure (Expr.lit graph (Ty.relation 2))

(* THE satellite regression: a queued request whose deadline is shorter
   than its queue wait must still complete, because its deadline clock
   arms at dequeue (Budget.arm on the worker), not at creation.  Before
   the create/arm split, the clock started at parse time and the request
   below came back with a spurious Deadline verdict. *)
let test_exec_deadline_vs_queue_wait () =
  let ex = Exec.create ~ceiling:10 ~max_queue:8 ~workers:1 () in
  let occupy () =
    let b = Budget.create Budget.unlimited in
    ignore
      (Exec.submit ex ~weight:10 ~budget:b ~run:(fun () ->
           Unix.sleepf 0.3;
           ok_outcome))
  in
  let t1 = Thread.create occupy () in
  Unix.sleepf 0.05 (* let the occupier take the whole ceiling *);
  let limits = { Budget.unlimited with Budget.deadline_s = Some 0.1 } in
  let b = Budget.create limits in
  let r =
    Exec.submit ex ~weight:10 ~budget:b ~run:(fun () ->
        match Eval.run ~budget:b (Eval.env_of_list []) (tc_query ()) with
        | Ok v -> `Ok (v, Ty.relation 2)
        | Error x -> `Verdict x)
  in
  (match r with
  | Ok (`Ok _, _) -> ()
  | Ok (`Verdict x, _) ->
      Alcotest.fail
        ("queue wait was billed against the deadline: "
        ^ Budget.exhaustion_to_string x)
  | Ok (`Fail m, _) | Error m -> Alcotest.fail m);
  Thread.join t1;
  (* counter-case: an account armed at creation (Budget.start) correctly
     pays for the same queue wait and trips its deadline *)
  let t2 = Thread.create occupy () in
  Unix.sleepf 0.05;
  let eager = Budget.start limits in
  let r2 =
    Exec.submit ex ~weight:10 ~budget:eager ~run:(fun () ->
        match Eval.run ~budget:eager (Eval.env_of_list []) (tc_query ()) with
        | Ok v -> `Ok (v, Ty.relation 2)
        | Error x -> `Verdict x)
  in
  (match r2 with
  | Ok (`Verdict x, _) when x.Budget.resource = Budget.Deadline -> ()
  | Ok (`Verdict x, _) ->
      Alcotest.fail ("wrong verdict: " ^ Budget.exhaustion_to_string x)
  | Ok (`Ok _, _) -> Alcotest.fail "armed-at-create must trip its deadline"
  | Ok (`Fail m, _) | Error m -> Alcotest.fail m);
  Thread.join t2;
  Exec.shutdown ex

let test_exec_ceiling () =
  let ex = Exec.create ~ceiling:10 ~max_queue:8 ~workers:4 () in
  (* a weight that can never fit is rejected, not queued forever *)
  (match
     Exec.submit ex ~weight:11
       ~budget:(Budget.create Budget.unlimited)
       ~run:(fun () -> ok_outcome)
   with
  | Error m -> Alcotest.(check bool) "names the ceiling" true (contains m "ceiling")
  | Ok _ -> Alcotest.fail "over-ceiling weight must be rejected");
  (* two weight-6 jobs cannot run concurrently under a ceiling of 10:
     with 4 idle workers, observed concurrency must still stay at 1 *)
  let running = Atomic.make 0 and peak = Atomic.make 0 in
  let rec bump_peak n =
    let p = Atomic.get peak in
    if n > p && not (Atomic.compare_and_set peak p n) then bump_peak n
  in
  let job () =
    let n = Atomic.fetch_and_add running 1 + 1 in
    bump_peak n;
    Unix.sleepf 0.05;
    ignore (Atomic.fetch_and_add running (-1));
    ok_outcome
  in
  let threads =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            match
              Exec.submit ex ~weight:6
                ~budget:(Budget.create Budget.unlimited)
                ~run:job
            with
            | Ok (`Ok _, _) -> ()
            | _ -> Alcotest.fail "weight-6 job must run")
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "aggregate fuel never above the ceiling" 1
    (Atomic.get peak);
  Alcotest.(check int) "fuel fully released" 0 (Exec.inflight ex);
  Exec.shutdown ex

let test_exec_queue_full () =
  let ex = Exec.create ~ceiling:1 ~max_queue:1 ~workers:1 () in
  let slow () =
    ignore
      (Exec.submit ex ~weight:1
         ~budget:(Budget.create Budget.unlimited)
         ~run:(fun () ->
           Unix.sleepf 0.2;
           ok_outcome))
  in
  let t1 = Thread.create slow () in
  Unix.sleepf 0.05;
  let t2 = Thread.create slow () in
  Unix.sleepf 0.05 (* t1 running, t2 queued: the queue is now full *);
  (match
     Exec.submit ex ~weight:1
       ~budget:(Budget.create Budget.unlimited)
       ~run:(fun () -> ok_outcome)
   with
  | Error m -> Alcotest.(check bool) "says queue full" true (contains m "queue")
  | Ok _ -> Alcotest.fail "third job must be rejected");
  Thread.join t1;
  Thread.join t2;
  Exec.shutdown ex

let test_exec_worker_death () =
  Fault.with_faults ~seed:1 "server.worker:n=1" (fun () ->
      let ex = Exec.create ~ceiling:100 ~max_queue:8 ~workers:1 () in
      (match
         Exec.submit ex ~weight:1
           ~budget:(Budget.create Budget.unlimited)
           ~run:(fun () -> ok_outcome)
       with
      | Error m ->
          Alcotest.(check bool) "structured death report" true
            (contains m "worker died")
      | Ok _ -> Alcotest.fail "the injected death must fail the job");
      (* the dying worker spawned its replacement: the queue keeps draining *)
      (match
         Exec.submit ex ~weight:1
           ~budget:(Budget.create Budget.unlimited)
           ~run:(fun () -> ok_outcome)
       with
      | Ok (`Ok _, _) -> ()
      | _ -> Alcotest.fail "respawned worker must serve the next job");
      Alcotest.(check int) "death counted" 1 (Exec.worker_deaths ex);
      Exec.shutdown ex)

(* --- the server, end to end ------------------------------------------------ *)

let with_server ?(tweak = fun c -> c) f =
  let cfg =
    tweak
      {
        Server.default_config with
        Server.port = 0;
        seed_db = seed ();
        workers = 2;
        engine = Veval.Tree;
        optimize = Opt.Off;
      }
  in
  match Server.start cfg with
  | Error msg -> Alcotest.fail ("server start: " ^ msg)
  | Ok sv -> Fun.protect ~finally:(fun () -> Server.stop sv) (fun () -> f sv)

let connect sv =
  match Client.connect ~host:"127.0.0.1" ~port:(Server.port sv) () with
  | Ok c -> c
  | Error m -> Alcotest.fail ("connect: " ^ m)

let req c cmd =
  match Client.request c cmd with
  | Ok r -> r
  | Error m -> Alcotest.fail (cmd ^ ": transport error: " ^ m)

(* what `balgd` must answer for `eval q`, computed without the server *)
let reference db q =
  let e = Parser.expr_of_string q in
  let ty = Typecheck.infer (Bagdb.type_env db) e in
  match Veval.run_engine Veval.Tree (Bagdb.value_env db) e with
  | Ok v -> Printf.sprintf "ok %s : %s" (Value.to_string v) (Ty.to_string ty)
  | Error x -> "verdict " ^ Budget.exhaustion_to_string x

let queries = [ "R ++ R"; "R /\\ R"; "R -- R"; "G * G"; "powerset(R)" ]

let test_server_roundtrip () =
  with_server (fun sv ->
      let c = connect sv in
      Alcotest.(check string) "ping" "ok pong" (req c "ping");
      Alcotest.(check string) "list" "ok R G" (req c "list");
      let db = seed () in
      List.iter
        (fun q ->
          Alcotest.(check string) q (reference db q) (req c ("eval " ^ q)))
        queries;
      Alcotest.(check bool) "parse errors are err parse" true
        (starts_with "err parse" (req c "eval R ++"));
      Alcotest.(check bool) "type errors are err type" true
        (starts_with "err type" (req c "eval Zebra"));
      Alcotest.(check bool) "unknown command is err proto" true
        (starts_with "err proto" (req c "frobnicate"));
      Alcotest.(check bool) "bad set is err proto" true
        (starts_with "err proto" (req c "set fuel=banana"));
      Alcotest.(check string) "set ok" "ok" (req c "set fuel=5");
      Alcotest.(check bool) "tiny fuel yields a verdict line" true
        (starts_with "verdict " (req c "eval powerset(G * G)"));
      Client.close c;
      Alcotest.(check bool) "sessions counted" true (Server.sessions_served sv >= 1))

let test_server_writes_and_cache () =
  with_server (fun sv ->
      let c = connect sv in
      Alcotest.(check string) "def" "ok defined S"
        (req c "def bag S : {{<U>}} = {{ <'z>:9 }}");
      Alcotest.(check string) "new bag evaluates" "ok {{<'z>:9}} : {{<U>}}"
        (req c "eval S");
      let r1 = req c "eval S ++ S" in
      Alcotest.(check string) "cached re-eval identical" r1 (req c "eval S ++ S");
      (* a write to S must invalidate the cached result *)
      Alcotest.(check string) "redef" "ok defined S"
        (req c "def bag S : {{<U>}} = {{ <'z> }}");
      Alcotest.(check string) "post-write eval sees the new contents"
        "ok {{<'z>:2}} : {{<U>}}" (req c "eval S ++ S");
      Alcotest.(check string) "drop" "ok dropped S" (req c "drop S");
      Alcotest.(check bool) "dropped bag is unbound" true
        (starts_with "err type" (req c "eval S"));
      Alcotest.(check bool) "drop of unknown bag is err db" true
        (starts_with "err db" (req c "drop S"));
      (* the "."-framed multi-line responses *)
      let metrics = req c "metrics" in
      Alcotest.(check bool) "metrics over the line protocol" true
        (contains metrics "balg_server_requests_total");
      (* the redef of S above invalidated its cached entry: the
         per-relation invalidation counter must be visible by name *)
      Alcotest.(check bool) "per-relation invalidation counter exported" true
        (contains metrics "balg_server_cache_rel_invalidations_total_S");
      Alcotest.(check bool) "dump renders the store" true
        (contains (req c "dump") "bag R : {{<U>}}");
      Client.close c)

(* A hit answers with the reply text the miss stored: byte for byte the
   miss reply, which is the reference rendering. *)
let hits () =
  Metrics.counter_value
    (Metrics.counter Metrics.default "balg_server_cache_hits_total"
       ~help:"Result-cache lookups answered without evaluation")

let test_server_cached_reply_identical () =
  with_server (fun sv ->
      let c = connect sv in
      Alcotest.(check string) "def" "ok defined N"
        (req c
           "def bag N : {{<U, {{U}}>}} = {{ <'a, {{'x:3, 'y}}>:2, <'b, {{}}>, \
            <'c, {{'x}}>:9223372036854775808 }}");
      let db = Store.snapshot (Server.store sv) in
      List.iter
        (fun q ->
          let miss = req c ("eval " ^ q) in
          Alcotest.(check string) (q ^ ": miss") (reference db q) miss;
          let h0 = hits () in
          let hit = req c ("eval " ^ q) in
          Alcotest.(check int) (q ^ ": answered from the cache") (h0 + 1) (hits ());
          Alcotest.(check string) (q ^ ": hit == miss") miss hit)
        [ "N"; "N ++ N"; "G * G"; "powerset(R)"; "nest[1](G)"; "R -- R" ];
      (* a def of a relation the cached query reads: the next eval is a
         miss that renders the new contents *)
      let q = "G * G" in
      let before = req c ("eval " ^ q) in
      Alcotest.(check string) "redef G" "ok defined G"
        (req c "def bag G : {{<U, U>}} = {{ <'a,'a>:2 }}");
      let after = req c ("eval " ^ q) in
      Alcotest.(check string) "new text after the def"
        (reference (Store.snapshot (Server.store sv)) q) after;
      Alcotest.(check bool) "the text changed" false (String.equal before after);
      Alcotest.(check string) "and is cached in turn" after (req c ("eval " ^ q));
      Client.close c)

(* Shared columns never outlive their relation's value: with the vec
   engine, a query that misses the cache after a def, or after a drop
   and a re-def of the same name, reads the new contents. *)
let test_server_vec_reads_follow_writes () =
  with_server
    ~tweak:(fun c -> { c with Server.engine = Veval.Vec; workers = 2 })
    (fun sv ->
      let c = connect sv in
      let check_db src qs =
        let db = Bagdb.parse src in
        List.iter
          (fun q -> Alcotest.(check string) q (reference db q) (req c ("eval " ^ q)))
          qs
      in
      let q_a = "select(x -> x.1 == 'a, R ++ R)" in
      check_db seed_src [ q_a; "R /\\ R" ];
      Alcotest.(check string) "def" "ok defined R"
        (req c "def bag R : {{<U>}} = {{ <'a>:5, <'n> }}");
      let after_def =
        "bag R : {{<U>}} = {{ <'a>:5, <'n> }}\n\
         bag G : {{<U, U>}} = {{ <'a,'b>, <'b,'c> }}"
      in
      check_db after_def [ q_a; "select(x -> x.1 == 'n, R ++ R)"; "R /\\ R" ];
      Alcotest.(check string) "drop" "ok dropped R" (req c "drop R");
      Alcotest.(check bool) "dropped R is unbound" true
        (starts_with "err type" (req c ("eval " ^ q_a)));
      Alcotest.(check string) "re-def" "ok defined R"
        (req c "def bag R : {{<U>}} = {{ <'a>, <'z>:3 }}");
      check_db
        "bag G : {{<U, U>}} = {{ <'a,'b>, <'b,'c> }}\n\
         bag R : {{<U>}} = {{ <'a>, <'z>:3 }}"
        [ q_a; "select(x -> x.1 == 'z, R ++ R)"; "R /\\ R" ];
      Client.close c)

let test_server_admission_rejects () =
  (* default_fuel far above the ceiling: every eval must be rejected with
     err busy — never evaluated past the ceiling *)
  with_server
    ~tweak:(fun c -> { c with Server.ceiling = 1000; default_fuel = 4_000_000 })
    (fun sv ->
      let c = connect sv in
      Alcotest.(check bool) "over-ceiling request is err busy" true
        (starts_with "err busy" (req c "eval R ++ R"));
      (* a session that lowers its fuel below the ceiling gets served *)
      Alcotest.(check string) "set fuel" "ok" (req c "set fuel=900");
      Alcotest.(check string) "fits under the ceiling now"
        (reference (seed ()) "R ++ R")
        (req c "eval R ++ R");
      Client.close c)

let test_server_http () =
  with_server (fun sv ->
      let c = connect sv in
      ignore (req c "eval R ++ R");
      Client.close c;
      (match Client.http_get ~host:"127.0.0.1" ~port:(Server.port sv) "/metrics" with
      | Ok body ->
          Alcotest.(check bool) "exposes server counters" true
            (contains body "balg_server_requests_total");
          Alcotest.(check bool) "exposes cache counters" true
            (contains body "balg_server_cache_misses_total")
      | Error m -> Alcotest.fail ("GET /metrics: " ^ m));
      (match Client.http_get ~host:"127.0.0.1" ~port:(Server.port sv) "/healthz" with
      | Ok body ->
          Alcotest.(check bool) "healthz says ok" true (contains body "ok");
          Alcotest.(check bool) "healthz reports replication lag" true
            (contains body "lag=");
          Alcotest.(check bool) "healthz reports the WAL size" true
            (contains body "wal_bytes=")
      | Error m -> Alcotest.fail ("GET /healthz: " ^ m));
      match Client.http_get ~host:"127.0.0.1" ~port:(Server.port sv) "/nope" with
      | Ok _ -> Alcotest.fail "unknown path must not be 200"
      | Error _ -> ())

let test_server_session_fault_isolated () =
  with_server (fun sv ->
      let c1 = connect sv in
      let c2 = connect sv in
      (* both sessions are live *)
      Alcotest.(check string) "c1 live" "ok pong" (req c1 "ping");
      Alcotest.(check string) "c2 live" "ok pong" (req c2 "ping");
      Fault.with_faults ~seed:1 "server.session:n=1" (fun () ->
          (match Client.request c1 "ping" with
          | Error _ -> () (* the injected death closed c1's socket *)
          | Ok r -> Alcotest.fail ("c1 must die, got: " ^ r));
          (* the blast radius is one session: c2 keeps working *)
          match Client.request c2 "ping" with
          | Ok r -> Alcotest.(check string) "c2 survives" "ok pong" r
          | Error m -> Alcotest.fail ("c2 must survive: " ^ m));
      Client.close c1;
      Client.close c2)

let test_server_persistence_across_restart () =
  let dir = temp_dir () in
  let dump_before = ref "" in
  with_server
    ~tweak:(fun c -> { c with Server.store_dir = Some dir })
    (fun sv ->
      let c = connect sv in
      Alcotest.(check string) "def" "ok defined S"
        (req c "def bag S : {{<U>}} = {{ <'z>:9 }}");
      Alcotest.(check string) "drop" "ok dropped G" (req c "drop G");
      dump_before := req c "dump";
      Client.close c);
  (* a second server over the same directory recovers the same state *)
  with_server
    ~tweak:(fun c -> { c with Server.store_dir = Some dir; seed_db = [] })
    (fun sv ->
      let c = connect sv in
      Alcotest.(check string) "state recovered byte-identical" !dump_before
        (req c "dump");
      Alcotest.(check string) "recovered bag evaluates"
        "ok {{<'z>:9}} : {{<U>}}" (req c "eval S");
      Client.close c)

(* --- client timeouts and retry policy --------------------------------------- *)

(* A listener that completes TCP handshakes (backlog) but never reads or
   writes: the client's connect succeeds, and only SO_RCVTIMEO can save a
   request from blocking forever. *)
let test_client_timeout () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen fd 4;
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      match Client.connect ~timeout_s:0.3 ~host:"127.0.0.1" ~port () with
      | Error m -> Alcotest.fail ("connect into the backlog: " ^ m)
      | Ok c ->
          let t0 = Unix.gettimeofday () in
          (match Client.request c "ping" with
          | Ok r -> Alcotest.fail ("a silent server answered: " ^ r)
          | Error _ ->
              Alcotest.(check bool) "timed out, not blocked" true
                (Unix.gettimeofday () -. t0 < 2.0));
          Client.close c)

let test_client_retry_policy () =
  (* deterministic jitter: the same attempt always gets the same delay,
     bounded by the cap and at least half the exponential step *)
  List.iter
    (fun k ->
      let d1 = Client.backoff_delay ~base_s:0.1 ~cap_s:5.0 ~attempt:k () in
      let d2 = Client.backoff_delay ~base_s:0.1 ~cap_s:5.0 ~attempt:k () in
      Alcotest.(check (float 0.0)) (Printf.sprintf "attempt %d replays" k) d1 d2;
      let step = Float.min 5.0 (0.1 *. (2. ** float_of_int (k - 1))) in
      Alcotest.(check bool) "within the jitter band" true
        (d1 >= (0.5 *. step) -. 1e-9 && d1 <= step +. 1e-9))
    [ 1; 2; 3; 7; 20 ];
  (* retrying: calls = attempts + 1, sleeps follow the backoff schedule *)
  let calls = ref 0 and slept = ref [] in
  (match
     Client.retrying ~attempts:3 ~base_s:0.1 ~cap_s:5.0
       ~sleep:(fun d -> slept := d :: !slept)
       (fun _ ->
         incr calls;
         Error "nope")
   with
  | Ok _ -> Alcotest.fail "must fail after the retry budget"
  | Error m -> Alcotest.(check string) "last error surfaces" "nope" m);
  Alcotest.(check int) "initial try + 3 retries" 4 !calls;
  Alcotest.(check (list (float 0.0))) "slept the schedule"
    (List.map
       (fun k -> Client.backoff_delay ~base_s:0.1 ~cap_s:5.0 ~attempt:k ())
       [ 3; 2; 1 ])
    !slept;
  (* first success stops the retries *)
  let calls = ref 0 in
  match
    Client.retrying ~attempts:5 ~sleep:(fun _ -> ())
      (fun k ->
        incr calls;
        if k >= 2 then Ok k else Error "warming up")
  with
  | Ok k ->
      Alcotest.(check int) "succeeded on attempt 2" 2 k;
      Alcotest.(check int) "stopped retrying after success" 3 !calls
  | Error m -> Alcotest.fail m

(* --- replication, end to end ------------------------------------------------ *)

(* Small params so tests converge fast: reconnects in tens of ms, a
   follower is "lost" after 3 straight failures, heartbeats every 50ms. *)
let test_repl_params =
  {
    Repl.backoff_min_s = 0.02;
    backoff_max_s = 0.2;
    lost_after = 3;
    read_timeout_s = 2.0;
    hb_interval_s = 0.05;
  }

let with_pair ?(primary_tweak = fun c -> c) ?(follower_tweak = fun c -> c) f =
  with_server
    ~tweak:(fun c ->
      primary_tweak { c with Server.repl_params = test_repl_params })
    (fun prim ->
      with_server
        ~tweak:(fun c ->
          follower_tweak
            {
              c with
              Server.seed_db = [];
              follow = Some ("127.0.0.1", Server.port prim);
              repl_params = test_repl_params;
            })
        (fun fol -> f prim fol))

let caught_up prim fol () =
  Store.log_seq (Server.store fol) = Store.log_seq (Server.store prim)
  && Store.log_seq (Server.store prim) > 0

let test_repl_catch_up () =
  with_pair (fun prim fol ->
      let c = connect prim in
      Alcotest.(check string) "write on the primary" "ok defined S"
        (req c "def bag S : {{<U>}} = {{ <'z>:9 }}");
      Alcotest.(check string) "and another" "ok dropped G" (req c "drop G");
      wait_until ~what:"follower catch-up" (caught_up prim fol);
      let cf = connect fol in
      Alcotest.(check string) "dumps bit-identical" (req c "dump")
        (req cf "dump");
      (* the follower serves reads from the replicated state... *)
      Alcotest.(check string) "replicated bag evaluates"
        "ok {{<'z>:9}} : {{<U>}}" (req cf "eval S");
      (* ...and refuses writes until promoted *)
      Alcotest.(check bool) "writes rejected as err readonly" true
        (starts_with "err readonly" (req cf "def bag X : {{<U>}} = {{ <'x> }}"));
      Alcotest.(check bool) "compact rejected too" true
        (starts_with "err readonly" (req cf "compact"));
      Alcotest.(check bool) "role says follower" true
        (starts_with "ok follower" (req cf "role"));
      Alcotest.(check bool) "role says primary" true
        (starts_with "ok primary" (req c "role"));
      (match
         Client.http_get ~host:"127.0.0.1" ~port:(Server.port fol) "/healthz"
       with
      | Ok body ->
          Alcotest.(check bool) "healthz reports the follower role" true
            (contains body "role=follower")
      | Error m -> Alcotest.fail ("follower healthz: " ^ m));
      Client.close cf;
      Client.close c)

(* A follower that bootstraps against a primary whose WAL was already
   compacted away can only arrive via the snapshot block. *)
let test_repl_snapshot_bootstrap () =
  with_pair
    ~primary_tweak:(fun c -> c)
    (fun prim fol ->
      let c = connect prim in
      Alcotest.(check string) "write" "ok defined S"
        (req c "def bag S : {{<U>}} = {{ <'s> }}");
      Alcotest.(check string) "compact folds the log" "ok compacted"
        (req c "compact");
      wait_until ~what:"snapshot bootstrap" (caught_up prim fol);
      let cf = connect fol in
      Alcotest.(check string) "bootstrapped dump identical" (req c "dump")
        (req cf "dump");
      Alcotest.(check bool) "a snapshot block was installed" true
        (contains (req cf "metrics") "balg_repl_snapshots_installed_total");
      Client.close cf;
      Client.close c)

let snapshots_installed () =
  Metrics.counter_value
    (Metrics.counter Metrics.default "balg_repl_snapshots_installed_total"
       ~help:"Snapshot bootstraps installed by the follower")

(* A follower that falls behind a compaction is re-bootstrapped with a
   snapshot; its vec reads then see the snapshot's contents, not the
   columns it had imported before. *)
let test_repl_follower_reads_after_install () =
  let booted = snapshots_installed () in
  with_pair
    ~primary_tweak:(fun c -> { c with Server.compact_bytes = 1 })
    ~follower_tweak:(fun c -> { c with Server.engine = Veval.Vec })
    (fun prim fol ->
      wait_until ~what:"bootstrap" (fun () -> snapshots_installed () > booted);
      let c = connect prim in
      (* R arrives as a shipped record, and a follower read imports it *)
      Alcotest.(check string) "def" "ok defined R"
        (req c "def bag R : {{<U>}} = {{ <'a>:3 }}");
      wait_until ~what:"catch-up" (caught_up prim fol);
      let cf = connect fol in
      let q = "select(x -> x.1 == 'a, R ++ R)" in
      Alcotest.(check string) "follower reads the shipped R"
        "ok {{<'a>:6}} : {{<U>}}" (req cf ("eval " ^ q));
      let installed0 = snapshots_installed () in
      (* cut every shipped batch while three compacting defs land *)
      Fault.with_faults "repl.ship:always" (fun () ->
          List.iter
            (fun d -> Alcotest.(check bool) d true (starts_with "ok" (req c d)))
            [
              "def bag R : {{<U>}} = {{ <'a>:4, <'r> }}";
              "def bag T : {{<U>}} = {{ <'t> }}";
              "def bag T : {{<U>}} = {{ <'u> }}";
            ]);
      wait_until ~what:"catch-up by snapshot" (caught_up prim fol);
      Alcotest.(check bool) "the follower installed a snapshot" true
        (snapshots_installed () > installed0);
      Alcotest.(check string) "follower vec read sees the snapshot"
        "ok {{<'a>:8}} : {{<U>}}" (req cf ("eval " ^ q));
      Alcotest.(check string) "an uncached read too"
        "ok {{<'r>:2}} : {{<U>}}"
        (req cf "eval select(x -> x.1 == 'r, R ++ R)");
      Client.close cf;
      Client.close c)

let test_repl_promote () =
  with_pair (fun prim fol ->
      let c = connect prim in
      Alcotest.(check string) "write before failover" "ok defined S"
        (req c "def bag S : {{<U>}} = {{ <'s>:3 }}");
      wait_until ~what:"catch-up before failover" (caught_up prim fol);
      let dump_before = req c "dump" in
      Client.close c;
      (* the primary dies; a retrying writer aimed at the follower keeps
         failing with err readonly until the promotion lands *)
      Server.stop prim;
      let late = ref "" in
      let writer =
        Thread.create
          (fun () ->
            let r =
              Client.retrying ~attempts:40 ~base_s:0.02 ~cap_s:0.1 (fun _ ->
                  match
                    Client.connect ~host:"127.0.0.1" ~port:(Server.port fol) ()
                  with
                  | Error m -> Error m
                  | Ok c -> (
                      let r = Client.request c "def bag L : {{<U>}} = {{ <'l> }}" in
                      Client.close c;
                      match r with
                      | Ok reply when starts_with "ok" reply -> Ok reply
                      | Ok reply -> Error reply
                      | Error m -> Error m))
            in
            late := (match r with Ok r -> r | Error m -> "FAILED: " ^ m))
          ()
      in
      Unix.sleepf 0.05 (* let the writer taste err readonly first *);
      (match Server.promote fol with
      | `Promoted -> ()
      | `Already_primary -> Alcotest.fail "follower must report Promoted");
      Thread.join writer;
      Alcotest.(check string) "retrying writer survives the failover window"
        "ok defined L" !late;
      let cf = connect fol in
      Alcotest.(check bool) "role flipped" true
        (starts_with "ok primary" (req cf "role"));
      Alcotest.(check string) "promote is idempotent" "ok already primary"
        (req cf "promote");
      (* every pre-failover write survives on the new primary *)
      Alcotest.(check string) "replicated bag still evaluates"
        "ok {{<'s>:3}} : {{<U>}}" (req cf "eval S");
      Alcotest.(check bool) "pre-failover state carried over" true
        (contains dump_before "bag S");
      (match
         Client.http_get ~host:"127.0.0.1" ~port:(Server.port fol) "/healthz"
       with
      | Ok body ->
          Alcotest.(check bool) "healthz reports the new primary" true
            (contains body "role=primary")
      | Error m -> Alcotest.fail ("promoted healthz: " ^ m));
      Client.close cf)

(* Satellite (c), follower half: a follower whose primary is gone past
   the backoff horizon answers 503 so a load balancer stops routing to
   it. *)
let test_repl_follower_lost_healthz () =
  (* reserve a port with no listener behind it *)
  let dead_port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let p =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    Unix.close fd;
    p
  in
  with_server
    ~tweak:(fun c ->
      {
        c with
        Server.seed_db = [];
        follow = Some ("127.0.0.1", dead_port);
        repl_params = test_repl_params;
      })
    (fun fol ->
      wait_until ~what:"healthz to degrade" (fun () ->
          match
            Client.http_get ~host:"127.0.0.1" ~port:(Server.port fol)
              "/healthz"
          with
          | Error m -> contains m "503"
          | Ok _ -> false);
      let cf = connect fol in
      Alcotest.(check bool) "role line reports lost" true
        (contains (req cf "role") "lost");
      Client.close cf)

(* Satellite (c), store half: a wal.append fault flips the store
   read-only, and health stops saying ok. *)
let test_server_readonly_healthz () =
  let dir = temp_dir () in
  with_server
    ~tweak:(fun c -> { c with Server.store_dir = Some dir })
    (fun sv ->
      let c = connect sv in
      (match
         Client.http_get ~host:"127.0.0.1" ~port:(Server.port sv) "/healthz"
       with
      | Ok body -> Alcotest.(check bool) "healthy first" true (contains body "ok")
      | Error m -> Alcotest.fail ("healthz before fault: " ^ m));
      Fault.with_faults ~seed:1 "wal.append:always" (fun () ->
          match Client.request c "def bag F : {{<U>}} = {{ <'f> }}" with
          | Ok reply ->
              Alcotest.(check bool) "write fails under the fault" true
                (starts_with "err wal" reply)
          | Error m -> Alcotest.fail ("transport during fault: " ^ m));
      (match
         Client.http_get ~host:"127.0.0.1" ~port:(Server.port sv) "/healthz"
       with
      | Ok body -> Alcotest.fail ("healthz still 200 after wal failure: " ^ body)
      | Error m -> Alcotest.(check bool) "healthz is 503" true (contains m "503"));
      Client.close c)

(* THE acceptance test: failover end to end with the replication fault
   sites armed.  Concurrent writers land acknowledged writes on the
   primary while repl.ship keeps cutting the feed and repl.connect keeps
   failing reconnects; the follower must still converge.  Then the
   primary dies, the follower is promoted, and every acknowledged write
   must be served by the new primary. *)
let test_repl_failover_differential () =
  Fault.with_faults ~seed:7 "repl.ship:p=0.05,repl.connect:p=0.05" (fun () ->
      with_pair (fun prim fol ->
          let writers = 4 and per_writer = 8 in
          let acked = Array.make writers [] in
          let errors = ref [] in
          let err_mu = Mutex.create () in
          let writer i =
            for j = 0 to per_writer - 1 do
              let name = Printf.sprintf "W%d_%d" i j in
              let cmd =
                Printf.sprintf "def bag %s : {{<U>}} = {{ <'w> }}" name
              in
              let r =
                Client.retrying ~attempts:8 ~base_s:0.01 ~cap_s:0.1 (fun _ ->
                    match
                      Client.connect ~host:"127.0.0.1"
                        ~port:(Server.port prim) ()
                    with
                    | Error m -> Error m
                    | Ok c -> (
                        let r = Client.request c cmd in
                        Client.close c;
                        match r with
                        | Ok reply when starts_with "ok" reply -> Ok reply
                        | Ok reply -> Error reply
                        | Error m -> Error m))
              in
              match r with
              | Ok _ -> acked.(i) <- name :: acked.(i)
              | Error m ->
                  Mutex.lock err_mu;
                  errors := Printf.sprintf "%s: %s" name m :: !errors;
                  Mutex.unlock err_mu
            done
          in
          let threads = List.init writers (fun i -> Thread.create writer i) in
          List.iter Thread.join threads;
          Alcotest.(check (list string)) "every write acknowledged" [] !errors;
          (* the follower converges despite the armed chaos *)
          wait_until ~timeout_s:20.0 ~what:"chaos catch-up" (caught_up prim fol);
          (* failover *)
          Server.stop prim;
          (match Server.promote fol with
          | `Promoted -> ()
          | `Already_primary -> Alcotest.fail "follower must promote");
          let cf = connect fol in
          Array.iter
            (List.iter (fun name ->
                 Alcotest.(check string)
                   (name ^ " survives the failover")
                   "ok {{<'w>}} : {{<U>}}"
                   (req cf ("eval " ^ name))))
            acked;
          (* the new primary accepts writes *)
          Alcotest.(check string) "new primary is writable" "ok defined AFTER"
            (req cf "def bag AFTER : {{<U>}} = {{ <'a> }}");
          Client.close cf))

(* The concurrent differential: N clients hammer the same query mix; every
   response must be bit-identical to direct library evaluation.  When
   BALG_FAULT is set (the CI chaos job), its spec is armed for the storm
   and a response may instead be a structured failure — an err line, a
   verdict, or a dead socket — but never a wrong answer, and the server
   must still answer cleanly once the faults are disarmed. *)
let concurrent_differential ~tweak queries =
  let chaos_spec = Sys.getenv_opt "BALG_FAULT" in
  let chaos_seed =
    Option.bind (Sys.getenv_opt "BALG_FAULT_SEED") int_of_string_opt
  in
  with_server ~tweak
    (fun sv ->
      let db = seed () in
      let expected = List.map (fun q -> (q, reference db q)) queries in
      let failures = Atomic.make 0 in
      let fail_msg = ref "" in
      let record msg =
        ignore (Atomic.fetch_and_add failures 1);
        fail_msg := msg
      in
      let client_thread i =
        let rec with_conn attempts k =
          match Client.connect ~host:"127.0.0.1" ~port:(Server.port sv) () with
          | Ok c -> k c
          | Error _ when chaos_spec <> None && attempts < 5 ->
              (* an injected accept fault dropped us: reconnect *)
              Unix.sleepf 0.01;
              with_conn (attempts + 1) k
          | Error m -> record (Printf.sprintf "client %d connect: %s" i m)
        in
        with_conn 0 @@ fun c ->
        let conn = ref c in
        for round = 0 to 2 do
          List.iter
            (fun (q, want) ->
              match Client.request !conn ("eval " ^ q) with
              | Ok got when String.equal got want -> ()
              | Ok got
                when chaos_spec <> None
                     && (starts_with "err " got || starts_with "verdict " got)
                ->
                  () (* structured failure under chaos: acceptable *)
              | Ok got ->
                  record
                    (Printf.sprintf "client %d round %d %s: got %s, want %s" i
                       round q got want)
              | Error _ when chaos_spec <> None ->
                  (* session killed under us: reconnect and carry on *)
                  with_conn 0 (fun c' -> conn := c')
              | Error m ->
                  record (Printf.sprintf "client %d round %d %s: %s" i round q m))
            expected
        done;
        Client.close !conn
      in
      let storm () =
        let threads = List.init 8 (fun i -> Thread.create client_thread i) in
        List.iter Thread.join threads
      in
      (match chaos_spec with
      | Some spec -> Fault.with_faults ?seed:chaos_seed spec storm
      | None -> storm ());
      Alcotest.(check string) "no differential failure" "" !fail_msg;
      Alcotest.(check int) "all clients clean" 0 (Atomic.get failures);
      (* faults disarmed: the server must answer cleanly again *)
      let c = connect sv in
      Alcotest.(check string) "healthy after the storm" "ok pong" (req c "ping");
      Client.close c)

let test_server_concurrent_differential () =
  concurrent_differential ~tweak:(fun c -> { c with Server.workers = 3 }) queries

(* The same storm on the vec engine with two worker domains and a
   one-entry result cache, so nearly every read evaluates: both workers
   read the same shared columns of R and G, and every reply must stay
   bit-identical to the tree engine's. *)
let test_server_concurrent_differential_vec () =
  concurrent_differential
    ~tweak:(fun c ->
      { c with Server.workers = 2; engine = Veval.Vec; optimize = Opt.Cost;
        cache_capacity = 1 })
    (queries
    @ [
        "pi[1,4](select(x -> x.2 == x.3, G * G))";
        "dedup(G ++ G) -- G";
        "select(x -> x.1 == 'b, R ++ R) \\/ R";
        "nest[1](G)";
      ])

(* End-to-end request tracing: with tracing enabled, a loaded server's
   event stream carries the whole request lifecycle — session spans on
   per-session lanes, retro-dated queue-wait spans, worker evaluation
   spans and WAL commit spans, all tagged with request ids — and every
   lane keeps the B/E stack discipline with monotone timestamps even
   with sessions preempting each other on domain 0's ring. *)
let test_server_traced_requests () =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable @@ fun () ->
  with_server
    ~tweak:(fun c -> { c with Server.workers = 2 })
    (fun sv ->
      let threads =
        List.init 6 (fun i ->
            Thread.create
              (fun () ->
                let c = connect sv in
                (* distinct query texts: every client misses the cache
                   and reaches a worker through the admission queue *)
                let q =
                  "eval "
                  ^ String.concat " ++ " (List.init (i + 1) (fun _ -> "R"))
                in
                ignore (req c q);
                Client.close c)
              ())
      in
      List.iter Thread.join threads;
      let c = connect sv in
      Alcotest.(check string) "a write for the wal span" "ok defined T"
        (req c "def bag T : {{<U>}} = {{ <'t> }}");
      let t = req c "trace" in
      Alcotest.(check bool) "live trace over the wire" true
        (contains t "traceEvents");
      Client.close c);
  (* the server is stopped: sessions joined, workers drained, rings
     quiescent — read the whole run back *)
  let evs = Obs.events () in
  List.iter
    (fun cat ->
      Alcotest.(check bool) ("category " ^ cat ^ " present") true
        (List.exists (fun e -> String.equal e.Obs.cat cat) evs))
    [ "session"; "queue"; "worker"; "wal"; "eval" ];
  Alcotest.(check bool) "request ids attached" true
    (List.exists
       (fun e ->
         String.equal e.Obs.cat "session"
         && List.mem_assoc "req" e.Obs.args)
       evs);
  Alcotest.(check bool) "session lanes used" true
    (List.exists (fun e -> e.Obs.tid >= Obs.lane_session 0) evs);
  (* per-lane stack discipline and monotonicity, faults included *)
  let depth = Hashtbl.create 8 and last = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let lane = (e.Obs.pid, e.Obs.tid) in
      (match Hashtbl.find_opt last lane with
      | Some ts when e.Obs.ts < ts ->
          Alcotest.failf "lane %d:%d time went backwards" e.Obs.pid e.Obs.tid
      | _ -> ());
      Hashtbl.replace last lane e.Obs.ts;
      let d =
        match Hashtbl.find_opt depth lane with Some d -> d | None -> 0
      in
      match e.Obs.ph with
      | Obs.B -> Hashtbl.replace depth lane (d + 1)
      | Obs.E ->
          if d <= 0 then
            Alcotest.failf "lane %d:%d: E without B" e.Obs.pid e.Obs.tid;
          Hashtbl.replace depth lane (d - 1)
      | Obs.I -> ())
    evs;
  Hashtbl.iter
    (fun (pid, tid) d ->
      if d <> 0 then Alcotest.failf "lane %d:%d ends at depth %d" pid tid d)
    depth

(* The raw value of [key] in one flat JSONL log object: a number, or a
   string without its quotes (the values checked here carry no
   escapes). *)
let json_field line key =
  let tag = "\"" ^ key ^ "\":" in
  let n = String.length line and m = String.length tag in
  let rec find i =
    if i + m > n then Alcotest.failf "no %s in %s" key line
    else if String.sub line i m = tag then i + m
    else find (i + 1)
  in
  let j = find 0 in
  if line.[j] = '"' then
    String.sub line (j + 1) (String.index_from line (j + 1) '"' - j - 1)
  else
    let rec stop k = if line.[k] = ',' || line.[k] = '}' then k else stop (k + 1) in
    String.sub line j (stop j - j)

(* The access and slow logs read one request record: one access line per
   command, one slow line per eval that reaches the cache probe, and the
   same interval in both — so a large cached reply's rendering time
   shows in the slow log too. *)
let test_server_request_logs () =
  let dir = temp_dir () in
  let access = Filename.concat dir "access.jsonl"
  and slow = Filename.concat dir "slow.jsonl" in
  let big =
    String.concat ", " (List.init 4000 (Printf.sprintf "<'atom_%05d>"))
  in
  let lines path =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file path))
  in
  with_server
    ~tweak:(fun c ->
      { c with Server.access_log = Some access; slow_log = Some slow; slow_ms = 0. })
    (fun sv ->
      let c = connect sv in
      Alcotest.(check string) "def" "ok defined B"
        (req c ("def bag B : {{<U>}} = {{ " ^ big ^ " }}"));
      let miss = req c "eval B ++ B" in
      let hit = req c "eval B ++ B" in
      Alcotest.(check string) "hit replays the miss" miss hit;
      Alcotest.(check bool) "cached reply is at least 50 KB" true
        (String.length hit >= 50_000);
      Alcotest.(check string) "set" "ok" (req c "set fuel=5");
      Alcotest.(check bool) "fuel verdict" true
        (starts_with "verdict " (req c "eval powerset(G * G)"));
      Alcotest.(check bool) "parse error" true
        (starts_with "err parse" (req c "eval R ++"));
      Client.close c;
      wait_until ~what:"the quit access line" (fun () ->
          List.length (lines access) = 7));
  let access_lines = lines access and slow_lines = lines slow in
  let fields lines key = List.map (fun l -> json_field l key) lines in
  Alcotest.(check (list string)) "one access line per command"
    [ "def"; "eval"; "eval"; "set"; "eval"; "eval"; "quit" ]
    (fields access_lines "cmd");
  Alcotest.(check (list string)) "access outcomes"
    [ "ok"; "ok"; "ok"; "ok"; "verdict"; "error"; "bye" ]
    (fields access_lines "outcome");
  let probed = List.filteri (fun i _ -> List.mem i [ 1; 2; 4 ]) access_lines in
  Alcotest.(check (list string)) "one slow line per probed eval, by req"
    (fields probed "req") (fields slow_lines "req");
  Alcotest.(check (list string)) "slow cache outcomes" [ "miss"; "hit"; "miss" ]
    (fields slow_lines "cache");
  Alcotest.(check (list string)) "slow outcomes" [ "ok"; "ok"; "fuel" ]
    (fields slow_lines "outcome");
  List.iter2
    (fun a s ->
      let dur_us = float_of_string (json_field a "dur_us")
      and dur_ms = float_of_string (json_field s "dur_ms") in
      if Float.abs ((1000. *. dur_ms) -. dur_us) > 1. then
        Alcotest.failf "req %s: slow dur_ms %.3f vs access dur_us %.0f"
          (json_field a "req") dur_ms dur_us)
    probed slow_lines

let () =
  Alcotest.run "server"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "bit flip" `Quick test_frame_bit_flip;
          Alcotest.test_case "torn" `Quick test_frame_torn;
        ] );
      ( "store",
        [
          Alcotest.test_case "cow snapshots" `Quick test_store_cow;
          Alcotest.test_case "per-revision view and columns" `Quick
            test_store_view_columns;
          Alcotest.test_case "wal roundtrip" `Quick test_store_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_store_torn_tail;
          Alcotest.test_case "crc bit flip mid-log" `Quick
            test_store_crc_bit_flip;
          Alcotest.test_case "wal.append fault" `Quick
            test_store_wal_append_fault;
          Alcotest.test_case "compaction" `Quick test_store_compact;
          Alcotest.test_case "wait_change wakes on publish" `Quick
            test_store_wait_wakes_on_publish;
          Alcotest.test_case "wait_change times out" `Quick
            test_store_wait_times_out;
          Alcotest.test_case "close stops the timer" `Quick
            test_store_close_stops_timer;
          Alcotest.test_case "replication api" `Quick
            test_store_replication_api;
        ] );
      ( "client",
        [
          Alcotest.test_case "timeout" `Quick test_client_timeout;
          Alcotest.test_case "retry policy" `Quick test_client_retry_policy;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss/invalidate" `Quick test_cache_basics;
          Alcotest.test_case "key discriminates" `Quick
            test_cache_key_discriminates;
        ] );
      ( "exec",
        [
          Alcotest.test_case "deadline vs queue wait" `Quick
            test_exec_deadline_vs_queue_wait;
          Alcotest.test_case "ceiling" `Quick test_exec_ceiling;
          Alcotest.test_case "queue full" `Quick test_exec_queue_full;
          Alcotest.test_case "worker death" `Quick test_exec_worker_death;
        ] );
      ( "server",
        [
          Alcotest.test_case "protocol roundtrip" `Quick test_server_roundtrip;
          Alcotest.test_case "writes and cache" `Quick
            test_server_writes_and_cache;
          Alcotest.test_case "vec reads follow writes" `Quick
            test_server_vec_reads_follow_writes;
          Alcotest.test_case "cached reply identical" `Quick
            test_server_cached_reply_identical;
          Alcotest.test_case "admission rejects" `Quick
            test_server_admission_rejects;
          Alcotest.test_case "http endpoints" `Quick test_server_http;
          Alcotest.test_case "session fault isolated" `Quick
            test_server_session_fault_isolated;
          Alcotest.test_case "persistence across restart" `Quick
            test_server_persistence_across_restart;
          Alcotest.test_case "readonly healthz" `Quick
            test_server_readonly_healthz;
          Alcotest.test_case "traced requests" `Quick
            test_server_traced_requests;
          Alcotest.test_case "access and slow logs" `Quick
            test_server_request_logs;
          Alcotest.test_case "concurrent differential" `Quick
            test_server_concurrent_differential;
          Alcotest.test_case "concurrent differential (vec, 2 workers)"
            `Quick test_server_concurrent_differential_vec;
        ] );
      ( "repl",
        [
          Alcotest.test_case "catch-up" `Quick test_repl_catch_up;
          Alcotest.test_case "follower reads after install" `Quick
            test_repl_follower_reads_after_install;
          Alcotest.test_case "snapshot bootstrap" `Quick
            test_repl_snapshot_bootstrap;
          Alcotest.test_case "promote" `Quick test_repl_promote;
          Alcotest.test_case "follower lost healthz" `Quick
            test_repl_follower_lost_healthz;
          Alcotest.test_case "failover differential" `Quick
            test_repl_failover_differential;
        ] );
    ]
