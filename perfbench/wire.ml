(* The measured run: a primary and a follower balgd, driven by one
   closed loop through [Client] over loopback, timed from outside the
   servers. *)

open Balg
open Util
module Bagdb = Baglang.Bagdb
module Parser = Baglang.Parser
module Client = Balgserver.Client

type conn = { port : int; mutable c : Client.t }

let connect port =
  match Client.connect ~timeout_s:60. ~host:"127.0.0.1" ~port () with
  | Ok c -> { port; c }
  | Error e -> failwith (Printf.sprintf "connect 127.0.0.1:%d: %s" port e)

let reconnect conn =
  Client.close conn.c;
  let rec go n =
    match Client.connect ~timeout_s:60. ~host:"127.0.0.1" ~port:conn.port () with
    | Ok c -> conn.c <- c
    | Error e -> if n = 0 then failwith ("reconnect: " ^ e) else (Unix.sleepf 0.05; go (n - 1))
  in
  go 20

(* Control requests (role, dump, metrics) are not workload operations: a
   transport failure on one reconnects and asks again. *)
let control conn line =
  let rec go n =
    match Client.request conn.c line with
    | Ok r -> r
    | Error e ->
        if n = 0 then failwith (Printf.sprintf "%s: %s" line e)
        else begin
          reconnect conn;
          go (n - 1)
        end
  in
  go 50

let offset_of reply =
  match Scanf.sscanf reply "ok %s offset=%d" (fun _ o -> o) with
  | o -> Some o
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let offset conn =
  match offset_of (control conn "role") with
  | Some o -> o
  | None -> failwith "role: no offset in reply"

(* Replication-lag sampling: a thread of its own polls the follower's
   offset every 5 ms on a separate connection and logs when it first
   reaches each offset.  Polling between the closed loop's own requests
   instead would tie the resolution to request length (a 100 ms closure
   would inflate every lag behind it). *)
type poller = {
  mu : Mutex.t;
  mutable seen : (float * int) list;  (** (time, offset) at each increase *)
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

let start_poller port =
  let p = { mu = Mutex.create (); seen = []; stopping = false; thread = None } in
  let conn = connect port in
  let rec loop last =
    if not (Mutex.protect p.mu (fun () -> p.stopping)) then begin
      let last =
        match Client.request conn.c "role" with
        | Ok r -> (
            match offset_of r with
            | Some o when o > last ->
                let t = now () in
                Mutex.protect p.mu (fun () -> p.seen <- (t, o) :: p.seen);
                o
            | Some _ | None -> last)
        | Error _ ->
            reconnect conn;
            last
      in
      Thread.delay 0.005;
      loop last
    end
  in
  p.thread <- Some (Thread.create (fun () -> Fun.protect ~finally:(fun () -> Client.close conn.c) (fun () -> loop 0)) ());
  p

(* Let the poller see the last acknowledged offset, stop it, and turn
   acknowledgements [(offset, time)] into lags in milliseconds: from each
   ack to the first poll that saw the follower at or past its offset (0
   when the follower had it before the ack arrived). *)
let stop_poller p acks =
  let last = List.fold_left (fun m (o, _) -> max m o) 0 acks in
  let seen_last () =
    Mutex.protect p.mu (fun () -> match p.seen with (_, o) :: _ -> o >= last | [] -> last = 0)
  in
  let deadline = now () +. 10. in
  while (not (seen_last ())) && now () < deadline do
    Thread.delay 0.005
  done;
  Mutex.protect p.mu (fun () -> p.stopping <- true);
  Option.iter Thread.join p.thread;
  let seen = Array.of_list (List.rev p.seen) in
  List.filter_map
    (fun (o, t_ack) ->
      Array.to_seq seen
      |> Seq.find (fun (_, off) -> off >= o)
      |> Option.map (fun (t, _) -> Float.max 0. (t -. t_ack) *. 1e3))
    acks

type cluster = {
  primary : Proc.t;
  follower : Proc.t;
  cp : conn;  (** the primary: every workload request *)
  cf : conn;  (** the follower: catch-up checks and its dump *)
  dirs : string list;
}

let wait_caught_up cl ~timeout_s =
  let target = offset cl.cp in
  let deadline = now () +. timeout_s in
  let rec go () =
    if offset cl.cf >= target then true
    else if now () > deadline then false
    else (Unix.sleepf 0.001; go ())
  in
  go ()

let stop_cluster cl =
  Client.close cl.cp.c;
  Client.close cl.cf.c;
  Proc.stop cl.follower;
  Proc.stop cl.primary;
  List.iter rm_rf cl.dirs

(* One set-up: spawn the primary on a fresh copy of the pre-built store
   (recovery replays its snapshot and WAL), spawn a follower that
   bootstraps from it, wait until the follower has caught up, and run the
   warm-up.  Returns the cluster and the seconds it took. *)
let start_cluster ~balgd ~work ~prebuilt ~tag ~fault ~warmup =
  let pdir = Filename.concat work (tag ^ "-primary")
  and fdir = Filename.concat work (tag ^ "-follower") in
  copy_dir prebuilt pdir;
  rm_rf fdir;
  mkdir_p fdir;
  let log name = Filename.concat work (tag ^ "-" ^ name ^ ".log") in
  let ok = function Ok p -> p | Error e -> failwith e in
  let t0 = now () in
  let primary = ok (Proc.spawn ~balgd ~log:(log "primary") ([ "--store"; pdir ] @ fault)) in
  let follower =
    ok
      (Proc.spawn ~balgd ~log:(log "follower")
         [ "--store"; fdir; "--follow"; Printf.sprintf "127.0.0.1:%d" primary.Proc.port ])
  in
  let cl =
    {
      primary;
      follower;
      cp = connect primary.Proc.port;
      cf = connect follower.Proc.port;
      dirs = [ pdir; fdir ];
    }
  in
  if not (wait_caught_up cl ~timeout_s:60.) then failwith "follower did not catch up during set-up";
  List.iter
    (fun q ->
      let r = control cl.cp ("eval " ^ q) in
      if not (starts_with "ok " r) then failwith ("warm-up request failed: " ^ r))
    warmup;
  (cl, now () -. t0)

(* --- correctness ----------------------------------------------------------- *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* The expected reply to a read: the tree engine's [Eval.run] on the
   query as planned for the tree engine, over the initial database,
   memoized per query.  Reads only touch the static relations, which no
   write changes. *)
let reference db =
  let tenv = Bagdb.type_env db and env = Bagdb.value_env db in
  let vals = List.map (fun (n, _, v) -> (n, v)) db in
  let memo = Hashtbl.create 256 in
  fun q ->
    match Hashtbl.find_opt memo q with
    | Some r -> r
    | None ->
        let e = Parser.expr_of_string q in
        let ty = Typecheck.infer tenv e in
        let plan = Opt.prepare ~vals ~engine:Veval.Tree Opt.Cost tenv e in
        let r =
          match Eval.run ~limits:Budget.default env plan with
          | Ok v -> one_line (Printf.sprintf "ok %s : %s" (Value.to_string v) (Ty.to_string ty))
          | Error x -> "verdict " ^ Budget.exhaustion_to_string x
        in
        Hashtbl.replace memo q r;
        r

type run = {
  reads_ms : float list;
  writes_ms : float list;
  lags_ms : float list;
  attempted : int;
  failed : int;
  elapsed_s : float;
  rss_mb : float;
  problems : string list;  (** wrong replies and failed checks *)
}

(* Which reads are checked against the reference: every read_hot reply
   (64 distinct queries, so checking is cheap), every 16th join or point
   read and every 8th closure elsewhere (the tree engine takes about a
   second per closure). *)
let sampled w ~read_idx ~closure_idx q =
  match w with
  | Gen.Read_hot -> true
  | Gen.Read_cold when Gen.is_closure q -> closure_idx mod 8 = 0
  | Gen.Read_cold | Gen.Write_repl -> read_idx mod 16 = 0

(* Drive the seeded stream [s] for [seconds] through the primary, timing
   every request, while a poller samples replication lag.  Twice a
   second the loop pauses to time the host-speed kernel; [elapsed_s]
   excludes those pauses.  Then check the replies, the follower's copy
   and the acknowledged writes. *)
let measure cl ~hs ~db ~expect ~stream:s ~w ~seconds ~faults =
  let reads = ref [] and writes = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let problems = ref [] in
  let problem p = if List.length !problems < 20 then problems := p :: !problems in
  let base = offset cl.cp in
  let off = ref base and acked = ref 0 in
  let acks = ref [] in
  let poller = start_poller cl.cf.port in
  let last_def = Hashtbl.create 8 in
  let samples = Hashtbl.create 1024 in
  let read_idx = ref 0 and closure_idx = ref 0 in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let next_cal = ref t_start in
  let rec loop = function
    | [] -> loop (s.Gen.next_cycle ())
    | req :: rest ->
        if now () >= !next_cal then begin
          ignore (Hostspeed.sample hs);
          next_cal := now () +. 0.5
        end;
        let t0 = now () in
        if t0 < deadline then begin
          let line =
            match req with Gen.Eval q -> "eval " ^ q | Gen.Def (_, d) -> "def " ^ d
          in
          incr attempted;
          let r = Client.request cl.cp.c line in
          let t1 = now () in
          (match (req, r) with
          | Gen.Eval q, Ok rep when starts_with "ok " rep ->
              reads := ((t1 -. t0) *. 1e3) :: !reads;
              if sampled w ~read_idx:!read_idx ~closure_idx:!closure_idx q then begin
                let seen = Option.value ~default:[] (Hashtbl.find_opt samples q) in
                if not (List.mem rep seen) then Hashtbl.replace samples q (rep :: seen)
              end;
              if Gen.is_closure q then incr closure_idx;
              incr read_idx
          | Gen.Def (rel, d), Ok rep when String.equal rep ("ok defined " ^ rel) ->
              writes := ((t1 -. t0) *. 1e3) :: !writes;
              incr off;
              incr acked;
              acks := (!off, t1) :: !acks;
              Hashtbl.replace last_def rel d
          | _, Ok rep ->
              incr failed;
              problem ("wrong reply: " ^ String.sub rep 0 (min 200 (String.length rep)))
          | _, Error _ ->
              incr failed;
              reconnect cl.cp;
              off := offset cl.cp);
          loop rest
        end
  in
  let spent0 = hs.Hostspeed.spent_s in
  loop [];
  let elapsed = now () -. t_start -. (hs.Hostspeed.spent_s -. spent0) in
  (* the servers' final state *)
  if not (wait_caught_up cl ~timeout_s:30.) then problem "follower did not catch up";
  let lags = stop_poller poller !acks in
  if List.length lags <> List.length !acks then problem "some acknowledged defs never reached the follower";
  let final = offset cl.cp in
  if (not faults) && final <> base + !acked then
    problem (Printf.sprintf "primary offset %d, expected %d + %d acked defs" final base !acked);
  let rss = Option.value ~default:Float.nan (Proc.peak_rss_mb cl.primary.Proc.pid) in
  let dp = control cl.cp "dump" and df = control cl.cf "dump" in
  if not (String.equal dp df) then problem "primary and follower dumps differ";
  (match Bagdb.parse dp with
  | exception Bagdb.Db_error e -> problem ("unparsable dump: " ^ Bagdb.error_to_string e)
  | dumped ->
      let find n = List.find_map (fun (m, _, v) -> if String.equal m n then Some v else None) dumped in
      Hashtbl.iter
        (fun rel d ->
          let _, _, v = Gen.parse_one d in
          match find rel with
          | Some v' when Value.equal v v' -> ()
          | _ -> problem ("last acknowledged def of " ^ rel ^ " missing from the dump"))
        last_def;
      List.iter
        (fun (n, _, v) ->
          if not (starts_with "W" n) then
            match find n with
            | Some v' when Value.equal v v' -> ()
            | _ -> problem ("static relation " ^ n ^ " changed"))
        db);
  Hashtbl.iter
    (fun q reps ->
      let want = expect q in
      List.iter (fun r -> if not (String.equal r want) then problem ("reply differs from reference: " ^ q)) reps)
    samples;
  {
    reads_ms = !reads;
    writes_ms = !writes;
    lags_ms = lags;
    attempted = !attempted;
    failed = !failed;
    elapsed_s = elapsed;
    rss_mb = rss;
    problems = List.rev !problems;
  }

(* Pool the segments of one run, measured on successive clusters. *)
let merge runs =
  let cat f = List.concat_map f runs and sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  {
    reads_ms = cat (fun r -> r.reads_ms);
    writes_ms = cat (fun r -> r.writes_ms);
    lags_ms = cat (fun r -> r.lags_ms);
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed);
    elapsed_s = List.fold_left (fun a r -> a +. r.elapsed_s) 0. runs;
    rss_mb = median (List.map (fun r -> r.rss_mb) runs);
    problems = cat (fun r -> r.problems);
  }

(* The round-trip floor: [n] pings on the primary connection, median in
   microseconds. *)
let ping_floor_us cl n =
  median
    (List.init n (fun _ ->
         let t0 = now () in
         ignore (control cl.cp "ping");
         (now () -. t0) *. 1e6))
