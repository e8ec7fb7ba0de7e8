(* balgd as a child process: hermetic launch on an ephemeral port, and a
   stop that always reaps.  Every pid started here is tracked so that an
   early exit still kills and waits for it. *)

(* Variables that would silently change what is measured: the CI legs
   set the first two, and the rest arm faults, calibration or GC
   tuning. *)
let scrubbed = [ "BALG_ENGINE"; "BALG_OPT"; "BALG_FAULT"; "BALG_CALIB"; "OCAMLRUNPARAM" ]

(* The deployment under test.  One worker keeps each balgd at two
   domains (main + worker), matching a two-core host. *)
let server_flags =
  [ "--engine"; "vec"; "--optimize"; "cost"; "--workers"; "1"; "--cache"; "512" ]

type t = { pid : int; mutable port : int; out : Unix.file_descr; mutable live : bool }

let live : t list ref = ref []

let env () =
  Array.of_list
    (List.filter
       (fun kv ->
         not
           (List.exists
              (fun k ->
                let p = k ^ "=" in
                String.length kv >= String.length p
                && String.equal (String.sub kv 0 (String.length p)) p)
              scrubbed))
       (Array.to_list (Unix.environment ())))

(* Read the "balgd listening on HOST:PORT" line, waiting at most
   [timeout_s]. *)
let read_port fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let rec line () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then Error "balgd did not announce its port in time"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> line ()
      | _ -> (
          match Unix.read fd b 0 1 with
          | 0 -> Error "balgd exited before listening"
          | _ when Bytes.get b 0 = '\n' -> Ok (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get b 0);
              line ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> line ()
  in
  match line () with
  | Error _ as e -> e
  | Ok l -> (
      match String.index_opt l ':' with
      | Some i when String.length l > 19 && String.sub l 0 19 = "balgd listening on " ->
          let j = ref (i + 1) in
          while !j < String.length l && l.[!j] >= '0' && l.[!j] <= '9' do incr j done;
          (match int_of_string_opt (String.sub l (i + 1) (!j - i - 1)) with
          | Some p -> Ok p
          | None -> Error ("unexpected balgd banner: " ^ l))
      | _ -> Error ("unexpected balgd banner: " ^ l))

let rec waitpid_timeout pid ~timeout_s =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ ->
      if timeout_s <= 0. then false
      else begin
        Unix.sleepf 0.01;
        waitpid_timeout pid ~timeout_s:(timeout_s -. 0.01)
      end
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_timeout pid ~timeout_s
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let stop p =
  if p.live then begin
    p.live <- false;
    live := List.filter (fun q -> q.pid <> p.pid) !live;
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (waitpid_timeout p.pid ~timeout_s:10.) then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_timeout p.pid ~timeout_s:10.)
    end;
    try Unix.close p.out with Unix.Unix_error _ -> ()
  end

let stop_all () = List.iter stop !live

(* Start balgd with the deployment flags plus [args]; stderr goes to
   [log].  Returns once the server is listening. *)
let spawn ~balgd ~log args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let argv = Array.of_list ((balgd :: "-p" :: "0" :: server_flags) @ args) in
  let pid = Unix.create_process_env balgd argv (env ()) in_r out_w err in
  List.iter Unix.close [ out_w; in_r; in_w; err ];
  let p = { pid; port = 0; out = out_r; live = true } in
  live := p :: !live;
  match read_port out_r ~timeout_s:120. with
  | Ok port ->
      p.port <- port;
      Ok p
  | Error e ->
      stop p;
      Error e

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.))
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r
