(* The balgd wire-protocol client; see client.mli. *)

type t = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  mutable closed : bool;
}

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let split_command line =
  match String.index_opt line ' ' with
  | Some i ->
      Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  | None -> None

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> raise Not_found
    | h -> h.Unix.h_addr_list.(0))

(* A timed connect: non-blocking connect, poll writability with select,
   then read SO_ERROR for the real outcome — the portable shape of
   "connect with a deadline". *)
let timed_connect fd addr timeout_s =
  Unix.set_nonblock fd;
  (try Unix.connect fd addr with
  | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
      match Unix.select [] [ fd ] [] timeout_s with
      | _, [], _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
      | _ -> (
          match Unix.getsockopt_error fd with
          | None -> ()
          | Some e -> raise (Unix.Unix_error (e, "connect", "")))));
  Unix.clear_nonblock fd

let connect ?timeout_s ~host ~port () =
  match
    let addr = resolve host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       (match timeout_s with
       | None -> Unix.connect fd (Unix.ADDR_INET (addr, port))
       | Some s ->
           timed_connect fd (Unix.ADDR_INET (addr, port)) s;
           (* reads and writes inherit the same deadline: a stalled
              server surfaces as a timeout error, never a hung client *)
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO s)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      closed = false;
    }
  with
  | c -> Ok c
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s:%d: %s" host port
           (Unix.error_message e))
  | exception Not_found -> Error (Printf.sprintf "unknown host %s" host)

(* Multi-line responses are decided by the command, not sniffed from the
   reply: only [metrics] and [dump] answer with a "."-terminated block. *)
let multi_line cmd =
  let head =
    match String.index_opt cmd ' ' with
    | Some i -> String.sub cmd 0 i
    | None -> cmd
  in
  String.equal head "metrics" || String.equal head "dump"

let request c cmd =
  if c.closed then Error "connection closed"
  else
    match
      output_string c.oc cmd;
      output_char c.oc '\n';
      flush c.oc;
      if multi_line (String.trim cmd) then begin
        let b = Buffer.create 256 in
        let rec read_block first =
          let line = strip_cr (input_line c.ic) in
          if String.equal line "." then ()
          else begin
            if not first then Buffer.add_char b '\n';
            Buffer.add_string b line;
            read_block false
          end
        in
        read_block true;
        Buffer.contents b
      end
      else strip_cr (input_line c.ic)
    with
    | reply -> Ok reply
    | exception End_of_file -> Error "connection closed by server"
    | exception Sys_error msg -> Error msg
    (* SO_RCVTIMEO expiring surfaces as EAGAIN from the read; channel
       reads report it as Sys_blocked_io *)
    | exception Sys_blocked_io -> Error "read timed out"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error "read timed out"
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let raw c = (c.ic, c.oc)

let shutdown c =
  try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let close c =
  if not c.closed then begin
    c.closed <- true;
    (try
       output_string c.oc "quit\n";
       flush c.oc
     with Sys_error _ | Unix.Unix_error _ -> ());
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let http_get ?timeout_s ~host ~port path =
  match connect ?timeout_s ~host ~port () with
  | Error _ as e -> e
  | Ok c -> (
      match
        output_string c.oc
          (Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" path host);
        flush c.oc;
        let status = strip_cr (input_line c.ic) in
        (* headers until the blank line, then the body to EOF *)
        (try
           while not (String.equal (strip_cr (input_line c.ic)) "") do
             ()
           done
         with End_of_file -> ());
        (* chunked body reads: a /metrics scrape is kilobytes, and a
           byte-at-a-time channel refill costs a buffer-management pass
           per byte — read in 8 KiB slabs instead *)
        let b = Buffer.create 1024 in
        let chunk = Bytes.create 8192 in
        let rec drain () =
          let n = input c.ic chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes b chunk 0 n;
            drain ()
          end
        in
        (try drain () with End_of_file -> ());
        (status, Buffer.contents b)
      with
      | status, body ->
          c.closed <- true;
          (try Unix.close c.fd with Unix.Unix_error _ -> ());
          if
            String.length status >= 12
            && String.equal (String.sub status 9 3) "200"
          then Ok body
          else Error ("http: " ^ status)
      | exception End_of_file ->
          close c;
          Error "connection closed by server"
      | exception Sys_error msg ->
          close c;
          Error msg
      | exception Sys_blocked_io ->
          close c;
          Error "read timed out"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          close c;
          Error "read timed out"
      | exception Unix.Unix_error (e, _, _) ->
          close c;
          Error (Unix.error_message e))

(* --- retry policy ---------------------------------------------------------- *)

(* Deterministic jitter in [0.5, 1.0]: a pure hash of the attempt number
   alone, so the same retry sequence replays the same delays (the test
   and chaos-replay posture the Fault module takes, applied to time). *)
let jitter attempt =
  let h = Hashtbl.hash (attempt * 2654435761) land 0xFFFF in
  0.5 +. (0.5 *. float_of_int h /. 65536.)

let backoff_delay ?(base_s = 0.1) ?(cap_s = 5.0) ~attempt () =
  let exp = base_s *. (2. ** float_of_int (min (max 0 (attempt - 1)) 16)) in
  Float.min cap_s exp *. jitter attempt

let retrying ~attempts ?base_s ?cap_s ?(sleep = Unix.sleepf) f =
  let rec go k =
    match f k with
    | Ok _ as ok -> ok
    | Error _ as e ->
        if k >= attempts then e
        else begin
          sleep (backoff_delay ?base_s ?cap_s ~attempt:(k + 1) ());
          go (k + 1)
        end
  in
  go 0
