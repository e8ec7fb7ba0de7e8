(** A small synchronous client for the [balgd] wire protocol, shared by
    [balgi client], the replication follower and the server tests.

    One {!t} is one connection / one server session.  {!request} sends a
    single command line and reads the response using the protocol's
    framing rules: [metrics] and [dump] responses are multi-line,
    terminated by a lone ["."] line (returned with the terminator
    stripped); everything else is a single line. *)

type t

val strip_cr : string -> string
(** A protocol line without its trailing ['\r'], if any: every reader of
    the protocol accepts CRLF line ends. *)

val split_command : string -> (string * string) option
(** [Some (word, arg)] for a line ["word arg"], split at its first space;
    [None] for a line without one. *)

val connect :
  ?timeout_s:float -> host:string -> port:int -> unit -> (t, string) result
(** TCP connect.  With [timeout_s] the connect itself is timed (a
    non-blocking connect polled with [select]) and the socket gets
    matching [SO_RCVTIMEO]/[SO_SNDTIMEO] timeouts, so a later
    {!request} against a stalled server surfaces a timeout [Error]
    instead of blocking forever.  [Error] carries a human-readable
    connect failure. *)

val request : t -> string -> (string, string) result
(** Send one command line, read one framed response.  [Ok] is the raw
    response text (which may itself be an ["err ..."] or ["verdict ..."]
    protocol line — classifying it is the caller's business); [Error] is
    a transport failure (connection reset, EOF mid-response, read
    timeout). *)

val raw : t -> in_channel * out_channel
(** The underlying channels, for protocol extensions that stream past
    the one-line framing (the replication [sync] feed).  The caller owns
    the read loop; {!close} still closes the connection. *)

val shutdown : t -> unit
(** [shutdown(2)] both directions without closing the descriptor: wakes
    any thread blocked reading this connection (it sees EOF).  Used to
    interrupt a streaming read from another thread; follow with
    {!close}. *)

val close : t -> unit
(** Best-effort [quit] then close.  Idempotent. *)

val http_get :
  ?timeout_s:float -> host:string -> port:int -> string -> (string, string) result
(** One-shot [GET path] against the same port (the server sniffs HTTP
    from the first line).  [Ok body] on a 200, [Error] otherwise — a
    non-200 error carries the status line, so callers can distinguish a
    503 health degradation from a transport failure. *)

(** {2 Retry policy}

    The client-side half of failover robustness: capped exponential
    backoff with {e deterministic} jitter (a pure function of the
    attempt number — reproducible under test, no global RNG), shared by
    [balgi client --retries] and the replication follower's reconnect
    loop. *)

val backoff_delay :
  ?base_s:float -> ?cap_s:float -> attempt:int -> unit -> float
(** Delay before retry number [attempt] (counting from 1):
    [min cap_s (base_s * 2^(attempt-1))], scaled by a deterministic
    jitter factor in [0.5, 1.0] derived from [attempt] alone.  Defaults:
    [base_s = 0.1], [cap_s = 5.0]. *)

val retrying :
  attempts:int ->
  ?base_s:float ->
  ?cap_s:float ->
  ?sleep:(float -> unit) ->
  (int -> ('a, string) result) ->
  ('a, string) result
(** [retrying ~attempts f] runs [f 0]; on [Error] it sleeps
    {!backoff_delay} and retries [f 1], [f 2], ... up to [attempts]
    retries, returning the first [Ok] or the last [Error].  [sleep]
    (default {!Unix.sleepf}) exists so tests can run the policy without
    waiting. *)
