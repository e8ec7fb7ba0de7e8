(* The trace-event core: per-domain ring-buffer sinks and the
   Chrome/Perfetto and JSONL exporters.  See obs.mli for the model. *)

type ph = B | E | I
type arg = Int of int | Str of string | Float of float

type event = {
  ts : float;
  pid : int;
  tid : int;
  ph : ph;
  cat : string;
  name : string;
  args : (string * arg) list;
}

let dummy_event =
  { ts = 0.; pid = 0; tid = 0; ph = I; cat = ""; name = ""; args = [] }

(* A ring belongs to one domain, but several systhreads of that domain
   (balgd session threads, the replication feed) may emit into it
   concurrently, and systhreads can be preempted between the clamp and
   the store.  A per-ring mutex keeps the multi-word append atomic; for
   the single-threaded worker domains it is always uncontended (one
   CAS), which is noise next to the gettimeofday call.  Rings are tagged
   with the capture epoch — [enable]/[reset] bump it, which retires
   every existing ring without touching other domains. *)
type ring = {
  r_tid : int;
  r_epoch : int;
  r_mu : Mutex.t;
  buf : event array;  (* capacity, a power of two *)
  mask : int;
  mutable head : int;  (* total events ever written to this ring *)
  mutable last_ts : float;  (* per-ring monotonic clamp *)
}

let enabled = Atomic.make false
let epoch = Atomic.make 0
let ring_capacity = Atomic.make (1 lsl 16)
let t0 = Atomic.make 0.
let current_pid = Atomic.make 0
let pid_pinned = Atomic.make false

(* Synthetic lanes for threads that share domain 0's ring but deserve
   their own Perfetto track: balgd gives each session its own lane so
   concurrent requests don't visually nest, and the replication feed
   gets a fixed lane.  Chosen far above any plausible domain id. *)
let lane_repl = 9999
let session_lane_base = 10000
let lane_session sid = session_lane_base + sid

(* The ring registry: locked only when a domain creates its ring (rare);
   emission never touches it.  Rings outlive their domains so a joined
   worker's events remain exportable. *)
let rings_lock = Mutex.create ()
let rings : ring list ref = ref []

let ring_slot : ring option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let on () = Atomic.get enabled

let round_pow2 n =
  let rec go c = if c >= n then c else go (c * 2) in
  go 1

(* Double-checked creation: the slot is domain-local, but the systhreads
   of one domain share it, and after [enable] several of them can find it
   stale at once.  Re-checking under the registry lock makes exactly one
   of them install the fresh ring; the others adopt it, so a lane's B and
   E events always land in the same ring. *)
let my_ring () =
  let slot = Domain.DLS.get ring_slot in
  match !slot with
  | Some r when r.r_epoch = Atomic.get epoch -> r
  | _ ->
      Mutex.protect rings_lock (fun () ->
          let e = Atomic.get epoch in
          match !slot with
          | Some r when r.r_epoch = e -> r
          | _ ->
              let cap = Atomic.get ring_capacity in
              let r =
                {
                  r_tid = (Domain.self () :> int);
                  r_epoch = e;
                  r_mu = Mutex.create ();
                  buf = Array.make cap dummy_event;
                  mask = cap - 1;
                  head = 0;
                  last_ts = 0.;
                }
              in
              rings := r :: !rings;
              slot := Some r;
              r)

let now_us () = (Unix.gettimeofday () -. Atomic.get t0) *. 1e6

let emit ?pid ?tid ?ts_us ?(args = []) ~cat ~name ph =
  if Atomic.get enabled then begin
    let r = my_ring () in
    Mutex.lock r.r_mu;
    let now = match ts_us with Some t -> t | None -> now_us () in
    let ts = if now >= r.last_ts then now else r.last_ts in
    r.last_ts <- ts;
    let pid = match pid with Some p -> p | None -> Atomic.get current_pid in
    let tid = match tid with Some t -> t | None -> r.r_tid in
    r.buf.(r.head land r.mask) <- { ts; pid; tid; ph; cat; name; args };
    r.head <- r.head + 1;
    Mutex.unlock r.r_mu
  end

let reset () = ignore (Atomic.fetch_and_add epoch 1)

let enable ?(capacity = 1 lsl 16) () =
  Atomic.set t0 (Unix.gettimeofday ());
  Atomic.set ring_capacity (round_pow2 (max 16 capacity));
  reset ();
  Atomic.set pid_pinned false;
  Atomic.set enabled true

let disable () = Atomic.set enabled false

let set_trace_id id =
  if not (Atomic.get pid_pinned) then Atomic.set current_pid id

let pin_trace_id id =
  Atomic.set current_pid id;
  Atomic.set pid_pinned true

let trace_id () = Atomic.get current_pid

let live_rings () =
  Mutex.lock rings_lock;
  let l = !rings in
  Mutex.unlock rings_lock;
  let e = Atomic.get epoch in
  List.filter (fun r -> r.r_epoch = e) l
  |> List.sort (fun a b -> compare a.r_tid b.r_tid)

let ring_events r =
  let cap = Array.length r.buf in
  let n = min r.head cap in
  let first = r.head - n in
  List.init n (fun i -> r.buf.((first + i) land r.mask))

let events () = List.concat_map ring_events (live_rings ())

let dropped () =
  List.fold_left
    (fun acc r -> acc + max 0 (r.head - Array.length r.buf))
    0 (live_rings ())

(* ------------------------------------------------------------------ *)
(* Exporters. *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_arg buf (k, v) =
  Buffer.add_string buf (Printf.sprintf "\"%s\":" (json_escape k));
  match v with
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%.3f" f)
  | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape s))

let render_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i kv ->
      if i > 0 then Buffer.add_char buf ',';
      render_arg buf kv)
    args;
  Buffer.add_char buf '}'

let ph_to_string = function B -> "B" | E -> "E" | I -> "I"

module Trace = struct
  (* Chrome trace-event format, one event object per line so line-oriented
     tools (scripts/check_trace.sh) can validate the stream without a JSON
     parser. *)

  let render_event buf ev =
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":"
         (json_escape ev.name) (json_escape ev.cat) (ph_to_string ev.ph) ev.ts
         ev.pid ev.tid);
    render_args buf ev.args;
    Buffer.add_char buf '}'

  let to_buffer buf =
    let evs = events () in
    let lanes =
      List.sort_uniq compare (List.map (fun ev -> (ev.pid, ev.tid)) evs)
    in
    Buffer.add_string buf "{\"traceEvents\":[\n";
    let first = ref true in
    let line render x =
      if not !first then Buffer.add_string buf ",\n";
      first := false;
      render x
    in
    let lane_label tid =
      if tid >= session_lane_base then
        Printf.sprintf "session %d" (tid - session_lane_base)
      else if tid = lane_repl then "repl"
      else Printf.sprintf "domain %d" tid
    in
    List.iter
      (line (fun (pid, tid) ->
           Buffer.add_string buf
             (Printf.sprintf
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
                pid tid (json_escape (lane_label tid)))))
      lanes;
    List.iter (line (fun ev -> render_event buf ev)) evs;
    Buffer.add_string buf
      (Printf.sprintf
         "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"droppedEvents\":%d}}\n"
         (dropped ()))

  let to_chrome_json () =
    let buf = Buffer.create 4096 in
    to_buffer buf;
    Buffer.contents buf

  let to_chrome oc =
    let buf = Buffer.create 4096 in
    to_buffer buf;
    Buffer.output_buffer oc buf
end

module Log = struct
  (* Structured JSONL: one flat object per event, args inlined. *)

  let render_line buf ev =
    Buffer.add_string buf
      (Printf.sprintf
         "{\"ts_us\":%.3f,\"pid\":%d,\"tid\":%d,\"ph\":\"%s\",\"cat\":\"%s\",\"name\":\"%s\""
         ev.ts ev.pid ev.tid (ph_to_string ev.ph) (json_escape ev.cat)
         (json_escape ev.name));
    List.iter
      (fun kv ->
        Buffer.add_char buf ',';
        render_arg buf kv)
      ev.args;
    Buffer.add_string buf "}\n"

  let to_buffer buf = List.iter (render_line buf) (events ())

  let to_jsonl_string () =
    let buf = Buffer.create 4096 in
    to_buffer buf;
    Buffer.contents buf

  let to_jsonl oc =
    let buf = Buffer.create 4096 in
    to_buffer buf;
    Buffer.output_buffer oc buf
end

module Metrics = Metrics
