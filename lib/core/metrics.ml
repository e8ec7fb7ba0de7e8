(* Counters, gauges and log-bucketed histograms; see metrics.mli. *)

(* Values below 16 get exact buckets; from 16 up, each power-of-two octave
   splits into 8 sub-buckets keyed by the next 3 bits below the msb, for
   ~12.5% relative resolution.  60 octaves cover the whole positive [int]
   range in a fixed table. *)
let nbuckets = 16 + (8 * 60)

let msb v =
  let r = ref 0 and v = ref v in
  while !v > 1 do
    incr r;
    v := !v lsr 1
  done;
  !r

let bucket_of v =
  if v < 16 then max 0 v
  else
    let o = msb v in
    let sub = (v lsr (o - 3)) land 7 in
    16 + (8 * (o - 4)) + sub

(* Upper bound (largest value) of a bucket, as a float: the value a
   percentile query reports. *)
let bucket_upper i =
  if i < 16 then float_of_int i
  else
    let o = 4 + ((i - 16) / 8) and sub = (i - 16) mod 8 in
    Int64.to_float
      (Int64.sub (Int64.shift_left (Int64.of_int (9 + sub)) (o - 3)) 1L)

(* Instrument names live only as registry keys; the records carry the
   help text and the cells. *)
type counter = { c_help : string; c : int Atomic.t }
type gauge = { g_help : string; g : float Atomic.t }

type histogram = {
  h_help : string;
  buckets : int Atomic.t array;  (* length [nbuckets] *)
  count : int Atomic.t;
  sum : int Atomic.t;
}

type instrument = C of counter | G of gauge | H of histogram

type t = {
  lock : Mutex.t;  (* guards [tbl]: registration only, never updates *)
  tbl : (string, instrument) Hashtbl.t;
}

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 16 }
let default = create ()

let find_or_add t name make =
  Mutex.lock t.lock;
  let i =
    match Hashtbl.find_opt t.tbl name with
    | Some i -> i
    | None ->
        let i = make () in
        Hashtbl.add t.tbl name i;
        i
  in
  Mutex.unlock t.lock;
  i

let counter ?(help = "") t name =
  match
    find_or_add t name (fun () ->
        C { c_help = help; c = Atomic.make 0 })
  with
  | C c -> c
  | G _ | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c by)
let counter_value c = Atomic.get c.c

let gauge ?(help = "") t name =
  match
    find_or_add t name (fun () ->
        G { g_help = help; g = Atomic.make 0. })
  with
  | G g -> g
  | C _ | H _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")

let set_gauge g v = Atomic.set g.g v
let gauge_value g = Atomic.get g.g

let histogram ?(help = "") t name =
  match
    find_or_add t name (fun () ->
        H
          {
            h_help = help;
            buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
            count = Atomic.make 0;
            sum = Atomic.make 0;
          })
  with
  | H h -> h
  | C _ | G _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")

let observe h v =
  let v = max 0 v in
  ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add h.count 1);
  ignore (Atomic.fetch_and_add h.sum v)

let hist_count h = Atomic.get h.count
let hist_sum h = Atomic.get h.sum

let percentile h q =
  let total = Atomic.get h.count in
  if total = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let target = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let acc = ref 0 and i = ref 0 and ans = ref 0. in
    (try
       while !i < nbuckets do
         acc := !acc + Atomic.get h.buckets.(!i);
         if !acc >= target then begin
           ans := bucket_upper !i;
           raise Exit
         end;
         i := !i + 1
       done
     with Exit -> ());
    !ans
  end

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition. *)

let instruments t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun n i acc -> (n, i) :: acc) t.tbl [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let pp_float buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else Buffer.add_string buf (Printf.sprintf "%g" v)

let render_header buf name help kind =
  if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, i) ->
      match i with
      | C c ->
          render_header buf name c.c_help "counter";
          Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Atomic.get c.c))
      | G g ->
          render_header buf name g.g_help "gauge";
          Buffer.add_string buf (Printf.sprintf "%s " name);
          pp_float buf (Atomic.get g.g);
          Buffer.add_char buf '\n'
      | H h ->
          render_header buf name h.h_help "histogram";
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              let n = Atomic.get b in
              if n > 0 then begin
                cum := !cum + n;
                Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"" name);
                pp_float buf (bucket_upper i);
                Buffer.add_string buf (Printf.sprintf "\"} %d\n" !cum)
              end)
            h.buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name
               (Atomic.get h.count));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %d\n" name (Atomic.get h.sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" name (Atomic.get h.count));
          if Atomic.get h.count > 0 then begin
            Buffer.add_string buf (Printf.sprintf "# percentiles %s p50=" name);
            pp_float buf (percentile h 0.50);
            Buffer.add_string buf " p90=";
            pp_float buf (percentile h 0.90);
            Buffer.add_string buf " p99=";
            pp_float buf (percentile h 0.99);
            Buffer.add_char buf '\n'
          end)
    (instruments t);
  Buffer.contents buf

let reset t =
  List.iter
    (fun (_, i) ->
      match i with
      | C c -> Atomic.set c.c 0
      | G g -> Atomic.set g.g 0.
      | H h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.count 0;
          Atomic.set h.sum 0)
    (instruments t)
