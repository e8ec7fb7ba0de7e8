(* Per-operator evaluation telemetry; see telemetry.mli. *)

type span = {
  id : int;
  op : string;
  mutable invocations : int;
  mutable steps : int;
  mutable time_s : float;
  mutable alloc_words : float;
  mutable peak_support : int;
  mutable peak_size : int;
  mutable peak_count : Bignat.t;
  mutable peak_cardinal : Bignat.t;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable children : span list;
}

type t = {
  tbl : (int, span) Hashtbl.t;
  mutable rev_roots : span list;
}

let create () = { tbl = Hashtbl.create 64; rev_roots = [] }

let fresh_span id op =
  {
    id;
    op;
    invocations = 0;
    steps = 0;
    time_s = 0.;
    alloc_words = 0.;
    peak_support = 0;
    peak_size = 0;
    peak_count = Bignat.zero;
    peak_cardinal = Bignat.zero;
    memo_hits = 0;
    memo_misses = 0;
    children = [];
  }

let register t ~parent ~id ~op =
  let sp = fresh_span id op in
  Hashtbl.replace t.tbl id sp;
  (match Hashtbl.find_opt t.tbl parent with
  | Some p -> p.children <- sp :: p.children
  | None -> t.rev_roots <- sp :: t.rev_roots);
  sp

let roots t = List.rev t.rev_roots
let iter t f = Hashtbl.iter (fun _ sp -> f sp) t.tbl
let find t id = Hashtbl.find_opt t.tbl id

let add_steps sp n = sp.steps <- sp.steps + n

let max_bignat a b = if Bignat.compare b a > 0 then b else a

let record_result sp ~support ~size ~count ~cardinal =
  if support > sp.peak_support then sp.peak_support <- support;
  if size > sp.peak_size then sp.peak_size <- size;
  sp.peak_count <- max_bignat sp.peak_count count;
  sp.peak_cardinal <- max_bignat sp.peak_cardinal cardinal

let record_memo_hit sp = sp.memo_hits <- sp.memo_hits + 1
let record_memo_miss sp = sp.memo_misses <- sp.memo_misses + 1

let fold t f init =
  Hashtbl.fold (fun _ sp acc -> f acc sp) t.tbl init

let total_steps t = fold t (fun acc sp -> acc + sp.steps) 0
let total_invocations t = fold t (fun acc sp -> acc + sp.invocations) 0

type agg = {
  a_op : string;
  a_spans : int;
  a_invocations : int;
  a_steps : int;
  a_time_s : float;
  a_alloc_words : float;
  a_peak_support : int;
  a_memo_hits : int;
  a_memo_misses : int;
}

type sort = By_steps | By_time | By_alloc

(* Collapse "var x" / "let x" / "nest [..]" labels to their family for the
   per-operator table; the span tree keeps the full label. *)
let family op =
  match String.index_opt op ' ' with
  | Some i -> String.sub op 0 i
  | None -> op

let per_op ?(sort = By_steps) t =
  let tbl = Hashtbl.create 16 in
  iter t (fun sp ->
      let key = family sp.op in
      let a =
        match Hashtbl.find_opt tbl key with
        | Some a -> a
        | None ->
            let a =
              ref
                {
                  a_op = key;
                  a_spans = 0;
                  a_invocations = 0;
                  a_steps = 0;
                  a_time_s = 0.;
                  a_alloc_words = 0.;
                  a_peak_support = 0;
                  a_memo_hits = 0;
                  a_memo_misses = 0;
                }
            in
            Hashtbl.add tbl key a;
            a
      in
      a :=
        {
          !a with
          a_spans = !a.a_spans + 1;
          a_invocations = !a.a_invocations + sp.invocations;
          a_steps = !a.a_steps + sp.steps;
          a_time_s = !a.a_time_s +. sp.time_s;
          a_alloc_words = !a.a_alloc_words +. sp.alloc_words;
          a_peak_support = max !a.a_peak_support sp.peak_support;
          a_memo_hits = !a.a_memo_hits + sp.memo_hits;
          a_memo_misses = !a.a_memo_misses + sp.memo_misses;
        });
  let key a =
    match sort with
    | By_steps -> float_of_int a.a_steps
    | By_time -> a.a_time_s
    | By_alloc -> a.a_alloc_words
  in
  Hashtbl.fold (fun _ a acc -> !a :: acc) tbl []
  |> List.sort (fun a b ->
         match Float.compare (key b) (key a) with
         | 0 -> compare a.a_op b.a_op
         | c -> c)

let pp_time ppf s =
  if s < 1e-6 then Format.fprintf ppf "%.0fns" (s *. 1e9)
  else if s < 1e-3 then Format.fprintf ppf "%.1fus" (s *. 1e6)
  else if s < 1. then Format.fprintf ppf "%.1fms" (s *. 1e3)
  else Format.fprintf ppf "%.2fs" s

let rec pp_span ?(trace = false) ~indent ppf sp =
  Format.fprintf ppf "%s%-16s #%-3d calls=%-6d steps=%-8d peak support=%d"
    (String.make indent ' ') sp.op sp.id sp.invocations sp.steps
    sp.peak_support;
  if trace then begin
    Format.fprintf ppf "  time=%a  alloc=%.0fw" pp_time sp.time_s
      sp.alloc_words;
    if sp.memo_hits + sp.memo_misses > 0 then
      Format.fprintf ppf "  memo=%d/%d" sp.memo_hits
        (sp.memo_hits + sp.memo_misses)
  end;
  Format.pp_print_newline ppf ();
  List.iter (pp_span ~trace ~indent:(indent + 2) ppf) (List.rev sp.children)

let pp_tree ?(trace = false) ppf t =
  List.iter (pp_span ~trace ~indent:0 ppf) (roots t)

let to_string ?trace t = Format.asprintf "%a" (pp_tree ?trace) t

let summary_json t =
  let peak = fold t (fun acc sp -> max acc sp.peak_support) 0 in
  let hits = fold t (fun acc sp -> acc + sp.memo_hits) 0 in
  let misses = fold t (fun acc sp -> acc + sp.memo_misses) 0 in
  Printf.sprintf
    "{\"steps\": %d, \"invocations\": %d, \"spans\": %d, \"peak_support\": \
     %d, \"memo_hits\": %d, \"memo_misses\": %d}"
    (total_steps t) (total_invocations t) (Hashtbl.length t.tbl) peak hits
    misses
