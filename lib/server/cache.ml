(* The shared cross-query result cache; see cache.mli for the model. *)

open Balg
module Bagdb = Baglang.Bagdb

let m_hits =
  Metrics.counter Metrics.default "balg_server_cache_hits_total"
    ~help:"Result-cache lookups answered without evaluation"

let m_misses =
  Metrics.counter Metrics.default "balg_server_cache_misses_total"
    ~help:"Result-cache lookups that fell through to evaluation"

let m_invalidations =
  Metrics.counter Metrics.default "balg_server_cache_invalidations_total"
    ~help:"Result-cache entries dropped by per-relation invalidation"

let m_evictions =
  Metrics.counter Metrics.default "balg_server_cache_evictions_total"
    ~help:"Result-cache entries evicted by the capacity bound"

let g_entries =
  Metrics.gauge Metrics.default "balg_server_cache_entries"
    ~help:"Result-cache entries currently held"

let g_hit_rate =
  Metrics.gauge Metrics.default "balg_server_cache_hit_rate"
    ~help:"Result-cache hits / lookups since start (0 when no lookups)"

(* Per-relation invalidation counters surface in the registry lazily —
   relation names are client data, so the instruments are created on
   first invalidation of each relation (find-or-create is idempotent). *)
let sanitize_label s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    s

let m_rel_invalidations rel =
  Metrics.counter Metrics.default
    ("balg_server_cache_rel_invalidations_total_" ^ sanitize_label rel)
    ~help:("Result-cache entries invalidated by writes to " ^ rel)

type 'a entry = {
  e_rels : (string * Value.t) list;  (* referenced relations at fill time *)
  e_payload : 'a;
  e_ty : Ty.t;
}

type 'a t = {
  capacity : int;
  mu : Mutex.t;
  tbl : (string, 'a entry) Hashtbl.t;
  by_rel : (string, string list ref) Hashtbl.t;  (* relation -> keys *)
  inval_by_rel : (string, int ref) Hashtbl.t;  (* relation -> entries dropped *)
  fifo : string Queue.t;  (* insertion order, for eviction *)
}

let create ?(capacity = 512) () =
  {
    capacity = max 1 capacity;
    mu = Mutex.create ();
    tbl = Hashtbl.create 64;
    by_rel = Hashtbl.create 64;
    inval_by_rel = Hashtbl.create 16;
    fifo = Queue.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let key ~engine ~mode ~db e =
  let fv = Expr.free_vars e in
  let rels =
    List.filter_map
      (fun (n, _ty, v) -> if Expr.Vars.mem n fv then Some (n, v) else None)
      db
  in
  let b = Buffer.create 128 in
  Buffer.add_string b (Veval.engine_to_string engine);
  Buffer.add_char b '|';
  Buffer.add_string b (Opt.mode_to_string mode);
  Buffer.add_char b '|';
  Buffer.add_string b (Expr.to_string e);
  List.iter
    (fun (n, v) ->
      Buffer.add_string b
        (Printf.sprintf "|%s#%d#%d" n (Value.hash v) (Value.size_tag v)))
    rels;
  (Buffer.contents b, rels)

let rels_match stored current =
  List.length stored = List.length current
  && List.for_all2
       (fun (n, v) (m, w) -> String.equal n m && Value.equal v w)
       stored current

let find t ~key ~rels =
  let r =
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e when rels_match e.e_rels rels -> Some (e.e_payload, e.e_ty)
        | _ -> None)
  in
  Metrics.incr (match r with Some _ -> m_hits | None -> m_misses);
  let hits = float_of_int (Metrics.counter_value m_hits) in
  let total = hits +. float_of_int (Metrics.counter_value m_misses) in
  Metrics.set_gauge g_hit_rate (if total > 0. then hits /. total else 0.);
  r

(* Called with the mutex held. *)
let drop_key_locked t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.tbl k;
      List.iter
        (fun (n, _) ->
          match Hashtbl.find_opt t.by_rel n with
          | None -> ()
          | Some keys -> (
              keys := List.filter (fun k' -> not (String.equal k' k)) !keys;
              match !keys with
              | [] -> Hashtbl.remove t.by_rel n
              | _ -> ()))
        e.e_rels

let add t ~key ~rels payload ty =
  locked t (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        while Hashtbl.length t.tbl >= t.capacity do
          match Queue.take_opt t.fifo with
          | None -> Hashtbl.reset t.tbl (* unreachable: fifo mirrors tbl *)
          | Some old ->
              if Hashtbl.mem t.tbl old then begin
                drop_key_locked t old;
                Metrics.incr m_evictions
              end
        done;
        Hashtbl.add t.tbl key { e_rels = rels; e_payload = payload; e_ty = ty };
        Queue.push key t.fifo;
        List.iter
          (fun (n, _) ->
            match Hashtbl.find_opt t.by_rel n with
            | Some keys -> keys := key :: !keys
            | None -> Hashtbl.add t.by_rel n (ref [ key ]))
          rels;
        Metrics.set_gauge g_entries (float_of_int (Hashtbl.length t.tbl))
      end)

let invalidate t rel =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_rel rel with
      | None -> ()
      | Some keys ->
          let ks = !keys in
          List.iter (drop_key_locked t) ks;
          let n = List.length ks in
          Metrics.incr ~by:n m_invalidations;
          (match Hashtbl.find_opt t.inval_by_rel rel with
          | Some c -> c := !c + n
          | None -> Hashtbl.add t.inval_by_rel rel (ref n));
          Metrics.incr ~by:n (m_rel_invalidations rel);
          Metrics.set_gauge g_entries (float_of_int (Hashtbl.length t.tbl)))

let invalidations_by_rel t =
  locked t (fun () ->
      Hashtbl.fold (fun rel c acc -> (rel, !c) :: acc) t.inval_by_rel []
      |> List.sort compare)

let length t = locked t (fun () -> Hashtbl.length t.tbl)
