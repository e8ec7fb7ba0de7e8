(* The traced run: replay a workload's seeded request stream in-process,
   calling each module's public functions in the order [Server] calls
   them, and time every layer boundary from here.  Reads go parse ->
   typecheck -> cache probe -> Exec (plan, import, kernels) -> render;
   writes go validate -> WAL append/publish -> cache invalidation, then
   ship the new records to a follower store. *)

open Balg
open Util
module Bagdb = Baglang.Bagdb
module Parser = Baglang.Parser
module Store = Balgserver.Store
module Cache = Balgserver.Cache
module Exec = Balgserver.Exec
module Frame = Balgserver.Frame

(* Cycles replayed per workload: enough for a few hundred reads and, on
   write_repl, several compactions, while keeping the replay to seconds. *)
let cycles = function Gen.Read_hot -> 48 | Gen.Read_cold -> 64 | Gen.Write_repl -> 640

(* Per-request samples by layer, in microseconds (or bytes), and minor
   words allocated by layer. *)
type acc = {
  samples : (string, float list) Hashtbl.t;
  words : (string, float) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable rules : int;
  mutable planned : int;
  mutable import_rows : int;
  mutable fallback_nodes : int;
  mutable compactions : int;
  mutable compact_ms : float;
  mutable wal_bytes : int;
  mutable user_bytes : int;
}

let add acc k v =
  Hashtbl.replace acc.samples k (v :: Option.value ~default:[] (Hashtbl.find_opt acc.samples k))

let addw acc k w =
  Hashtbl.replace acc.words k (w +. Option.value ~default:0. (Hashtbl.find_opt acc.words k))

(* Result, elapsed microseconds, minor words allocated on this domain. *)
let timed f =
  let w0 = Gc.minor_words () and t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, (t1 -. t0) *. 1e6, Gc.minor_words () -. w0)

(* Plan nodes whose vec kernel was demoted to the tree data path at run
   time.  Nodes planned on the tree path ([fix], scalar lambda bodies)
   are labelled "tree" and not counted. *)
let rec fallbacks (p : Veval.plan) =
  List.fold_left
    (fun n c -> n + fallbacks c)
    (if String.equal p.Veval.p_engine "tree (fallback)" then 1 else 0)
    p.Veval.p_children

let limits = { Budget.default with Budget.fuel = 4_000_000 }

type result = {
  metrics : (string * float * string) list;
  read_layer_sum_us : float;  (** sum of the read layers' medians *)
}

let run ~seed ~w ~prebuilt ~work =
  let pdir = Filename.concat work "replay-primary"
  and fdir = Filename.concat work "replay-follower" in
  copy_dir prebuilt pdir;
  rm_rf fdir;
  mkdir_p fdir;
  let store, recover_us, _ = timed (fun () -> Store.open_store ~dir:(Some pdir) ()) in
  let fstore = Store.open_store ~dir:(Some fdir) () in
  (let db, seq = Store.state store in
   match Store.install_snapshot fstore db ~seq with
   | Ok () -> ()
   | Error e -> failwith ("replay follower bootstrap: " ^ e));
  let cache = Cache.create ~capacity:512 () in
  let exec = Exec.create ~ceiling:32_000_000 ~max_queue:64 ~workers:1 () in
  let acc =
    {
      samples = Hashtbl.create 32;
      words = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      rules = 0;
      planned = 0;
      import_rows = 0;
      fallback_nodes = 0;
      compactions = 0;
      compact_ms = 0.;
      wal_bytes = 0;
      user_bytes = 0;
    }
  in
  let n_reads = ref 0 and n_defs = ref 0 in
  let eval_one ~record q =
    let e, t_parse, w_parse = timed (fun () -> Parser.expr_of_string q) in
    let db = Store.snapshot store in
    let tenv = Bagdb.type_env db in
    let ty, t_tc, _ = timed (fun () -> Typecheck.infer tenv e) in
    let (key, rels), t_key, _ =
      timed (fun () -> Cache.key ~engine:Veval.Vec ~mode:Opt.Cost ~db e)
    in
    let found, t_find, _ = timed (fun () -> Cache.find cache ~key ~rels) in
    let v, miss =
      match found with
      | Some (v, _) -> (v, None)
      | None -> (
          let budget = Budget.create limits in
          let layer = ref None in
          let run () =
            (* on the worker domain: Gc.minor_words counts this domain *)
            let vals = List.map (fun (n, _, v) -> (n, v)) db in
            let (plan, rep), t_plan, w_plan =
              timed (fun () -> Opt.optimize ~vals ~engine:Veval.Vec Opt.Cost tenv e)
            in
            let bags =
              List.filter_map
                (fun n ->
                  match List.assoc_opt n vals with
                  | Some v when Value.is_bag v -> Some v
                  | _ -> None)
                (Expr.Vars.elements (Expr.free_vars plan))
            in
            let rows, t_imp, w_imp =
              timed (fun () ->
                  List.fold_left
                    (fun n v ->
                      match Vec.of_value v with
                      | x -> n + Vec.rows x
                      | exception Vec.Unsupported _ -> n)
                    0 bags)
            in
            let fb = ref 0 in
            let res, t_run, w_run =
              timed (fun () ->
                  Veval.run ~budget ~report:(fun p -> fb := fallbacks p) (Bagdb.value_env db) plan)
            in
            layer :=
              Some (t_plan, w_plan, List.length rep.Opt.r_decisions, rows, t_imp, w_imp, !fb, t_run, w_run);
            match res with Ok v -> `Ok (v, ty) | Error x -> `Verdict x
          in
          match Exec.submit exec ~weight:limits.Budget.fuel ~budget ~run with
          | Ok (`Ok (v, ty), st) ->
              Cache.add cache ~key ~rels v ty;
              (v, Some (st.Exec.s_queue_us, Option.get !layer))
          | Ok ((`Verdict _ | `Fail _), _) | Error _ -> failwith ("replay: request failed: " ^ q))
    in
    let str, t_render, w_render = timed (fun () -> Value.to_string v) in
    if record then begin
      incr n_reads;
      add acc "parser.us" t_parse;
      add acc "typecheck.us" t_tc;
      add acc "cache.key_us" t_key;
      add acc "cache.find_us" t_find;
      add acc "value.render_us" t_render;
      add acc "value.render_bytes" (float_of_int (String.length str));
      addw acc "parser" w_parse;
      addw acc "value" w_render;
      match miss with
      | None ->
          acc.hits <- acc.hits + 1;
          List.iter (fun k -> add acc k 0.) [ "exec.wait_us"; "opt.plan_us"; "vec.import_us"; "veval.kernel_us" ]
      | Some (wait, (t_plan, w_plan, rules, rows, t_imp, w_imp, fb, t_run, w_run)) ->
          acc.misses <- acc.misses + 1;
          acc.planned <- acc.planned + 1;
          acc.rules <- acc.rules + rules;
          acc.import_rows <- acc.import_rows + rows;
          acc.fallback_nodes <- acc.fallback_nodes + fb;
          add acc "exec.wait_us" (float_of_int wait);
          add acc "opt.plan_us" t_plan;
          add acc "vec.import_us" t_imp;
          add acc "veval.kernel_us" (Float.max 0. (t_run -. t_imp));
          addw acc "opt" w_plan;
          addw acc "vec" w_imp;
          addw acc "veval" w_run
    end
  in
  let def_one rel d =
    incr n_defs;
    let decl, t_parse, _ = timed (fun () -> Bagdb.parse d) in
    let n, ty, v = match decl with [ x ] -> x | _ -> failwith "replay: bad def" in
    let base = Store.base_seq store in
    let r, t_apply, w_apply = timed (fun () -> Store.apply store (Store.Def (n, ty, v))) in
    (match r with Ok () -> () | Error e -> failwith ("replay: def failed: " ^ e));
    let payload = Printf.sprintf "bag %s : %s = %s" n (Ty.to_string ty) (Value.to_string v) in
    acc.wal_bytes <- acc.wal_bytes + String.length (Frame.encode ~seq:(Store.log_seq store) payload);
    acc.user_bytes <- acc.user_bytes + String.length d;
    if Store.base_seq store <> base then begin
      acc.compactions <- acc.compactions + 1;
      acc.compact_ms <- acc.compact_ms +. (t_apply /. 1e3);
      acc.wal_bytes <- acc.wal_bytes + file_size (Filename.concat pdir "snapshot.bagdb")
    end;
    let (), t_inv, _ = timed (fun () -> Cache.invalidate cache rel) in
    (* ship to the follower store exactly as the ship loop and the
       follower's apply loop would *)
    let shipped, t_read, _ =
      timed (fun () -> Store.read_from ~synced:true store ~after:(Store.log_seq fstore))
    in
    let wire, t_enc, _ =
      timed (fun () ->
          match shipped with
          | `Records rs -> `Frames (List.map (fun (seq, p) -> Frame.encode ~seq p) rs)
          | `Snapshot (db, seq) -> `Snap (Bagdb.render db, seq))
    in
    let (), t_fapply, _ =
      timed (fun () ->
          let check = function Ok () -> () | Error e -> failwith ("replay: follower apply: " ^ e) in
          match wire with
          | `Frames fs ->
              List.iter
                (fun f ->
                  match Frame.decode_line (String.sub f 0 (String.length f - 1)) with
                  | Error e -> failwith ("replay: frame: " ^ e)
                  | Ok { Frame.seq; payload } -> (
                      match Store.op_of_payload payload with
                      | Ok op -> check (Store.apply_replicated fstore ~seq op)
                      | Error e -> failwith ("replay: payload: " ^ e)))
                fs
          | `Snap (text, seq) -> check (Store.install_snapshot fstore (Bagdb.parse text) ~seq))
    in
    add acc "bagdb.parse_us" t_parse;
    add acc "store.apply_us" t_apply;
    add acc "cache.invalidate_us" t_inv;
    add acc "frame.encode_us" t_enc;
    add acc "repl.ship_us" (t_read +. t_enc);
    add acc "repl.apply_us" t_fapply;
    addw acc "store" w_apply
  in
  List.iter (eval_one ~record:false) (Gen.warmup seed w);
  Metrics.reset Metrics.default;
  let s = Gen.stream seed w in
  for _ = 1 to cycles w do
    List.iter
      (function Gen.Eval q -> eval_one ~record:true q | Gen.Def (rel, d) -> def_one rel d)
      (s.Gen.next_cycle ())
  done;
  let prom = Metrics.to_prometheus Metrics.default in
  Exec.shutdown exec;
  Store.close store;
  Store.close fstore;
  rm_rf pdir;
  rm_rf fdir;
  let med k = median (Option.value ~default:[] (Hashtbl.find_opt acc.samples k)) in
  let per n k = Option.value ~default:0. (Hashtbl.find_opt acc.words k) /. 1e3 /. float_of_int (max 1 n) in
  let reads = !n_reads and defs = !n_defs in
  let read_layers =
    [ "parser.us"; "typecheck.us"; "cache.key_us"; "cache.find_us"; "exec.wait_us"; "opt.plan_us";
      "vec.import_us"; "veval.kernel_us"; "value.render_us" ]
  in
  let us k = (k, med k, "us") in
  {
    read_layer_sum_us = List.fold_left (fun s k -> s +. med k) 0. read_layers;
    metrics =
      [
        us "parser.us"; us "typecheck.us"; us "cache.key_us"; us "cache.find_us";
        ("cache.hit_ratio", float_of_int acc.hits /. float_of_int (max 1 (acc.hits + acc.misses)), "ratio");
        ("cache.evictions", prom_value prom "balg_server_cache_evictions_total", "count");
        ("cache.invalidations", prom_value prom "balg_server_cache_invalidations_total", "count");
        us "exec.wait_us"; us "opt.plan_us";
        ("opt.rules_tried", float_of_int acc.rules /. float_of_int (max 1 acc.planned), "count");
        us "vec.import_us";
        ("vec.import_rows", float_of_int acc.import_rows /. float_of_int (max 1 acc.planned), "rows");
        us "veval.kernel_us";
        ("veval.fallback_nodes", float_of_int acc.fallback_nodes, "count");
        us "value.render_us";
        ("value.render_bytes", med "value.render_bytes", "bytes");
        us "bagdb.parse_us"; us "frame.encode_us"; us "store.apply_us"; us "cache.invalidate_us";
        ("store.compactions", float_of_int acc.compactions, "count");
        ("store.compact_ms", acc.compact_ms, "ms");
        ( "store.wal_bytes_per_user_byte",
          float_of_int acc.wal_bytes /. float_of_int (max 1 acc.user_bytes),
          "ratio" );
        us "repl.ship_us"; us "repl.apply_us";
        ("store.recover_ms", recover_us /. 1e3, "ms");
        ("parser.alloc_kw", per reads "parser", "kw");
        ("opt.alloc_kw", per acc.planned "opt", "kw");
        ("vec.alloc_kw", per acc.planned "vec", "kw");
        ("veval.alloc_kw", per acc.planned "veval", "kw");
        ("value.alloc_kw", per reads "value", "kw");
        ("store.alloc_kw", per defs "store", "kw");
      ];
  }

(* The layer counts that must repeat exactly for a seed. *)
let deterministic =
  [ "cache.hit_ratio"; "cache.evictions"; "cache.invalidations"; "opt.rules_tried"; "vec.import_rows";
    "veval.fallback_nodes"; "value.render_bytes"; "store.compactions"; "store.wal_bytes_per_user_byte";
    "parser.alloc_kw"; "opt.alloc_kw"; "vec.alloc_kw"; "veval.alloc_kw"; "value.alloc_kw";
    "store.alloc_kw" ]
