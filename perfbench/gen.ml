(* Seeded inputs shared by the wire run and the in-process replay: the
   database, the pre-built store's WAL, and each workload's request
   stream.  Everything here is a pure function of the seed, so the traced
   replay sees exactly the requests the measured run sent. *)

module Bagdb = Baglang.Bagdb
module Store = Balgserver.Store

type workload = Read_hot | Read_cold | Write_repl

let workloads = [ Read_hot; Read_cold; Write_repl ]

let workload_name = function
  | Read_hot -> "read_hot"
  | Read_cold -> "read_cold"
  | Write_repl -> "write_repl"

let workload_of_name s =
  List.find_opt (fun w -> String.equal (workload_name w) s) workloads

(* Sizes.  Sixteen 300-row graphs over 40 nodes give 2-hop joins of
   about 2,250 rows (replies near 16 KB) and 3-hop chains of about
   17,000 rows; four 4,000-row lookup relations are large enough that
   importing one into columns dominates a point read; eight 500-row
   churn relations take every write (a def of that size is about a
   millisecond of server work, so its latency is not lost in
   scheduling noise). *)
let n_graphs = 16
let graph_rows = 300
let graph_nodes = 40
let n_lookups = 4
let lookup_rows = 4000

(* Point-read keys come from 8,192 values per relation, 16x the server's
   512-entry result cache, so a point read almost never hits it. *)
let key_domain = 8192
let n_churn = 8
let churn_rows = 500
let churn_domain = 1000

(* The pre-built primary store replays a WAL of about 0.9 MiB on start,
   just under the default 1 MiB compaction threshold. *)
let prebuilt_wal_bytes = 900_000
let hot_set_size = 64

(* Reads per def in one closed-loop cycle. *)
let reads_per_cycle = function Read_hot -> 16 | Read_cold -> 4 | Write_repl -> 4

(* On read_cold every 32nd read is a transitive closure: under 10% of
   reads, so read_p90_ms stays inside the join population. *)
let fix_every = 32

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rng seed tag = Random.State.make [| 0x6ba1; seed; tag |]
let node i = Printf.sprintf "'n%d" i

let pairs_text rows =
  String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "<%s, %s>" a b) rows)

let decl name rows =
  Printf.sprintf "bag %s : {{<U, U>}} = {{ %s }}" name (pairs_text rows)

(* Every node is the source of 7 or 8 distinct edges with random
   targets, so every graph has exactly 300 distinct edges and a join on
   [x.2 == x.3] grows by the same factor whatever the seed: the planner
   sees the same sizes, and join and closure costs barely depend on the
   seed. *)
let graph_decl st i =
  let extra = shuffle st (Array.init graph_nodes (fun a -> a < graph_rows mod graph_nodes)) in
  let edges =
    List.concat
      (List.init graph_nodes (fun a ->
           let targets = shuffle st (Array.init graph_nodes Fun.id) in
           let d = (graph_rows / graph_nodes) + if extra.(a) then 1 else 0 in
           List.init d (fun k -> (node a, node targets.(k)))))
  in
  decl (Printf.sprintf "G%d" i) edges

let lookup_decl st i =
  decl (Printf.sprintf "L%d" i)
    (List.init lookup_rows (fun _ ->
         ( Printf.sprintf "'k%d" (Random.State.int st key_domain),
           Printf.sprintf "'v%d" (Random.State.int st 1000) )))

(* One def line body: a fresh 500-row value for a random churn relation. *)
let churn_decl st =
  let r = Random.State.int st n_churn in
  let name = Printf.sprintf "W%d" r in
  ( name,
    decl name
      (List.init churn_rows (fun _ ->
           ( Printf.sprintf "'w%d" (Random.State.int st churn_domain),
             Printf.sprintf "'w%d" (Random.State.int st churn_domain) ))) )

let parse_one text =
  match Bagdb.parse text with
  | [ d ] -> d
  | _ -> invalid_arg "Gen.parse_one: expected one declaration"

let initial_db seed =
  let st = rng seed 1 in
  let graphs = List.init n_graphs (graph_decl st) in
  let lookups = List.init n_lookups (lookup_decl st) in
  let churn =
    List.init n_churn (fun i ->
        decl (Printf.sprintf "W%d" i)
          (List.init churn_rows (fun _ ->
               ( Printf.sprintf "'w%d" (Random.State.int st churn_domain),
                 Printf.sprintf "'w%d" (Random.State.int st churn_domain) ))))
  in
  Bagdb.parse (String.concat "\n" (graphs @ lookups @ churn))

(* Build the primary's store directory: the initial database as the
   snapshot plus a WAL of churn defs just under the compaction
   threshold, so every start replays a realistic log. *)
let build_store ~seed ~dir =
  let store = Store.open_store ~seed:(initial_db seed) ~dir:(Some dir) () in
  let st = rng seed 2 in
  while Store.wal_size store < prebuilt_wal_bytes do
    let _, text = churn_decl st in
    let n, ty, v = parse_one text in
    match Store.apply store (Store.Def (n, ty, v)) with
    | Ok () -> ()
    | Error e -> failwith ("building the benchmark store: " ^ e)
  done;
  Store.close store

(* --- request streams ------------------------------------------------------- *)

type req = Eval of string | Def of string * string  (** relation, decl *)

let hot_query (i, j) =
  Printf.sprintf "pi[1,4](select(x -> x.2 == x.3, G%d * G%d))" i j

let chain_query (i, j, k, p) =
  Printf.sprintf
    "dedup(pi[%d](select(x -> x.4 == x.5, select(x -> x.2 == x.3, G%d * G%d) \
     * G%d)))"
    p i j k

let closure_query (i, c) =
  Printf.sprintf
    "select(x -> x.1 == %s, fix(X -> dedup(pi[1,4](select(p -> p.2 == p.3, X \
     * G%d)) \\/ X), dedup(G%d)))"
    (node c) i i

let lookup_query m k =
  Printf.sprintf "pi[2](select(x -> x.1 == 'k%d, L%d))" k m

(* The 64 queries of read_hot's working set: distinct graph pairs. *)
let hot_set seed =
  let st = rng seed 3 in
  let all = Array.init (n_graphs * n_graphs) (fun x -> (x / n_graphs, x mod n_graphs)) in
  Array.map hot_query (Array.sub (shuffle st all) 0 hot_set_size)

(* read_cold walks its query spaces without replacement (16,384 chains
   in a seeded order, 640 closures), so no query repeats within a run and
   the cache is bypassed. *)
let chain_space seed =
  let st = rng seed 4 in
  let projs = [| 1; 3; 5; 6 |] in
  let n = n_graphs in
  shuffle st
    (Array.init (n * n * n * 4) (fun x ->
         chain_query (x mod n, x / n mod n, x / (n * n) mod n, projs.(x / (n * n * n)))))

(* Closures cycle through the graphs, each time from a fresh start node,
   so every run spreads its closures evenly over all sixteen graphs. *)
let closure_space seed =
  let st = rng seed 5 in
  let starts = Array.init n_graphs (fun _ -> shuffle st (Array.init graph_nodes Fun.id)) in
  Array.init (n_graphs * graph_nodes) (fun x ->
      let i = x mod n_graphs in
      closure_query (i, starts.(i).(x / n_graphs)))

(* Warm-up requests run during set-up; they share no query with the
   measured stream except on read_hot, whose warm-up fills the cache. *)
let warmup seed = function
  | Read_hot -> Array.to_list (hot_set seed)
  | Read_cold ->
      let cs = chain_space seed in
      List.init 8 (fun i -> cs.(Array.length cs - 1 - i))
  | Write_repl ->
      List.init 8 (fun i -> lookup_query (i mod n_lookups) (key_domain + i))

type stream = { next_cycle : unit -> req list }

(* An endless, deterministic request stream: each cycle is one def into a
   churn relation followed by [reads_per_cycle] reads. *)
let stream seed w =
  let st = rng seed 6 in
  let hot = lazy (hot_set seed) in
  let chains = lazy (chain_space seed) in
  let closures = lazy (closure_space seed) in
  let reads = ref 0 and n_chain = ref 0 and n_fix = ref 0 in
  let next_read () =
    let r = !reads in
    incr reads;
    match w with
    | Read_hot ->
        let h = Lazy.force hot in
        h.(Random.State.int st (Array.length h))
    | Read_cold when r mod fix_every = fix_every - 1 ->
        let c = Lazy.force closures in
        let q = c.(!n_fix mod Array.length c) in
        incr n_fix;
        q
    | Read_cold ->
        let c = Lazy.force chains in
        let q = c.(!n_chain mod Array.length c) in
        incr n_chain;
        q
    | Write_repl ->
        lookup_query (r mod n_lookups) (Random.State.int st key_domain)
  in
  let next_cycle () =
    let rel, text = churn_decl st in
    Def (rel, text) :: List.init (reads_per_cycle w) (fun _ -> Eval (next_read ()))
  in
  { next_cycle }

let is_closure q = String.length q > 6 && String.equal (String.sub q 0 6) "select"
