(* Work-sharing domain pool; see pool.mli for the model. *)

(* Injection sites (see fault.mli): [pool.task] makes a task fail as if
   its worker died mid-execution — the result-capturing wrapper turns it
   into a per-thunk [Error], so the batch still completes and the caller
   decides; [pool.spawn] makes [Domain.spawn] fail at pool creation — the
   pool degrades to fewer workers (the helping caller guarantees progress
   even with zero). *)
let task_site = Fault.register "pool.task"
let spawn_site = Fault.register "pool.spawn"

let m_batches = Metrics.counter Metrics.default "balg_pool_batches_total"
    ~help:"Parallel task batches submitted to the domain pool"

let m_task_failures = Metrics.counter Metrics.default
    "balg_pool_task_failures_total"
    ~help:"Pool tasks that completed with an Error (exception captured)"

let m_live = Metrics.gauge Metrics.default "balg_pool_live_domains"
    ~help:"Worker domains alive in the most recently created pool"

type t = {
  jobs : int;
  chunk_min : int;
  queue : (unit -> unit) Queue.t;  (* guarded by [lock] *)
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs
let chunk_min t = t.chunk_min

(* Workers block on [nonempty] until a task arrives or the pool closes.
   Tasks are result-capturing wrappers built by [run]; they never raise. *)
let worker t () =
  let rec next () =
    if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
    else if t.closing then None
    else begin
      Condition.wait t.nonempty t.lock;
      next ()
    end
  in
  let rec loop () =
    Mutex.lock t.lock;
    let task = next () in
    Mutex.unlock t.lock;
    match task with
    | None -> ()
    | Some task ->
        task ();
        loop ()
  in
  loop ()

let create ?(chunk_min = 512) ~jobs () =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      chunk_min;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closing = false;
      workers = [];
    }
  in
  (* A failed spawn — injected, or a real out-of-resources condition —
     degrades the pool instead of killing it: with fewer (even zero)
     workers every batch still completes because the caller helps. *)
  t.workers <-
    List.filter_map
      (fun _ ->
        match
          Fault.inject spawn_site;
          Domain.spawn (worker t)
        with
        | d -> Some d
        | exception _ -> None)
      (List.init (jobs - 1) Fun.id);
  Metrics.set_gauge m_live (float_of_int (List.length t.workers));
  if Obs.on () then Obs.emit Obs.I ~cat:"pool" ~name:"create" ~args:[ ("jobs", Obs.Int jobs); ("workers", Obs.Int (List.length t.workers)) ];
  t

let live t = List.length t.workers

let shutdown t =
  Mutex.lock t.lock;
  t.closing <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let protect f =
  try
    Fault.inject task_site;
    Ok (f ())
  with e ->
    Metrics.incr m_task_failures;
    if Obs.on () then Obs.emit Obs.I ~cat:"pool" ~name:"task-fail" ~args:[ ("exn", Obs.Str (Printexc.to_string e)) ];
    Error e

let run t thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ protect f ]
  | _ when t.jobs <= 1 -> List.map protect thunks
  | _ ->
      Metrics.incr m_batches;
      let thunks = Array.of_list thunks in
      let n = Array.length thunks in
      if Obs.on () then Obs.emit Obs.B ~cat:"pool" ~name:"batch" ~args:[ ("tasks", Obs.Int n) ];
      let results = Array.make n None in
      let remaining = Atomic.make n in
      (* Per-batch completion signal; [remaining] is the ground truth and is
         always rechecked under [fin_lock], so a broadcast between the
         queue-empty check and the wait cannot be missed. *)
      let fin_lock = Mutex.create () in
      let fin = Condition.create () in
      let run_one i =
        results.(i) <- Some (protect thunks.(i));
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock fin_lock;
          Condition.broadcast fin;
          Mutex.unlock fin_lock
        end
      in
      Mutex.lock t.lock;
      for i = 0 to n - 1 do
        Queue.push (fun () -> run_one i) t.queue
      done;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.lock;
      (* The caller helps: drain whatever is queued (our tasks or, from a
         nested region, someone else's — both make global progress), then
         wait for the stragglers running on other domains. *)
      let rec help () =
        if Atomic.get remaining <> 0 then begin
          Mutex.lock t.lock;
          let task =
            if Queue.is_empty t.queue then None else Some (Queue.pop t.queue)
          in
          Mutex.unlock t.lock;
          match task with
          | Some task ->
              task ();
              help ()
          | None ->
              Mutex.lock fin_lock;
              while Atomic.get remaining <> 0 do
                Condition.wait fin fin_lock
              done;
              Mutex.unlock fin_lock
        end
      in
      help ();
      if Obs.on () then Obs.emit Obs.E ~cat:"pool" ~name:"batch" ~args:[];
      Array.to_list
        (Array.map
           (function Some r -> r | None -> assert false (* all completed *))
           results)

let with_pool ?chunk_min ~jobs f =
  if jobs <= 1 then f None
  else begin
    let t = create ?chunk_min ~jobs () in
    match f (Some t) with
    | v ->
        shutdown t;
        v
    | exception e ->
        shutdown t;
        raise e
  end

(* Contiguous near-equal chunks, order preserved: chunk i gets one extra
   element while i < n mod k.  Tail-recursive over the input. *)
let chunks k l =
  let n = List.length l in
  if n = 0 then []
  else begin
    let k = max 1 (min k n) in
    let base = n / k and extra = n mod k in
    let rec take acc m l =
      if m = 0 then (List.rev acc, l)
      else
        match l with
        | [] -> (List.rev acc, [])
        | x :: tl -> take (x :: acc) (m - 1) tl
    in
    let rec go i l acc =
      if i = k then List.rev acc
      else
        let m = base + if i < extra then 1 else 0 in
        let chunk, rest = take [] m l in
        go (i + 1) rest (chunk :: acc)
    in
    go 0 l []
  end
