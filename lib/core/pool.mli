(** A work-sharing pool of OCaml 5 domains for the data kernels.

    The pool is used by two vec kernels and nothing else: {!Vec.select_scalar}
    and {!Vec.join} split the row range of their input into contiguous
    chunks and run them here.  Those are the only kernels whose chunked
    path measured faster than the sequential one (DESIGN §8); the tree
    engine's {!Bag} kernels are sequential.  The evaluators' compiled
    closures never run on a worker domain, so fuel charges, memo tables
    and telemetry spans stay on the calling domain.

    A {!t} owns [jobs - 1] persistent worker domains plus the calling
    domain: {!run} enqueues a batch of thunks on a shared queue and the
    caller {e helps} drain it, so a task that submits a nested batch never
    deadlocks — a blocked owner is always either executing queued work or
    waiting on tasks that some other domain is executing.

    {!chunk_min}, the minimum number of support elements (or product rows)
    worth chunking, lives here so every kernel agrees on when parallelism
    pays.  Tests set it to 1 to force the chunked paths onto tiny
    inputs. *)

type t

val create : ?chunk_min:int -> jobs:int -> unit -> t
(** Spawn [jobs - 1] worker domains ([jobs <= 1] spawns none and {!run}
    degenerates to sequential iteration).  Default: [chunk_min = 512].  A
    failed spawn — the [pool.spawn] {!Fault} site, or a real resource
    failure — degrades the pool to fewer workers rather than raising: the
    helping caller keeps every batch completing. *)

val jobs : t -> int
val chunk_min : t -> int

val live : t -> int
(** Worker domains spawned and not yet joined; [0] after {!shutdown}
    (the no-leaked-domains postcondition the chaos tests assert). *)

val run : t -> (unit -> 'a) list -> ('a, exn) result list
(** Execute the thunks, possibly in parallel, returning per-thunk results
    in input order.  Exceptions are captured per thunk, never re-raised
    here — the caller decides how to combine failures (the kernels
    re-raise the first).  Safe to call from
    inside a running task (the nested call shares the queue).  The
    [pool.task] {!Fault} site fires here: an injected worker death
    surfaces as that thunk's [Error], never as a lost task or a hung
    batch. *)

val shutdown : t -> unit
(** Join the worker domains.  The pool must not be used afterwards. *)

val with_pool : ?chunk_min:int -> jobs:int -> (t option -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f (Some pool)] with a fresh pool and shuts it
    down afterwards (also on exceptions); [jobs <= 1] runs [f None]. *)

val chunks : int -> 'a list -> 'a list list
(** [chunks k l]: split [l] into at most [k] contiguous chunks of
    near-equal length, in order.  [chunks k [] = []]. *)
