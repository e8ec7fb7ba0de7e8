(** The shared cross-query result cache.

    Keys combine a {e plan fingerprint} (the query text, engine and
    optimizer mode) with the {!Balg.Value.hash}/size tags of every
    relation the query references, so a write to a relation changes the
    keys of every query that reads it — stale entries can never serve a
    fresh snapshot.  On top of the hash keying, {!invalidate} drops every
    entry touching a relation the moment a write to it is published,
    keeping the table from accumulating dead generations.  Because hash
    tags are not proofs, a lookup re-verifies the stored relation values
    against the caller's snapshot with {!Balg.Value.equal} (O(1) refute on
    tag mismatch) before reporting a hit.

    The cache is generic over what an entry holds: ['a t] stores an ['a]
    payload next to the result type.  [balgd] keeps a [string t] whose
    payload is the final reply line, so a hit is answered without
    rendering; in-process callers can keep the {!Balg.Value.t} itself.

    All operations are mutex-serialized: sessions on any thread and
    workers on any domain share one cache.  Hits, misses, invalidations
    and evictions feed the {!Balg.Metrics} registry. *)

open Balg
module Bagdb = Baglang.Bagdb

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 512) bounds the entry count; insertion beyond it
    evicts the oldest entry (FIFO). *)

val key :
  engine:Veval.engine ->
  mode:Opt.mode ->
  db:Bagdb.t ->
  Expr.t ->
  string * (string * Value.t) list
(** The cache key for a query over a store snapshot, plus the referenced
    relations (free variables of the query bound by the snapshot) the
    entry must be verified against. *)

val find :
  'a t -> key:string -> rels:(string * Value.t) list -> ('a * Ty.t) option
(** The stored payload and result type, returned as stored (not copied). *)

val add :
  'a t -> key:string -> rels:(string * Value.t) list -> 'a -> Ty.t -> unit
(** No-op when [key] is already present. *)

val invalidate : 'a t -> string -> unit
(** Drop every entry whose query references the given relation.  Counts
    are kept per relation (readable via {!invalidations_by_rel}) and
    mirrored into the metrics registry as
    [balg_server_cache_rel_invalidations_total_<relation>]. *)

val invalidations_by_rel : 'a t -> (string * int) list
(** Entries dropped by {!invalidate} per relation since creation, sorted
    by relation name. *)

val length : 'a t -> int
