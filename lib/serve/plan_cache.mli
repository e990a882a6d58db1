(** Bounded, thread-safe LRU cache of compiled estimation plans.

    The serve daemon pays Expr → {!Raestat.Estplan} compilation
    (schema inference, optimizer, leaf annotation, scale/status
    propagation) once per {e query shape} and reuses the compiled plan
    across requests.  Keys are normalized strings built by
    {!Engine} from the printed expression plus every compile
    parameter that shapes the plan (fraction, groups, sample size) —
    two textual spellings of the same expression normalize to the same
    key because {!Relational.Parser.print_expr} is canonical.

    Re-running a cached {!Raestat.Estplan.t} is sound: a plan is
    immutable, and the engine derives results from the request's RNG
    stream in run-local state, so any number of worker domains may run
    one cached plan at once.

    {2 Concurrency}

    Safe for concurrent use from any number of threads or domains.
    The cache is split into [shards] independent LRUs (keys hashed to
    a shard), each behind its own mutex; lock hold times are O(1).
    Compilation runs {e outside} the lock with single-flight dedup: a
    miss installs a pending placeholder, concurrent lookups of the
    same key wait for the first compile instead of repeating it, and a
    failed compile wakes the waiters to retry.  Consequently the miss
    count equals the number of plans actually compiled — with distinct
    keys, exactly one miss per shape regardless of arrival order or
    worker count (the serve conformance suite pins this).

    Lookups record [plan_cache_hits] / [plan_cache_misses] /
    [plan_cache_evictions] ticks on the supplied {!Obs.Metrics} sink,
    so per-request metrics and the server-lifetime snapshot both
    expose the cache's effectiveness. *)

type t

(** [create ~capacity ()] — an empty cache evicting least-recently-used
    entries beyond [capacity].  [shards] (default 1: one exact LRU)
    splits the cache into independent locks; each shard holds at most
    [ceil (capacity / shards)] entries, so per-shard skew can evict
    slightly before the nominal capacity is reached.
    @raise Invalid_argument when [capacity <= 0] or [shards <= 0]. *)
val create : capacity:int -> ?shards:int -> unit -> t

(** [find_or_compile ?metrics t key compile] returns the cached plan
    for [key], or runs [compile ()], stores the result and returns it.
    Either way [key] becomes the most recently used entry of its
    shard.  If [compile] raises, nothing is stored and the exception
    propagates (concurrent waiters on the same key retry). *)
val find_or_compile :
  ?metrics:Obs.Metrics.t -> t -> string -> (unit -> Raestat.Estplan.t) -> Raestat.Estplan.t

(** Drop every entry (catalog reload invalidation).  Hit/miss/eviction
    counters keep their lifetime totals; in-flight compiles still
    resolve their waiters but are not re-published into the cleared
    cache. *)
val clear : t -> unit

(** Ready (published) entries currently cached. *)
val size : t -> int

val capacity : t -> int

(** Lifetime lookup counters (also mirrored on the metrics sinks). *)
val hits : t -> int

val misses : t -> int

(** Entries dropped by LRU capacity pressure ([clear] not included). *)
val evictions : t -> int

(** Keys from most to least recently used within each shard, shards
    concatenated in index order (for tests/inspection; exact global
    recency order when [shards = 1]). *)
val keys : t -> string list
