(** A mutable streaming relation: the live population under
    inserts/deletes, with its statistical summaries — a backing
    reservoir sample ({!Backing_sample}), an optional maintained
    Bernoulli sample and an optional sliding-window sample — kept valid
    on {e every} write, so estimates answered from the maintained
    sample are always fresh (staleness 0 epochs) without rescanning the
    base data.

    {2 The live store}

    The population itself is kept exactly, as an id-ordered log:
    parallel arrays of ids and tuples, appended in id order (ids are
    issued sequentially), and a liveness bitset
    ({!Relational.Column.Bitset}) with one bit per slot.  A delete
    finds its slot by binary search over the ids and clears its bit.
    Once dead slots outnumber live ones the log compacts: it copies
    the live slots, in order, into fresh arrays sized for them, so it
    holds at most about twice the live population and a delete costs
    O(log n) plus amortised O(1) slot copies.  No row below the log's
    length is ever rewritten: an append writes past it, a delete only
    clears a bit, and compaction leaves the old arrays as they were.
    {!mem} is a binary search and a bit test, O(log n); compaction,
    {!rescan} and a snapshot's first read find the live slots in id
    order in one pass over the bitset's words
    ({!Relational.Column.Bitset.positions}), with no sort.

    {2 Determinism}

    All randomness is drawn at {e write} time from the stream's own
    seeded RNG, in operation order.  Reads ({!estimate_count},
    {!snapshot}, the sample accessors) draw nothing, so any number of
    concurrent readers — or worker domains — observe identical state
    between writes.  The {!epoch} counter advances on every mutation
    batch; it keys caches and staleness checks.

    {2 Accounting}

    The [?metrics] sink given to {!create} receives all maintenance
    work under the real-work rules: [maintenance_ops] and [rng_draws]
    per write, [tuples_scanned] for rescans and materializations (a
    {!snapshot} counts the live tuples it exposes when it is built,
    whether or not anything reads it).
    Callers that attribute per-request deltas snapshot around an
    operation and {!Obs.Metrics.add_snapshot} the difference. *)

type id = Backing_sample.id

type t

(** Batch result: [first_id] is the id of the first inserted tuple
    ([-1] when the batch inserted nothing); ids are sequential, so the
    batch occupies [first_id .. first_id + inserted - 1]. *)
type counts = { first_id : id; inserted : int; deleted : int }

(** [create ?capacity ?bernoulli ?window ?window_chains ?metrics ~seed
    ~schema ()] — [capacity] is the backing reservoir's target size
    (default 1024); [bernoulli] enables a maintained Bernoulli(p)
    sample; [window] a chain sample of the last [window] inserts with
    [window_chains] independent chains.
    @raise Invalid_argument on a non-positive capacity or window, or a
    [bernoulli] outside [0, 1]. *)
val create :
  ?capacity:int ->
  ?bernoulli:float ->
  ?window:int ->
  ?window_chains:int ->
  ?metrics:Obs.Metrics.t ->
  seed:int ->
  schema:Relational.Schema.t ->
  unit ->
  t

val schema : t -> Relational.Schema.t

(** Mutation counter: bumped once per {!insert}, effective {!delete},
    non-empty {!ingest} batch and {!rescan}. *)
val epoch : t -> int

(** Exact live population (the store is authoritative, not sampled). *)
val population : t -> int

val sample_size : t -> int

(** Backing reservoir capacity. *)
val capacity : t -> int

val fill_ratio : t -> float

(** Deletion erosion gauge, threaded to
    {!Backing_sample.needs_rescan}. *)
val needs_rescan : ?min_ratio:float -> t -> bool

(** Is this id live?  A binary search over the log: O(log n), with n
    at most about twice the live population. *)
val mem : t -> id -> bool

(** Insert a tuple into the population and every maintained sample;
    returns its id. *)
val insert : t -> Relational.Tuple.t -> id

(** Delete by id from the population and every maintained sample.
    [false] (and no epoch bump) for ids that are not live. *)
val delete : t -> id -> bool

(** Batched writes: all inserts in array order, then all deletes; one
    epoch bump for the whole batch. *)
val ingest : t -> inserts:Relational.Tuple.t array -> deletes:id array -> counts

(** Rebuild the backing sample from the live population (id order) —
    the O(population) escape hatch for {!needs_rescan}; bumps the
    epoch. *)
val rescan : t -> unit

(** COUNT-of-selection estimate from the maintained backing sample:
    never touches the base store.  Contract as
    {!Backing_sample.estimate_count} (exact 0 on an empty population,
    [Failure] when the sample is exhausted but tuples remain live). *)
val estimate_count : t -> Relational.Predicate.t -> Stats.Estimate.t

(** The maintained backing sample as a relation. *)
val sample : t -> Relational.Relation.t

val bernoulli_p : t -> float option
val bernoulli_size : t -> int option

(** Kept Bernoulli tuples (id order) as a relation, when enabled. *)
val bernoulli_sample : t -> Relational.Relation.t option

val window_size : t -> int option

(** One draw per chain from the last [window] inserts, when enabled. *)
val window_sample : t -> Relational.Tuple.t array option

(** The live population as a relation in id order — memoized per
    epoch, so exact/query paths over an unchanged stream reuse one
    snapshot.  Building one copies the first [n] bits of the liveness
    bitset, for the log's [n] slots (one word per [Sys.int_size]
    slots), and wraps the copy and the log's row array as a
    {!Relational.Relation.masked} relation: no tuple is copied and no
    slot is visited, and its cardinality is the live count.  The mask
    is resolved to the live slots' positions on the snapshot's first
    read (a tuple, a sample or its columnar view), in the same pass
    compaction uses, and a sample drawn from it reads only the rows it
    drew.  So a snapshot that nothing reads costs the mask copy alone:
    the serve daemon rebuilds one per written stream for every query,
    whichever relations the query reads.  The snapshot owns its mask,
    and the log never rewrites a row below its length, so the snapshot
    keeps its tuples through later appends, deletes and compactions,
    however late it is first read.  Its view is not warmed
    ({!Relational.Relation.warm_view}): a query's samples are read as
    relations of their own instead of in place on columns the epoch
    would encode whole.  Each build adds the live count to [tuples_scanned], read or
    not.  This is the path that {e does} scan the base data;
    estimation never calls it. *)
val snapshot : t -> Relational.Relation.t
