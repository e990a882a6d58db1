(** Maintained ("backing") sample: a uniform sample of a relation kept
    up to date under inserts and deletes, so estimates never touch the
    base data at query time (Gibbons–Matias style).

    Inserts feed a reservoir (every inserted tuple gets an id, the
    reservoir keeps a uniform subset of the {e live} ids).  Deleting an
    id removes it from the sample if present — the survivors remain a
    uniform sample of the surviving population, at a reduced sample
    size.  Holes left by deletions are {e not} refilled eagerly (that
    would admit newcomers with probability 1 and bias the sample toward
    post-deletion arrivals): later inserts keep the reservoir's
    admission rate, taking over a hole only when their uniformly drawn
    slot lands on one, so the sample stays unbiased at the cost of
    erosion.  When deletions have eroded it below a threshold the owner
    should rebuild from a scan ({!needs_rescan}), exactly as
    Gibbons–Matias prescribe.

    The sample is a plain array of tuple slots kept packed: the
    occupied slots are the first {!sample_size}, and a delete moves the
    last occupied slot into the hole.  The array doubles as the sample
    fills, up to the capacity, so its memory follows the tuples held
    and a capacity far beyond the data (even [max_int]) costs nothing
    up front.  {!estimate_count} runs the compiled predicate over those
    slots where they lie, with no copy of the sample. *)

type t

type id = int

(** [create ?metrics rng ~capacity] — target sample size.  When
    [metrics] is supplied, maintenance is accounted under the real-work
    rules: one [maintenance_ops] tick per insert/delete, [rng_draws]
    for admission coins, [tuples_scanned] for estimate and rescan
    passes.
    @raise Invalid_argument if [capacity <= 0]. *)
val create :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  capacity:int ->
  schema:Relational.Schema.t ->
  t

(** Insert a tuple; returns its id (unique over the lifetime of [t]). *)
val insert : t -> Relational.Tuple.t -> id

(** Delete by id.  Idempotent: deleting an unknown or already-deleted
    id is a no-op returning [false]. *)
val delete : t -> id -> bool

(** Live population size. *)
val population : t -> int

(** Target sample size, as given to {!create}. *)
val capacity : t -> int

(** Current sample as a relation: a copy of the occupied slots, for
    callers that want a relation (the maintenance oracle).  Estimation
    does not go through it. *)
val sample : t -> Relational.Relation.t

val sample_size : t -> int

(** [sample_size/capacity], the erosion gauge. *)
val fill_ratio : t -> float

(** True when the sample has eroded below [min_ratio] (default 0.5) of
    capacity while the population could still support it. *)
val needs_rescan : ?min_ratio:float -> t -> bool

(** [rescan t live] rebuilds the sample as a fresh reservoir pass over
    the live population — [(id, tuple)] pairs in insertion order, ids
    previously issued by {!insert}.  Resets deletion erosion;
    subsequent inserts resume reservoir admission at the correct rate.  This is the one maintenance operation that costs
    O(population): callers gate it on {!needs_rescan}.
    @raise Invalid_argument if a pair carries an id this sample never
    issued. *)
val rescan : t -> (id * Relational.Tuple.t) array -> unit

(** Unbiased COUNT-of-selection estimate from the current sample
    (see {!Count_estimator.selection_of_counts}): one pass of the
    compiled predicate over the occupied slots, in place, adding
    {!sample_size} to [tuples_scanned].  It equals the selection
    estimate from a count of {!sample}, bit for bit.  An empty {e
    population} (nothing inserted, or everything deleted) returns the
    exact-0 degenerate estimate — same contract as estimating over an
    empty CSV.
    @raise Failure when deletions have exhausted the sample while
    unsampled tuples are still live ({!rescan} is required first);
    the message routes through the standard error contract. *)
val estimate_count : t -> Relational.Predicate.t -> Stats.Estimate.t
