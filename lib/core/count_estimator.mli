(** COUNT estimators for relational algebra expressions — the paper's
    core contribution.

    The generic {!estimate} covers any expression via the scale-up
    rule; the specialized entry points ({!selection}, {!equijoin},
    {!intersection}, {!union}, {!difference}) attach analytic variance
    estimates where the theory provides them. *)

(** Statistical status of the scale-up estimator on an expression:
    [Unbiased] when the expression is built from selection, bag
    projection, product and joins only (each base-relation occurrence
    sampled independently — self-joins included); [Consistent] when a
    duplicate-eliminating operator ([Distinct]/[Union]/[Inter]/[Diff])
    appears anywhere. *)
val classify : Relational.Expr.t -> Stats.Estimate.status

(** [scale_up rng catalog plan] draws the plan once, evaluates the
    rewritten expression over the samples, and scales the count. *)
val scale_up :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t -> Relational.Catalog.t -> Sampling_plan.t -> Stats.Estimate.t

(** [estimate rng catalog ~fraction e] — scale-up estimate with an
    SRSWOR of [fraction] at every leaf occurrence.

    [groups] (default 1): with [g > 1], draw [g] independent estimates,
    return their mean with the replicate variance [s²/g] attached —
    the generic variance estimator that works for any expression.

    [domains] (default 1 = serial): evaluate the replicates on that
    many OCaml domains via {!Parallel.replicate_init}.  Each replicate
    gets its own [Rng.split] stream, so the result is bit-identical for
    any domain count; pass [Parallel.auto ()] to use all cores.

    [metrics] (default no-op) records tuples scanned, sample indices,
    RNG draws, probe hits/misses and per-stage timers; replicated runs
    merge per-replicate sinks deterministically, so counter totals are
    identical for any [domains]. *)
val estimate :
  ?groups:int ->
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  fraction:float ->
  Relational.Expr.t ->
  Stats.Estimate.t

(** [estimate_with_goal rng catalog ~goal e] — the goal-based entry:
    state a sampling budget or a target CI width
    ({!Planner.goal}) instead of a hard-coded placement, and let the
    cost-based planner ({!Planner.choose_sampling}) pick where the
    sampling operator goes.  Returns the estimate and, when the
    optimizer ran, the full {!Planner.choice} (candidates, rationale,
    chosen plan) for explain surfaces.

    With [optimize:false] (default [true]) — or when the
    [RAESTAT_NO_OPTIMIZE] kill switch disables the optimizer — the
    historical root-sampling strategy runs instead and the choice is
    [None]; that path is byte-identical to {!estimate} at
    [Planner.fraction_of_goal ~population goal] where [population]
    sums the leaf cardinalities.
    @raise Invalid_argument as {!estimate} and
    {!Planner.fraction_of_goal}. *)
val estimate_with_goal :
  ?groups:int ->
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  ?optimize:bool ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  goal:Planner.goal ->
  Relational.Expr.t ->
  Stats.Estimate.t * Planner.choice option

(** {1 Selection} *)

(** [selection rng catalog ~relation ~n predicate] — unbiased estimate
    of [COUNT (σ predicate relation)] from an SRSWOR of size [n], with
    the exact finite-population (hypergeometric) variance estimate
    [N²·(1 − n/N)·p̂(1−p̂)/(n−1)].
    @raise Invalid_argument if [n] is out of range. *)
val selection :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  n:int ->
  Relational.Predicate.t ->
  Stats.Estimate.t

(** The same estimate computed from an already-drawn sample: [hits]
    matches among [n] sampled tuples out of a population of [big_n].
    Used by the sequential estimator. *)
val selection_of_counts : big_n:int -> n:int -> hits:int -> Stats.Estimate.t

(** {1 Equi-join} *)

(** [equijoin rng catalog ~left ~right ~on ~fraction] — unbiased
    estimate of the equi-join size between two base relations, with
    replicate-group variance ([groups], default 8; groups each use
    [fraction/groups] so the total sampled volume matches a single
    [fraction] draw).  [domains] parallelizes the replicates as in
    {!estimate}, with the same bit-reproducibility guarantee. *)
val equijoin :
  ?groups:int ->
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  left:string ->
  right:string ->
  on:(string * string) list ->
  fraction:float ->
  Stats.Estimate.t

(** [equijoin_indexed rng catalog ~left ~right ~on ~n] — join-size
    estimate using an index on the right join attribute: SRSWOR [n]
    left tuples, read each tuple's {e exact} join degree from the
    index, and expand: [Ĵ = (N₁/n)·Σ degree].  Unbiased, with the
    selection-style exact finite-population variance over per-tuple
    degrees — far tighter than the bilinear two-sided estimator when
    degrees are skewed (ablation A11).  The right relation is scanned
    once to build the index; pass a prebuilt [index] to amortize it.
    @raise Invalid_argument if [n] is out of range or [on] does not
    name exactly one attribute pair. *)
val equijoin_indexed :
  ?index:Relational.Index.t ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  left:string ->
  right:string ->
  on:string * string ->
  n:int ->
  Stats.Estimate.t

(** {1 Set operations}

    The operands must be duplicate-free relations over compatible
    schemas (checked; [Invalid_argument] otherwise).  All three
    estimators are unbiased with analytic plug-in variances derived
    from the SRSWOR pair-inclusion probabilities.  Unbiasedness means
    individual estimates may fall outside [0, N]; clamp at the caller
    if a feasible value is required. *)

val intersection :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  left:string ->
  right:string ->
  fraction:float ->
  Stats.Estimate.t

val union :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  left:string ->
  right:string ->
  fraction:float ->
  Stats.Estimate.t

val difference :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  left:string ->
  right:string ->
  fraction:float ->
  Stats.Estimate.t
