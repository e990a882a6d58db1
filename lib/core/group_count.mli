(** Per-group COUNT estimation (GROUP BY from one sample).

    One SRSWOR of the relation estimates every group's cardinality at
    once: with [c_g] sample hits in group [g], [Ĉ_g = (N/n)·c_g] is
    unbiased for each group, with the usual hypergeometric variance.
    Groups that do not appear in the sample are {e absent} from the
    result (a sample cannot enumerate unseen groups — use the
    distinct-value estimators to gauge how many groups were missed).

    Simultaneous confidence: per-group intervals at level
    [1 − (1−level)/k] (Bonferroni over the [k] {e reported} groups)
    hold jointly with probability ≥ [level]. *)

type group = {
  key : Relational.Value.t list;  (** group-by attribute values *)
  estimate : Stats.Estimate.t;
  interval : Stats.Confidence.interval;  (** Bonferroni-adjusted *)
}

type result = {
  groups : group list;  (** sorted by key *)
  level : float;        (** joint confidence level *)
  sample_size : int;
}

(** [estimate rng catalog ~relation ~by ~n ?level ?where ()] — groups by
    the [by] attributes, optionally filtering with [where] first.
    [domains] parallelizes the tally over fixed-size sample blocks;
    per-key counts merge in block order, so results are bit-identical
    for any domain count.
    @raise Invalid_argument if [n] is out of range, [by] is empty or
    [level] outside (0, 1). *)
val estimate :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  by:string list ->
  n:int ->
  ?level:float ->
  ?where:Relational.Predicate.t ->
  unit ->
  result

(** Exact per-group counts, for evaluation; same ordering as
    {!estimate}. *)
val exact :
  Relational.Catalog.t ->
  relation:string ->
  by:string list ->
  ?where:Relational.Predicate.t ->
  unit ->
  (Relational.Value.t list * int) list

(** [estimate_sum rng catalog ~relation ~by ~attribute ~n ...] — per-group
    SUM([attribute]) from one SRSWOR: each group's total is an expansion
    estimate [(N/n)·Σ_{sampled∈g} y] (unbiased) with the exact SRSWOR
    variance over per-tuple contributions ([y] for the group's tuples,
    0 elsewhere); intervals are Bonferroni-adjusted as in {!estimate}.
    [Null] values contribute 0.  [domains] as in {!estimate} (blocked
    tally, domain-count independent). *)
val estimate_sum :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  by:string list ->
  attribute:string ->
  n:int ->
  ?level:float ->
  ?where:Relational.Predicate.t ->
  unit ->
  result

(** Exact per-group sums, same conventions as {!exact}. *)
val exact_sum :
  Relational.Catalog.t ->
  relation:string ->
  by:string list ->
  attribute:string ->
  ?where:Relational.Predicate.t ->
  unit ->
  (Relational.Value.t list * float) list
