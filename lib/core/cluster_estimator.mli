(** Cluster (page-level) sampling estimator.

    Relations live on fixed-capacity pages ({!Relational.Paged});
    fetching a page costs one access but yields all its tuples.  Draw
    [m] of the [M] pages by SRSWOR, count the qualifying tuples [y_i]
    on each, and scale:

    {v
    Ĉ      = (M/m)·Σ y_i           (unbiased)
    V̂ar(Ĉ) = M²·(1 − m/M)·s²/m     with s² = Σ(y_i − ȳ)²/(m−1)
    v}

    Cheap per tuple but sensitive to layout: if qualifying tuples are
    clustered on few pages the between-page variance [s²] is large
    (experiment F3). *)

type result = {
  estimate : Stats.Estimate.t;
  pages_sampled : int;
      (** pages the design drew ([m]).  Real page I/O — which can be
          lower on a warm cache, or zero for in-memory sources — is on
          the [metrics] sink ([pages_read]/[page_cache_hits]). *)
  tuples_read : int;
}

(** [count rng ~m paged predicate] estimates
    [COUNT (σ predicate relation)].
    @raise Invalid_argument if [m] is out of range ([m >= 1] required;
    [m >= 2] for a variance estimate). *)
val count :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  m:int ->
  Relational.Paged.t ->
  Relational.Predicate.t ->
  result

(** Generalized form: [estimate rng ~m paged ~measure] scales the total
    of an arbitrary per-page statistic (e.g. a per-page aggregate). *)
val estimate :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  m:int ->
  Relational.Paged.t ->
  measure:(Relational.Tuple.t array -> float) ->
  result
