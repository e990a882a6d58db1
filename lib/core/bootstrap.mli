(** Bootstrap resampling: variance and confidence intervals for any
    statistic of a sample, when no closed form is available.

    Nonparametric bootstrap: resample the observations with replacement
    [replicates] times, recompute the statistic, and read the spread of
    the replicate values.  Percentile intervals make no symmetry
    assumption; {!normal_interval} uses the bootstrap standard error
    inside a CLT interval.  For the COUNT estimators this is the
    assumption-free alternative to replicate groups (ablation A10
    compares their CI coverage). *)

type resample = {
  point : float;            (** statistic on the original sample *)
  replicates : float array; (** statistic on each bootstrap resample *)
}

(** [run rng ~replicates ~statistic sample] — [statistic] maps an array
    of observations to a number; it is called once on the original
    sample and once per resample.  The resample buffer is reused, so
    [statistic] must not retain its argument.

    [domains] (default 1): resampling runs on that many OCaml domains;
    every replicate draws from its own serially-split [Rng] stream, so
    the replicate values are bit-identical for any domain count.
    @raise Invalid_argument if the sample is empty or
    [replicates <= 0]. *)
val run :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  replicates:int ->
  statistic:('a array -> float) ->
  'a array ->
  resample

(** Bootstrap estimate of the statistic's variance (sample variance of
    the replicates). *)
val variance : resample -> float

(** Percentile interval: the (α/2, 1−α/2) quantiles of the
    replicates.
    @raise Invalid_argument if [level] outside (0, 1). *)
val percentile_interval : level:float -> resample -> Stats.Confidence.interval

(** Normal interval around the original point with the bootstrap
    standard error. *)
val normal_interval : level:float -> resample -> Stats.Confidence.interval

(** Bootstrap the selection COUNT estimator: SRSWOR sample of size [n]
    from relation [relation], statistic [N·(hits/n)], resampled
    [replicates] (default 200) times.  Returns the estimate (with
    bootstrap variance attached) and the percentile interval. *)
val selection_count :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  n:int ->
  ?replicates:int ->
  ?level:float ->
  Relational.Predicate.t ->
  Stats.Estimate.t * Stats.Confidence.interval
