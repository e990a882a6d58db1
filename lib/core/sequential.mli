(** Sequential (adaptive) sampling: keep drawing until the estimate is
    precise enough.

    Two designs from the paper's framework:

    - {!selection}: grow an SRSWOR of a single relation batch by batch
      (a random permutation prefix is an SRSWOR of any size) until the
      normal-approximation CI half-width divided by the point estimate
      falls below [target], or the whole relation has been read.

    - {!two_phase}: for arbitrary expressions — a pilot draw at a small
      fraction estimates the variance (by replicate groups), then the
      [1/√n] law sizes the final draw for the requested precision. *)

type trajectory_point = {
  n : int;              (** tuples examined so far *)
  point : float;        (** running estimate *)
  half_width : float;   (** CI half-width at [level] *)
}

type result = {
  estimate : Stats.Estimate.t;
  reached_target : bool;  (** false when the population was exhausted first *)
  trajectory : trajectory_point list;  (** one entry per batch, in order *)
}

(** [selection rng catalog ~relation ~target ?level ?batch predicate]:
    [target] is the requested relative half-width (e.g. 0.1 for ±10%),
    [level] the confidence level (default 0.95), [batch] the batch size
    (default 100; at least 2 batches are always taken).
    @raise Invalid_argument on a non-positive target, batch or level
    outside (0, 1). *)
val selection :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  target:float ->
  ?level:float ->
  ?batch:int ->
  Relational.Predicate.t ->
  result

(** [two_phase rng catalog ~target ?level ?pilot_fraction ?groups e]:
    pilot at [pilot_fraction] (default 0.01) with [groups] replicates
    (default 5), then one final replicated estimate sized by the pilot
    variance.  The trajectory holds the pilot and final points.
    [domains] parallelizes both phases' replicates (see
    {!Count_estimator.estimate}; bit-identical for any domain count). *)
val two_phase :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  target:float ->
  ?level:float ->
  ?pilot_fraction:float ->
  ?groups:int ->
  Relational.Expr.t ->
  result
