(** Bernoulli (binomial) sampling: each element is kept independently
    with probability [p].  The sample size is random with mean [p·N];
    inclusion events are independent, which makes several variance
    formulas exact (see {!Raestat.Count_estimator}). *)

(** @raise Invalid_argument if [p] is outside [0, 1]. *)
val sample : Rng.t -> p:float -> 'a array -> 'a array

(** {!Relational.Relation.sample} of the kept row ids, in row order;
    the same draws as {!sample} over the relation's tuples. *)
val relation : Rng.t -> p:float -> Relational.Relation.t -> Relational.Relation.t

(** Expected sample size. *)
val expected_size : p:float -> int -> float

(** {1 Maintained sample}

    Because inclusion events are independent, a Bernoulli sample stays
    exact under writes with no resampling: each {!insert} flips its own
    coin, each {!delete} removes the element iff its coin had kept it
    (Gibbons–Matias style maintenance).  After any interleaving of
    inserts and deletes, the kept set is distributed identically to a
    fresh Bernoulli([p]) sample of the live population. *)

type 'a maintained

(** [maintained ?metrics rng ~p ()] — when [metrics] is supplied,
    maintenance accounts [rng_draws] and [maintenance_ops].
    @raise Invalid_argument if [p] is outside [0, 1]. *)
val maintained : ?metrics:Obs.Metrics.t -> Rng.t -> p:float -> unit -> 'a maintained

val prob : 'a maintained -> float

(** Current kept-set size (random, mean [p ·] live population). *)
val size : 'a maintained -> int

(** [insert m ~id x] flips the element's inclusion coin (exactly one
    RNG draw).  [id] must be unique over the live population. *)
val insert : 'a maintained -> id:int -> 'a -> unit

(** [delete m ~id] removes the element from the kept set if its coin
    had admitted it; a no-op for elements that were never kept. *)
val delete : 'a maintained -> id:int -> unit

(** Kept elements as [(id, value)] pairs sorted by id — a
    deterministic order for estimation and serialization. *)
val contents : 'a maintained -> (int * 'a) array
