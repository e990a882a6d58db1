(** Simple random sampling (SRS), the paper's base design.

    Without-replacement sampling (SRSWOR) gives every size-[n] subset of
    the universe equal probability; with-replacement (SRSWR) draws [n]
    i.i.d. uniform picks. *)

(** [size_of_fraction ~fraction n] is the sample size for a sampling
    fraction in (0, 1]: [round (fraction *. n)] clamped to [1, n]
    (at least one tuple is always drawn from a non-empty universe).
    @raise Invalid_argument if [fraction] is outside (0, 1] or [n < 0]. *)
val size_of_fraction : fraction:float -> int -> int

(** [indices_without_replacement rng ~n ~universe] draws [n] distinct
    indices uniformly from [0, universe), returned in increasing order.
    Dense draws ([universe <= 16n]) use a partial Fisher–Yates shuffle;
    sparse draws use Vitter's sequential sampling (Algorithm D, TOMS
    1987), which emits the indices already sorted in O(n) expected time
    with no hashing and O(n) space.  [metrics] (default disabled)
    records the indices generated and the PRNG draws consumed.

    [~sorted:false] skips the final sort of the dense path (sparse
    draws are sorted for free): the index {e set}, the PRNG stream and
    the metrics are identical, only the order is unspecified.
    Order-insensitive consumers (columnar counting kernels) use it to
    shed the dominant cost of large dense draws.
    @raise Invalid_argument if [n < 0] or [n > universe]. *)
val indices_without_replacement :
  ?metrics:Obs.Metrics.t -> ?sorted:bool -> Rng.t -> n:int -> universe:int -> int array

(** [indices_with_replacement rng ~n ~universe] draws [n] i.i.d. uniform
    indices (duplicates possible), in draw order.
    @raise Invalid_argument if [n < 0] or [universe <= 0] when [n > 0]. *)
val indices_with_replacement :
  ?metrics:Obs.Metrics.t -> Rng.t -> n:int -> universe:int -> int array

(** The gather variant: the elements at {!indices_without_replacement},
    additionally recording them as tuples scanned. *)
val sample_without_replacement :
  ?metrics:Obs.Metrics.t -> Rng.t -> n:int -> 'a array -> 'a array

(** SRSWOR of a relation at an explicit size: {!Relational.Relation.sample}
    of the drawn indices, in increasing order.  A census ([n] = the
    cardinality) draws nothing and returns the relation itself. *)
val relation_without_replacement :
  ?metrics:Obs.Metrics.t -> Rng.t -> n:int -> Relational.Relation.t -> Relational.Relation.t

(** SRSWOR of a relation at a sampling fraction (see
    {!size_of_fraction}). *)
val relation_fraction :
  ?metrics:Obs.Metrics.t -> Rng.t -> fraction:float -> Relational.Relation.t -> Relational.Relation.t

(** SRSWR of a relation at an explicit size:
    {!Relational.Relation.sample} of the drawn indices, in draw order. *)
val relation_with_replacement :
  ?metrics:Obs.Metrics.t -> Rng.t -> n:int -> Relational.Relation.t -> Relational.Relation.t
