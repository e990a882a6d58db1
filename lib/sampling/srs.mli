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
    indices uniformly from [0, universe), returned in increasing order:
    every size-[n] subset has probability 1/C(universe, n).  Two
    branches draw them.  While [universe <= 128n], Floyd's algorithm
    over a bitset of the universe makes exactly [n] bounded draws and
    reads the indices back sorted.  Sparser draws use Vitter's
    sequential sampling (Algorithm D, TOMS 1987), which emits the
    indices already sorted in O(n) expected time and O(n) space.
    [metrics] (default disabled) records the indices generated and the
    PRNG draws consumed.

    The indices come from {!Relational.Scratch.take} and belong to the
    caller, who may hand them back with {!Relational.Scratch.free} once
    nothing reads them; Floyd's bitset goes back to the pool as soon as
    the indices are read from it.
    @raise Invalid_argument if [n < 0] or [n > universe]. *)
val indices_without_replacement :
  ?metrics:Obs.Metrics.t -> Rng.t -> n:int -> universe:int -> int array

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

(** {!relation_without_replacement}, and the row ids it drew: [None]
    for a census, which draws nothing and returns the relation itself,
    whose rows may belong to someone else (a sample in the caller's
    catalog).  The drawn ids are {!indices_without_replacement}'s, which
    the sample reads; the caller may hand them to
    {!Relational.Scratch.free} once it drops the sample. *)
val relation_ids_without_replacement :
  ?metrics:Obs.Metrics.t ->
  Rng.t ->
  n:int ->
  Relational.Relation.t ->
  Relational.Relation.t * int array option

(** SRSWOR of a relation at a sampling fraction (see
    {!size_of_fraction}). *)
val relation_fraction :
  ?metrics:Obs.Metrics.t -> Rng.t -> fraction:float -> Relational.Relation.t -> Relational.Relation.t

(** SRSWR of a relation at an explicit size:
    {!Relational.Relation.sample} of the drawn indices, in draw order. *)
val relation_with_replacement :
  ?metrics:Obs.Metrics.t -> Rng.t -> n:int -> Relational.Relation.t -> Relational.Relation.t
