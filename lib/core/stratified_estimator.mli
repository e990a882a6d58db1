(** Stratified COUNT estimator for selections.

    Partition the relation by a stratum key (e.g. a region attribute or
    any tuple function), draw a proportionally-allocated SRSWOR inside
    each stratum, estimate per-stratum and add:

    {v
    Ĉ      = Σ_h (N_h/n_h)·c_h                         (unbiased)
    V̂ar(Ĉ) = Σ_h N_h²·(1−n_h/N_h)·p̂_h(1−p̂_h)/(n_h−1)
    v}

    When the predicate rate differs across strata this never does worse
    than plain SRS of the same total size, and it can be dramatically
    better (ablation A1). *)

type result = {
  estimate : Stats.Estimate.t;
  strata : (string * int * int) list;
      (** per stratum: key, population N_h, allocated n_h *)
}

(** [count rng catalog ~relation ~key ~n predicate] — total sample size
    [n], proportional allocation.  Strata with an allocation of 0
    contribute their population estimate 0 (and no variance term);
    single-tuple allocations contribute no variance term either, making
    the variance estimate slightly optimistic in degenerate strata.
    @raise Invalid_argument if [n] is out of range. *)
val count :
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  key:(Relational.Tuple.t -> string) ->
  n:int ->
  Relational.Predicate.t ->
  result

(** Stratify by an attribute's value (the common case). *)
val count_by_attribute :
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  attribute:string ->
  n:int ->
  Relational.Predicate.t ->
  result
