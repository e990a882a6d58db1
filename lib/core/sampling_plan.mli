(** Sampling plans: how to sample the base relations of a relational
    algebra expression.

    Every {e occurrence} of a base relation in the expression gets its
    own independent sample — this is what makes the scale-up estimator
    unbiased even for self-joins.  A plan rewrites the expression so
    each occurrence refers to a distinct alias, records the population
    and sample size (or Bernoulli rate) per occurrence, and knows the
    overall scale factor. *)

type mode =
  | Srswor of int      (** simple random sample without replacement, fixed size *)
  | Bernoulli of float (** independent inclusion with this probability *)

type leaf = {
  occurrence : int;    (** 0-based left-to-right occurrence index *)
  relation : string;   (** base relation name in the original catalog *)
  alias : string;      (** name the rewritten expression uses *)
  population : int;
  mode : mode;
}

type t = private {
  expr : Relational.Expr.t;  (** rewritten expression over aliases *)
  leaves : leaf list;
  scale : float;             (** product over leaves of N/n (or 1/p) *)
}

(** [make catalog ~fraction expr] plans an SRSWOR of the given fraction
    at every leaf (see {!Sampling.Srs.size_of_fraction}).  An empty leaf
    is planned as [Srswor 0] — a census of nothing with scale 1 — so
    expressions over empty relations estimate to an exact 0 rather than
    raising.
    @raise Invalid_argument if [fraction] is outside (0, 1].
    @raise Failure if a leaf is unbound in the catalog. *)
val make : Relational.Catalog.t -> fraction:float -> Relational.Expr.t -> t

(** Like {!make} with a per-occurrence choice of mode.  The callback
    receives the occurrence index, relation name and population. *)
val make_custom :
  Relational.Catalog.t ->
  mode:(int -> string -> int -> mode) ->
  Relational.Expr.t ->
  t

(** [draw rng catalog plan] draws the planned samples and returns a
    fresh catalog binding every alias, the total number of sampled
    tuples, and the row-id arrays of the SRSWOR draws
    ({!Sampling.Srs.relation_ids_without_replacement}), which the
    samples read.  A census leaf draws none: it binds the catalog's own
    relation.  The arrays belong to the caller, who may hand them to
    {!Relational.Scratch.free} once nothing reads the samples. *)
val draw :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  Relational.Catalog.t * int * int array list

(** Expected total sampled tuples of the plan. *)
val expected_sample_size : t -> float

(** Scale-up factor of one leaf: N/n for SRSWOR, 1/p for Bernoulli. *)
val leaf_scale : leaf -> float
