(** The fuzz harness's oracle battery: properties every COUNT
    estimator run must satisfy, checked differentially against the
    reference evaluator ({!Relational.Eval}) and metamorphically against
    equivalent runs.

    Oracles are evaluated against a {!subject} — the estimator under
    test.  Production code always fuzzes {!reference}
    ({!Raestat.Count_estimator.estimate}); the unit tests inject
    deliberately broken subjects (a biased scale factor, a dropped
    metrics sink) to prove each oracle has teeth. *)

type subject = {
  label : string;
  estimate :
    groups:int ->
    domains:int ->
    metrics:Obs.Metrics.t ->
    Sampling.Rng.t ->
    Relational.Catalog.t ->
    fraction:float ->
    Relational.Expr.t ->
    Stats.Estimate.t;
}

(** The production estimator. *)
val reference : subject

type verdict =
  | Pass
  | Skip of string  (** the oracle does not apply to this case *)
  | Fail of string  (** property violated; the payload explains how *)

type oracle = {
  name : string;
  summary : string;
  run : subject -> replicates:int -> Gen.case -> verdict;
}

(** The fixed battery, in evaluation order:

    - ["census"]: at fraction 1.0 the estimate equals the reference
      evaluator's {!Relational.Eval.count};
    - ["parity"]: [--domains 2] reproduces the serial run bit-for-bit —
      estimate, variance and {!Obs.Metrics} counter totals;
    - ["rewrite"]: {!Relational.Optimizer} rewrites leave the compiled
      {!Raestat.Estplan} estimate bit-identical at the same seed;
    - ["pushdown"]: for pushable expressions,
      {!Raestat.Planner.choose_sampling} enumerates candidates
      deterministically (root-sampling first, then one pushdown per
      leaf occurrence in {!Relational.Optimizer.Sampling_pushdown}
      derivation order) and the winner's executable plan — possibly a
      pushed-down sampling placement — keeps a replicate mean that
      brackets the exact count (same Student-t bound and 8× retry as
      ["unbiasedness"]);
    - ["unbiasedness"]: for [Unbiased]-classified expressions, the
      replicate mean brackets the exact count within a Student-t bound
      ([df = replicates − 1], retried at 8× replicates before failing);
    - ["coverage"]: empirical CI coverage stays within slack of
      nominal, gated to cases where the CLT plausibly applies;
    - ["conservation"]: counters are deterministic, non-negative,
      never perturb the estimate, [sample_indices] equals
      runs × Σ per-leaf sample sizes, and for a two-leaf equi-join
      probe hits + misses equals runs × left sample size, where runs
      is the number of groups, or 1 when every leaf is a census (such
      a plan counts once);
    - ["storage"]: round-tripping every leaf relation through the
      binary pagefile ({!Relational.Pagefile}) leaves tuples, schemas,
      the estimate and the counters bit-identical;
    - ["maintenance"]: a {!Raestat.Stream_relation} replaying a random
      insert/delete interleaving over the case's first leaf matches the
      trace's exact recount (population, epoch-free store truth), keeps
      every maintained sample (reservoir and Bernoulli) inside the live
      multiset, snapshots exactly the trace's live tuples in id order,
      answers {!Raestat.Stream_relation.mem} as the trace does for
      every id it issued, drains to the exact-0 estimate when every
      live id is deleted, and — where the power gate allows — keeps a
      replicate mean over independent stream seeds that brackets the
      trace's exact count (same Student-t bound and 8× retry as
      ["unbiasedness"]);
    - ["kernels"]: the fuzz relations stay below
      {!Relational.Relation.kernel_threshold}, so the estimators decide
      selections on the row path; this oracle runs the scan kernels
      ({!Relational.Kernel.count} and [filter_indices], over every row
      and through row ids) on each selection of the case over its
      base's view and demands exactly the rows
      {!Relational.Predicate.compile} keeps; and it joins every pair of
      the case's columns through {!Relational.Kernel.Key_table} in both
      representations, dense and open addressing, demanding
      {!Relational.Eval.count}'s count and probe hits. *)
val battery : oracle list

(** {2 Maintenance oracle internals (for tests)} *)

(** One write in a maintenance trace. *)
type stream_op =
  | Add of Relational.Tuple.t
  | Remove of Raestat.Stream_relation.id

(** The ["maintenance"] oracle with an injectable write path (default:
    {!Raestat.Stream_relation.insert} / [delete]).  Unit tests pass a
    broken writer — e.g. one that drops deletions — to prove the
    trace-differential checks flag it. *)
val maintenance_oracle :
  ?writer:(Raestat.Stream_relation.t -> stream_op -> unit) -> unit -> oracle

(** First [Fail] across the battery as [(oracle name, detail)];
    [None] when every oracle passes or skips. *)
val check_case :
  ?subject:subject -> replicates:int -> Gen.case -> (string * string) option

(** Run one oracle by name.  [Some detail] on [Fail].
    @raise Invalid_argument on an unknown oracle name. *)
val check_one :
  ?subject:subject -> replicates:int -> oracle:string -> Gen.case -> string option
