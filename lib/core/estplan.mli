(** The estimation-plan IR: one explicit physical plan language that
    every estimator in the library compiles to, and one execution
    engine that runs it.

    A plan is a tree of {!node}s — each a paper operator (sampled scan,
    selection, equijoin, product, set operator, distinct, cluster/page
    leaf, stratified leaf…) annotated with its {!mode} (how that node's
    input is sampled), its cumulative scale factor, its unbiasedness
    status, and a {!Moments} accumulator fed by the engine as estimates
    are observed.  A {!strategy} names the paper's estimation rule the
    engine applies at the root (plain scale-up, replicated scale-up,
    closed-form binomial selection, cluster expansion, stratified
    expansion, bootstrap resampling, indexed degree expansion, set
    membership).

    The compile pipeline for expression estimators is
    [Expr.t] → {!Relational.Optimizer.optimize} (optional) →
    {!Sampling_plan} (per-occurrence leaf annotation) →
    [Estplan.of_sampling_plan] — see THEORY.md §17 for the IR grammar
    and the per-node moment-propagation rules.

    {2 Engine contract}

    The engine owns every draw → evaluate → scale → variance pipeline:
    it threads split RNG streams ({!Parallel.replicate_init}, serial
    split order), per-replicate {!Obs.Metrics} child sinks absorbed in
    replicate order, [?domains] replicate parallelism and the columnar
    kernels, so estimates, CIs and counter totals are bit-identical for
    any domain count.  Estimator
    modules are thin strategy front-ends over plan constructors and
    [run_*] entry points. *)

(** Per-operator estimator status, per the PODS'88 analysis: an
    [Unbiased] node admits an exact scale-up expectation; a
    [Consistent_only] node (dedup semantics anywhere at or below it in
    a scale-up plan) only converges as the sampling fraction → 1. *)
type unbiasedness =
  | Unbiased
  | Consistent_only

val status_to_estimate : unbiasedness -> Stats.Estimate.status

val unbiasedness_to_string : unbiasedness -> string

(** How a node's input is obtained.  Interior nodes are [Derived];
    leaves carry the sampling design the engine executes. *)
type mode =
  | Derived                                     (** computed from children *)
  | Exact of { population : int }               (** full scan, no sampling *)
  | Srswor of { n : int; population : int }
  | Bernoulli of { p : float; population : int }
  | Page_srswor of { m : int; pages : int; population : int }
      (** cluster sampling: [m] of [pages] whole pages *)
  | Stratified_srswor of { n : int; population : int }
      (** proportionally-allocated SRSWOR inside key strata *)
  | Prefix of { batch : int; population : int }
      (** sequential: growing prefix of a random permutation *)
  | Resampled of { n : int; population : int; replicates : int }
      (** SRSWOR base sample, bootstrap-resampled with replacement *)

(** Plan operators.  The relational subset mirrors {!Relational.Expr}
    so scale-up plans reconstruct their evaluation expression exactly. *)
type op =
  | Scan of { relation : string; alias : string; occurrence : int }
  | Select of Relational.Predicate.t
  | Project of string list
  | Dedup
  | Product
  | Equijoin of (string * string) list
  | Theta_join of Relational.Predicate.t
  | Union
  | Inter
  | Diff
  | Rename of (string * string) list
  | Aggregate of string list * (Relational.Expr.agg * string) list
  | Group_by of string list   (** grouped-estimate root (group-count / group-sum) *)

(** Per-node moment accumulator: every estimate the engine observes at
    a node feeds its first and second moments.  Replicated runs observe
    one point per replicate; closed-form strategies record their
    analytic (mean, variance) directly. *)
module Moments : sig
  type t

  val count : t -> int

  (** @raise Invalid_argument when no observation was recorded. *)
  val mean : t -> float

  (** Sample variance of the observed points (0 with fewer than two
      observations), or the analytic variance for closed-form rules. *)
  val variance : t -> float

  (** Raw second moment E[X²] implied by {!mean} and {!variance}. *)
  val second_moment : t -> float
end

type node = {
  id : int;                   (** preorder index, stable per plan *)
  op : op;
  mode : mode;
  scale : float;              (** cumulative scale-up factor of the subtree *)
  status : unbiasedness;
  moments : Moments.t;
  children : node list;
}

type set_op =
  | Inter_size
  | Union_size
  | Diff_size

(** The estimation rule the engine applies at the root. *)
type strategy =
  | Scale_up of { groups : int }
      (** draw → evaluate → scale; replicated with group variance when
          [groups > 1] *)
  | Direct_selection
      (** closed-form finite-population binomial over one SRSWOR leaf *)
  | Sequential_selection of { target : float; level : float; batch : int }
  | Cluster_expansion
  | Stratified_expansion
  | Bootstrap_resampling of { replicates : int }
  | Indexed_degree
  | Set_membership of set_op
  | Grouped of { sum_attribute : string option }
      (** per-group binomial (count) or expansion (sum) estimates over
          one shared SRSWOR draw *)

val strategy_to_string : strategy -> string

type t = private {
  root : node;
  strategy : strategy;
  label : string;                       (** estimator label for results *)
  splan : Sampling_plan.t option;       (** leaf annotation, scale-up family *)
}

(** {1 Compilation} *)

(** Lower an annotated {!Sampling_plan} to the IR (scale-up family). *)
val of_sampling_plan :
  ?groups:int -> ?label:string -> Sampling_plan.t -> t

(** [compile catalog ~fraction expr] — the full pipeline for expression
    estimators: optionally {!Relational.Optimizer.optimize}, annotate
    every base-relation occurrence with an SRSWOR of [fraction]
    ({!Sampling_plan.make}), lower to the IR.  [optimize] defaults to
    [false]: rewrites preserve the estimate (see the rewrite-invariance
    tests) but the unrewritten plan is the historical contract.
    @raise Invalid_argument on a bad fraction or an empty leaf. *)
val compile :
  ?groups:int ->
  ?optimize:bool ->
  ?label:string ->
  Relational.Catalog.t ->
  fraction:float ->
  Relational.Expr.t ->
  t

(** Two-leaf equijoin plan at the replicate sub-fraction
    ([fraction / groups] when [groups > 1]), as executed by
    {!Count_estimator.equijoin}. *)
val equijoin_plan :
  Relational.Catalog.t ->
  left:string ->
  right:string ->
  on:(string * string) list ->
  fraction:float ->
  groups:int ->
  t

val selection_plan :
  Relational.Catalog.t -> relation:string -> n:int -> Relational.Predicate.t -> t

val sequential_plan :
  Relational.Catalog.t ->
  relation:string ->
  target:float ->
  level:float ->
  batch:int ->
  Relational.Predicate.t ->
  t

val cluster_plan :
  Relational.Paged.t -> m:int -> ?predicate:Relational.Predicate.t -> unit -> t

val stratified_plan :
  Relational.Catalog.t -> relation:string -> n:int -> Relational.Predicate.t -> t

val bootstrap_plan :
  Relational.Catalog.t ->
  relation:string ->
  n:int ->
  replicates:int ->
  Relational.Predicate.t ->
  t

val indexed_join_plan :
  Relational.Catalog.t ->
  left:string ->
  right:string ->
  on:(string * string) ->
  n:int ->
  t

val set_plan :
  Relational.Catalog.t -> op:set_op -> left:string -> right:string -> fraction:float -> t

val grouped_plan :
  Relational.Catalog.t ->
  relation:string ->
  by:string list ->
  ?sum_attribute:string ->
  n:int ->
  Relational.Predicate.t ->
  t

(** {1 The engine} *)

(** Draw the plan's leaf samples (leaves in left-to-right order, one
    sample per occurrence) into a fresh catalog binding every alias;
    returns the total tuples drawn.  Scale-up family only. *)
val draw :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  Relational.Catalog.t * int

(** Alternative supplier of a [Direct_selection] plan's sample-index
    set: called with the draw size, the base-relation cardinality and
    a [draw] thunk performing the normal SRSWOR draw from the run's
    RNG.  A source that returns a cached [draw] result keyed on
    (seed, n, universe) yields bit-identical estimates — the draw is a
    pure function of those — while skipping the draw work.  The serve
    daemon's warm backing-sample cache is the intended implementation;
    the returned array is read-only shared state and must not be
    mutated. *)
type index_source = n:int -> universe:int -> (unit -> int array) -> int array

(** Run a [Scale_up], [Direct_selection] or [Set_membership] plan.
    [Scale_up] with [groups > 1] replicates on split streams (serial
    split order; optionally across [?domains] OCaml domains) and reports
    the replicate-spread variance s²/g.  [index_source] (default:
    draw fresh) substitutes the SRSWOR index draw of a
    [Direct_selection] run; other strategies ignore it.
    @raise Invalid_argument if the plan's strategy needs a dedicated
    runner ({!run_cluster}, {!run_sequential}, …). *)
val run :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  ?index_source:index_source ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  Stats.Estimate.t

(** The paper's closed-form selection rule: scale-up of a binomial hit
    count over an SRSWOR of [n] from [big_n], with the exact
    finite-population variance ([nan] when [n < 2]).
    @raise Invalid_argument when sizes are out of range. *)
val binomial_estimate :
  ?label:string -> big_n:int -> n:int -> hits:int -> unit -> Stats.Estimate.t

type sequential_step = {
  step_n : int;
  step_point : float;
  step_half_width : float;
}

(** Run a [Sequential_selection] plan: batches of a random permutation
    prefix until the relative half-width target is met.  Returns the
    final estimate, whether the target was reached, and the batch
    trajectory. *)
val run_sequential :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  Stats.Estimate.t * bool * sequential_step list

(** Run a [Cluster_expansion] plan over the paged relation it was
    compiled from: draws [m] whole pages, applies [measure] per page and
    expands by [M/m].  Returns (estimate, pages read, tuples read). *)
val run_cluster :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Paged.t ->
  t ->
  measure:(Relational.Tuple.t array -> float) ->
  Stats.Estimate.t * int * int

(** Run a [Stratified_expansion] plan: proportional SRSWOR per [key]
    stratum, per-stratum binomial expansion summed with per-stratum
    variances.  Returns the estimate and per-stratum
    (key, population, allocated). *)
val run_stratified :
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  key:(Relational.Tuple.t -> string) ->
  Stats.Estimate.t * (string * int * int) list

(** Resampling core shared with {!Bootstrap.run}: one split stream per
    replicate (serial order), per-replicate metrics sinks absorbed in
    replicate order, chunked over [?domains]. *)
val bootstrap_replicates :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  replicates:int ->
  statistic:('a array -> float) ->
  'a array ->
  float array

(** Run a [Bootstrap_resampling] plan: SRSWOR base sample, scale-up
    statistic over resampled hit indicators, percentile interval at
    [level] (clamped to non-negative counts). *)
val run_bootstrap :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  level:float ->
  Stats.Estimate.t * Stats.Confidence.interval

(** Run an [Indexed_degree] plan: SRSWOR of the left leaf, [degree] per
    sampled tuple (a hash probe, recorded hit/miss on zero), mean
    expansion with the SRSWOR variance. *)
val run_indexed_degree :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  degree:(Relational.Tuple.t -> int) ->
  Stats.Estimate.t

type grouped_row = {
  group_key : Relational.Value.t list;
  group_estimate : Stats.Estimate.t;
  group_interval : Stats.Confidence.interval;
}

(** Run a grouped plan ([Group_by] root): one SRSWOR draw, blocked
    domain-independent tally, per-group binomial (count) or expansion
    (sum) estimates with Bonferroni-adjusted intervals at [level]. *)
val run_grouped :
  ?domains:int ->
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  t ->
  level:float ->
  grouped_row list

(** {2 Shared grouped-tally kernels}

    Blocked tallies over fixed-size blocks so the per-key merge order —
    and with it every float sum — is independent of the domain count.
    Also used by the exact group-by baselines. *)

val group_tally :
  ?domains:int ->
  indices:int list ->
  keep:(Relational.Tuple.t -> bool) ->
  Relational.Tuple.t array ->
  (Relational.Value.t list * int) list

val group_tally_sums :
  ?domains:int ->
  indices:int list ->
  keep:(Relational.Tuple.t -> bool) ->
  value:(Relational.Tuple.t -> float) ->
  Relational.Tuple.t array ->
  (Relational.Value.t list * (float * float * int)) list

(** {1 Inspection / explain} *)

(** Expected total sampled tuples per execution of the plan. *)
val expected_sample_size : t -> float

val node_count : t -> int

(** Population and sample size a mode advertises, when it has them. *)
val mode_sizes : mode -> (int * int) option

val op_to_string : op -> string

val mode_to_string : mode -> string

(** Render the plan as a stable indented tree: one node per line with
    its operator, sampling mode (population / sample size), scale
    factor and unbiasedness status — the [raestat explain] format. *)
val render : t -> string

(** The same tree as JSON (schema ["raestat-explain/1"]). *)
val to_json : t -> string
