(** The estimation-plan IR: the explicit physical plans that
    [raestat explain] prints, the serve daemon caches and one engine
    runs — the scale-up family of expression estimators, the
    closed-form selection count and the set-size estimators.

    A plan is an immutable tree of {!node}s — each a paper operator
    (sampled scan, selection, equijoin, product, set operator,
    distinct…) annotated with its {!mode} (how that node's input is
    sampled), its cumulative scale factor and its unbiasedness status.
    A {!strategy} names the paper's estimation rule the engine applies
    at the root (plain or replicated scale-up, closed-form binomial
    selection, set membership).  Nothing reachable from a plan is
    mutable, so one cached plan may run on several domains at once.

    The compile pipeline for expression estimators is
    [Expr.t] → {!Relational.Optimizer.optimize} (optional) →
    {!Sampling_plan} (per-occurrence leaf annotation) →
    [Estplan.of_sampling_plan] — see THEORY.md §17 for the IR grammar
    and the per-operator status rules.

    {2 Engine contract}

    The engine owns the draw → evaluate → scale → variance pipeline of
    every plan: it threads split RNG streams
    ({!Parallel.replicate_init}, serial split order), per-replicate
    {!Obs.Metrics} child sinks absorbed in replicate order, [?domains]
    replicate parallelism and the columnar kernels, so estimates, CIs
    and counter totals are bit-identical for any domain count.  A run
    returns its result and writes nothing into the plan.

    A scale-up replicate (its [run_once]) owns the row-id arrays its
    {!Sampling_plan.draw} returns and hands them back to
    {!Relational.Scratch} once {!Relational.Physical.count_expr} has
    counted the samples, so the next replicate's draw reuses them.  It
    frees nothing else: a census leaf binds the caller's relation,
    whose ids (if it is itself a sample) belong to the caller's
    catalog, and the direct selection, the set estimators and the
    [index_source] keep the arrays they draw.  The
    cluster, sequential, stratified, bootstrap, index-assisted and
    grouped estimators are plain functions in their own modules
    ({!Cluster_estimator}, {!Sequential}, {!Stratified_estimator},
    {!Bootstrap}, {!Count_estimator.equijoin_indexed}, {!Group_count})
    and build no plan. *)

(** Per-operator estimator status, per the PODS'88 analysis: an
    [Unbiased] node admits an exact scale-up expectation; a
    [Consistent_only] node (dedup semantics anywhere at or below it in
    a scale-up plan) only converges as the sampling fraction → 1. *)
type unbiasedness =
  | Unbiased
  | Consistent_only

val unbiasedness_to_string : unbiasedness -> string

(** How a node's input is obtained.  Interior nodes are [Derived];
    leaves carry the sampling design the engine executes. *)
type mode =
  | Derived                                     (** computed from children *)
  | Srswor of { n : int; population : int }
  | Bernoulli of { p : float; population : int }

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

type node = {
  id : int;                   (** preorder index, stable per plan *)
  op : op;
  mode : mode;
  scale : float;              (** cumulative scale-up factor of the subtree *)
  status : unbiasedness;
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
  | Set_membership of set_op
      (** membership estimator over two SRSWOR leaves (THEORY.md §4) *)

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

val set_plan :
  Relational.Catalog.t -> op:set_op -> left:string -> right:string -> fraction:float -> t

(** {1 The engine} *)

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
    the replicate-spread variance s²/g.  A [Scale_up] plan whose every
    leaf is a census ([Srswor] of its whole population, the empty leaf
    included) counts once instead: its g replicates would all read the
    same exact point, so it reports that point, the mean, with variance
    0 and the sample size and counters of one census.  It still splits
    the g children off the parent, so the parent's stream and draws do
    not move.  [index_source] (default:
    draw fresh) substitutes the SRSWOR index draw of a
    [Direct_selection] run; other strategies ignore it. *)
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
    finite-population variance: [0] for a census ([n = big_n], of any
    size, one row included), and [nan] for a single sampled tuple short
    of a census.
    @raise Invalid_argument when sizes are out of range. *)
val binomial_estimate :
  ?label:string -> big_n:int -> n:int -> hits:int -> unit -> Stats.Estimate.t

(** {1 Inspection / explain} *)

(** Expected total sampled tuples per execution of the plan. *)
val expected_sample_size : t -> float

val node_count : t -> int

val op_to_string : op -> string

val mode_to_string : mode -> string

(** Render the plan as a stable indented tree: one node per line with
    its operator, sampling mode (population / sample size), scale
    factor and unbiasedness status — the [raestat explain] format. *)
val render : t -> string

(** The same tree as JSON (schema ["raestat-explain/1"]). *)
val to_json : t -> string
