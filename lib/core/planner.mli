(** Sampling-driven join-order planning — the paper's raison d'être:
    feed cheap, unbiased cardinality estimates to a System-R-style
    optimizer.

    Given base relations (optionally pre-filtered) and equality join
    predicates, the planner enumerates left-deep join orders, costs
    each by the classic sum-of-intermediate-cardinalities model with
    every cardinality {e estimated from samples}, and returns the best
    order.  Estimates are memoized per sub-plan so the enumeration
    costs one sampling pass per distinct intermediate. *)

type join_spec = {
  left_attr : string;   (** attribute on one relation *)
  right_attr : string;  (** attribute on the other *)
}

type input = {
  name : string;               (** base relation name *)
  filter : Relational.Predicate.t option;  (** optional pre-filter *)
}

type plan = {
  expr : Relational.Expr.t;        (** the chosen left-deep join tree *)
  order : string list;             (** relation names, join order *)
  estimated_cost : float;          (** Σ estimated intermediate sizes *)
  intermediates : Relational.Expr.t list;
      (** the chosen order's strict-prefix joins, smallest first *)
  estimates : (string * float) list;
      (** per-intermediate: input-name set → estimated size *)
}

(** [plan rng catalog ~fraction ~inputs ~joins] — [joins] may mention
    any attribute pair whose two attributes live in different inputs
    (resolved via the catalog schemas).  All inputs must be connected
    by join predicates (no cross products are enumerated).
    @raise Invalid_argument on fewer than 2 inputs, more than 8 (the
    left-deep enumeration is factorial), duplicate input names, an
    attribute resolvable to no/both sides, or a disconnected join
    graph. *)
val plan :
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  fraction:float ->
  inputs:input list ->
  joins:join_spec list ->
  plan

(** Exact cost of a previously produced plan (for evaluation). *)
val exact_cost : Relational.Catalog.t -> plan -> float

(** {1 Sampling-placement optimization}

    The cost-based half of the optimizing planner (THEORY.md §22): the
    sampling-pushdown rewrites
    ({!Relational.Optimizer.Sampling_pushdown}) make every leaf
    occurrence a legal home for the sampling operator; this layer
    prices each placement with the GUS second-moment model

    {v Var = J·(Π 1/q_i − 1) + Σ_i (SS_i − J)·(1/q_i − 1) v}

    (exact for selection chains and two-leaf equijoins/products of
    them, computed from one pass over each side's passing rows; bounded by
    the {!Baselines.Pessimistic} cardinality cap with the
    uniform-contribution approximation [SS_i = J²/N_i] otherwise) and
    a tuples-touched cost, then picks the minimum
    [max(variance, 1) × cost].  All candidates share the same
    sampled-tuple budget — the total the historical root-sampling
    strategy draws at this fraction — so the comparison is
    variance-per-tuple-drawn; exact (census) scans of the non-sampled
    leaves are charged to cost, not budget.  Planning is a pure
    function of catalog statistics: no RNG, bit-stable candidate order
    (root-sampling first, then pushdowns in leaf-occurrence order),
    ties preferring the historical strategy. *)

val optimizer_version : int

(** False iff [RAESTAT_NO_OPTIMIZE] was 1/true/yes/on at startup — the
    optimizer's kill switch: [Count_estimator.estimate_with_goal] and
    the daemon then keep the historical root-sampling behavior. *)
val optimize_enabled : unit -> bool

(** What the caller wants, instead of a hard-coded placement. *)
type goal =
  | Budget_fraction of float  (** historical per-leaf sampling fraction *)
  | Budget_tuples of int      (** total sampled-tuple budget *)
  | Ci_width of { width : float; level : float }
      (** target CI width at [level] (conservative worst-case binomial
          sizing, no data pass) *)

(** Resolve a goal to a per-leaf sampling fraction for a population
    (the root-sampling front-ends' translation).
    @raise Invalid_argument on a non-positive budget/width or a
    fraction outside (0, 1]. *)
val fraction_of_goal : population:int -> goal -> float

(** The same translation as a sample {e size} for one population, for
    a front-end that draws a fixed [n].  Clamped to [[1, population]];
    0 only for an empty population.
    @raise Invalid_argument as {!fraction_of_goal}. *)
val size_of_goal : population:int -> goal -> int

type candidate = {
  label : string;  (** ["root-sampling"] or ["pushdown(rel#occ)"] *)
  derivation : Relational.Optimizer.Sampling_pushdown.derivation option;
      (** [None] for root-sampling *)
  predicted_variance : float;  (** model variance of the mean-of-groups
                                   estimate; [nan] when not priced *)
  predicted_cost : float;      (** total tuples touched across groups *)
  score : float;               (** [max(variance, 1) × cost]; min wins *)
  drawn_tuples : float;        (** sampled tuples drawn (budget side) *)
  exact_tuples : float;        (** census tuples scanned (cost side) *)
}

type choice = {
  winner : candidate;
  chosen : Estplan.t;          (** executable plan for the winner *)
  candidates : candidate list; (** enumeration order, winner included *)
  rationale : string;          (** why the winner won *)
  analytic : bool;             (** exact stats vs pessimistic approx *)
  budget : int;                (** sampled-tuple budget per group *)
}

(** [choose_sampling catalog ~fraction expr] enumerates root-sampling
    plus every sampling-pushdown candidate, prices them, and returns
    the winner with its executable plan ([groups], default 1, carries
    through to the plan's replicated execution).  Expressions with
    dedup/aggregate semantics yield the root-sampling fallback with an
    explanatory rationale.  Counts every enumerated candidate in
    [metrics] ([plans_considered]).  Deterministic: no RNG is drawn.
    @raise Invalid_argument on a fraction outside (0, 1] or
    [groups < 1]. *)
val choose_sampling :
  ?metrics:Obs.Metrics.t ->
  ?groups:int ->
  Relational.Catalog.t ->
  fraction:float ->
  Relational.Expr.t ->
  choice

(** [join_moments catalog e] is [Some (j, ss_left, ss_right)] when [e]
    (projections ignored) is an equijoin of two selection chains over
    base relations, the two-leaf shape whose variance model is exact:
    [j = Σ_v m_v·n_v], [ss_left = Σ_v m_v·n_v²] and
    [ss_right = Σ_v n_v·m_v²], where [m_v] and [n_v] count the left and
    right tuples passing their selections with join key [v].  [None] for
    every other shape.

    Each side's passing rows come from the scan kernels over its base's
    view, and the keys are coded as {!Relational.Physical.count_expr}
    codes them: a single attribute pair whose key columns admit int
    codes ({!Relational.Kernel.join_codes}: null-free ints or
    dictionaries, Null matching Null) reads them without a boxed key,
    and every other key shape (float, bool, generic or nullable int
    columns, mixed types, several pairs) numbers the right side's key
    tuples in a {!Relational.Kernel.Key_dict}, under [Tuple.equal], so
    [Int 1] matches [Float 1.0] as in {!Relational.Eval}.  The per-key
    counts live in the joins' {!Relational.Kernel.Key_table}, over the
    codes' range, built on the side with fewer passing rows, the other
    side counted by its slots.  The sums are exact while they stay
    below 2^53.
    @raise Not_found on an attribute the schemas lack (callers check
    with {!Relational.Expr.schema_of} first). *)
val join_moments :
  Relational.Catalog.t -> Relational.Expr.t -> (float * float * float) option

(** Render the decision: the winner's plan tree ({!Estplan.render})
    followed by the candidate table, the winner's pushdown trace and
    the rationale.  Byte-identical between the CLI and the daemon. *)
val render_choice : choice -> string

(** Schema ["raestat-explain/2"]: optimizer version, winning strategy,
    stats source, budget, rationale, every candidate with predicted
    variance/cost/score and its rewrite derivation, and the winner's
    executed plan embedded as a ["raestat-explain/1"] object under
    ["plan"]. *)
val choice_to_json : choice -> string
