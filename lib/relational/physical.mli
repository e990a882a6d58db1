(** The production evaluator: one engine that compiles every {!Expr}
    constructor to a plan on row ids.

    Rows are row ids of the expression's leaves, and no tuple is built
    unless one is read:
    - a leaf is a relation and an optional vector of its row ids: a
      sample of a relation with a columnar view ({!Relation.source}) is
      read in place, as that base and the drawn ids, so its rows are
      base row ids, its selections scan the base's columns through the
      ids and its join keys are the base's key codes; every other
      relation is a leaf of its own rows;
    - a selection over a leaf at or above {!Relation.kernel_threshold}
      (judged on the leaf, which is the base for a sample read in place)
      that reads the leaf's scan or its selection vector narrows that
      vector ({!Kernel.filter_indices}, through the ids if any; stacked
      selections conjoin); any other one-leaf selection tests its
      leaf's row, through the compiled kernel at and above the
      threshold and the row predicate below it (the rule of
      {!Relation.count_pred}), and one over a product goes to the side
      that holds its leaf;
    - a selection that reads several leaves tests the tuple gathered at
      the row, and over a product it runs inside the product's loop;
    - a product emits its pairs left-major with nothing materialized; a
      θ-join is a product that tests each pair's concatenated tuple, and
      a root product without a test multiplies its sides' counts;
    - an equijoin emits row-id pairs, left-major and in build order
      within a left row, and the root join counts from a key →
      multiplicity table.  One int or dictionary key column per side is
      coded by {!Kernel.join_codes}, and every other key through a
      {!Kernel.Key_dict} of the right side's key tuples: Null matches
      Null and [Int 1] matches [Float 1.0], as in [Tuple.equal].  The
      right side builds a {!Kernel.Key_table} over the codes' range
      (dense or open addressing by its density rule); a left side that
      is one leaf read through a vector (its scan, a selection vector
      or a sample's ids) keyed by its int or dictionary codes probes it
      in one of the table's loops over that vector, and any other left
      side (a product, a filter, a join, or a dictionary-coded key)
      probes it row by row;
    - [Distinct], the set operations and [Aggregate] stream their
      input's tuples once, and their result becomes a new leaf.

    Probe rule: every equijoin runs once and makes one probe, hit or
    miss, per left row, as {!Eval.eval} does, so the counters recorded
    in [metrics] equal the reference's on every expression.

    Arrays: every join takes its key table from {!Scratch} and hands it
    back when its loops end, and a probe side that is a selection over
    a sample probes from a {!Kernel.selection} buffer that goes back
    after the probe.  Nothing else is freed: a leaf's row ids belong to
    the catalog (a sample's drawn ids are its drawer's, such as the
    scale-up replicate that hands them back once the count returns),
    and the row-id arrays a join under a join emits are ordinary
    arrays. *)

(** [count_expr catalog e] = [Eval.count catalog e], recording the same
    probe hits and misses, and raising [Expr.schema_of]'s [Failure] on a
    schema error before anything runs. *)
val count_expr : ?metrics:Obs.Metrics.t -> Catalog.t -> Expr.t -> int

(** [eval catalog e] = [Eval.eval catalog e]: the same schema and the
    same tuples in the same order (the rows' stream order), with the
    same probe hits and misses and the same schema errors as
    {!count_expr}. *)
val eval : ?metrics:Obs.Metrics.t -> Catalog.t -> Expr.t -> Relation.t
