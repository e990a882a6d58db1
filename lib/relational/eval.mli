(** Reference evaluation of relational algebra expressions.

    A deliberately naive, row-at-a-time evaluator: every operator
    materializes its result, selections test boxed tuples through
    {!Predicate.compile}, joins hash whole key tuples, products and
    θ-joins run nested loops, and set operators hash-deduplicate.  It
    uses no columnar kernel, so it shares no fast path with the
    production engine ({!Physical} over {!Kernel}); the tests and the
    fuzz oracles compare production against it. *)

(** [hash_equijoin pairs l r] joins two relations on attribute-name
    pairs, output in left-major order (probe order; within one probe,
    build order).  [metrics] records one probe hit/miss per left
    tuple. *)
val hash_equijoin :
  ?metrics:Obs.Metrics.t ->
  (string * string) list -> Relation.t -> Relation.t -> Tuple.t array

(** [eval catalog e] materializes the result relation.  [metrics]
    (default disabled) records hash-probe hits/misses of every
    equi-join evaluated.
    @raise Failure on schema errors (see {!Expr.schema_of}). *)
val eval : ?metrics:Obs.Metrics.t -> Catalog.t -> Expr.t -> Relation.t

(** [count catalog e] is [Relation.cardinality (eval catalog e)]. *)
val count : ?metrics:Obs.Metrics.t -> Catalog.t -> Expr.t -> int
