(** Pull-based (Volcano-style) physical execution engine: the one
    production evaluator.

    Tuples stream through a pipeline of cursors, so selection /
    projection / join chains run in memory proportional to the hash
    tables they build, not to their intermediates — products in
    particular never materialize.  The reference evaluator {!Eval}
    materializes every intermediate on the row path; {!of_expr}
    produces the same tuples in the same order as {!Eval.eval} on
    every expression, and the test suite checks this on random
    inputs. *)

type cursor

(** Result schema of the pipeline. *)
val schema : cursor -> Schema.t

(** Pull the next tuple; [None] at end of stream. *)
val next : cursor -> Tuple.t option

(** Rewind to the beginning (cheap: re-runs the pipeline; hash tables
    built by blocking operators are rebuilt). *)
val reset : cursor -> unit

(** {1 Physical operators} *)

val scan : Relation.t -> cursor

val filter : (Tuple.t -> bool) -> cursor -> cursor

(** [project schema indices c] — cheap positional projection. *)
val project : Schema.t -> int array -> cursor -> cursor

(** Block-free nested-loop product (right input is reset per left
    tuple). *)
val nested_product : ?keep:(Tuple.t -> bool) -> Schema.t -> cursor -> cursor -> cursor

(** Hash join on positional key pairs; builds on the right input at
    first pull, streams the left.  [metrics] records probe
    hits/misses. *)
val hash_join :
  ?metrics:Obs.Metrics.t ->
  Schema.t -> left_key:int array -> right_key:int array -> cursor -> cursor -> cursor

(** Streaming duplicate elimination (hash set of emitted tuples). *)
val dedup : cursor -> cursor

(** Blocking sort by an arbitrary tuple order. *)
val sort : (Tuple.t -> Tuple.t -> int) -> cursor -> cursor

(** Blocking sort by the given key positions (lexicographic
    {!Value.compare}). *)
val sort_by : int array -> cursor -> cursor

(** Sort–merge equi-join: both inputs are sorted on their keys
    internally, then merged; equal-key groups on the right are buffered
    and replayed.  Same semantics as {!hash_join}; used by A-series
    benchmarks to compare join algorithms. *)
val merge_join :
  Schema.t -> left_key:int array -> right_key:int array -> cursor -> cursor -> cursor

(** Set operators (operands deduplicated, as in {!Eval}). *)
val union : cursor -> cursor -> cursor

val inter : cursor -> cursor -> cursor

val diff : cursor -> cursor -> cursor

(** {1 Whole-expression pipelines} *)

(** Compile an expression to a pipeline.  Selections over base
    relations at or above {!Relation.kernel_threshold} and single-pair
    equijoins of base relations with int-codeable keys stream through
    compiled {!Kernel} closures — identical tuples, order and probe
    accounting to the row operators.
    @raise Failure on schema errors (as {!Expr.schema_of}). *)
val of_expr : ?metrics:Obs.Metrics.t -> Catalog.t -> Expr.t -> cursor

(** Drain a cursor into a relation. *)
val run : cursor -> Relation.t

(** Count the stream without materializing it. *)
val count : cursor -> int

(** [count_expr catalog e] = [Eval.count catalog e], recording the same
    probe hits and misses, and raising [Expr.schema_of]'s [Failure] on a
    schema error before anything runs.

    A tree built from base relations, selections whose predicate reads
    one leaf, single-pair equijoins whose key columns admit int codes
    ({!Kernel.join_codes}: null-free ints or dictionaries), renames and
    bag projections is counted on row ids without building a tuple:
    - a selection over a leaf at or above {!Relation.kernel_threshold}
      that reads the leaf's full scan or its row ids becomes that leaf's
      selection vector: one row id per passing row, in order, sized
      exactly by the scan kernels ({!Kernel.filter_indices}; stacked
      selections conjoin, and the kernels run a conjunction in
      sequence, the second over the first one's vector);
    - any other selection tests its leaf's row, through the compiled
      kernel at and above the threshold and the row predicate below it
      (the rule of {!Relation.count_pred});
    - an inner join emits row-id pairs, and the root join counts from an
      open-addressing key → multiplicity table ({!Kernel.Int_table});
    - each join makes one probe, hit or miss, per left row, as
      {!hash_join} does; it tallies them in locals and records them with
      one {!Obs.Metrics.add_probes}, so the totals equal the cursor
      engine's.

    Everything else ([Distinct], set operations, products, θ-joins,
    aggregates, multi-leaf selections, multi-pair joins, float, generic
    or nullable keys) drains the {!of_expr} pipeline. *)
val count_expr : ?metrics:Obs.Metrics.t -> Catalog.t -> Expr.t -> int
