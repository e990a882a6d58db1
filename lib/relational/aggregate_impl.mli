(** The hash-aggregation kernel shared by the reference evaluator
    ({!Eval}) and the production engine ({!Physical}), so both group and
    sum in the same order. *)

(** [run ~input_schema ~by ~specs tuples] groups the tuple sequence and
    returns one output tuple per group (group-by values first, then the
    aggregate outputs, as in {!Expr.Aggregate}), in first-appearance
    order of the groups.  Null handling follows {!Expr.agg}.
    @raise Not_found if an attribute is missing (callers validate via
    {!Expr.schema_of} first). *)
val run :
  input_schema:Schema.t ->
  by:string list ->
  specs:(Expr.agg * string) list ->
  Tuple.t Seq.t ->
  Tuple.t list
