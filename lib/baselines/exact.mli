(** Full evaluation, timed — the "just compute it" baseline the paper's
    speedups are measured against. *)

type result = {
  count : int;
  seconds : float;  (** wall-clock time of the evaluation *)
}

(** [count catalog e] evaluates exactly on the production engine
    ({!Relational.Physical.count_expr}, including its kernel counting
    fast paths). *)
val count : Relational.Catalog.t -> Relational.Expr.t -> result

(** The exact answer wrapped as an {!Stats.Estimate.t} (zero variance). *)
val as_estimate : Relational.Catalog.t -> Relational.Expr.t -> Stats.Estimate.t
