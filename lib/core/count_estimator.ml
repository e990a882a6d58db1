module Expr = Relational.Expr
module Catalog = Relational.Catalog
module Relation = Relational.Relation
module Metrics = Obs.Metrics

(* Thin strategy front-end: every entry point compiles its arguments to
   an {!Estplan} plan and delegates draw/evaluate/scale/variance to the
   IR engine.  This module owns only argument validation (with its
   historical messages), span labels and strategy choice. *)

let classify expr =
  if Expr.has_dedup expr then Stats.Estimate.Consistent else Stats.Estimate.Unbiased

let scale_up ?metrics rng catalog (plan : Sampling_plan.t) =
  Estplan.run ?metrics rng catalog (Estplan.of_sampling_plan plan)

let estimate ?(groups = 1) ?domains ?(metrics = Metrics.noop) rng catalog ~fraction
    expr =
  if groups < 1 then invalid_arg "Count_estimator.estimate: groups must be >= 1";
  Metrics.with_span metrics
    (Printf.sprintf "estimate %s" (Relational.Parser.print_expr expr))
    (fun () ->
      Estplan.run ?domains ~metrics rng catalog
        (Estplan.compile ~groups catalog ~fraction expr))

(* Goal-based entry: the caller states what it wants (a budget or a CI
   width) and the optimizing planner decides where the sampling
   operator goes.  [optimize:false] — or the [RAESTAT_NO_OPTIMIZE]
   kill switch — pins the historical root-sampling strategy, which is
   byte-identical to {!estimate} at the resolved fraction. *)
let estimate_with_goal ?(groups = 1) ?domains ?(metrics = Metrics.noop) ?(optimize = true)
    rng catalog ~goal expr =
  if groups < 1 then
    invalid_arg "Count_estimator.estimate_with_goal: groups must be >= 1";
  let population =
    List.fold_left
      (fun acc name -> acc + Relation.cardinality (Catalog.find catalog name))
      0 (Expr.leaves expr)
  in
  let fraction = Planner.fraction_of_goal ~population goal in
  if optimize && Planner.optimize_enabled () then begin
    let choice = Planner.choose_sampling ~metrics ~groups catalog ~fraction expr in
    let est =
      Metrics.with_span metrics
        (Printf.sprintf "estimate %s" (Relational.Parser.print_expr expr))
        (fun () ->
          Estplan.run ?domains ~metrics rng catalog choice.Planner.chosen)
    in
    (est, Some choice)
  end
  else (estimate ~groups ?domains ~metrics rng catalog ~fraction expr, None)

let selection_of_counts ~big_n ~n ~hits =
  if (n <= 0 && big_n > 0) || n < 0 || n > big_n then
    invalid_arg "Count_estimator.selection_of_counts: sample size out of range";
  if hits < 0 || hits > n then
    invalid_arg "Count_estimator.selection_of_counts: hits out of range";
  Estplan.binomial_estimate ~big_n ~n ~hits ()

let selection ?(metrics = Metrics.noop) rng catalog ~relation ~n predicate =
  Metrics.with_span metrics (Printf.sprintf "selection %s" relation) (fun () ->
      Estplan.run ~metrics rng catalog
        (Estplan.selection_plan catalog ~relation ~n predicate))

let equijoin ?(groups = 8) ?domains ?(metrics = Metrics.noop) rng catalog ~left ~right
    ~on ~fraction =
  if groups < 1 then invalid_arg "Count_estimator.equijoin: groups must be >= 1";
  Metrics.with_span metrics (Printf.sprintf "equijoin %s %s" left right) (fun () ->
      Estplan.run ?domains ~metrics rng catalog
        (Estplan.equijoin_plan catalog ~left ~right ~on ~fraction ~groups))

let equijoin_indexed ?index ?(metrics = Metrics.noop) rng catalog ~left ~right ~on ~n =
  let left_attr, right_attr = on in
  let rl = Catalog.find catalog left in
  let big_n = Relation.cardinality rl in
  if n <= 0 || n > big_n then
    invalid_arg "Count_estimator.equijoin_indexed: sample size out of range";
  let index =
    match index with
    | Some index ->
      if Relational.Index.attributes index <> [ right_attr ] then
        invalid_arg "Count_estimator.equijoin_indexed: index on the wrong attribute";
      index
    | None ->
      Relational.Index.build (Catalog.find catalog right) ~attributes:[ right_attr ]
  in
  let key_pos = Relational.Schema.index_of (Relation.schema rl) left_attr in
  let degree t = Relational.Index.count index [ Relational.Tuple.get t key_pos ] in
  Estplan.run_indexed_degree ~metrics rng catalog
    (Estplan.indexed_join_plan catalog ~left ~right ~on ~n)
    ~degree

(* Set-operation support.  Operands must be duplicate-free: the
   intersection estimator counts value matches, which only equals the
   set intersection size when every value appears at most once. *)

let checked_set catalog name =
  let r = Catalog.find catalog name in
  if not (Relation.is_set r) then
    invalid_arg
      (Printf.sprintf
         "Count_estimator: relation %S contains duplicates; set operators need sets"
         name);
  r

let set_estimate op ~metrics rng catalog ~left ~right ~fraction =
  let (_ : Relation.t) = checked_set catalog left
  and (_ : Relation.t) = checked_set catalog right in
  Estplan.run ~metrics rng catalog (Estplan.set_plan catalog ~op ~left ~right ~fraction)

let intersection ?(metrics = Metrics.noop) rng catalog ~left ~right ~fraction =
  set_estimate Estplan.Inter_size ~metrics rng catalog ~left ~right ~fraction

let union ?(metrics = Metrics.noop) rng catalog ~left ~right ~fraction =
  set_estimate Estplan.Union_size ~metrics rng catalog ~left ~right ~fraction

let difference ?(metrics = Metrics.noop) rng catalog ~left ~right ~fraction =
  set_estimate Estplan.Diff_size ~metrics rng catalog ~left ~right ~fraction
