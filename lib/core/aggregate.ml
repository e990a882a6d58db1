module Relation = Relational.Relation
module Catalog = Relational.Catalog
module Value = Relational.Value
module Tuple = Relational.Tuple
module Estimate = Stats.Estimate

let contribution_fn relation attribute =
  let schema = Relation.schema relation in
  let i = Relational.Schema.index_of schema attribute in
  fun tuple ->
    match Tuple.get tuple i with
    | Value.Null -> 0.
    | v -> Value.to_float v

let sum_selection rng catalog ~relation ~attribute ~n predicate =
  let r = Catalog.find catalog relation in
  let big_n = Relation.cardinality r in
  if n <= 0 || n > big_n then
    invalid_arg "Aggregate.sum_selection: sample size out of range";
  let sample = Sampling.Srs.relation_without_replacement rng ~n r in
  let keep = Relational.Predicate.compile (Relation.schema sample) predicate in
  let value_of = contribution_fn sample attribute in
  let summary =
    Relation.fold
      (fun acc t -> Stats.Summary.add acc (if keep t then value_of t else 0.))
      Stats.Summary.empty sample
  in
  let big_nf = float_of_int big_n and nf = float_of_int n in
  let point = big_nf *. Stats.Summary.mean summary in
  let variance =
    if n < 2 then Float.nan
    else
      big_nf *. big_nf *. (1. -. (nf /. big_nf)) *. Stats.Summary.variance summary /. nf
  in
  Estimate.make ~variance ~label:"sum" ~status:Estimate.Unbiased ~sample_size:n point

let avg_selection rng catalog ~relation ~attribute ~n predicate =
  let r = Catalog.find catalog relation in
  let big_n = Relation.cardinality r in
  if n <= 0 || n > big_n then
    invalid_arg "Aggregate.avg_selection: sample size out of range";
  let sample = Sampling.Srs.relation_without_replacement rng ~n r in
  let keep = Relational.Predicate.compile (Relation.schema sample) predicate in
  let value_of = contribution_fn sample attribute in
  let qualifying =
    Relation.fold
      (fun acc t -> if keep t then Stats.Summary.add acc (value_of t) else acc)
      Stats.Summary.empty sample
  in
  let hits = Stats.Summary.count qualifying in
  if hits = 0 then
    Estimate.make ~label:"avg" ~status:Estimate.Consistent ~sample_size:n Float.nan
  else begin
    let point = Stats.Summary.mean qualifying in
    let variance =
      if hits < 2 then Float.nan
      else
        (* Within-domain variance of the ratio estimator, with FPC on
           the full sample (an approximation: the qualifying count is
           itself random). *)
        Stats.Summary.variance qualifying /. float_of_int hits
        *. (1. -. (float_of_int n /. float_of_int big_n))
    in
    Estimate.make ~variance ~label:"avg" ~status:Estimate.Consistent ~sample_size:n point
  end

let result_sum catalog ~attribute expr =
  let result = Relational.Physical.eval catalog expr in
  if Relation.is_empty result then 0.
  else begin
    let value_of = contribution_fn result attribute in
    Relation.fold (fun acc t -> acc +. value_of t) 0. result
  end

let sum_expr ?(groups = 1) rng catalog ~fraction ~attribute expr =
  if groups < 1 then invalid_arg "Aggregate.sum_expr: groups must be >= 1";
  let status = Count_estimator.classify expr in
  let plan = Sampling_plan.make catalog ~fraction expr in
  let one () =
    let sampled, drawn, _ = Sampling_plan.draw rng catalog plan in
    (plan.Sampling_plan.scale *. result_sum sampled ~attribute plan.Sampling_plan.expr, drawn)
  in
  if groups = 1 then begin
    let point, drawn = one () in
    Estimate.make ~label:"sum (scale-up)" ~status ~sample_size:drawn point
  end
  else begin
    let drawn = ref 0 in
    let points =
      Array.init groups (fun _ ->
          let point, d = one () in
          drawn := !drawn + d;
          point)
    in
    let summary = Stats.Summary.of_array points in
    let variance = Stats.Summary.variance summary /. float_of_int groups in
    Estimate.make ~variance ~label:"sum (scale-up, replicated)" ~status ~sample_size:!drawn
      (Stats.Summary.mean summary)
  end

let exact_sum catalog ~attribute expr = result_sum catalog ~attribute expr

let exact_avg catalog ~attribute expr =
  let result = Relational.Physical.eval catalog expr in
  let schema = Relation.schema result in
  let i = Relational.Schema.index_of schema attribute in
  let summary =
    Relation.fold
      (fun acc t ->
        match Tuple.get t i with
        | Value.Null -> acc
        | v -> Stats.Summary.add acc (Value.to_float v))
      Stats.Summary.empty result
  in
  if Stats.Summary.count summary = 0 then Float.nan else Stats.Summary.mean summary
