module Paged = Relational.Paged

type result = {
  estimate : Stats.Estimate.t;
  pages_sampled : int;
  tuples_read : int;
}

let estimate ?(metrics = Obs.Metrics.noop) rng ~m paged ~measure =
  let big_m = Paged.page_count paged in
  if m < 1 || m > big_m then
    invalid_arg (Printf.sprintf "Cluster_estimator: m=%d out of range [1, %d]" m big_m);
  Obs.Metrics.with_span metrics (Printf.sprintf "cluster m=%d" m) @@ fun () ->
  let sample = Sampling.Page_sampling.measures ~metrics rng ~m paged ~measure in
  let summary = Stats.Summary.of_array sample.Sampling.Page_sampling.values in
  let big_mf = float_of_int big_m and mf = float_of_int m in
  let point = big_mf /. mf *. Stats.Summary.total summary in
  let variance =
    if m < 2 then Float.nan
    else
      big_mf *. big_mf *. (1. -. (mf /. big_mf)) *. Stats.Summary.variance summary /. mf
  in
  let tuples_read = sample.Sampling.Page_sampling.tuples in
  let estimate =
    Stats.Estimate.make ~variance ~label:"cluster" ~status:Stats.Estimate.Unbiased
      ~sample_size:tuples_read point
  in
  { estimate; pages_sampled = m; tuples_read }

let count ?metrics rng ~m paged predicate =
  let keep = Relational.Predicate.compile (Paged.schema paged) predicate in
  let measure page =
    Array.fold_left (fun acc t -> if keep t then acc +. 1. else acc) 0. page
  in
  estimate ?metrics rng ~m paged ~measure

(* Goal-based entry: cluster sampling draws whole pages, so the
   resolved tuple fraction becomes a page count — the root-sampling
   strategy at page granularity.  At least 2 pages whenever the file
   has 2, so a variance estimate is always attached. *)
let count_with_goal ?metrics rng ~goal paged predicate =
  let big_m = Paged.page_count paged in
  let fraction = Planner.fraction_of_goal ~population:(Paged.cardinality paged) goal in
  let m =
    Stdlib.max
      (Stdlib.min big_m 2)
      (Stdlib.min big_m (int_of_float (Float.ceil (fraction *. float_of_int big_m))))
  in
  count ?metrics rng ~m paged predicate
