open Helpers
module Bootstrap = Raestat.Bootstrap
module Estimate = Stats.Estimate
module P = Predicate

let mean values = Array.fold_left ( +. ) 0. values /. float_of_int (Array.length values)

let test_point_is_original_statistic () =
  let sample = [| 1.; 2.; 3.; 4. |] in
  let result = Bootstrap.run (rng ()) ~replicates:50 ~statistic:mean sample in
  check_float "point" 2.5 result.Bootstrap.point;
  Alcotest.(check int) "replicate count" 50 (Array.length result.Bootstrap.replicates)

let test_replicates_stay_in_hull () =
  let sample = [| 10.; 20.; 30. |] in
  let result = Bootstrap.run (rng ()) ~replicates:200 ~statistic:mean sample in
  Array.iter
    (fun v -> if v < 10. -. 1e-9 || v > 30. +. 1e-9 then Alcotest.failf "out of hull %f" v)
    result.Bootstrap.replicates

let test_bootstrap_variance_close_to_theory () =
  (* Var of the mean of n observations ≈ s²/n (bootstrap uses the
     population variance of the sample: s²_pop/n). *)
  let rng_ = rng ~seed:171 () in
  let sample = Array.init 200 (fun _ -> Sampling.Rng.gaussian rng_) in
  let result = Bootstrap.run rng_ ~replicates:2_000 ~statistic:mean sample in
  let s = Stats.Summary.of_array sample in
  let theory = Stats.Summary.population_variance s /. 200. in
  check_close ~tol:0.15 "variance" theory (Bootstrap.variance result)

let test_intervals () =
  let rng_ = rng ~seed:172 () in
  let sample = Array.init 100 (fun _ -> Sampling.Rng.float rng_) in
  let result = Bootstrap.run rng_ ~replicates:500 ~statistic:mean sample in
  let pct = Bootstrap.percentile_interval ~level:0.9 result in
  let nrm = Bootstrap.normal_interval ~level:0.9 result in
  Alcotest.(check bool) "pct contains point" true
    (Stats.Confidence.contains pct result.Bootstrap.point);
  Alcotest.(check bool) "nrm contains point" true
    (Stats.Confidence.contains nrm result.Bootstrap.point);
  (* The two intervals should have comparable width here. *)
  let ratio = Stats.Confidence.width pct /. Stats.Confidence.width nrm in
  Alcotest.(check bool) (Printf.sprintf "width ratio %.2f sane" ratio) true
    (ratio > 0.5 && ratio < 2.)

let test_validation () =
  Alcotest.(check bool) "empty sample" true
    (try
       ignore (Bootstrap.run (rng ()) ~replicates:10 ~statistic:mean [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero replicates" true
    (try
       ignore (Bootstrap.run (rng ()) ~replicates:0 ~statistic:mean [| 1. |]);
       false
     with Invalid_argument _ -> true)

(* The selection count reports its errors under the public entry
   points that check them. *)
let test_selection_count_errors () =
  let r =
    Workload.Generator.int_relation (rng ()) ~n:100 ~attribute:"a"
      (Workload.Dist.Uniform { lo = 0; hi = 9 })
  in
  let c = Catalog.of_list [ ("r", r) ] in
  let pred = P.lt (P.attr "a") (P.vint 3) in
  let count ?replicates ?level n () =
    ignore (Bootstrap.selection_count (rng ()) c ~relation:"r" ~n ?replicates ?level pred)
  in
  Alcotest.check_raises "zero replicates"
    (Invalid_argument "Bootstrap.run: replicates must be positive")
    (count ~replicates:0 10);
  Alcotest.check_raises "sample size"
    (Invalid_argument "Bootstrap.selection_count: sample size out of range")
    (count 101);
  Alcotest.check_raises "level"
    (Invalid_argument "Bootstrap.percentile_interval: level outside (0, 1)")
    (count ~level:1. 10)

let test_selection_count_estimate () =
  let rng_ = rng ~seed:173 () in
  let r =
    Workload.Generator.int_relation rng_ ~n:20_000 ~attribute:"a"
      (Workload.Dist.Uniform { lo = 0; hi = 99 })
  in
  let c = Catalog.of_list [ ("r", r) ] in
  let pred = P.lt (P.attr "a") (P.vint 30) in
  let truth = float_of_int (Eval.count c (Expr.select pred (Expr.base "r"))) in
  let est, interval = Bootstrap.selection_count rng_ c ~relation:"r" ~n:800 pred in
  Alcotest.(check bool) "variance attached" true (Estimate.has_variance est);
  check_close ~tol:0.15 "point near truth" truth est.Estimate.point;
  Alcotest.(check bool) "interval sane" true
    (interval.Stats.Confidence.lo <= est.Estimate.point
    && est.Estimate.point <= interval.Stats.Confidence.hi)

let test_selection_count_coverage () =
  let rng_ = rng ~seed:174 () in
  let r =
    Workload.Generator.int_relation rng_ ~n:20_000 ~attribute:"a"
      (Workload.Dist.Uniform { lo = 0; hi = 99 })
  in
  let c = Catalog.of_list [ ("r", r) ] in
  let pred = P.lt (P.attr "a") (P.vint 30) in
  let truth = float_of_int (Eval.count c (Expr.select pred (Expr.base "r"))) in
  let reps = 150 in
  let covered = ref 0 in
  for _ = 1 to reps do
    let _, interval =
      Bootstrap.selection_count rng_ c ~relation:"r" ~n:500 ~replicates:200 ~level:0.9 pred
    in
    if Stats.Confidence.contains interval truth then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int reps in
  (* The bootstrap ignores the FPC, so it is slightly conservative;
     anything ≥ 0.85 at nominal 0.9 passes. *)
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.2f" coverage)
    true (coverage >= 0.85)

let suite =
  [
    Alcotest.test_case "point is original statistic" `Quick test_point_is_original_statistic;
    Alcotest.test_case "replicates in hull" `Quick test_replicates_stay_in_hull;
    Alcotest.test_case "variance close to theory (MC)" `Slow
      test_bootstrap_variance_close_to_theory;
    Alcotest.test_case "intervals" `Quick test_intervals;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "selection count errors" `Quick test_selection_count_errors;
    Alcotest.test_case "selection count estimate" `Quick test_selection_count_estimate;
    Alcotest.test_case "selection count coverage (MC)" `Slow test_selection_count_coverage;
  ]
