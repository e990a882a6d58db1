open Helpers
module Sequential = Raestat.Sequential
module Estimate = Stats.Estimate
module P = Predicate

let catalog () =
  let rng_ = rng ~seed:41 () in
  Catalog.of_list
    [
      ( "r",
        Workload.Generator.int_relation rng_ ~n:20_000 ~attribute:"a"
          (Workload.Dist.Uniform { lo = 0; hi = 99 }) );
    ]

let pred = P.lt (P.attr "a") (P.vint 30)

let test_reaches_loose_target () =
  let c = catalog () in
  let result = Sequential.selection (rng ()) c ~relation:"r" ~target:0.2 pred in
  Alcotest.(check bool) "reached" true result.Sequential.reached_target;
  (* Truth ≈ 6000; a ±20% request should stop well before a census. *)
  Alcotest.(check bool) "stopped early" true
    (result.Sequential.estimate.Estimate.sample_size < 20_000);
  let truth = float_of_int (Eval.count c (Expr.select pred (Expr.base "r"))) in
  check_close ~tol:0.25 "estimate sane" truth result.Sequential.estimate.Estimate.point

let test_tight_target_needs_more_samples () =
  let c = catalog () in
  let loose = Sequential.selection (rng ~seed:1 ()) c ~relation:"r" ~target:0.3 pred in
  let tight = Sequential.selection (rng ~seed:1 ()) c ~relation:"r" ~target:0.05 pred in
  Alcotest.(check bool) "monotone effort" true
    (tight.Sequential.estimate.Estimate.sample_size
    > loose.Sequential.estimate.Estimate.sample_size)

let test_trajectory_monotone () =
  let c = catalog () in
  let result = Sequential.selection (rng ()) c ~relation:"r" ~target:0.1 ~batch:50 pred in
  let ns = List.map (fun p -> p.Sequential.n) result.Sequential.trajectory in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "n strictly increasing" true (increasing ns);
  Alcotest.(check bool) "at least two batches" true (List.length ns >= 2)

let test_zero_selectivity_exhausts () =
  let c = catalog () in
  let result =
    Sequential.selection (rng ()) c ~relation:"r" ~target:0.1 ~batch:5000 P.False
  in
  check_float "zero estimate" 0. result.Sequential.estimate.Estimate.point;
  Alcotest.(check int) "census" 20_000 result.Sequential.estimate.Estimate.sample_size

let test_selection_validation () =
  let c = catalog () in
  Alcotest.(check bool) "bad target" true
    (try
       ignore (Sequential.selection (rng ()) c ~relation:"r" ~target:0. pred);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad batch" true
    (try
       ignore (Sequential.selection (rng ()) c ~relation:"r" ~target:0.1 ~batch:0 pred);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad level" true
    (try
       ignore (Sequential.selection (rng ()) c ~relation:"r" ~target:0.1 ~level:1.5 pred);
       false
     with Invalid_argument _ -> true)

let test_many_batches_complete () =
  (* Regression: the stop test once recomputed [List.length !trajectory]
     every batch, making an n-batch run O(n²).  batch:1 over 10k tuples
     with an unsatisfiable target forces a census of 10_000 one-tuple
     batches; the run must stay linear (and the trajectory complete). *)
  let rng_ = rng ~seed:7 () in
  let c =
    Catalog.of_list
      [
        ( "r",
          Workload.Generator.int_relation rng_ ~n:10_000 ~attribute:"a"
            (Workload.Dist.Uniform { lo = 0; hi = 9 }) );
      ]
  in
  let metrics = Obs.Metrics.create () in
  (* A zero-hit predicate keeps the point at 0, so no prefix is ever
     "precise" and the loop must walk every batch to the census. *)
  let result =
    Sequential.selection ~metrics (rng ()) c ~relation:"r" ~target:1e-9 ~batch:1 P.False
  in
  Alcotest.(check int) "one trajectory point per batch" 10_000
    (List.length result.Sequential.trajectory);
  Alcotest.(check int) "census" 10_000 result.Sequential.estimate.Estimate.sample_size;
  let ns = List.map (fun p -> p.Sequential.n) result.Sequential.trajectory in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "n strictly increasing" true (increasing ns);
  Alcotest.(check int) "every tuple scanned once" 10_000
    (Obs.Metrics.snapshot metrics).Obs.Metrics.tuples_scanned

let test_two_phase () =
  let c = catalog () in
  let e = Expr.select pred (Expr.base "r") in
  let result = Sequential.two_phase (rng ()) c ~target:0.15 ~pilot_fraction:0.005 e in
  Alcotest.(check bool) "trajectory has pilot" true
    (List.length result.Sequential.trajectory >= 1);
  let truth = float_of_int (Eval.count c e) in
  check_close ~tol:0.3 "estimate sane" truth result.Sequential.estimate.Estimate.point

let test_two_phase_pilot_short_circuit () =
  (* COUNT of a bare base relation is exact at any fraction (scale × n
     = N), so every pilot replicate agrees, the variance is 0 and the
     pilot alone satisfies the target: no final phase runs. *)
  let c = catalog () in
  let result =
    Sequential.two_phase (rng ()) c ~target:0.1 ~pilot_fraction:0.01 (Expr.base "r")
  in
  Alcotest.(check bool) "reached" true result.Sequential.reached_target;
  Alcotest.(check int) "pilot point only" 1 (List.length result.Sequential.trajectory);
  check_float "exact" 20_000. result.Sequential.estimate.Estimate.point

let test_two_phase_final_fraction_clamps () =
  (* An unreachably tight target blows the computed final fraction past
     1; it must clamp to a census, whose replicates all equal the truth
     — zero variance, so the census does reach the target. *)
  let c = catalog () in
  let e = Expr.select pred (Expr.base "r") in
  let result =
    Sequential.two_phase (rng ()) c ~target:1e-9 ~pilot_fraction:0.01 ~groups:5 e
  in
  Alcotest.(check int) "pilot and final points" 2
    (List.length result.Sequential.trajectory);
  let truth = float_of_int (Eval.count c e) in
  check_float "census point is exact" truth result.Sequential.estimate.Estimate.point;
  check_float "census variance is zero" 0. result.Sequential.estimate.Estimate.variance;
  Alcotest.(check bool) "census reaches any positive target" true
    result.Sequential.reached_target;
  (* 5 replicates at fraction 1 are one census, counted once: the
     final phase alone reads N. *)
  Alcotest.(check int) "final sample is one census" 20_000
    result.Sequential.estimate.Estimate.sample_size

let test_two_phase_validation () =
  let c = catalog () in
  let e = Expr.base "r" in
  Alcotest.(check bool) "groups<2" true
    (try
       ignore (Sequential.two_phase (rng ()) c ~target:0.1 ~groups:1 e);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad pilot" true
    (try
       ignore (Sequential.two_phase (rng ()) c ~target:0.1 ~pilot_fraction:0. e);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "reaches loose target" `Quick test_reaches_loose_target;
    Alcotest.test_case "tighter target costs more" `Quick test_tight_target_needs_more_samples;
    Alcotest.test_case "trajectory monotone" `Quick test_trajectory_monotone;
    Alcotest.test_case "zero selectivity exhausts" `Quick test_zero_selectivity_exhausts;
    Alcotest.test_case "selection validation" `Quick test_selection_validation;
    Alcotest.test_case "10k one-tuple batches complete" `Quick test_many_batches_complete;
    Alcotest.test_case "two-phase" `Quick test_two_phase;
    Alcotest.test_case "two-phase pilot short-circuit" `Quick
      test_two_phase_pilot_short_circuit;
    Alcotest.test_case "two-phase final fraction clamps" `Quick
      test_two_phase_final_fraction_clamps;
    Alcotest.test_case "two-phase validation" `Quick test_two_phase_validation;
  ]
