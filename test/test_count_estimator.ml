open Helpers
module CE = Raestat.Count_estimator
module P = Predicate
module Estimate = Stats.Estimate

(* A fixed catalog used by most cases: r.a uniform over 0..9 (1000
   tuples), s.b skewed over 0..9 (500 tuples). *)
let catalog () =
  let rng_ = rng ~seed:1 () in
  let r = Workload.Generator.int_relation rng_ ~n:1000 ~attribute:"a"
      (Workload.Dist.Uniform { lo = 0; hi = 9 })
  in
  let s = Workload.Generator.int_relation rng_ ~n:500 ~attribute:"b"
      (Workload.Dist.Zipf { n_values = 10; skew = 1.0 })
  in
  Catalog.of_list [ ("r", r); ("s", s) ]

let test_classify () =
  let join = Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s") in
  Alcotest.(check bool) "join unbiased" true (CE.classify join = Estimate.Unbiased);
  Alcotest.(check bool) "select unbiased" true
    (CE.classify (Expr.select P.True (Expr.base "r")) = Estimate.Unbiased);
  Alcotest.(check bool) "self join unbiased" true
    (CE.classify (Expr.product (Expr.base "r") (Expr.base "r")) = Estimate.Unbiased);
  Alcotest.(check bool) "bag projection unbiased" true
    (CE.classify (Expr.project [ "a" ] (Expr.base "r")) = Estimate.Unbiased);
  Alcotest.(check bool) "distinct consistent" true
    (CE.classify (Expr.distinct (Expr.base "r")) = Estimate.Consistent);
  Alcotest.(check bool) "union consistent" true
    (CE.classify (Expr.union (Expr.base "r") (Expr.base "r")) = Estimate.Consistent);
  Alcotest.(check bool) "aggregate consistent" true
    (CE.classify (Expr.group_count ~by:[ "a" ] (Expr.base "r")) = Estimate.Consistent)

let test_fraction_one_exact () =
  let c = catalog () in
  let exprs =
    [
      Expr.select (P.le (P.attr "a") (P.vint 3)) (Expr.base "r");
      Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s");
      Expr.product (Expr.base "r") (Expr.base "s");
      Expr.distinct (Expr.base "r");
    ]
  in
  List.iter
    (fun e ->
      let truth = float_of_int (Eval.count c e) in
      let est = CE.estimate (rng ()) c ~fraction:1.0 e in
      check_float ~eps:1e-9 (Expr.to_string e) truth est.Estimate.point)
    exprs

let monte_carlo_mean ~reps c ~fraction e =
  let rng_ = rng ~seed:77 () in
  monte_carlo ~reps (fun () -> (CE.estimate rng_ c ~fraction e).Estimate.point)

let test_selection_scale_up_unbiased_mc () =
  let c = catalog () in
  let e = Expr.select (P.le (P.attr "a") (P.vint 2)) (Expr.base "r") in
  let truth = float_of_int (Eval.count c e) in
  let mean = monte_carlo_mean ~reps:400 c ~fraction:0.1 e in
  (* SE of the MC mean ≈ truth·sqrt((1-f)/(f·n·reps)) — generous 5%. *)
  check_close ~tol:0.05 "mean ≈ truth" truth mean

let test_join_scale_up_unbiased_mc () =
  let c = catalog () in
  let e = Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s") in
  let truth = float_of_int (Eval.count c e) in
  let mean = monte_carlo_mean ~reps:300 c ~fraction:0.1 e in
  check_close ~tol:0.06 "mean ≈ truth" truth mean

let test_self_join_unbiased_mc () =
  let c = catalog () in
  let e =
    Expr.theta_join (P.eq (P.attr "l.a") (P.attr "r.a")) (Expr.base "r") (Expr.base "r")
  in
  let truth = float_of_int (Eval.count c e) in
  let mean = monte_carlo_mean ~reps:300 c ~fraction:0.1 e in
  check_close ~tol:0.06 "mean ≈ truth" truth mean

let test_product_estimate_exact_for_any_draw () =
  (* |S1×S2|·scale = n1·n2·(N1 N2)/(n1 n2) is deterministic. *)
  let c = catalog () in
  let e = Expr.product (Expr.base "r") (Expr.base "s") in
  let est = CE.estimate (rng ()) c ~fraction:0.05 e in
  check_float "exact" 500_000. est.Estimate.point

let test_replicated_estimate_carries_variance () =
  let c = catalog () in
  let e = Expr.select (P.le (P.attr "a") (P.vint 4)) (Expr.base "r") in
  let est = CE.estimate ~groups:6 (rng ()) c ~fraction:0.05 e in
  Alcotest.(check bool) "has variance" true (Estimate.has_variance est);
  Alcotest.(check bool) "variance non-negative" true (est.Estimate.variance >= 0.);
  let truth = float_of_int (Eval.count c e) in
  (* Point should be in a broad band around the truth. *)
  check_close ~tol:0.5 "rough point" truth est.Estimate.point

let test_selection_estimator_fields () =
  let c = catalog () in
  let est = CE.selection (rng ()) c ~relation:"r" ~n:200 (P.le (P.attr "a") (P.vint 4)) in
  Alcotest.(check int) "sample size" 200 est.Estimate.sample_size;
  Alcotest.(check bool) "unbiased" true (est.Estimate.status = Estimate.Unbiased);
  Alcotest.(check bool) "variance attached" true (Estimate.has_variance est)

let test_selection_of_counts_formulas () =
  (* N=100, n=10, hits=5 ⇒ point 50, var = 100²·0.9·0.25/9. *)
  let est = CE.selection_of_counts ~big_n:100 ~n:10 ~hits:5 in
  check_float "point" 50. est.Estimate.point;
  check_float ~eps:1e-9 "variance" (10_000. *. 0.9 *. 0.25 /. 9.) est.Estimate.variance;
  (* Census: zero variance. *)
  let census = CE.selection_of_counts ~big_n:50 ~n:50 ~hits:20 in
  check_float "census variance" 0. census.Estimate.variance;
  Alcotest.(check bool) "bad hits" true
    (try
       ignore (CE.selection_of_counts ~big_n:10 ~n:5 ~hits:6);
       false
     with Invalid_argument _ -> true)

let test_selection_mc_unbiased_and_variance_honest () =
  let c = catalog () in
  let p = P.le (P.attr "a") (P.vint 2) in
  let truth = float_of_int (Eval.count c (Expr.select p (Expr.base "r"))) in
  let rng_ = rng ~seed:5 () in
  let points = Array.init 400 (fun _ -> CE.selection rng_ c ~relation:"r" ~n:100 p) in
  let mean = Stats.Summary.mean (Stats.Summary.of_array (Array.map (fun e -> e.Estimate.point) points)) in
  check_close ~tol:0.04 "unbiased" truth mean;
  (* The average estimated variance should match the empirical variance
     of the points within a broad band. *)
  let empirical =
    Stats.Summary.variance (Stats.Summary.of_array (Array.map (fun e -> e.Estimate.point) points))
  in
  let predicted =
    Stats.Summary.mean (Stats.Summary.of_array (Array.map (fun e -> e.Estimate.variance) points))
  in
  check_close ~tol:0.30 "variance estimate honest" empirical predicted

let test_equijoin_replicated () =
  let c = catalog () in
  let est = CE.equijoin ~groups:8 (rng ()) c ~left:"r" ~right:"s" ~on:[ ("a", "b") ] ~fraction:0.4 in
  Alcotest.(check bool) "variance" true (Estimate.has_variance est);
  let truth =
    float_of_int (Eval.count c (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s")))
  in
  check_close ~tol:0.5 "rough point" truth est.Estimate.point

let test_equijoin_indexed_census_exact () =
  let c = catalog () in
  let truth =
    float_of_int (Eval.count c (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s")))
  in
  let est = CE.equijoin_indexed (rng ()) c ~left:"r" ~right:"s" ~on:("a", "b") ~n:1000 in
  check_float "census" truth est.Estimate.point;
  check_float "no variance at census" 0. est.Estimate.variance

let test_equijoin_indexed_unbiased_mc () =
  let c = catalog () in
  let truth =
    float_of_int (Eval.count c (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s")))
  in
  let rng_ = rng ~seed:201 () in
  let index =
    Relational.Index.build (Catalog.find c "s") ~attributes:[ "b" ]
  in
  let mean =
    monte_carlo ~reps:400 (fun () ->
        (CE.equijoin_indexed ~index rng_ c ~left:"r" ~right:"s" ~on:("a", "b") ~n:100)
          .Estimate.point)
  in
  check_close ~tol:0.04 "unbiased" truth mean

let test_equijoin_indexed_variance_honest () =
  let c = catalog () in
  let rng_ = rng ~seed:202 () in
  let index = Relational.Index.build (Catalog.find c "s") ~attributes:[ "b" ] in
  let estimates =
    Array.init 300 (fun _ ->
        CE.equijoin_indexed ~index rng_ c ~left:"r" ~right:"s" ~on:("a", "b") ~n:100)
  in
  let points = Array.map (fun e -> e.Estimate.point) estimates in
  let empirical = Stats.Summary.variance (Stats.Summary.of_array points) in
  let predicted =
    Stats.Summary.mean
      (Stats.Summary.of_array (Array.map (fun e -> e.Estimate.variance) estimates))
  in
  check_close ~tol:0.30 "variance honest" empirical predicted

let test_equijoin_indexed_tighter_than_bilinear () =
  (* Same tuple budget: one-sided degree sampling beats two-sided
     bilinear sampling. *)
  let c = catalog () in
  let rng_ = rng ~seed:203 () in
  let index = Relational.Index.build (Catalog.find c "s") ~attributes:[ "b" ] in
  let reps = 200 in
  let sd points = Stats.Summary.stddev (Stats.Summary.of_array points) in
  let indexed =
    Array.init reps (fun _ ->
        (CE.equijoin_indexed ~index rng_ c ~left:"r" ~right:"s" ~on:("a", "b") ~n:150)
          .Estimate.point)
  in
  let bilinear =
    Array.init reps (fun _ ->
        (CE.equijoin ~groups:1 rng_ c ~left:"r" ~right:"s" ~on:[ ("a", "b") ]
           ~fraction:0.1)
          .Estimate.point)
  in
  Alcotest.(check bool)
    (Printf.sprintf "indexed sd %.0f < bilinear sd %.0f" (sd indexed) (sd bilinear))
    true
    (sd indexed < sd bilinear)

let test_equijoin_indexed_validation () =
  let c = catalog () in
  Alcotest.(check bool) "bad n" true
    (try
       ignore (CE.equijoin_indexed (rng ()) c ~left:"r" ~right:"s" ~on:("a", "b") ~n:0);
       false
     with Invalid_argument _ -> true);
  let wrong = Relational.Index.build (Catalog.find c "r") ~attributes:[ "a" ] in
  Alcotest.(check bool) "wrong index" true
    (try
       ignore
         (CE.equijoin_indexed ~index:wrong (rng ()) c ~left:"r" ~right:"s" ~on:("a", "b")
            ~n:10);
       false
     with Invalid_argument _ -> true)

let set_catalog ~overlap =
  let left, right =
    Workload.Generator.set_pair (rng ~seed:3 ()) ~card_left:400 ~card_right:300 ~overlap
      ~attribute:"a"
  in
  Catalog.of_list [ ("x", left); ("y", right) ]

let test_set_ops_points_and_status () =
  let c = set_catalog ~overlap:120 in
  let rng_ = rng () in
  let inter = CE.intersection rng_ c ~left:"x" ~right:"y" ~fraction:1.0 in
  check_float "full-fraction intersection exact" 120. inter.Estimate.point;
  let union = CE.union rng_ c ~left:"x" ~right:"y" ~fraction:1.0 in
  check_float "union exact" (400. +. 300. -. 120.) union.Estimate.point;
  let diff = CE.difference rng_ c ~left:"x" ~right:"y" ~fraction:1.0 in
  check_float "difference exact" 280. diff.Estimate.point;
  Alcotest.(check bool) "unbiased" true (inter.Estimate.status = Estimate.Unbiased)

let test_set_ops_unbiased_mc () =
  let c = set_catalog ~overlap:150 in
  let rng_ = rng ~seed:11 () in
  let mean =
    monte_carlo ~reps:400 (fun () ->
        (CE.intersection rng_ c ~left:"x" ~right:"y" ~fraction:0.3).Estimate.point)
  in
  check_close ~tol:0.05 "intersection mean" 150. mean;
  let mean_diff =
    monte_carlo ~reps:400 (fun () ->
        (CE.difference rng_ c ~left:"x" ~right:"y" ~fraction:0.3).Estimate.point)
  in
  check_close ~tol:0.05 "difference mean" 250. mean_diff

let test_set_ops_variance_honest () =
  let c = set_catalog ~overlap:150 in
  let rng_ = rng ~seed:12 () in
  let estimates =
    Array.init 300 (fun _ -> CE.intersection rng_ c ~left:"x" ~right:"y" ~fraction:0.3)
  in
  let points = Array.map (fun e -> e.Estimate.point) estimates in
  let empirical = Stats.Summary.variance (Stats.Summary.of_array points) in
  let predicted =
    Stats.Summary.mean
      (Stats.Summary.of_array (Array.map (fun e -> e.Estimate.variance) estimates))
  in
  check_close ~tol:0.35 "plug-in variance matches" empirical predicted

let test_set_ops_reject_bags () =
  let c = Catalog.of_list [ ("x", int_relation [ 1; 1 ]); ("y", int_relation [ 1 ]) ] in
  Alcotest.(check bool) "duplicates rejected" true
    (try
       ignore (CE.intersection (rng ()) c ~left:"x" ~right:"y" ~fraction:0.5);
       false
     with Invalid_argument _ -> true)

let test_dedup_expression_is_consistent_status () =
  let c = catalog () in
  let e = Expr.distinct (Expr.project [ "a" ] (Expr.base "r")) in
  let est = CE.estimate (rng ()) c ~fraction:0.2 e in
  Alcotest.(check bool) "consistent" true (est.Estimate.status = Estimate.Consistent)

let test_groups_validation () =
  let c = catalog () in
  Alcotest.(check bool) "groups=0" true
    (try
       ignore (CE.estimate ~groups:0 (rng ()) c ~fraction:0.1 (Expr.base "r"));
       false
     with Invalid_argument _ -> true)

(* --- replicates reusing the pool's arrays ------------------------------ *)

let lt a k = P.lt (P.attr a) (P.vint k)

(* The shapes over [pool_catalog] whose draws (Floyd's bitsets and the
   row ids), selection buffers and key tables are pooled at f = 0.05. *)
let pool_shapes =
  [
    ( "self-join",
      (* two same-size samples of r in flight *)
      Expr.equijoin [ ("a", "a2") ]
        (Expr.select (lt "b" 50) (Expr.base "r"))
        (Expr.rename [ ("a", "a2"); ("b", "b2") ] (Expr.base "r")) );
    ( "join under a join",
      Expr.equijoin [ ("d", "e") ]
        (Expr.equijoin [ ("a", "c") ] (Expr.select (lt "b" 60) (Expr.base "r")) (Expr.base "s"))
        (Expr.select (lt "f" 30) (Expr.base "t")) );
    ( "open addressing",
      Expr.equijoin [ ("a", "g") ] (Expr.select (lt "b" 80) (Expr.base "r")) (Expr.base "w") );
  ]

let outcome est m =
  (est.Estimate.point, est.Estimate.variance, Obs.Metrics.counters (Obs.Metrics.snapshot m))

(* An estimate repeated in one domain, after the other shapes have left
   their arrays in the pool, dirty, gives the point, variance and
   counters of one run on a fresh domain over a cold pool. *)
let test_pool_reuse () =
  let catalog = Lazy.force pool_catalog in
  let run e () =
    let m = Obs.Metrics.create () in
    outcome (CE.estimate ~groups:5 ~metrics:m (rng ~seed:5 ()) catalog ~fraction:0.05 e) m
  in
  let cold = List.map (fun (_, e) -> cold_run (run e)) pool_shapes in
  for _ = 1 to 3 do
    List.iter2
      (fun (name, e) expected -> Alcotest.(check bool) name true (run e () = expected))
      pool_shapes cold
  done

(* A census leaf binds the catalog's own relation.  Here that relation
   is a sample, whose ids belong to the catalog and must survive every
   replicate: its selection reads as many rows as it has ids, so a pool
   that got them back would hand them to that selection's buffer in the
   next replicate. *)
let test_census_sample_ids_survive () =
  let base = Lazy.force pool_catalog in
  let r = Catalog.find base "r" in
  let ids =
    Sampling.Srs.indices_without_replacement (rng ~seed:9 ()) ~n:1_500
      ~universe:(Relation.cardinality r)
  in
  let kept = Array.copy ids in
  let catalog = Catalog.of_list [ ("rs", Relation.sample r ids); ("s", Catalog.find base "s") ] in
  let e = Expr.equijoin [ ("a", "c") ] (Expr.select (lt "b" 50) (Expr.base "rs")) (Expr.base "s") in
  let mode _ name population =
    Raestat.Sampling_plan.Srswor (if name = "rs" then population else population / 20)
  in
  let plan =
    Raestat.Estplan.of_sampling_plan ~groups:5
      (Raestat.Sampling_plan.make_custom catalog ~mode e)
  in
  let run () =
    let m = Obs.Metrics.create () in
    outcome (Raestat.Estplan.run ~metrics:m (rng ~seed:6 ()) catalog plan) m
  in
  let cold = cold_run run in
  for _ = 1 to 3 do
    Alcotest.(check bool) "warm = cold" true (run () = cold)
  done;
  Alcotest.(check bool) "the catalog's ids" true (ids = kept)

(* While the replicates run, a second domain takes arrays of the length
   of their probe buffer, two at a time, and frees them, as fast as it
   can: a buffer the probe still read after handing it back would be
   zeroed under it.  The probe side is a census of t, whose 8,000 rows
   give the buffer a length nothing else here has; the build side is a
   fifth of w, keyed through the open-addressing table.  Every run gives
   the estimate and counters of the run without that domain. *)
let test_pool_domains () =
  let catalog = Lazy.force pool_catalog in
  let e = Expr.equijoin [ ("e", "g") ] (Expr.select (lt "f" 45) (Expr.base "t")) (Expr.base "w") in
  let mode _ name population =
    Raestat.Sampling_plan.Srswor (if name = "t" then population else population / 5)
  in
  let plan =
    Raestat.Estplan.of_sampling_plan ~groups:16 (Raestat.Sampling_plan.make_custom catalog ~mode e)
  in
  let run () =
    let m = Obs.Metrics.create () in
    outcome (Raestat.Estplan.run ~metrics:m (rng ~seed:13 ()) catalog plan) m
  in
  let alone = run () in
  let stop = Atomic.make false in
  let taker =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let a = Relational.Scratch.take 8_000 in
          let b = Relational.Scratch.take 8_000 in
          Relational.Scratch.free a;
          Relational.Scratch.free b
        done)
  in
  let runs = List.init 10 (fun _ -> run ()) in
  Atomic.set stop true;
  Domain.join taker;
  List.iter (fun r -> Alcotest.(check bool) "beside a taker = alone" true (r = alone)) runs

let suite =
  [
    Alcotest.test_case "classify" `Quick test_classify;
    Alcotest.test_case "fraction 1 is exact" `Quick test_fraction_one_exact;
    Alcotest.test_case "selection scale-up unbiased (MC)" `Slow
      test_selection_scale_up_unbiased_mc;
    Alcotest.test_case "join scale-up unbiased (MC)" `Slow test_join_scale_up_unbiased_mc;
    Alcotest.test_case "self-join unbiased (MC)" `Slow test_self_join_unbiased_mc;
    Alcotest.test_case "product estimate exact" `Quick test_product_estimate_exact_for_any_draw;
    Alcotest.test_case "replicated estimate has variance" `Quick
      test_replicated_estimate_carries_variance;
    Alcotest.test_case "selection estimator fields" `Quick test_selection_estimator_fields;
    Alcotest.test_case "selection_of_counts formulas" `Quick test_selection_of_counts_formulas;
    Alcotest.test_case "selection MC unbiased, variance honest" `Slow
      test_selection_mc_unbiased_and_variance_honest;
    Alcotest.test_case "equijoin replicated" `Quick test_equijoin_replicated;
    Alcotest.test_case "indexed join census exact" `Quick test_equijoin_indexed_census_exact;
    Alcotest.test_case "indexed join unbiased (MC)" `Slow test_equijoin_indexed_unbiased_mc;
    Alcotest.test_case "indexed join variance honest (MC)" `Slow
      test_equijoin_indexed_variance_honest;
    Alcotest.test_case "indexed beats bilinear (MC)" `Slow
      test_equijoin_indexed_tighter_than_bilinear;
    Alcotest.test_case "indexed join validation" `Quick test_equijoin_indexed_validation;
    Alcotest.test_case "set ops exact at fraction 1" `Quick test_set_ops_points_and_status;
    Alcotest.test_case "set ops unbiased (MC)" `Slow test_set_ops_unbiased_mc;
    Alcotest.test_case "set ops variance honest (MC)" `Slow test_set_ops_variance_honest;
    Alcotest.test_case "set ops reject bags" `Quick test_set_ops_reject_bags;
    Alcotest.test_case "dedup expressions marked consistent" `Quick
      test_dedup_expression_is_consistent_status;
    Alcotest.test_case "groups validation" `Quick test_groups_validation;
    Alcotest.test_case "replicates reuse the pool" `Quick test_pool_reuse;
    Alcotest.test_case "census sample ids survive the pool" `Quick
      test_census_sample_ids_survive;
    Alcotest.test_case "pool beside a concurrent taker" `Quick test_pool_domains;
  ]
