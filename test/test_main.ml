(* Test entry point: every [Test_x.suite] registers under its own
   section so failures name the module at fault. *)

let () =
  Alcotest.run "raestat"
    [
      ("value", Test_value.suite);
      ("schema", Test_schema.suite);
      ("tuple", Test_tuple.suite);
      ("relation", Test_relation.suite);
      ("columnar", Test_columnar.suite);
      ("scratch", Test_scratch.suite);
      ("predicate", Test_predicate.suite);
      ("expr", Test_expr.suite);
      ("eval", Test_eval.suite);
      ("csv", Test_csv.suite);
      ("parser", Test_parser.suite);
      ("physical", Test_physical.suite);
      ("optimizer", Test_optimizer.suite);
      ("sql", Test_sql.suite);
      ("paged", Test_paged.suite);
      ("pagefile", Test_pagefile.suite);
      ("catalog", Test_catalog.suite);
      ("rng", Test_rng.suite);
      ("metrics", Test_metrics.suite);
      ("srs", Test_srs.suite);
      ("bernoulli", Test_bernoulli.suite);
      ("reservoir", Test_reservoir.suite);
      ("stratified", Test_stratified.suite);
      ("systematic", Test_systematic.suite);
      ("page-sampling", Test_page_sampling.suite);
      ("weighted", Test_weighted.suite);
      ("window", Test_window.suite);
      ("distributions", Test_distributions.suite);
      ("summary", Test_summary.suite);
      ("confidence", Test_confidence.suite);
      ("estimate", Test_estimate.suite);
      ("sampling-plan", Test_sampling_plan.suite);
      ("aggregate", Test_aggregate.suite);
      ("stratified-estimator", Test_stratified_estimator.suite);
      ("backing-sample", Test_backing_sample.suite);
      ("stream-relation", Test_stream_relation.suite);
      ("group-count", Test_group_count.suite);
      ("group-sum", Test_group_sum.suite);
      ("sample-size", Test_sample_size.suite);
      ("horvitz-thompson", Test_horvitz_thompson.suite);
      ("quantile", Test_quantile.suite);
      ("planner", Test_planner.suite);
      ("index", Test_index.suite);
      ("table", Test_table.suite);
      ("bootstrap", Test_bootstrap.suite);
      ("count-estimator", Test_count_estimator.suite);
      ("parallel", Test_parallel.suite);
      ("join-variance", Test_join_variance.suite);
      ("distinct", Test_distinct.suite);
      ("cluster", Test_cluster.suite);
      ("sequential", Test_sequential.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("integration", Test_integration.suite);
      ("estplan", Test_estplan.suite);
      ("check", Test_check.suite);
      ("serve", Test_serve.suite);
      ("golden", Test_golden.suite);
      ("robustness", Test_robustness.suite);
    ]
