open Helpers
module Plan = Raestat.Sampling_plan

let catalog () =
  Catalog.of_list
    [
      ("r", int_relation (List.init 100 (fun i -> i)));
      ("s", int_relation ~attribute:"b" (List.init 50 (fun i -> i)));
    ]

let test_aliases_and_scale () =
  let c = catalog () in
  let e = Expr.product (Expr.base "r") (Expr.base "s") in
  let plan = Plan.make c ~fraction:0.1 e in
  Alcotest.(check int) "two leaves" 2 (List.length plan.Plan.leaves);
  let aliases = List.map (fun l -> l.Plan.alias) plan.Plan.leaves in
  Alcotest.(check (list string)) "aliases" [ "r#0"; "s#1" ] aliases;
  (* Scale = (100/10)·(50/5) = 100. *)
  check_float "scale" 100. plan.Plan.scale

let test_self_join_gets_two_independent_leaves () =
  let c = catalog () in
  let e = Expr.product (Expr.base "r") (Expr.base "r") in
  let plan = Plan.make c ~fraction:0.2 e in
  let aliases = List.map (fun l -> l.Plan.alias) plan.Plan.leaves in
  Alcotest.(check (list string)) "distinct aliases" [ "r#0"; "r#1" ] aliases;
  let rng_ = rng () in
  let sampled, total, _ = Plan.draw rng_ c plan in
  Alcotest.(check int) "both samples drawn" 40 total;
  let s0 = Catalog.find sampled "r#0" and s1 = Catalog.find sampled "r#1" in
  (* Two independent 20-tuple draws from 100 values almost surely
     differ. *)
  let values r =
    List.sort compare
      (Array.to_list (Array.map Tuple.to_string (Relation.tuples r)))
  in
  Alcotest.(check bool) "independent draws differ" true (values s0 <> values s1)

let test_draw_sizes () =
  let c = catalog () in
  let e = Expr.base "r" in
  let plan = Plan.make c ~fraction:0.07 e in
  let sampled, total, _ = Plan.draw (rng ()) c plan in
  Alcotest.(check int) "total" 7 total;
  Alcotest.(check int) "leaf size" 7 (Relation.cardinality (Catalog.find sampled "r#0"))

let test_rewritten_expression_evaluates () =
  let c = catalog () in
  let e = Expr.select (Predicate.le (Predicate.attr "a") (Predicate.vint 49)) (Expr.base "r") in
  let plan = Plan.make c ~fraction:1.0 e in
  let sampled, _, _ = Plan.draw (rng ()) c plan in
  Alcotest.(check int) "full fraction count" 50 (Eval.count sampled plan.Plan.expr)

let test_custom_modes () =
  let c = catalog () in
  let e = Expr.product (Expr.base "r") (Expr.base "s") in
  let plan =
    Plan.make_custom c
      ~mode:(fun _ name _ -> if name = "r" then Plan.Srswor 10 else Plan.Bernoulli 0.5)
      e
  in
  (* Scale = (100/10)·(1/0.5) = 20. *)
  check_float "mixed scale" 20. plan.Plan.scale;
  check_float "expected size" (10. +. 25.) (Plan.expected_sample_size plan)

let test_invalid_modes () =
  let c = catalog () in
  Alcotest.(check bool) "oversized srswor" true
    (try
       ignore (Plan.make_custom c ~mode:(fun _ _ _ -> Plan.Srswor 1000) (Expr.base "r"));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad bernoulli" true
    (try
       ignore (Plan.make_custom c ~mode:(fun _ _ _ -> Plan.Bernoulli 0.) (Expr.base "r"));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad fraction" true
    (try
       ignore (Plan.make c ~fraction:2.0 (Expr.base "r"));
       false
     with Invalid_argument _ -> true)

let test_empty_relation_is_census_of_nothing () =
  (* Regression: empty leaves used to raise from [make]; they now plan
     as [Srswor 0] — a census with scale 1 — and estimate to an exact 0
     with a zero-width CI instead of an exception. *)
  let c =
    Catalog.of_list
      [
        ("e", Relation.empty (Schema.of_list [ ("a", Value.Tint) ]));
        ("r", int_relation (List.init 20 (fun i -> i)));
      ]
  in
  let plan = Plan.make c ~fraction:0.5 (Expr.base "e") in
  (match plan.Plan.leaves with
  | [ leaf ] ->
    Alcotest.(check int) "population" 0 leaf.Plan.population;
    Alcotest.(check bool) "empty census mode" true (leaf.Plan.mode = Plan.Srswor 0);
    check_float "leaf scale" 1. (Plan.leaf_scale leaf)
  | _ -> Alcotest.fail "expected one leaf");
  check_float "plan scale" 1. plan.Plan.scale;
  let sampled, total, _ = Plan.draw (rng ()) c plan in
  Alcotest.(check int) "nothing drawn" 0 total;
  Alcotest.(check int) "empty sample bound" 0
    (Relation.cardinality (Catalog.find sampled "e#0"));
  (* End to end: a join against an empty relation estimates 0. *)
  let est =
    Raestat.Count_estimator.estimate (rng ()) c ~fraction:0.5
      (Expr.product (Expr.base "r") (Expr.base "e"))
  in
  check_float "estimate" 0. est.Stats.Estimate.point;
  (* A non-empty leaf still refuses a zero-size sample. *)
  Alcotest.(check bool) "Srswor 0 on non-empty leaf rejected" true
    (try
       ignore (Plan.make_custom c ~mode:(fun _ _ _ -> Plan.Srswor 0) (Expr.base "r"));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "aliases and scale" `Quick test_aliases_and_scale;
    Alcotest.test_case "self-join independent leaves" `Quick
      test_self_join_gets_two_independent_leaves;
    Alcotest.test_case "draw sizes" `Quick test_draw_sizes;
    Alcotest.test_case "rewritten expression evaluates" `Quick
      test_rewritten_expression_evaluates;
    Alcotest.test_case "custom modes" `Quick test_custom_modes;
    Alcotest.test_case "invalid modes" `Quick test_invalid_modes;
    Alcotest.test_case "empty relation is census of nothing" `Quick
      test_empty_relation_is_census_of_nothing;
  ]
