(* Failure injection and edge cases across the public API: degenerate
   relations, extreme parameters, hostile values.  The contract under
   test: fail loudly with Invalid_argument/Failure, or return a sane
   value — never crash, hang, or return garbage silently. *)

open Helpers
module CE = Raestat.Count_estimator
module Estimate = Stats.Estimate
module P = Predicate

let single = int_relation [ 7 ]

let constant = int_relation (List.init 100 (fun _ -> 42))

let test_single_tuple_relation () =
  let c = Catalog.of_list [ ("one", single) ] in
  (* Fraction anything → sample size 1. *)
  let est = CE.estimate (rng ()) c ~fraction:0.5 (Expr.base "one") in
  check_float "single tuple" 1. est.Estimate.point;
  let sel = CE.selection (rng ()) c ~relation:"one" ~n:1 (P.eq (P.attr "a") (P.vint 7)) in
  check_float "selection over n=1" 1. sel.Estimate.point;
  (* n=1 of N=1 is a census, which is exact; n=1 short of a census
     cannot carry a variance estimate. *)
  check_float "census of one is exact" 0. sel.Estimate.variance;
  let c = Catalog.of_list [ ("two", int_relation [ 7; 8 ]) ] in
  let sel = CE.selection (rng ()) c ~relation:"two" ~n:1 (P.eq (P.attr "a") (P.vint 7)) in
  Alcotest.(check bool) "no variance at n=1" false (Estimate.has_variance sel)

let test_constant_column () =
  let c = Catalog.of_list [ ("k", constant) ] in
  (* Zero-variance predicates: estimator must return exactly 0 or N. *)
  let all = CE.selection (rng ()) c ~relation:"k" ~n:10 (P.eq (P.attr "a") (P.vint 42)) in
  check_float "all match" 100. all.Estimate.point;
  check_float "zero variance" 0. all.Estimate.variance;
  let none = CE.selection (rng ()) c ~relation:"k" ~n:10 (P.eq (P.attr "a") (P.vint 0)) in
  check_float "none match" 0. none.Estimate.point;
  (* Distinct estimators on a constant column. *)
  let est =
    Raestat.Distinct.estimate (rng ()) c ~method_:Raestat.Distinct.Chao1 ~relation:"k"
      ~attributes:[ "a" ] ~n:10
  in
  check_float "one distinct value" 1. est.Estimate.point

let test_extreme_fractions () =
  let c = Catalog.of_list [ ("r", int_relation (List.init 1000 (fun i -> i))) ] in
  (* Tiny fraction clamps to one tuple instead of failing. *)
  let est = CE.estimate (rng ()) c ~fraction:1e-9 (Expr.base "r") in
  check_float "clamped to n=1" 1000. est.Estimate.point;
  (* Fraction exactly 1 is a census. *)
  let census = CE.estimate (rng ()) c ~fraction:1.0 (Expr.base "r") in
  check_float "census" 1000. census.Estimate.point

let test_estimates_never_nan_on_valid_inputs () =
  let rng_ = rng ~seed:181 () in
  let r =
    Workload.Generator.int_relation rng_ ~n:5_000 ~attribute:"a"
      (Workload.Dist.Zipf { n_values = 10; skew = 1.5 })
  in
  let c = Catalog.of_list [ ("r", r) ] in
  for _ = 1 to 50 do
    let est = CE.selection rng_ c ~relation:"r" ~n:50 (P.le (P.attr "a") (P.vint 1)) in
    if Float.is_nan est.Estimate.point then Alcotest.fail "nan point";
    if Estimate.has_variance est && est.Estimate.variance < 0. then
      Alcotest.fail "negative variance"
  done

let test_hostile_string_values () =
  (* Quotes, commas, newlines survive CSV and predicates. *)
  let schema = Schema.of_list [ ("s", Value.Tstr) ] in
  let nasty = [ "a,b"; "with \"double\""; "with 'single'"; "line\nbreak"; "" ] in
  let r = Relation.make schema (List.map (fun s -> Tuple.make [ Value.Str s ]) nasty) in
  let roundtripped = Relational.Csv.read_string (Relational.Csv.write_string r) in
  Alcotest.(check int) "csv roundtrip" 5 (Relation.cardinality roundtripped);
  let c = Catalog.of_list [ ("t", roundtripped) ] in
  List.iter
    (fun s ->
      Alcotest.(check int) (Printf.sprintf "find %S" s) 1
        (Eval.count c (Expr.select (P.eq (P.attr "s") (P.vstr s)) (Expr.base "t"))))
    nasty

let test_parser_pathological_inputs () =
  (* Deeply nested input must parse without stack issues and reject
     garbage without exploding. *)
  let deep = String.concat "" (List.init 200 (fun _ -> "distinct(")) ^ "r"
             ^ String.concat "" (List.init 200 (fun _ -> ")"))
  in
  let e = Relational.Parser.parse_expr deep in
  Alcotest.(check int) "deep nesting" 201 (Expr.size e);
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (Relational.Parser.parse_expr text);
           false
         with Failure _ -> true))
    [ "(((("; "select[](r)"; "r join[] s"; "π[a](r)"; "r ∪ s"; "\x00" ]

let test_sql_injectionish_inputs () =
  List.iter
    (fun text ->
      Alcotest.(check bool) text true
        (try
           ignore (Relational.Parser.parse_sql text);
           false
         with Failure _ -> true))
    [
      "SELECT * FROM r; DROP TABLE r";
      "SELECT * FROM r WHERE a = 1 OR";
      "SELECT * FROM r -- comment";
      "SELECT * FROM (SELECT * FROM r)";
    ]

let test_sequential_batch_larger_than_population () =
  let c = Catalog.of_list [ ("r", int_relation (List.init 50 (fun i -> i))) ] in
  let result =
    Raestat.Sequential.selection (rng ()) c ~relation:"r" ~target:0.01 ~batch:1000
      (P.lt (P.attr "a") (P.vint 10))
  in
  check_float "exact after census" 10. result.Raestat.Sequential.estimate.Estimate.point

let test_cluster_single_page () =
  let paged = Relational.Paged.make ~page_capacity:100 (int_relation (List.init 30 (fun i -> i))) in
  let result = Raestat.Cluster_estimator.count (rng ()) ~m:1 paged (P.lt (P.attr "a") (P.vint 10)) in
  check_float "single page census" 10.
    result.Raestat.Cluster_estimator.estimate.Estimate.point

let test_group_count_more_groups_than_sample () =
  (* 1000 groups, sample of 10: estimator returns ≤ 10 groups and never
     crashes. *)
  let r = int_relation (List.init 1000 (fun i -> i)) in
  let c = Catalog.of_list [ ("r", r) ] in
  let result = Raestat.Group_count.estimate (rng ()) c ~relation:"r" ~by:[ "a" ] ~n:10 () in
  Alcotest.(check bool) "at most n groups" true
    (List.length result.Raestat.Group_count.groups <= 10)

let test_planner_two_inputs_minimal () =
  let c =
    Catalog.of_list
      [
        ("x", int_relation (List.init 100 (fun i -> i mod 10)));
        ("y", int_relation ~attribute:"b" (List.init 100 (fun i -> i mod 10)));
      ]
  in
  let plan =
    Raestat.Planner.plan (rng ()) c ~fraction:0.5
      ~inputs:[ { Raestat.Planner.name = "x"; filter = None };
                { Raestat.Planner.name = "y"; filter = None } ]
      ~joins:[ { Raestat.Planner.left_attr = "a"; right_attr = "b" } ]
  in
  Alcotest.(check int) "two inputs" 2 (List.length plan.Raestat.Planner.order);
  check_float "no strict intermediates" 0. plan.Raestat.Planner.estimated_cost

let test_backing_sample_delete_storm () =
  (* Insert/delete churn must keep invariants: population ≥ sample ≥ 0. *)
  let schema = Schema.of_list [ ("a", Value.Tint) ] in
  let bs = Raestat.Backing_sample.create (rng ()) ~capacity:50 ~schema in
  let ids = ref [] in
  for v = 1 to 2_000 do
    ids := Raestat.Backing_sample.insert bs (Tuple.make [ Value.Int v ]) :: !ids;
    if v mod 3 = 0 then
      match !ids with
      | id :: rest ->
        ignore (Raestat.Backing_sample.delete bs id);
        ids := rest
      | [] -> ()
  done;
  let population = Raestat.Backing_sample.population bs in
  let sample = Raestat.Backing_sample.sample_size bs in
  Alcotest.(check bool)
    (Printf.sprintf "0 <= %d <= %d" sample population)
    true
    (0 <= sample && sample <= 50 && sample <= population)

let test_weighted_all_zero_weights () =
  Alcotest.(check bool) "no positive weights" true
    (try
       ignore
         (Sampling.Weighted.poisson (rng ()) ~expected_n:1. ~weight:(fun _ -> 0.) [| 1; 2 |]);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "single-tuple relation" `Quick test_single_tuple_relation;
    Alcotest.test_case "constant column" `Quick test_constant_column;
    Alcotest.test_case "extreme fractions" `Quick test_extreme_fractions;
    Alcotest.test_case "no NaNs on valid inputs" `Quick test_estimates_never_nan_on_valid_inputs;
    Alcotest.test_case "hostile string values" `Quick test_hostile_string_values;
    Alcotest.test_case "parser pathological inputs" `Quick test_parser_pathological_inputs;
    Alcotest.test_case "sql hostile inputs" `Quick test_sql_injectionish_inputs;
    Alcotest.test_case "sequential huge batch" `Quick
      test_sequential_batch_larger_than_population;
    Alcotest.test_case "cluster single page" `Quick test_cluster_single_page;
    Alcotest.test_case "group-count sparse sample" `Quick
      test_group_count_more_groups_than_sample;
    Alcotest.test_case "planner minimal inputs" `Quick test_planner_two_inputs_minimal;
    Alcotest.test_case "backing sample churn" `Quick test_backing_sample_delete_storm;
    Alcotest.test_case "weighted zero weights" `Quick test_weighted_all_zero_weights;
  ]
