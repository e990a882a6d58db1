open Helpers
module Dist = Workload.Dist
module Generator = Workload.Generator
module Correlated = Workload.Correlated
module Tpc = Workload.Tpc_mini

let test_zipf_probabilities () =
  let p = Dist.zipf_probabilities ~n_values:100 ~skew:1.0 in
  check_float ~eps:1e-12 "sums to 1" 1. (Array.fold_left ( +. ) 0. p);
  for i = 1 to 99 do
    if p.(i) > p.(i - 1) +. 1e-15 then Alcotest.fail "not non-increasing"
  done;
  (* z=0 is uniform. *)
  let u = Dist.zipf_probabilities ~n_values:10 ~skew:0. in
  Array.iter (fun x -> check_float ~eps:1e-12 "uniform" 0.1 x) u

let test_zipf_sampler_frequencies () =
  let r = rng () in
  let sampler = Dist.compile (Dist.Zipf { n_values = 5; skew = 1.0 }) in
  let counts = Array.make 5 0 in
  let reps = 50_000 in
  for _ = 1 to reps do
    let v = sampler r in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = Dist.zipf_probabilities ~n_values:5 ~skew:1.0 in
  Array.iteri
    (fun i c ->
      check_close ~tol:0.05
        (Printf.sprintf "value %d frequency" i)
        expected.(i)
        (float_of_int c /. float_of_int reps))
    counts

let test_uniform_bounds () =
  let r = rng () in
  let sampler = Dist.compile (Dist.Uniform { lo = -3; hi = 7 }) in
  for _ = 1 to 5_000 do
    let v = sampler r in
    if v < -3 || v > 7 then Alcotest.failf "out of bounds %d" v
  done

let test_constant_and_exponential () =
  let r = rng () in
  Alcotest.(check int) "constant" 9 ((Dist.compile (Dist.Constant 9)) r);
  let exp_sampler = Dist.compile (Dist.Exponential { mean = 5. }) in
  let s = ref Stats.Summary.empty in
  for _ = 1 to 20_000 do
    let v = exp_sampler r in
    if v < 0 then Alcotest.fail "negative exponential";
    s := Stats.Summary.add !s (float_of_int v)
  done;
  (* Floor of Exp(5) has mean 1/(e^{1/5}−1) ≈ 4.517. *)
  check_close ~tol:0.05 "exp mean" 4.517 (Stats.Summary.mean !s)

let test_self_similar_skews () =
  let r = rng () in
  let sampler = Dist.compile (Dist.Self_similar { n_values = 100; h = 0.8 }) in
  let hot = ref 0 in
  let reps = 20_000 in
  for _ = 1 to reps do
    if sampler r < 20 then incr hot
  done;
  (* 80% of mass on the first 20% of values. *)
  check_close ~tol:0.05 "80-20" 0.8 (float_of_int !hot /. float_of_int reps)

let test_dist_validation () =
  List.iter
    (fun d ->
      Alcotest.(check bool) (Dist.to_string d) true
        (try
           ignore (Dist.compile d (rng ()));
           false
         with Invalid_argument _ -> true))
    [
      Dist.Uniform { lo = 5; hi = 4 };
      Dist.Zipf { n_values = 0; skew = 1. };
      Dist.Zipf { n_values = 5; skew = -1. };
      Dist.Normal { mean = 0.; stddev = -1. };
      Dist.Self_similar { n_values = 10; h = 0.4 };
      Dist.Exponential { mean = 0. };
    ]

let test_generator_relation () =
  let r =
    Generator.relation (rng ()) ~n:50
      [ ("a", Dist.Uniform { lo = 0; hi = 9 }); ("b", Dist.Constant 1) ]
  in
  Alcotest.(check int) "cardinality" 50 (Relation.cardinality r);
  Alcotest.(check (list string)) "schema" [ "a"; "b" ] (Schema.names (Relation.schema r))

let test_of_columns_validation () =
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Generator.of_columns [ ("a", [| 1 |]); ("b", [| 1; 2 |]) ]);
       false
     with Invalid_argument _ -> true)

let test_shuffle_and_sort () =
  let r = int_relation (List.init 30 (fun i -> 29 - i)) in
  let sorted = Generator.sort_by "a" r in
  let first = Tuple.get (Relation.tuple sorted 0) 0 in
  Alcotest.(check bool) "sorted ascending" true (Value.equal first (Value.Int 0));
  let shuffled = Generator.shuffle (rng ()) sorted in
  Alcotest.(check int) "same card" 30 (Relation.cardinality shuffled)

let test_set_pair_overlap () =
  let left, right =
    Generator.set_pair (rng ()) ~card_left:200 ~card_right:150 ~overlap:60 ~attribute:"a"
  in
  Alcotest.(check bool) "left is set" true (Relation.is_set left);
  Alcotest.(check bool) "right is set" true (Relation.is_set right);
  let c = Catalog.of_list [ ("l", left); ("r", right) ] in
  Alcotest.(check int) "overlap exact" 60
    (Eval.count c (Expr.inter (Expr.base "l") (Expr.base "r")))

let test_set_pair_validation () =
  Alcotest.(check bool) "overlap too big" true
    (try
       ignore (Generator.set_pair (rng ()) ~card_left:5 ~card_right:5 ~overlap:6 ~attribute:"a");
       false
     with Invalid_argument _ -> true)

let test_clustered_in_domain () =
  let r = Generator.clustered (rng ()) ~n:500 ~dims:2 ~clusters:5 ~domain:100 ~spread:3. in
  Alcotest.(check int) "cardinality" 500 (Relation.cardinality r);
  Relation.iter
    (fun t ->
      Array.iter
        (fun v ->
          match v with
          | Value.Int i -> if i < 0 || i >= 100 then Alcotest.failf "out of domain %d" i
          | _ -> Alcotest.fail "non-int")
        t)
    r

let test_clustered_actually_clusters () =
  (* With tight spread, the number of distinct values is far below the
     uniform expectation. *)
  let r = Generator.clustered (rng ()) ~n:2000 ~dims:1 ~clusters:4 ~spread:1. ~domain:10_000 in
  let c = Catalog.of_list [ ("r", r) ] in
  let d = Eval.count c (Expr.distinct (Expr.base "r")) in
  Alcotest.(check bool) (Printf.sprintf "few distinct (%d)" d) true (d < 200)

let test_correlated_positive_vs_negative_join_sizes () =
  (* With skewed frequencies, a positive mapping aligns the hot values
     ⇒ much bigger join than the negative mapping. *)
  let rng_ = rng ~seed:61 () in
  let join_size correlation =
    let l, r =
      Correlated.pair rng_ ~n_left:3000 ~n_right:3000 ~domain:100 ~skew_left:1.0
        ~skew_right:1.0 correlation ~attribute:"a"
    in
    let c = Catalog.of_list [ ("l", l); ("r", r) ] in
    Eval.count c
      (Expr.theta_join
         (Predicate.eq (Predicate.attr "l.a") (Predicate.attr "r.a"))
         (Expr.base "l") (Expr.base "r"))
  in
  let pos = join_size Correlated.Positive in
  let neg = join_size Correlated.Negative in
  Alcotest.(check bool)
    (Printf.sprintf "positive (%d) > 2× negative (%d)" pos neg)
    true
    (pos > 2 * neg)

let test_correlated_values_in_domain () =
  let l, r =
    Correlated.pair (rng ()) ~n_left:100 ~n_right:100 ~domain:10 ~skew_left:0.5
      ~skew_right:0.5 Correlated.Independent ~attribute:"a"
  in
  List.iter
    (fun relation ->
      Relation.iter
        (fun t ->
          match Tuple.get t 0 with
          | Value.Int i -> if i < 0 || i >= 10 then Alcotest.failf "oob %d" i
          | _ -> Alcotest.fail "non-int")
        relation)
    [ l; r ]

let test_correlation_names () =
  Alcotest.(check string) "positive" "positive" (Correlated.correlation_to_string Correlated.Positive);
  Alcotest.(check string) "weak" "weak-positive(0.1)"
    (Correlated.correlation_to_string (Correlated.Weak_positive 0.1))

let test_tpc_catalog () =
  let c = Tpc.catalog (rng ()) ~sizes:{ Tpc.suppliers = 100; parts = 200; orders = 2_000 } () in
  Alcotest.(check int) "suppliers" 100 (Relation.cardinality (Catalog.find c "suppliers"));
  Alcotest.(check int) "parts" 200 (Relation.cardinality (Catalog.find c "parts"));
  Alcotest.(check int) "orders" 2000 (Relation.cardinality (Catalog.find c "orders"));
  (* Every order joins exactly one supplier and one part: the chain
     query returns exactly |orders| tuples. *)
  Alcotest.(check int) "chain query" 2000 (Eval.count c (Tpc.chain_query ()))

let test_tpc_filtered_chain () =
  let c = Tpc.catalog (rng ()) ~sizes:{ Tpc.suppliers = 100; parts = 200; orders = 2_000 } () in
  let filtered =
    Tpc.chain_query
      ~supplier_filter:(Predicate.eq (Predicate.attr "s_region") (Predicate.vint 0))
      ()
  in
  let n = Eval.count c filtered in
  Alcotest.(check bool) (Printf.sprintf "filtered (%d) smaller" n) true (n < 2000 && n > 0)

let suite =
  [
    Alcotest.test_case "zipf probabilities" `Quick test_zipf_probabilities;
    Alcotest.test_case "zipf sampler frequencies" `Slow test_zipf_sampler_frequencies;
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "constant and exponential" `Quick test_constant_and_exponential;
    Alcotest.test_case "self-similar skews" `Quick test_self_similar_skews;
    Alcotest.test_case "distribution validation" `Quick test_dist_validation;
    Alcotest.test_case "generator relation" `Quick test_generator_relation;
    Alcotest.test_case "of_columns validation" `Quick test_of_columns_validation;
    Alcotest.test_case "shuffle and sort" `Quick test_shuffle_and_sort;
    Alcotest.test_case "set_pair overlap exact" `Quick test_set_pair_overlap;
    Alcotest.test_case "set_pair validation" `Quick test_set_pair_validation;
    Alcotest.test_case "clustered in domain" `Quick test_clustered_in_domain;
    Alcotest.test_case "clustered clusters" `Quick test_clustered_actually_clusters;
    Alcotest.test_case "correlation changes join size" `Slow
      test_correlated_positive_vs_negative_join_sizes;
    Alcotest.test_case "correlated values in domain" `Quick test_correlated_values_in_domain;
    Alcotest.test_case "correlation names" `Quick test_correlation_names;
    Alcotest.test_case "tpc catalog" `Quick test_tpc_catalog;
    Alcotest.test_case "tpc filtered chain" `Quick test_tpc_filtered_chain;
  ]
