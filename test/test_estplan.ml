open Helpers
module EP = Raestat.Estplan
module Optimizer = Relational.Optimizer
module P = Predicate
module Estimate = Stats.Estimate

(* r.a uniform over 0..9 (800 tuples), s.b zipf over 0..9 (400). *)
let catalog () =
  let rng_ = rng ~seed:11 () in
  let r =
    Workload.Generator.int_relation rng_ ~n:800 ~attribute:"a"
      (Workload.Dist.Uniform { lo = 0; hi = 9 })
  in
  let s =
    Workload.Generator.int_relation rng_ ~n:400 ~attribute:"b"
      (Workload.Dist.Zipf { n_values = 10; skew = 1.0 })
  in
  Catalog.of_list [ ("r", r); ("s", s) ]

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* nan-tolerant exact equality: replicated variances must agree bit for
   bit, and both sides may legitimately be nan (single-group plans). *)
let check_same_float name a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (%h vs %h)" name a b)
    true
    (Float.equal a b)

(* --- rewrite invariance -------------------------------------------------

   Optimizer rewrites preserve both the result relation and the
   base-relation occurrence sequence, so under a fixed seed the
   compiled plan draws the same samples and counts the same survivors:
   the estimate must be bit-identical, not just close. *)

let rewrite_cases =
  let p_a = P.le (P.attr "a") (P.vint 3) in
  let p_b = P.ge (P.attr "b") (P.vint 2) in
  [
    (* pushdown through an equijoin side *)
    Expr.select p_a (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s"));
    (* conjunction splitting + pushdown through a product *)
    Expr.select (P.(p_a &&& p_b)) (Expr.product (Expr.base "r") (Expr.base "s"));
    (* join recognition: σ_{a=b}(r × s) → r ⋈ s *)
    Expr.select (P.eq (P.attr "a") (P.attr "b")) (Expr.product (Expr.base "r") (Expr.base "s"));
    (* dedup below the root (consistent-only path) *)
    Expr.distinct (Expr.select p_a (Expr.base "r"));
    (* already normal: rewrite is the identity *)
    Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s");
  ]

let test_rewrite_invariance () =
  let c = catalog () in
  List.iter
    (fun expr ->
      let rewritten = Optimizer.optimize c expr in
      List.iter
        (fun groups ->
          let name =
            Printf.sprintf "%s (groups %d)" (Expr.to_string expr) groups
          in
          let run e seed =
            EP.run (rng ~seed ()) c (EP.compile ~groups c ~fraction:0.1 e)
          in
          let raw = run expr 901 and opt = run rewritten 901 in
          check_same_float (name ^ " point") raw.Estimate.point opt.Estimate.point;
          check_same_float (name ^ " variance") raw.Estimate.variance
            opt.Estimate.variance;
          Alcotest.(check int)
            (name ^ " sample size")
            raw.Estimate.sample_size opt.Estimate.sample_size)
        [ 1; 4 ])
    rewrite_cases

(* [compile ~optimize:true] must be the same thing as optimizing by
   hand before compiling. *)
let test_compile_optimize_flag () =
  let c = catalog () in
  let expr =
    Expr.select
      (P.le (P.attr "a") (P.vint 5))
      (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s"))
  in
  let via_flag = EP.run (rng ~seed:7 ()) c (EP.compile ~optimize:true c ~fraction:0.1 expr) in
  let by_hand =
    EP.run (rng ~seed:7 ()) c (EP.compile c ~fraction:0.1 (Optimizer.optimize c expr))
  in
  check_same_float "point" via_flag.Estimate.point by_hand.Estimate.point;
  check_same_float "variance" via_flag.Estimate.variance by_hand.Estimate.variance

let test_rewrite_invariance_random =
  qcheck_case ~count:40 "rewrite invariance (random thresholds)"
    QCheck.(pair (int_range 0 9) (int_range 0 9))
    (fun (t1, t2) ->
      let c = catalog () in
      let expr =
        Expr.select
          (P.(le (attr "a") (vint t1) &&& ge (attr "b") (vint t2)))
          (Expr.product (Expr.base "r") (Expr.base "s"))
      in
      let run e = EP.run (rng ~seed:(100 + t1 + (10 * t2)) ()) c (EP.compile c ~fraction:0.1 e) in
      let raw = run expr and opt = run (Optimizer.optimize c expr) in
      Float.equal raw.Estimate.point opt.Estimate.point)

(* --- plan structure ----------------------------------------------------- *)

let test_selection_plan_shape () =
  let c = catalog () in
  let plan = EP.selection_plan c ~relation:"r" ~n:80 (P.le (P.attr "a") (P.vint 3)) in
  Alcotest.(check int) "node count" 2 (EP.node_count plan);
  check_float "expected sample size" 80. (EP.expected_sample_size plan);
  let rendered = EP.render plan in
  Alcotest.(check bool) "render names the strategy" true
    (contains rendered "direct selection");
  Alcotest.(check bool) "render shows the leaf design" true
    (contains rendered "srswor 80/800");
  Alcotest.(check bool) "render shows the scale factor" true
    (contains rendered "scale=10");
  let json = EP.to_json plan in
  Alcotest.(check bool) "json schema" true (contains json "raestat-explain/1");
  Alcotest.(check bool) "json sizes" true
    (contains json "\"population\": 800, \"sample_size\": 80")

let test_status_propagation () =
  let c = catalog () in
  let unbiased = EP.compile c ~fraction:0.1 (Expr.select P.True (Expr.base "r")) in
  Alcotest.(check bool) "selection unbiased" true
    (unbiased.EP.root.EP.status = EP.Unbiased);
  let consistent = EP.compile c ~fraction:0.1 (Expr.distinct (Expr.base "r")) in
  Alcotest.(check bool) "dedup consistent-only" true
    (consistent.EP.root.EP.status = EP.Consistent_only);
  Alcotest.(check bool) "dedup leaf stays unbiased" true
    ((List.hd consistent.EP.root.EP.children).EP.status = EP.Unbiased);
  let est = EP.run (rng ()) c consistent in
  Alcotest.(check bool) "estimate inherits the status" true
    (est.Estimate.status = Estimate.Consistent);
  (* Set-size estimators are unbiased even though their evaluation
     dedups: the root status is overridden, per THEORY.md §17. *)
  let set = EP.set_plan c ~op:EP.Inter_size ~left:"r" ~right:"r" ~fraction:0.2 in
  Alcotest.(check bool) "set-op root override" true (set.EP.root.EP.status = EP.Unbiased)

let test_engine_matches_front_end () =
  let c = catalog () in
  let e = Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s") in
  let front = Raestat.Count_estimator.estimate (rng ()) c ~fraction:0.1 e in
  let direct = EP.run (rng ()) c (EP.compile c ~fraction:0.1 e) in
  check_same_float "point" front.Estimate.point direct.Estimate.point;
  Alcotest.(check int) "sample size" front.Estimate.sample_size direct.Estimate.sample_size

let suite =
  [
    Alcotest.test_case "rewrite invariance (fixed cases)" `Quick test_rewrite_invariance;
    Alcotest.test_case "compile ~optimize flag" `Quick test_compile_optimize_flag;
    test_rewrite_invariance_random;
    Alcotest.test_case "selection plan shape" `Quick test_selection_plan_shape;
    Alcotest.test_case "status propagation" `Quick test_status_propagation;
    Alcotest.test_case "engine matches front-end" `Quick test_engine_matches_front_end;
  ]
