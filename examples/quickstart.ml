(* Quickstart: estimate COUNT of a selection and of a join from small
   random samples, and compare with the exact answers.

   Run with: dune exec examples/quickstart.exe *)

module Expr = Relational.Expr
module P = Relational.Predicate
module CE = Raestat.Count_estimator
module Estimate = Stats.Estimate

let () =
  let rng = Sampling.Rng.create ~seed:2026 () in

  (* 1. Generate two relations: orders(amount) and customers(score). *)
  let orders =
    Workload.Generator.int_relation rng ~n:100_000 ~attribute:"amount"
      (Workload.Dist.Normal { mean = 250.; stddev = 80. })
  in
  let key_dist = Workload.Dist.Zipf { n_values = 1_000; skew = 0.7 } in
  let orders_keys =
    Workload.Generator.int_relation rng ~n:100_000 ~attribute:"customer" key_dist
  in
  let customers =
    Workload.Generator.int_relation rng ~n:20_000 ~attribute:"id" key_dist
  in
  let catalog =
    Relational.Catalog.of_list
      [ ("orders", orders); ("orders_keys", orders_keys); ("customers", customers) ]
  in

  (* 2. A selection: how many orders exceed 300? *)
  let predicate = P.gt (P.attr "amount") (P.vint 300) in
  let estimate = CE.selection rng catalog ~relation:"orders" ~n:1_000 predicate in
  let exact =
    Relational.Physical.count_expr catalog (Expr.select predicate (Expr.base "orders"))
  in
  let ci = Estimate.ci ~level:0.95 estimate in
  Printf.printf "Selection  COUNT(orders.amount > 300)\n";
  Printf.printf "  sampled 1%%:   %.0f   (95%% CI [%.0f, %.0f])\n" estimate.Estimate.point
    ci.Stats.Confidence.lo ci.Stats.Confidence.hi;
  Printf.printf "  exact:        %d\n" exact;
  Printf.printf "  rel. error:   %.2f%%\n\n"
    (100. *. Estimate.relative_error ~truth:(float_of_int exact) estimate);

  (* 3. An equi-join: orders_keys ⋈ customers. *)
  let join = Expr.equijoin [ ("customer", "id") ] (Expr.base "orders_keys") (Expr.base "customers") in
  let join_est = CE.equijoin ~groups:8 rng catalog ~left:"orders_keys" ~right:"customers"
      ~on:[ ("customer", "id") ] ~fraction:0.05
  in
  let join_exact = Relational.Physical.count_expr catalog join in
  Printf.printf "Join  COUNT(orders ⋈ customers)\n";
  Printf.printf "  sampled 5%%:   %.0f  (stderr %.0f)\n" join_est.Estimate.point
    (Estimate.stderr join_est);
  Printf.printf "  exact:        %d\n" join_exact;
  Printf.printf "  rel. error:   %.2f%%\n\n"
    (100. *. Estimate.relative_error ~truth:(float_of_int join_exact) join_est);

  (* 4. Any relational algebra expression works through the generic
     scale-up estimator. *)
  let composite =
    Expr.select
      (P.gt (P.attr "amount") (P.vint 200))
      (Expr.product (Expr.base "orders") (Expr.base "customers"))
  in
  let plan_est = CE.estimate ~groups:5 rng catalog ~fraction:0.01 composite in
  Printf.printf "Composite  σ(orders × customers): %.3g (%s)\n" plan_est.Estimate.point
    (Estimate.status_to_string plan_est.Estimate.status)
