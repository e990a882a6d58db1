(* Audit scenario on census-like microdata: a statistics office wants
   quick COUNT answers with confidence intervals over a person table
   (age, education, income decile), without scanning it, plus a
   distinct-count of (age, education) profiles — the operation where
   naive scale-up fails and the dedicated estimators earn their keep.

   Run with: dune exec examples/census_audit.exe *)

module Expr = Relational.Expr
module P = Relational.Predicate
module CE = Raestat.Count_estimator
module Distinct = Raestat.Distinct
module Estimate = Stats.Estimate
module Dist = Workload.Dist

let () =
  let rng = Sampling.Rng.create ~seed:88 () in
  let n = 200_000 in
  let people =
    Workload.Generator.relation rng ~n
      [
        ("age", Dist.Normal { mean = 42.; stddev = 16. });
        ("education", Dist.Zipf { n_values = 16; skew = 0.6 });
        ("income_decile", Dist.Uniform { lo = 1; hi = 10 });
      ]
  in
  let catalog = Relational.Catalog.of_list [ ("people", people) ] in

  (* Audit query 1: working-age population with high education. *)
  let q1 =
    P.(between (attr "age") (Relational.Value.Int 25) (Relational.Value.Int 64)
       &&& ge (attr "education") (vint 12))
  in
  let est = CE.selection rng catalog ~relation:"people" ~n:2_000 q1 in
  let exact =
    Relational.Physical.count_expr catalog (Expr.select q1 (Expr.base "people"))
  in
  let ci = Estimate.ci ~level:0.95 est in
  Printf.printf "Q1  25–64 year olds with education ≥ 12 (1%% sample)\n";
  Printf.printf "    estimate %.0f   CI95 [%.0f, %.0f]   exact %d\n\n" est.Estimate.point
    ci.Stats.Confidence.lo ci.Stats.Confidence.hi exact;

  (* Audit query 2: precision-driven sequential sampling — ask for ±5%
     and let the sampler decide how much to read. *)
  let q2 = P.le (P.attr "income_decile") (P.vint 2) in
  let sequential =
    Raestat.Sequential.selection rng catalog ~relation:"people" ~target:0.05 ~batch:500 q2
  in
  let exact2 =
    Relational.Physical.count_expr catalog (Expr.select q2 (Expr.base "people"))
  in
  Printf.printf "Q2  bottom-two income deciles, ±5%% requested\n";
  Printf.printf "    stopped after %d of %d tuples (%.1f%%), estimate %.0f, exact %d\n\n"
    sequential.Raestat.Sequential.estimate.Estimate.sample_size n
    (100.
    *. float_of_int sequential.Raestat.Sequential.estimate.Estimate.sample_size
    /. float_of_int n)
    sequential.Raestat.Sequential.estimate.Estimate.point exact2;

  (* Audit query 2b: plan the sample size before running — how many
     tuples would ±10% at 95% on a ~20% predicate need? *)
  let planned =
    Raestat.Sample_size.selection ~big_n:n ~level:0.95 ~target:0.1 ~p:0.2
  in
  Printf.printf "Q2b sample-size planner: ±10%% at 95%% on a 20%% predicate needs %d tuples (%.2f%%)\n\n"
    planned
    (100. *. float_of_int planned /. float_of_int n);

  (* Audit query 2c: population per income decile from ONE sample, with
     simultaneous (Bonferroni) intervals. *)
  let groups =
    Raestat.Group_count.estimate rng catalog ~relation:"people" ~by:[ "income_decile" ]
      ~n:5_000 ~level:0.95 ()
  in
  let exact_groups =
    Raestat.Group_count.exact catalog ~relation:"people" ~by:[ "income_decile" ] ()
  in
  Printf.printf "Q2c population per income decile (one 2.5%% sample, joint 95%%)\n";
  List.iter
    (fun g ->
      let key = String.concat "," (List.map Relational.Value.to_string g.Raestat.Group_count.key) in
      let exact =
        Option.value (List.assoc_opt g.Raestat.Group_count.key exact_groups) ~default:0
      in
      Printf.printf "    decile %-3s est %6.0f  CI [%6.0f, %6.0f]  exact %6d\n" key
        g.Raestat.Group_count.estimate.Estimate.point
        g.Raestat.Group_count.interval.Stats.Confidence.lo
        g.Raestat.Group_count.interval.Stats.Confidence.hi exact)
    groups.Raestat.Group_count.groups;
  print_newline ();

  (* Audit query 3: how many distinct (age, education) profiles? *)
  let attributes = [ "age"; "education" ] in
  let exact_d = Distinct.exact catalog ~relation:"people" ~attributes in
  Printf.printf "Q3  distinct (age, education) profiles from a 2%% sample\n";
  Printf.printf "    exact %d\n" exact_d;
  List.iter
    (fun m ->
      let est =
        Distinct.estimate rng catalog ~method_:m ~relation:"people" ~attributes ~n:4_000
      in
      Printf.printf "    %-16s %10.0f   (%s)\n"
        (Distinct.method_to_string m)
        est.Estimate.point
        (Estimate.status_to_string est.Estimate.status))
    [ Distinct.Chao1; Distinct.Gee; Distinct.Scale_up; Distinct.Sample_distinct ]
