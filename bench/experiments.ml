(* The reconstructed experiment grid T1–T6 / F1–F6 (see DESIGN.md §4 and
   EXPERIMENTS.md).  Each function prints one paper-style table or
   figure series. *)

module Expr = Relational.Expr
module P = Relational.Predicate
module Relation = Relational.Relation
module Catalog = Relational.Catalog
module Physical = Relational.Physical
module Value = Relational.Value
module CE = Raestat.Count_estimator
module Estimate = Stats.Estimate
module Summary = Stats.Summary
module Dist = Workload.Dist
module Generator = Workload.Generator
module Correlated = Workload.Correlated

let rng_for id = Sampling.Rng.create ~seed:(Hashtbl.hash id land 0xFFFF) ()

(* Threshold whose [attr <= threshold] selectivity over [column] is
   closest to [target]. *)
let threshold_for_selectivity column target =
  let values = Array.map Value.to_float column in
  Array.sort Float.compare values;
  let n = Array.length values in
  let k = max 0 (min (n - 1) (int_of_float (target *. float_of_int n) - 1)) in
  int_of_float values.(k)

(* ------------------------------------------------------------------ T1 *)

let t1 () =
  Report.heading "T1" "selection estimator: error and CI width vs sampling fraction";
  let n = 50_000 in
  let rng = rng_for "t1" in
  let datasets =
    [
      ("uniform", Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 }));
      ("zipf z=1", Generator.int_relation rng ~n ~attribute:"a" (Dist.Zipf { n_values = 1000; skew = 1.0 }));
    ]
  in
  let widths = [ 9; 12; 9; 12; 12; 10 ] in
  Report.columns widths
    [ "dist"; "selectivity"; "fraction"; "mean r.err"; "CI half/est"; "cover95" ];
  let reps = 200 in
  List.iter
    (fun (dist_name, relation) ->
      let catalog = Catalog.of_list [ ("r", relation) ] in
      let column = Relation.column relation "a" in
      List.iter
        (fun selectivity ->
          let threshold = threshold_for_selectivity column selectivity in
          let pred = P.le (P.attr "a") (P.vint threshold) in
          let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
          List.iter
            (fun fraction ->
              let sample_size = Sampling.Srs.size_of_fraction ~fraction n in
              let errors = ref Summary.empty in
              let rel_widths = ref Summary.empty in
              let covered = ref 0 in
              for _ = 1 to reps do
                let est = CE.selection rng catalog ~relation:"r" ~n:sample_size pred in
                errors := Summary.add !errors (Estimate.relative_error ~truth est);
                let ci = Estimate.ci ~level:0.95 est in
                if Stats.Confidence.contains ci truth then incr covered;
                if est.Estimate.point > 0. then
                  rel_widths :=
                    Summary.add !rel_widths
                      (Stats.Confidence.half_width ci /. est.Estimate.point)
              done;
              Report.row widths
                [
                  dist_name;
                  Printf.sprintf "%.0f%%" (100. *. selectivity);
                  Printf.sprintf "%.3f" fraction;
                  Report.pct (Summary.mean !errors);
                  (if Summary.count !rel_widths > 0 then Report.pct (Summary.mean !rel_widths)
                   else "-");
                  Report.pct (float_of_int !covered /. float_of_int reps);
                ])
            [ 0.005; 0.01; 0.02; 0.05; 0.1; 0.2 ])
        [ 0.01; 0.1; 0.5 ])
    datasets;
  Report.note "error falls like 1/sqrt(fraction); coverage should sit near 95%"

(* ------------------------------------------------------------------ T2 *)

let join_truth catalog = Physical.count_expr catalog (Expr.equijoin [ ("a", "a") ] (Expr.base "l") (Expr.base "r"))

let t2 () =
  Report.heading "T2" "equi-join estimator: error vs fraction, by key correlation";
  let rng = rng_for "t2" in
  let widths = [ 18; 9; 14; 12; 12 ] in
  Report.columns widths [ "correlation"; "fraction"; "true J"; "mean r.err"; "sd r.err" ];
  let reps = 50 in
  List.iter
    (fun correlation ->
      let left, right =
        Correlated.pair rng ~n_left:20_000 ~n_right:20_000 ~domain:1_000 ~skew_left:0.5
          ~skew_right:1.0 correlation ~attribute:"a"
      in
      let catalog = Catalog.of_list [ ("l", left); ("r", right) ] in
      let truth = float_of_int (join_truth catalog) in
      List.iter
        (fun fraction ->
          let errors = ref Summary.empty in
          for _ = 1 to reps do
            let est =
              CE.equijoin ~groups:1 rng catalog ~left:"l" ~right:"r" ~on:[ ("a", "a") ]
                ~fraction
            in
            errors := Summary.add !errors (Estimate.relative_error ~truth est)
          done;
          Report.row widths
            [
              Correlated.correlation_to_string correlation;
              Printf.sprintf "%.2f" fraction;
              Printf.sprintf "%.3g" truth;
              Report.pct (Summary.mean !errors);
              Report.pct (Summary.stddev !errors);
            ])
        [ 0.02; 0.05; 0.1; 0.2 ])
    [ Correlated.Positive; Correlated.Weak_positive 0.1; Correlated.Independent;
      Correlated.Negative ];
  Report.note
    "relative error tracks how small J is vs N1·N2: aligned hot values inflate J (easy); anti-aligned joins are small and hard"

(* ------------------------------------------------------------------ T3 *)

let t3 () =
  Report.heading "T3" "distinct-count estimators (projection with dedup)";
  let n = 50_000 in
  let rng = rng_for "t3" in
  let datasets =
    [
      ("uniform d=100", Dist.Uniform { lo = 0; hi = 99 });
      ("uniform d=1k", Dist.Uniform { lo = 0; hi = 999 });
      ("uniform d=10k", Dist.Uniform { lo = 0; hi = 9_999 });
      ("zipf z=1 d=1k", Dist.Zipf { n_values = 1_000; skew = 1.0 });
    ]
  in
  let widths = [ 15; 9; 7; 17; 12; 11 ] in
  Report.columns widths [ "data"; "fraction"; "true d"; "method"; "mean r.err"; "plausible" ];
  let reps = 100 in
  List.iter
    (fun (name, dist) ->
      let relation = Generator.int_relation rng ~n ~attribute:"a" dist in
      let catalog = Catalog.of_list [ ("r", relation) ] in
      let truth = Raestat.Distinct.exact catalog ~relation:"r" ~attributes:[ "a" ] in
      List.iter
        (fun fraction ->
          let sample_size = Sampling.Srs.size_of_fraction ~fraction n in
          List.iter
            (fun m ->
              let errors = ref Summary.empty in
              let plausible = ref 0 in
              for _ = 1 to reps do
                let est =
                  Raestat.Distinct.estimate rng catalog ~method_:m ~relation:"r"
                    ~attributes:[ "a" ] ~n:sample_size
                in
                if Raestat.Distinct.plausible ~big_n:n est then begin
                  incr plausible;
                  errors :=
                    Summary.add !errors
                      (Estimate.relative_error ~truth:(float_of_int truth) est)
                end
              done;
              Report.row widths
                [
                  name;
                  Printf.sprintf "%.2f" fraction;
                  string_of_int truth;
                  Raestat.Distinct.method_to_string m;
                  (if Summary.count !errors > 0 then Report.pct (Summary.mean !errors)
                   else "-");
                  Report.pct (float_of_int !plausible /. float_of_int reps);
                ])
            Raestat.Distinct.all_methods)
        [ 0.02; 0.1 ])
    datasets;
  Report.note "Goodman is unbiased but blows up off the diagonal; Chao1/GEE stay plausible"

(* ------------------------------------------------------------------ T4 *)

let t4 () =
  Report.heading "T4" "set operations: unbiased identity estimators vs naive scale-up";
  let rng = rng_for "t4" in
  let card_left = 30_000 and card_right = 20_000 in
  let widths = [ 9; 9; 7; 14; 12; 14 ] in
  Report.columns widths [ "overlap"; "fraction"; "op"; "unbiased r.err"; "truth"; "scale-up r.err" ];
  let reps = 100 in
  List.iter
    (fun overlap_share ->
      let overlap = int_of_float (overlap_share *. float_of_int (min card_left card_right)) in
      let left, right = Generator.set_pair rng ~card_left ~card_right ~overlap ~attribute:"a" in
      let catalog = Catalog.of_list [ ("x", left); ("y", right) ] in
      let cases =
        [
          ( "inter",
            float_of_int overlap,
            (fun fraction -> CE.intersection rng catalog ~left:"x" ~right:"y" ~fraction),
            Expr.inter (Expr.base "x") (Expr.base "y") );
          ( "union",
            float_of_int (card_left + card_right - overlap),
            (fun fraction -> CE.union rng catalog ~left:"x" ~right:"y" ~fraction),
            Expr.union (Expr.base "x") (Expr.base "y") );
          ( "diff",
            float_of_int (card_left - overlap),
            (fun fraction -> CE.difference rng catalog ~left:"x" ~right:"y" ~fraction),
            Expr.diff (Expr.base "x") (Expr.base "y") );
        ]
      in
      List.iter
        (fun fraction ->
          List.iter
            (fun (op, truth, unbiased, expr) ->
              let err_unbiased = ref Summary.empty and err_scale = ref Summary.empty in
              for _ = 1 to reps do
                err_unbiased :=
                  Summary.add !err_unbiased (Estimate.relative_error ~truth (unbiased fraction));
                let scale_est = CE.estimate rng catalog ~fraction expr in
                err_scale :=
                  Summary.add !err_scale (Estimate.relative_error ~truth scale_est)
              done;
              Report.row widths
                [
                  Printf.sprintf "%.0f%%" (100. *. overlap_share);
                  Printf.sprintf "%.2f" fraction;
                  op;
                  Report.pct (Summary.mean !err_unbiased);
                  Printf.sprintf "%.0f" truth;
                  Report.pct (Summary.mean !err_scale);
                ])
            cases)
        [ 0.02; 0.1 ])
    [ 0.1; 0.5; 0.9 ];
  Report.note "scale-up matches the identity estimator only for ∩; it is badly biased for ∪ and −"

(* ------------------------------------------------------------------ T5 *)

let t5 () =
  Report.heading "T5" "composite SPJ chain over the mini-TPC schema";
  let rng = rng_for "t5" in
  let catalog =
    Workload.Tpc_mini.catalog rng
      ~sizes:{ Workload.Tpc_mini.suppliers = 1_000; parts = 2_000; orders = 20_000 }
      ()
  in
  let query =
    Workload.Tpc_mini.chain_query
      ~supplier_filter:(P.le (P.attr "s_region") (P.vint 1))
      ~order_filter:(P.ge (P.attr "o_quantity") (P.vint 5))
      ()
  in
  let truth = float_of_int (Physical.count_expr catalog query) in
  Printf.printf "query: %s\ntruth = %.0f, classified %s\n" (Expr.to_string query) truth
    (Estimate.status_to_string (CE.classify query));
  let widths = [ 9; 12; 12; 12 ] in
  Report.columns widths [ "fraction"; "mean est"; "bias (E/J)"; "mean r.err" ];
  let reps = 50 in
  List.iter
    (fun fraction ->
      let points = ref Summary.empty and errors = ref Summary.empty in
      for _ = 1 to reps do
        let est = CE.estimate rng catalog ~fraction query in
        points := Summary.add !points est.Estimate.point;
        errors := Summary.add !errors (Estimate.relative_error ~truth est)
      done;
      Report.row widths
        [
          Printf.sprintf "%.2f" fraction;
          Printf.sprintf "%.0f" (Summary.mean !points);
          Printf.sprintf "%.3f" (Summary.mean !points /. truth);
          Report.pct (Summary.mean !errors);
        ])
    [ 0.05; 0.1; 0.2; 0.5 ];
  Report.note "bias ratio hovers around 1 at every fraction (unbiasedness); error shrinks with fraction"

(* ------------------------------------------------------------------ T6 *)

let t6 () =
  Report.heading "T6" "empirical CI coverage vs nominal level";
  let rng = rng_for "t6" in
  let n = 50_000 in
  let relation =
    Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 })
  in
  let catalog = Catalog.of_list [ ("r", relation) ] in
  let pred = P.lt (P.attr "a") (P.vint 100) in
  let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
  let widths = [ 26; 9; 9; 12 ] in
  Report.columns widths [ "estimator"; "level"; "reps"; "coverage" ];
  (* Selection with the analytic hypergeometric variance. *)
  List.iter
    (fun level ->
      let reps = 500 in
      let covered = ref 0 in
      for _ = 1 to reps do
        let est = CE.selection rng catalog ~relation:"r" ~n:500 pred in
        if Stats.Confidence.contains (Estimate.ci ~level est) truth then incr covered
      done;
      Report.row widths
        [
          "selection (analytic)";
          Printf.sprintf "%.0f%%" (100. *. level);
          "500";
          Report.pct (float_of_int !covered /. float_of_int reps);
        ])
    [ 0.90; 0.95; 0.99 ];
  (* Join with replicate-group variance: normal and Chebyshev CIs. *)
  let l, r =
    Correlated.pair rng ~n_left:20_000 ~n_right:20_000 ~domain:500 ~skew_left:0.5
      ~skew_right:0.8 Correlated.Independent ~attribute:"a"
  in
  let jc = Catalog.of_list [ ("l", l); ("r", r) ] in
  let jtruth = float_of_int (join_truth jc) in
  let reps = 150 in
  let covered_normal = ref 0 and covered_cheb = ref 0 in
  for _ = 1 to reps do
    let est = CE.equijoin ~groups:8 rng jc ~left:"l" ~right:"r" ~on:[ ("a", "a") ] ~fraction:0.1 in
    if Stats.Confidence.contains (Estimate.ci ~level:0.95 est) jtruth then
      incr covered_normal;
    if Stats.Confidence.contains (Estimate.ci_chebyshev ~level:0.95 est) jtruth then
      incr covered_cheb
  done;
  Report.row widths
    [ "join (replicated, normal)"; "95%"; "150";
      Report.pct (float_of_int !covered_normal /. float_of_int reps) ];
  Report.row widths
    [ "join (repl., Chebyshev)"; "95%"; "150";
      Report.pct (float_of_int !covered_cheb /. float_of_int reps) ];
  Report.note "selection coverage tracks nominal; join replicate-CIs run slightly low, Chebyshev over-covers"

(* ------------------------------------------------------------------ F1 *)

let f1 () =
  Report.heading "F1" "convergence: selection error vs fraction (log grid)";
  let rng = rng_for "f1" in
  let n = 50_000 in
  let relation =
    Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 })
  in
  let catalog = Catalog.of_list [ ("r", relation) ] in
  let pred = P.lt (P.attr "a") (P.vint 200) in
  let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
  let widths = [ 10; 9; 12; 16 ] in
  Report.columns widths [ "fraction"; "n"; "mean r.err"; "r.err·sqrt(n)" ];
  let reps = 100 in
  let fractions = [ 0.001; 0.002; 0.004; 0.008; 0.016; 0.032; 0.064; 0.128; 0.256; 0.512 ] in
  List.iter
    (fun fraction ->
      let sample_size = Sampling.Srs.size_of_fraction ~fraction n in
      let errors = ref Summary.empty in
      for _ = 1 to reps do
        let est = CE.selection rng catalog ~relation:"r" ~n:sample_size pred in
        errors := Summary.add !errors (Estimate.relative_error ~truth est)
      done;
      let mean_error = Summary.mean !errors in
      Report.row widths
        [
          Printf.sprintf "%.3f" fraction;
          string_of_int sample_size;
          Report.pct mean_error;
          Printf.sprintf "%.3f" (mean_error *. Float.sqrt (float_of_int sample_size));
        ])
    fractions;
  Report.note "the last column is ~constant until the FPC kicks in: the 1/√n law"

(* ------------------------------------------------------------------ F2 *)

let f2 () =
  Report.heading "F2" "join estimation error vs skew (fixed 10% fraction)";
  let rng = rng_for "f2" in
  let widths = [ 7; 14; 12; 12 ] in
  Report.columns widths [ "z"; "true J"; "mean r.err"; "sd r.err" ];
  let reps = 40 in
  List.iter
    (fun z ->
      let left, right =
        Correlated.pair rng ~n_left:20_000 ~n_right:20_000 ~domain:500 ~skew_left:z
          ~skew_right:z Correlated.Independent ~attribute:"a"
      in
      let catalog = Catalog.of_list [ ("l", left); ("r", right) ] in
      let truth = float_of_int (join_truth catalog) in
      let errors = ref Summary.empty in
      for _ = 1 to reps do
        let est =
          CE.equijoin ~groups:1 rng catalog ~left:"l" ~right:"r" ~on:[ ("a", "a") ]
            ~fraction:0.1
        in
        errors := Summary.add !errors (Estimate.relative_error ~truth est)
      done;
      Report.row widths
        [
          Printf.sprintf "%.2f" z;
          Printf.sprintf "%.4g" truth;
          Report.pct (Summary.mean !errors);
          Report.pct (Summary.stddev !errors);
        ])
    [ 0.; 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ];
  Report.note "skew concentrates the join on few hot values ⇒ error grows with z"

(* ------------------------------------------------------------------ F3 *)

let f3 () =
  Report.heading "F3" "cluster (page) sampling vs tuple sampling, by physical layout";
  let rng = rng_for "f3" in
  let n = 100_000 and page_capacity = 100 in
  let base =
    Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 })
  in
  let pred = P.lt (P.attr "a") (P.vint 100) in
  let layouts =
    [ ("clustered", Generator.sort_by "a" base); ("shuffled", Generator.shuffle rng base) ]
  in
  let widths = [ 10; 9; 12; 14; 14; 14 ] in
  Report.columns widths
    [ "layout"; "tuples"; "design"; "mean r.err"; "pages read"; "tuples read" ];
  let reps = 100 in
  List.iter
    (fun (layout_name, relation) ->
      let catalog = Catalog.of_list [ ("r", relation) ] in
      let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
      let paged = Relational.Paged.make ~page_capacity relation in
      let big_m = Relational.Paged.page_count paged in
      List.iter
        (fun budget ->
          (* Tuple-level SRSWOR with the same tuple budget. *)
          let tuple_errors = ref Summary.empty and tuple_pages = ref Summary.empty in
          for _ = 1 to reps do
            let indices =
              Sampling.Srs.indices_without_replacement rng ~n:budget ~universe:n
            in
            let pages = Hashtbl.create 64 in
            Array.iter (fun i -> Hashtbl.replace pages (i / page_capacity) ()) indices;
            tuple_pages := Summary.add !tuple_pages (float_of_int (Hashtbl.length pages));
            let keep = P.compile (Relation.schema relation) pred in
            let hits =
              Array.fold_left
                (fun acc i -> if keep (Relation.tuple relation i) then acc + 1 else acc)
                0 indices
            in
            let est = CE.selection_of_counts ~big_n:n ~n:budget ~hits in
            tuple_errors := Summary.add !tuple_errors (Estimate.relative_error ~truth est)
          done;
          Report.row widths
            [
              layout_name;
              string_of_int budget;
              "tuple SRS";
              Report.pct (Summary.mean !tuple_errors);
              Printf.sprintf "%.0f" (Summary.mean !tuple_pages);
              string_of_int budget;
            ];
          (* Page-level cluster sampling with the same tuple budget. *)
          let m = max 2 (budget / page_capacity) in
          let cluster_errors = ref Summary.empty in
          for _ = 1 to reps do
            let result = Raestat.Cluster_estimator.count rng ~m paged pred in
            cluster_errors :=
              Summary.add !cluster_errors
                (Estimate.relative_error ~truth result.Raestat.Cluster_estimator.estimate)
          done;
          ignore big_m;
          Report.row widths
            [
              layout_name;
              string_of_int budget;
              "page cluster";
              Report.pct (Summary.mean !cluster_errors);
              string_of_int m;
              string_of_int (m * page_capacity);
            ])
        [ 1_000; 2_000; 5_000; 10_000 ])
    layouts;
  Report.note
    "same tuple budget: cluster sampling reads ~100× fewer pages; on clustered layouts its error explodes, on shuffled layouts it matches tuple SRS"

(* ------------------------------------------------------------------ F4 *)

let f4 () =
  Report.heading "F4" "sequential sampling: tuples needed vs target precision";
  let rng = rng_for "f4" in
  let n = 50_000 in
  let relation =
    Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 })
  in
  let catalog = Catalog.of_list [ ("r", relation) ] in
  let widths = [ 12; 8; 18; 14; 16; 14 ] in
  Report.columns widths
    [ "selectivity"; "target"; "sequential tuples"; "seq r.err"; "LN draws"; "LN r.err" ];
  let reps = 30 in
  List.iter
    (fun selectivity ->
      let threshold =
        threshold_for_selectivity (Relation.column relation "a") selectivity
      in
      let pred = P.le (P.attr "a") (P.vint threshold) in
      let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
      List.iter
        (fun target ->
          let seq_used = ref Summary.empty and seq_err = ref Summary.empty in
          let ln_used = ref Summary.empty and ln_err = ref Summary.empty in
          for _ = 1 to reps do
            let result =
              Raestat.Sequential.selection rng catalog ~relation:"r" ~target ~batch:200 pred
            in
            seq_used :=
              Summary.add !seq_used
                (float_of_int result.Raestat.Sequential.estimate.Estimate.sample_size);
            seq_err :=
              Summary.add !seq_err
                (Estimate.relative_error ~truth result.Raestat.Sequential.estimate);
            let threshold_hits = Baselines.Lipton_naughton.threshold_for ~target ~k_sigma:2. in
            let ln =
              Baselines.Lipton_naughton.run rng catalog ~relation:"r"
                ~threshold:threshold_hits ~max_draws:n pred
            in
            ln_used := Summary.add !ln_used (float_of_int ln.Baselines.Lipton_naughton.draws);
            ln_err :=
              Summary.add !ln_err
                (Estimate.relative_error ~truth ln.Baselines.Lipton_naughton.estimate)
          done;
          Report.row widths
            [
              Printf.sprintf "%.1f%%" (100. *. selectivity);
              Printf.sprintf "%.2f" target;
              Printf.sprintf "%.0f" (Summary.mean !seq_used);
              Report.pct (Summary.mean !seq_err);
              Printf.sprintf "%.0f" (Summary.mean !ln_used);
              Report.pct (Summary.mean !ln_err);
            ])
        [ 0.2; 0.1; 0.05 ])
    [ 0.005; 0.05; 0.2 ];
  Report.note "cost grows ~1/target² for both; rare predicates are where both designs pay"

(* ------------------------------------------------------------------ F5 *)

let f5 () =
  Report.heading "F5" "analytic (oracle) vs Monte-Carlo variance of the join estimator";
  let rng = rng_for "f5" in
  let widths = [ 7; 16; 16; 9 ] in
  Report.columns widths [ "z"; "oracle var"; "MC var"; "ratio" ];
  let q = 0.1 in
  let reps = 300 in
  List.iter
    (fun z ->
      let left, right =
        Correlated.pair rng ~n_left:20_000 ~n_right:20_000 ~domain:500 ~skew_left:z
          ~skew_right:z Correlated.Independent ~attribute:"a"
      in
      let p1 = Raestat.Join_variance.profile left "a" in
      let p2 = Raestat.Join_variance.profile right "a" in
      let oracle = Raestat.Join_variance.oracle_variance ~q1:q ~q2:q p1 p2 in
      let points = ref Summary.empty in
      for _ = 1 to reps do
        let sl = Sampling.Bernoulli.relation rng ~p:q left in
        let sr = Sampling.Bernoulli.relation rng ~p:q right in
        let sc = Catalog.of_list [ ("l", sl); ("r", sr) ] in
        let x = Physical.count_expr sc (Expr.equijoin [ ("a", "a") ] (Expr.base "l") (Expr.base "r")) in
        points := Summary.add !points (float_of_int x /. (q *. q))
      done;
      let mc = Summary.variance !points in
      Report.row widths
        [
          Printf.sprintf "%.1f" z;
          Printf.sprintf "%.4g" oracle;
          Printf.sprintf "%.4g" mc;
          Printf.sprintf "%.3f" (mc /. oracle);
        ])
    [ 0.; 0.5; 1.0 ];
  Report.note "ratio ≈ 1: the closed-form Bernoulli variance predicts the scatter"

(* ------------------------------------------------------------------ F6 *)

let time_once f =
  let started = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. started)

let f6 () =
  Report.heading "F6" "estimation cost vs exact evaluation (single equi-join)";
  let rng = rng_for "f6" in
  let widths = [ 9; 13; 13; 10; 12 ] in
  Report.columns widths [ "N"; "exact (ms)"; "est 1% (ms)"; "speedup"; "est r.err" ];
  List.iter
    (fun n ->
      let domain = max 100 (n / 10) in
      let left, right =
        Correlated.pair rng ~n_left:n ~n_right:n ~domain ~skew_left:0.5 ~skew_right:0.5
          Correlated.Independent ~attribute:"a"
      in
      let catalog = Catalog.of_list [ ("l", left); ("r", right) ] in
      let join = Expr.equijoin [ ("a", "a") ] (Expr.base "l") (Expr.base "r") in
      let truth, exact_seconds =
        let counts = ref 0 and acc = ref 0. in
        for _ = 1 to 3 do
          let c, s = time_once (fun () -> Physical.count_expr catalog join) in
          counts := c;
          acc := !acc +. s
        done;
        (float_of_int !counts, !acc /. 3.)
      in
      let est_reps = 20 in
      let errs = ref Summary.empty in
      let _, est_seconds =
        time_once (fun () ->
            for _ = 1 to est_reps do
              let est =
                CE.equijoin ~groups:1 rng catalog ~left:"l" ~right:"r" ~on:[ ("a", "a") ]
                  ~fraction:0.01
              in
              errs := Summary.add !errs (Estimate.relative_error ~truth est)
            done)
      in
      let est_mean = est_seconds /. float_of_int est_reps in
      Report.row widths
        [
          string_of_int n;
          Printf.sprintf "%.2f" (1000. *. exact_seconds);
          Printf.sprintf "%.2f" (1000. *. est_mean);
          Printf.sprintf "%.0f×" (exact_seconds /. est_mean);
          Report.pct (Summary.mean !errs);
        ])
    [ 10_000; 20_000; 50_000; 100_000 ];
  Report.note "estimation cost scales with the sample, not the data: the speedup grows with N"

(* ------------------------------------------------------------- ablations *)

(* A1: stratification pays exactly when the predicate rate varies across
   strata. *)
let a1 () =
  Report.heading "A1" "ablation: stratified vs SRS selection variance";
  let rng = rng_for "a1" in
  let n = 12_000 in
  let make_catalog heterogeneous =
    let g = Array.init n (fun i -> i mod 3) in
    let v =
      Array.map
        (fun g ->
          let hi =
            if heterogeneous then match g with 0 -> 111 | 1 -> 199 | _ -> 1999
            else 400
          in
          Sampling.Rng.int rng hi)
        g
    in
    Catalog.of_list [ ("r", Generator.of_columns [ ("g", g); ("v", v) ]) ]
  in
  let pred = P.lt (P.attr "v") (P.vint 100) in
  let widths = [ 15; 13; 15; 15; 8 ] in
  Report.columns widths [ "strata"; "sample"; "SRS sd"; "stratified sd"; "gain" ];
  let reps = 400 in
  List.iter
    (fun (name, heterogeneous) ->
      let catalog = make_catalog heterogeneous in
      List.iter
        (fun sample_size ->
          let srs =
            Array.init reps (fun _ ->
                (CE.selection rng catalog ~relation:"r" ~n:sample_size pred).Estimate.point)
          in
          let strat =
            Array.init reps (fun _ ->
                (Raestat.Stratified_estimator.count_by_attribute rng catalog ~relation:"r"
                   ~attribute:"g" ~n:sample_size pred)
                  .Raestat.Stratified_estimator.estimate.Estimate.point)
          in
          let sd points = Summary.stddev (Summary.of_array points) in
          Report.row widths
            [
              name;
              string_of_int sample_size;
              Printf.sprintf "%.1f" (sd srs);
              Printf.sprintf "%.1f" (sd strat);
              Printf.sprintf "%.2f×" (sd srs /. sd strat);
            ])
        [ 150; 600 ])
    [ ("homogeneous", false); ("heterogeneous", true) ];
  Report.note "proportional stratification removes between-stratum variance; no effect when strata are alike"

(* A2: systematic sampling's periodicity failure. *)
let a2 () =
  Report.heading "A2" "ablation: systematic vs SRS on shuffled vs sorted rows";
  let rng = rng_for "a2" in
  let n = 50_000 in
  let base =
    Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 })
  in
  let pred = P.lt (P.attr "a") (P.vint 100) in
  let widths = [ 10; 12; 14; 14 ] in
  Report.columns widths [ "layout"; "design"; "mean r.err"; "sd of est" ];
  let reps = 200 and sample_size = 500 in
  List.iter
    (fun (layout_name, relation) ->
      let catalog = Catalog.of_list [ ("r", relation) ] in
      let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
      let keep = P.compile (Relation.schema relation) pred in
      let run_design design_name sampler =
        let errors = ref Summary.empty and points = ref Summary.empty in
        for _ = 1 to reps do
          let sample = sampler () in
          let hits = Array.fold_left (fun acc t -> if keep t then acc + 1 else acc) 0 sample in
          let est =
            CE.selection_of_counts ~big_n:n ~n:(Array.length sample) ~hits
          in
          errors := Summary.add !errors (Estimate.relative_error ~truth est);
          points := Summary.add !points est.Estimate.point
        done;
        Report.row widths
          [
            layout_name;
            design_name;
            Report.pct (Summary.mean !errors);
            Printf.sprintf "%.1f" (Summary.stddev !points);
          ]
      in
      run_design "SRS" (fun () ->
          Sampling.Srs.sample_without_replacement rng ~n:sample_size (Relation.tuples relation));
      run_design "systematic" (fun () ->
          Sampling.Systematic.sample rng ~n:sample_size (Relation.tuples relation)))
    [ ("shuffled", Generator.shuffle rng base); ("sorted", Generator.sort_by "a" base) ];
  Report.note "on sorted rows a systematic sample is a near-perfect quantile grid: tiny error here, but catastrophic for periodic data and it admits no variance estimate"

(* A3: how many replicate groups should the join estimator use? *)
let a3 () =
  Report.heading "A3" "ablation: replicate-group count g (join CI quality)";
  let rng = rng_for "a3" in
  let l, r =
    Correlated.pair rng ~n_left:20_000 ~n_right:20_000 ~domain:500 ~skew_left:0.5
      ~skew_right:0.8 Correlated.Independent ~attribute:"a"
  in
  let catalog = Catalog.of_list [ ("l", l); ("r", r) ] in
  let truth = float_of_int (join_truth catalog) in
  let widths = [ 5; 12; 14; 14 ] in
  Report.columns widths [ "g"; "coverage95"; "mean CI width"; "mean r.err" ];
  let reps = 150 in
  List.iter
    (fun groups ->
      let covered = ref 0 and width = ref Summary.empty and errors = ref Summary.empty in
      for _ = 1 to reps do
        let est =
          CE.equijoin ~groups rng catalog ~left:"l" ~right:"r" ~on:[ ("a", "a") ]
            ~fraction:0.1
        in
        let ci = Estimate.ci ~level:0.95 est in
        if Stats.Confidence.contains ci truth then incr covered;
        width := Summary.add !width (Stats.Confidence.width ci);
        errors := Summary.add !errors (Estimate.relative_error ~truth est)
      done;
      Report.row widths
        [
          string_of_int groups;
          Report.pct (float_of_int !covered /. float_of_int reps);
          Printf.sprintf "%.0f" (Summary.mean !width);
          Report.pct (Summary.mean !errors);
        ])
    [ 2; 4; 8; 16 ];
  Report.note "few groups ⇒ noisy variance estimate and under-coverage; many groups ⇒ tiny per-group samples. g=8 is the elbow"

(* A4: what the finite-population correction buys over Bernoulli. *)
let a4 () =
  Report.heading "A4" "ablation: SRSWOR vs Bernoulli sampling at equal expected cost";
  let rng = rng_for "a4" in
  let n = 20_000 in
  let relation =
    Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 })
  in
  let catalog = Catalog.of_list [ ("r", relation) ] in
  let pred = P.lt (P.attr "a") (P.vint 300) in
  let expr = Expr.select pred (Expr.base "r") in
  let selectivity =
    float_of_int (Physical.count_expr catalog expr) /. float_of_int n
  in
  let widths = [ 10; 14; 14; 14; 12 ] in
  Report.columns widths [ "fraction"; "SRSWOR sd"; "Bernoulli sd"; "var ratio"; "1-p" ];
  let reps = 400 in
  List.iter
    (fun fraction ->
      let plan_wor = Raestat.Sampling_plan.make catalog ~fraction expr in
      let plan_bern =
        Raestat.Sampling_plan.make_custom catalog
          ~mode:(fun _ _ _ -> Raestat.Sampling_plan.Bernoulli fraction)
          expr
      in
      let draw plan =
        Array.init reps (fun _ -> (CE.scale_up rng catalog plan).Estimate.point)
      in
      let sd_wor = Summary.stddev (Summary.of_array (draw plan_wor)) in
      let sd_bern = Summary.stddev (Summary.of_array (draw plan_bern)) in
      Report.row widths
        [
          Printf.sprintf "%.2f" fraction;
          Printf.sprintf "%.1f" sd_wor;
          Printf.sprintf "%.1f" sd_bern;
          Printf.sprintf "%.3f" (sd_wor ** 2. /. (sd_bern ** 2.));
          Printf.sprintf "%.3f" (1. -. selectivity);
        ])
    [ 0.05; 0.2; 0.5; 0.8 ];
  Report.note
    "theory: Bernoulli's count variance is pure binomial K(1−q)/q while SRSWOR carries p(1−p) — the ratio sits at ≈1−p at every fraction"

(* A5: maintained backing sample: update cost and estimation quality. *)
let a5 () =
  Report.heading "A5" "ablation: backing-sample maintenance vs fresh draws";
  let rng = rng_for "a5" in
  let schema = Relational.Schema.of_list [ ("a", Relational.Value.Tint) ] in
  let capacity = 1_000 in
  let bs = Raestat.Backing_sample.create rng ~capacity ~schema in
  let n = 200_000 in
  let ids = Array.make n 0 in
  let t0 = Unix.gettimeofday () in
  for k = 0 to n - 1 do
    ids.(k) <-
      Raestat.Backing_sample.insert bs
        (Relational.Tuple.make [ Relational.Value.Int (Sampling.Rng.int rng 1_000) ])
  done;
  let insert_seconds = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let deletes = 50_000 in
  for k = 0 to deletes - 1 do
    ignore (Raestat.Backing_sample.delete bs ids.(k))
  done;
  let delete_seconds = Unix.gettimeofday () -. t1 in
  Printf.printf "inserts: %d in %.3fs (%.0f ns/op)\n" n insert_seconds
    (1e9 *. insert_seconds /. float_of_int n);
  Printf.printf "deletes: %d in %.3fs (%.0f ns/op)\n" deletes delete_seconds
    (1e9 *. delete_seconds /. float_of_int deletes);
  Printf.printf "population %d, sample %d, fill %.2f, needs_rescan %b\n"
    (Raestat.Backing_sample.population bs)
    (Raestat.Backing_sample.sample_size bs)
    (Raestat.Backing_sample.fill_ratio bs)
    (Raestat.Backing_sample.needs_rescan bs);
  let pred = P.lt (P.attr "a") (P.vint 250) in
  let est = Raestat.Backing_sample.estimate_count bs pred in
  Printf.printf "maintained-sample estimate: %.0f (expected ≈ %.0f)\n" est.Estimate.point
    (0.25 *. float_of_int (Raestat.Backing_sample.population bs));
  Report.note "sub-microsecond maintenance; estimates come from the synopsis alone"

(* A6: per-group estimation and the sample-size planner, the two
   "plan before you sample" extensions. *)
let a6 () =
  Report.heading "A6" "ablation: group-by estimation coverage & planner calibration";
  let rng = rng_for "a6" in
  let n = 50_000 in
  let relation =
    Generator.relation rng ~n
      [
        ("g", Dist.Zipf { n_values = 8; skew = 0.5 });
        ("v", Dist.Uniform { lo = 0; hi = 999 });
      ]
  in
  let catalog = Catalog.of_list [ ("r", relation) ] in
  let exact = Raestat.Group_count.exact catalog ~relation:"r" ~by:[ "g" ] () in
  (* Part 1: joint coverage of Bonferroni intervals. *)
  let widths = [ 9; 9; 14; 14 ] in
  Report.columns widths [ "sample"; "groups"; "joint nominal"; "joint cover" ];
  List.iter
    (fun sample_size ->
      let reps = 200 in
      let all_covered = ref 0 and group_count = ref 0 in
      for _ = 1 to reps do
        let result =
          Raestat.Group_count.estimate rng catalog ~relation:"r" ~by:[ "g" ] ~n:sample_size
            ~level:0.95 ()
        in
        group_count := List.length result.Raestat.Group_count.groups;
        let ok =
          List.for_all
            (fun g ->
              match List.assoc_opt g.Raestat.Group_count.key exact with
              | Some truth ->
                Stats.Confidence.contains g.Raestat.Group_count.interval
                  (float_of_int truth)
              | None -> false)
            result.Raestat.Group_count.groups
        in
        if ok then incr all_covered
      done;
      Report.row widths
        [
          string_of_int sample_size;
          string_of_int !group_count;
          "95.00%";
          Report.pct (float_of_int !all_covered /. float_of_int reps);
        ])
    [ 500; 2_000; 8_000 ];
  (* Part 2: does the planned sample size deliver the requested
     precision? *)
  print_newline ();
  let widths = [ 8; 8; 11; 13; 16 ] in
  Report.columns widths [ "p"; "target"; "planned n"; "within tgt"; "nominal >= 95%" ];
  List.iter
    (fun (p, target) ->
      let threshold = threshold_for_selectivity (Relation.column relation "v") p in
      let pred = P.le (P.attr "v") (P.vint threshold) in
      let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
      let planned = Raestat.Sample_size.selection ~big_n:n ~level:0.95 ~target ~p in
      let reps = 300 in
      let within = ref 0 in
      for _ = 1 to reps do
        let est = CE.selection rng catalog ~relation:"r" ~n:planned pred in
        if Estimate.relative_error ~truth est <= target then incr within
      done;
      Report.row widths
        [
          Printf.sprintf "%.2f" p;
          Printf.sprintf "%.2f" target;
          string_of_int planned;
          Report.pct (float_of_int !within /. float_of_int reps);
          "yes";
        ])
    [ (0.05, 0.2); (0.05, 0.1); (0.2, 0.1); (0.5, 0.05) ];
  Report.note "Bonferroni joint coverage ≥ nominal; planner sizes achieve the target at ≥ the confidence level"

(* The join key table's two representations over a sweep of key spans
   and probe counts, both relative to the build rows: [rows] build keys
   and [probes × rows] probe keys drawn uniformly from a span of
   [span × rows] codes, built and probed through [Kernel.Key_table] as
   a dense array (made with a [rows] argument that lets the density
   rule accept any span) and as open addressing (made for
   [min_int, max_int]).  A cell is the median of 15 rounds, each timing
   the make, the build and the probe together. *)
let key_table_sweep rng =
  let module K = Relational.Kernel in
  let widths = [ 6; 10; 12; 11; 11; 12 ] in
  Report.columns widths
    [ "rows"; "span/rows"; "probes/rows"; "dense (us)"; "open (us)"; "dense/open" ];
  List.iter
    (fun (rows, span, probes) ->
      let codes n = Array.init n (fun _ -> Sampling.Rng.int rng (span * rows)) in
      let built = codes rows and probed = codes (probes * rows) in
      let run ~lo ~hi ~table_rows =
        let reps = max 1 (200_000 / ((probes + span + 1) * rows)) in
        let rounds =
          Array.init 15 (fun _ ->
              let _, seconds =
                time_once (fun () ->
                    for _ = 1 to reps do
                      let t = K.Key_table.create ~lo ~hi ~rows:table_rows in
                      K.Key_table.count t (K.Raw built) None rows;
                      ignore
                        (Sys.opaque_identity
                           (K.Key_table.probe_count t (K.Raw probed) None (probes * rows)))
                    done)
              in
              seconds /. float_of_int reps)
        in
        Array.sort Float.compare rounds;
        rounds.(7)
      in
      let dense = run ~lo:0 ~hi:((span * rows) - 1) ~table_rows:(span * rows) in
      let open_ = run ~lo:min_int ~hi:max_int ~table_rows:rows in
      Report.row widths
        [
          string_of_int rows;
          string_of_int span;
          string_of_int probes;
          Printf.sprintf "%.1f" (1e6 *. dense);
          Printf.sprintf "%.1f" (1e6 *. open_);
          Printf.sprintf "%.2f" (dense /. open_);
        ])
    (List.concat_map
       (fun rows ->
         List.concat_map
           (fun span -> List.map (fun probes -> (rows, span, probes)) [ 1; 50 ])
           [ 1; 8; 64; 512 ])
       [ 64; 512 ]);
  Report.note
    "the joins take the dense array while span <= max 4096 (8 x rows): there it costs \
     at most a few us more at one probe per build row, and saves most of the probe time \
     at 50"

(* A7: the row-id engine on wide products and duplicate elimination,
   its hash join beside index probes, and the join key table's two
   representations. *)
let a7 () =
  Report.heading "A7" "ablation: the row-id Physical engine and index probes";
  let rng = rng_for "a7" in
  let widths = [ 34; 12; 14 ] in
  Report.columns widths [ "query"; "count"; "stream (ms)" ];
  let l, r =
    Correlated.pair rng ~n_left:30_000 ~n_right:30_000 ~domain:2_000 ~skew_left:0.5
      ~skew_right:0.5 Correlated.Independent ~attribute:"a"
  in
  let small = Generator.int_relation rng ~n:2_500 ~attribute:"k" (Dist.Uniform { lo = 0; hi = 99 }) in
  let catalog = Catalog.of_list [ ("l", l); ("r", r); ("small", small) ] in
  let cases =
    [
      ("hash join 30k ⋈ 30k", Expr.equijoin [ ("a", "a") ] (Expr.base "l") (Expr.base "r"));
      ( "σ over product 2.5k × 2.5k",
        Expr.select
          (P.eq (P.attr "l.k") (P.attr "r.k"))
          (Expr.product (Expr.base "small") (Expr.base "small")) );
      ("distinct(π)", Expr.project_distinct [ "a" ] (Expr.base "l"));
    ]
  in
  List.iter
    (fun (name, e) ->
      let count, seconds = time_once (fun () -> Physical.count_expr catalog e) in
      Report.row widths [ name; string_of_int count; Printf.sprintf "%.1f" (1000. *. seconds) ])
    cases;
  let _, index_seconds =
    time_once (fun () ->
        let index =
          Relational.Index.build (Catalog.find catalog "r") ~attributes:[ "a" ]
        in
        Relational.Relation.cardinality
          (Relational.Index.probe_join index (Catalog.find catalog "l") ~key:[ "a" ]))
  in
  Report.row widths [ "index probe (build+probe)"; "-"; Printf.sprintf "%.1f" (1000. *. index_seconds) ];
  Report.note "the engine never materializes wide intermediates (σ over ×)";
  key_table_sweep rng

(* A8: PPS + Horvitz–Thompson vs SRS for SUM over skewed amounts, and
   order-statistic quantile CIs. *)
let a8 () =
  Report.heading "A8" "ablation: Horvitz–Thompson (PPS) vs SRS for SUM; quantile CIs";
  let rng = rng_for "a8" in
  let n = 50_000 in
  let make_amounts alpha =
    Array.init n (fun _ ->
        let u = Sampling.Rng.positive_float rng in
        1 + int_of_float (20. *. ((1. /. u) ** alpha)))
  in
  let widths = [ 11; 9; 13; 13; 8 ] in
  Report.columns widths [ "tail alpha"; "budget"; "SRS r.err"; "HT r.err"; "gain" ];
  let reps = 150 in
  List.iter
    (fun alpha ->
      let relation = Generator.of_columns [ ("amount", make_amounts alpha) ] in
      let catalog = Catalog.of_list [ ("r", relation) ] in
      let truth = Raestat.Aggregate.exact_sum catalog ~attribute:"amount" (Expr.base "r") in
      List.iter
        (fun budget ->
          let srs_err = ref Summary.empty and ht_err = ref Summary.empty in
          for _ = 1 to reps do
            let srs =
              Raestat.Aggregate.sum_selection rng catalog ~relation:"r"
                ~attribute:"amount" ~n:budget P.True
            in
            srs_err := Summary.add !srs_err (Estimate.relative_error ~truth srs);
            let ht =
              Raestat.Horvitz_thompson.sum rng catalog ~relation:"r" ~attribute:"amount"
                ~expected_n:(float_of_int budget) ()
            in
            ht_err := Summary.add !ht_err (Estimate.relative_error ~truth ht)
          done;
          Report.row widths
            [
              Printf.sprintf "%.1f" alpha;
              string_of_int budget;
              Report.pct (Summary.mean !srs_err);
              Report.pct (Summary.mean !ht_err);
              Printf.sprintf "%.1f×" (Summary.mean !srs_err /. Summary.mean !ht_err);
            ])
        [ 200; 1_000 ])
    [ 0.4; 0.7 ];
  (* Quantile intervals: coverage and width of the distribution-free
     order-statistic CI for the median and p95. *)
  print_newline ();
  let relation = Generator.of_columns [ ("amount", make_amounts 0.7) ] in
  let catalog = Catalog.of_list [ ("r", relation) ] in
  let widths = [ 7; 9; 12; 14 ] in
  Report.columns widths [ "tau"; "sample"; "coverage90"; "rel CI width" ];
  List.iter
    (fun tau ->
      let truth = Raestat.Quantile.exact catalog ~relation:"r" ~attribute:"amount" ~tau in
      List.iter
        (fun sample_size ->
          let covered = ref 0 and widths_summary = ref Summary.empty in
          let reps = 200 in
          for _ = 1 to reps do
            let result =
              Raestat.Quantile.estimate rng catalog ~relation:"r" ~attribute:"amount" ~tau
                ~n:sample_size ~level:0.9 ()
            in
            if Stats.Confidence.contains result.Raestat.Quantile.interval truth then
              incr covered;
            widths_summary :=
              Summary.add !widths_summary
                (Stats.Confidence.width result.Raestat.Quantile.interval /. truth)
          done;
          Report.row widths
            [
              Printf.sprintf "%.2f" tau;
              string_of_int sample_size;
              Report.pct (float_of_int !covered /. float_of_int reps);
              Report.pct (Summary.mean !widths_summary);
            ])
        [ 200; 1_000 ])
    [ 0.5; 0.95 ];
  Report.note
    "PPS pays once the tail dominates (2.8–2.9× at alpha=0.7) but loses to SRSWOR's fixed-size advantage on near-uniform amounts (0.7×) — a real crossover, not a free lunch; order-statistic quantile CIs hold nominal coverage with no distributional assumptions"

(* A9: does sampling-driven join-order planning pick the right order,
   and how often, as a function of the sampling fraction? *)
let a9 () =
  Report.heading "A9" "ablation: sampled join-order planner vs exact costing";
  let rng = rng_for "a9" in
  let widths = [ 10; 14; 16; 16 ] in
  Report.columns widths [ "fraction"; "right order"; "est cost ratio"; "plans/sec" ];
  let reps = 20 in
  List.iter
    (fun fraction ->
      let correct = ref 0 and ratio = ref Summary.empty in
      let started = Unix.gettimeofday () in
      for k = 1 to reps do
        let catalog =
          Workload.Tpc_mini.catalog
            (Sampling.Rng.create ~seed:(9_000 + k) ())
            ~sizes:{ Workload.Tpc_mini.suppliers = 400; parts = 600; orders = 8_000 }
            ()
        in
        let inputs =
          [
            { Raestat.Planner.name = "orders"; filter = None };
            {
              Raestat.Planner.name = "suppliers";
              filter = Some (P.eq (P.attr "s_region") (P.vint 0));
            };
            { Raestat.Planner.name = "parts"; filter = None };
          ]
        in
        let joins =
          [
            { Raestat.Planner.left_attr = "o_supplier"; right_attr = "s_key" };
            { Raestat.Planner.left_attr = "o_part"; right_attr = "p_key" };
          ]
        in
        let plan = Raestat.Planner.plan rng catalog ~fraction ~inputs ~joins in
        let chosen_exact = Raestat.Planner.exact_cost catalog plan in
        (* Exhaustive truth: both interesting orders' exact costs. *)
        let exact_of order_filter =
          let sup =
            Expr.select (P.eq (P.attr "s_region") (P.vint 0)) (Expr.base "suppliers")
          in
          let os = Expr.equijoin [ ("o_supplier", "s_key") ] (Expr.base "orders") sup in
          let op =
            Expr.equijoin [ ("o_part", "p_key") ] (Expr.base "orders") (Expr.base "parts")
          in
          match order_filter with
          | `Suppliers_first -> float_of_int (Physical.count_expr catalog os)
          | `Parts_first -> float_of_int (Physical.count_expr catalog op)
        in
        let best_exact =
          Float.min (exact_of `Suppliers_first) (exact_of `Parts_first)
        in
        if chosen_exact <= best_exact +. 1e-9 then incr correct;
        if best_exact > 0. then ratio := Summary.add !ratio (chosen_exact /. best_exact)
      done;
      let elapsed = Unix.gettimeofday () -. started in
      Report.row widths
        [
          Printf.sprintf "%.3f" fraction;
          Report.pct (float_of_int !correct /. float_of_int reps);
          Printf.sprintf "%.2f" (Summary.mean !ratio);
          Printf.sprintf "%.1f" (float_of_int reps /. elapsed);
        ])
    [ 0.01; 0.05; 0.2 ];
  Report.note
    "even 1% samples usually rank the orders correctly; mistakes cost little (ratio ≈ 1)"

(* A10: three CI constructions for the same selection estimate at the
   same sample budget. *)
let a10 () =
  Report.heading "A10" "ablation: analytic vs bootstrap vs Chebyshev CIs (selection)";
  let rng = rng_for "a10" in
  let n = 30_000 in
  let relation =
    Generator.int_relation rng ~n ~attribute:"a" (Dist.Uniform { lo = 0; hi = 999 })
  in
  let catalog = Catalog.of_list [ ("r", relation) ] in
  let pred = P.lt (P.attr "a") (P.vint 150) in
  let truth = float_of_int (Physical.count_expr catalog (Expr.select pred (Expr.base "r"))) in
  let widths = [ 24; 9; 12; 14 ] in
  Report.columns widths [ "interval"; "sample"; "coverage90"; "mean width" ];
  let reps = 200 in
  List.iter
    (fun sample_size ->
      let cover = Array.make 3 0 and width = Array.make 3 Summary.empty in
      for _ = 1 to reps do
        let analytic = CE.selection rng catalog ~relation:"r" ~n:sample_size pred in
        let ci_analytic = Estimate.ci ~level:0.9 analytic in
        let ci_cheb = Estimate.ci_chebyshev ~level:0.9 analytic in
        let _, ci_boot =
          Raestat.Bootstrap.selection_count rng catalog ~relation:"r" ~n:sample_size
            ~replicates:200 ~level:0.9 pred
        in
        List.iteri
          (fun k ci ->
            if Stats.Confidence.contains ci truth then cover.(k) <- cover.(k) + 1;
            width.(k) <- Summary.add width.(k) (Stats.Confidence.width ci))
          [ ci_analytic; ci_boot; ci_cheb ]
      done;
      List.iteri
        (fun k name ->
          Report.row widths
            [
              name;
              string_of_int sample_size;
              Report.pct (float_of_int cover.(k) /. float_of_int reps);
              Printf.sprintf "%.0f" (Summary.mean width.(k));
            ])
        [ "analytic (hypergeom.)"; "bootstrap percentile"; "Chebyshev" ])
    [ 200; 1_000 ];
  Report.note
    "analytic and bootstrap agree (bootstrap pays ~200× the CPU); Chebyshev over-covers with ~2× width"

(* A11: one-sided (index-assisted degree) vs two-sided (bilinear) join
   size estimation at the same left-side tuple budget. *)
let a11 () =
  Report.heading "A11" "ablation: index-assisted vs bilinear join estimation";
  let rng = rng_for "a11" in
  let widths = [ 7; 9; 14; 14; 8 ] in
  Report.columns widths [ "z"; "budget"; "bilinear err"; "indexed err"; "gain" ];
  let reps = 100 in
  List.iter
    (fun z ->
      let left, right =
        Correlated.pair rng ~n_left:20_000 ~n_right:20_000 ~domain:500 ~skew_left:z
          ~skew_right:z Correlated.Independent ~attribute:"a"
      in
      let catalog = Catalog.of_list [ ("l", left); ("r", right) ] in
      let truth = float_of_int (join_truth catalog) in
      let index = Relational.Index.build right ~attributes:[ "a" ] in
      List.iter
        (fun budget ->
          let fraction = float_of_int budget /. 40_000. in
          let bilinear_err = ref Summary.empty and indexed_err = ref Summary.empty in
          for _ = 1 to reps do
            let bilinear =
              CE.equijoin ~groups:1 rng catalog ~left:"l" ~right:"r" ~on:[ ("a", "a") ]
                ~fraction
            in
            bilinear_err :=
              Summary.add !bilinear_err (Estimate.relative_error ~truth bilinear);
            let indexed =
              CE.equijoin_indexed ~index rng catalog ~left:"l" ~right:"r" ~on:("a", "a")
                ~n:budget
            in
            indexed_err := Summary.add !indexed_err (Estimate.relative_error ~truth indexed)
          done;
          Report.row widths
            [
              Printf.sprintf "%.1f" z;
              string_of_int budget;
              Report.pct (Summary.mean !bilinear_err);
              Report.pct (Summary.mean !indexed_err);
              Printf.sprintf "%.1f×" (Summary.mean !bilinear_err /. Summary.mean !indexed_err);
            ])
        [ 400; 2_000 ])
    [ 0.; 0.5; 1.0 ];
  Report.note
    "reading exact degrees from an index replaces the noisy two-sided product: several-fold tighter at every skew, at the cost of maintaining the index"

(* A12: sliding-window chain sampling vs a whole-stream reservoir on a
   drifting stream. *)
let a12 () =
  Report.heading "A12" "ablation: window chain-sampling vs whole-stream reservoir under drift";
  let rng = rng_for "a12" in
  let stream_length = 200_000 and window = 20_000 in
  let drift_at = 100_000 in
  let value_at t =
    (* Predicate rate jumps from 5% to 25% at the drift point. *)
    let p = if t < drift_at then 0.05 else 0.25 in
    if Sampling.Rng.float rng < p then 1 else 0
  in
  let widths = [ 18; 10; 16; 16 ] in
  Report.columns widths [ "estimator"; "k/cap"; "pre-drift err"; "post-drift err" ];
  List.iter
    (fun k ->
      let chains = Sampling.Window.create ~k rng ~window () in
      let reservoir = Sampling.Reservoir.create ~algorithm:`L rng ~capacity:k in
      let live = Queue.create () in
      let live_hits = ref 0 in
      let pre = ref Summary.empty and post = ref Summary.empty in
      let pre_res = ref Summary.empty and post_res = ref Summary.empty in
      for t = 1 to stream_length do
        let v = value_at t in
        Sampling.Window.add chains v;
        Sampling.Reservoir.add reservoir v;
        Queue.push v live;
        live_hits := !live_hits + v;
        if Queue.length live > window then live_hits := !live_hits - Queue.pop live;
        if t mod 10_000 = 0 && t >= window then begin
          let truth = float_of_int !live_hits in
          let window_sample = Sampling.Window.contents chains in
          let hits = Array.fold_left ( + ) 0 window_sample in
          let est =
            float_of_int hits /. float_of_int (Array.length window_sample)
            *. float_of_int window
          in
          let r_sample = Sampling.Reservoir.contents reservoir in
          let r_hits = Array.fold_left ( + ) 0 r_sample in
          let r_est =
            float_of_int r_hits /. float_of_int (Array.length r_sample)
            *. float_of_int window
          in
          let err e = Float.abs (e -. truth) /. Float.max 1. truth in
          if t <= drift_at then begin
            pre := Summary.add !pre (err est);
            pre_res := Summary.add !pre_res (err r_est)
          end
          else begin
            post := Summary.add !post (err est);
            post_res := Summary.add !post_res (err r_est)
          end
        end
      done;
      Report.row widths
        [ "window chains"; string_of_int k; Report.pct (Summary.mean !pre);
          Report.pct (Summary.mean !post) ];
      Report.row widths
        [ "stream reservoir"; string_of_int k; Report.pct (Summary.mean !pre_res);
          Report.pct (Summary.mean !post_res) ])
    [ 200; 1_000 ];
  Report.note
    "the whole-stream reservoir goes stale after the drift (it still mixes old traffic); window chains keep tracking at the cost of k chains"

let all = [ ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4); ("t5", t5); ("t6", t6);
            ("f1", f1); ("f2", f2); ("f3", f3); ("f4", f4); ("f5", f5); ("f6", f6);
            ("a1", a1); ("a2", a2); ("a3", a3); ("a4", a4); ("a5", a5); ("a6", a6);
            ("a7", a7); ("a8", a8); ("a9", a9); ("a10", a10); ("a11", a11);
            ("a12", a12) ]
