(* Golden-seed snapshot suite: the refactor contract for the Estplan
   IR.  Every estimator entry point runs a fixed-seed scenario on the
   tpc_mini workload and renders one line capturing its estimate,
   variance, CI and the nine metrics counter totals; the lines must
   match the table below bit-for-bit (floats are printed as %h, the
   exact hexadecimal form).

   A refactor keeps the table bit-identical.  A change to how a
   sampler consumes the Rng stream re-captures it: estimates, probe
   counts and draws may move, and no other counter.  A second table,
   [extras], pins what the lines above do not show: the labels,
   trajectories, strata and per-group intervals of the estimators that
   run outside the plan IR.  To regenerate after an *intentional*
   contract change:

     RAESTAT_GOLDEN_OUT=/tmp/golden dune exec test/test_main.exe -- test golden
     # then paste /tmp/golden over the [expected] list below, and
     # /tmp/golden.extras over the [expected_extras] list.  *)

module Estimate = Stats.Estimate
module Metrics = Obs.Metrics
module P = Relational.Predicate
module Expr = Relational.Expr

let seed = 20260806

let sizes = { Workload.Tpc_mini.suppliers = 80; parts = 50; orders = 4000 }

let fixed_catalog () =
  Workload.Tpc_mini.catalog (Sampling.Rng.create ~seed:99 ()) ~sizes ()

(* Two duplicate-free single-column relations for the set estimators. *)
let set_catalog () =
  let rel lo hi =
    Relational.Relation.make
      (Relational.Schema.of_list [ ("k", Relational.Value.Tint) ])
      (List.init (hi - lo) (fun i -> Relational.Tuple.make [ Relational.Value.Int (lo + i) ]))
  in
  Relational.Catalog.of_list [ ("a", rel 0 900); ("b", rel 600 1500) ]

let fmt_float x = Printf.sprintf "%h" x

let fmt_estimate (e : Estimate.t) =
  let ci =
    if Estimate.has_variance e then
      let { Stats.Confidence.lo; hi; _ } = Estimate.ci ~level:0.95 e in
      Printf.sprintf "[%s,%s]" (fmt_float lo) (fmt_float hi)
    else "[-]"
  in
  Printf.sprintf "point=%s var=%s n=%d status=%s ci=%s" (fmt_float e.Estimate.point)
    (fmt_float e.Estimate.variance) e.Estimate.sample_size
    (Estimate.status_to_string e.Estimate.status)
    ci

let fmt_counters m =
  let s = Metrics.snapshot m in
  Printf.sprintf "tuples=%d pages=%d bytes=%d batches=%d cache=%d idx=%d hit=%d miss=%d draws=%d"
    s.Metrics.tuples_scanned s.Metrics.pages_read s.Metrics.bytes_read
    s.Metrics.io_batches s.Metrics.page_cache_hits s.Metrics.sample_indices
    s.Metrics.hash_probe_hits s.Metrics.hash_probe_misses s.Metrics.rng_draws

(* Each scenario builds its own rng, catalog and metrics sink. *)
let scenario name f =
  let rng = Sampling.Rng.create ~seed () in
  let metrics = Metrics.create () in
  let body = f rng metrics in
  Printf.sprintf "%s | %s | %s" name body (fmt_counters metrics)

let chain = Workload.Tpc_mini.chain_query ()

let orders_filter = P.le (P.attr "o_quantity") (P.vint 6)

let scenarios () =
  let est name f = scenario name (fun rng m -> fmt_estimate (f rng m)) in
  [
    est "estimate/select/g1/col" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.estimate ~metrics:m rng catalog ~fraction:0.1
          (Expr.select orders_filter (Expr.base "orders")));
    est "estimate/chain/g4/dom1" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.estimate ~groups:4 ~domains:1 ~metrics:m rng catalog
          ~fraction:0.15 chain);
    est "estimate/chain/g4/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.estimate ~groups:4 ~domains:2 ~metrics:m rng catalog
          ~fraction:0.15 chain);
    est "estimate/self-join/g1" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.estimate ~metrics:m rng catalog ~fraction:0.2
          (Expr.equijoin [ ("o_supplier", "o_supplier") ] (Expr.base "orders")
             (Expr.base "orders")));
    est "estimate/distinct/g1" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.estimate ~metrics:m rng catalog ~fraction:0.3
          (Expr.distinct (Expr.project [ "o_supplier" ] (Expr.base "orders"))));
    est "selection/col" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.selection ~metrics:m rng catalog ~relation:"orders"
          ~n:500 orders_filter);
    est "equijoin/g1" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.equijoin ~groups:1 ~metrics:m rng catalog
          ~left:"orders" ~right:"suppliers" ~on:[ ("o_supplier", "s_key") ]
          ~fraction:0.2);
    est "equijoin/g8/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.equijoin ~groups:8 ~domains:2 ~metrics:m rng catalog
          ~left:"orders" ~right:"suppliers" ~on:[ ("o_supplier", "s_key") ]
          ~fraction:0.4);
    est "equijoin-indexed" (fun rng m ->
        let catalog = fixed_catalog () in
        Raestat.Count_estimator.equijoin_indexed ~metrics:m rng catalog ~left:"orders"
          ~right:"parts" ~on:("o_part", "p_key") ~n:600);
    est "intersection" (fun rng m ->
        Raestat.Count_estimator.intersection ~metrics:m rng (set_catalog ()) ~left:"a"
          ~right:"b" ~fraction:0.5);
    est "union" (fun rng m ->
        Raestat.Count_estimator.union ~metrics:m rng (set_catalog ()) ~left:"a"
          ~right:"b" ~fraction:0.5);
    est "difference" (fun rng m ->
        Raestat.Count_estimator.difference ~metrics:m rng (set_catalog ()) ~left:"a"
          ~right:"b" ~fraction:0.5);
    scenario "cluster/m12" (fun rng m ->
        let catalog = fixed_catalog () in
        let paged =
          Relational.Paged.make ~page_capacity:100
            (Relational.Catalog.find catalog "orders")
        in
        let r = Raestat.Cluster_estimator.count ~metrics:m rng ~m:12 paged orders_filter in
        Printf.sprintf "%s pages=%d tuples=%d" (fmt_estimate r.Raestat.Cluster_estimator.estimate)
          r.Raestat.Cluster_estimator.pages_sampled r.Raestat.Cluster_estimator.tuples_read);
    scenario "cluster/raf/m12" (fun rng m ->
        (* Same estimate through the on-disk pagefile: identical point,
           variance and sampling counters, but the I/O counters now pin
           real reads (12 pages over coalesced batches, zero cache
           hits on a cold cache). *)
        let catalog = fixed_catalog () in
        let path = Filename.temp_file "raestat-golden" ".raf" in
        Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        @@ fun () ->
        Relational.Pagefile.write_relation ~page_capacity:100 path
          (Relational.Catalog.find catalog "orders");
        let pf = Relational.Pagefile.openfile path in
        Fun.protect ~finally:(fun () -> Relational.Pagefile.close pf)
        @@ fun () ->
        let paged = Relational.Paged.of_pagefile pf in
        let r = Raestat.Cluster_estimator.count ~metrics:m rng ~m:12 paged orders_filter in
        Printf.sprintf "%s pages=%d tuples=%d" (fmt_estimate r.Raestat.Cluster_estimator.estimate)
          r.Raestat.Cluster_estimator.pages_sampled r.Raestat.Cluster_estimator.tuples_read);
    scenario "sequential/selection" (fun rng m ->
        let catalog = fixed_catalog () in
        let r =
          Raestat.Sequential.selection ~metrics:m rng catalog ~relation:"orders"
            ~target:0.2 ~batch:200 orders_filter
        in
        Printf.sprintf "%s reached=%b steps=%d" (fmt_estimate r.Raestat.Sequential.estimate)
          r.Raestat.Sequential.reached_target
          (List.length r.Raestat.Sequential.trajectory));
    scenario "sequential/two-phase/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        let r =
          Raestat.Sequential.two_phase ~domains:2 ~metrics:m rng catalog ~target:0.25
            ~pilot_fraction:0.02 ~groups:5
            (Expr.select orders_filter (Expr.base "orders"))
        in
        Printf.sprintf "%s reached=%b steps=%d" (fmt_estimate r.Raestat.Sequential.estimate)
          r.Raestat.Sequential.reached_target
          (List.length r.Raestat.Sequential.trajectory));
    scenario "stratified/count" (fun rng m ->
        let catalog = fixed_catalog () in
        ignore m;
        let r =
          Raestat.Stratified_estimator.count_by_attribute rng catalog ~relation:"suppliers"
            ~attribute:"s_region" ~n:40 (P.ge (P.attr "s_balance") (P.vint 5000))
        in
        Printf.sprintf "%s strata=%d" (fmt_estimate r.Raestat.Stratified_estimator.estimate)
          (List.length r.Raestat.Stratified_estimator.strata));
    scenario "bootstrap/selection/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        let e, ci =
          Raestat.Bootstrap.selection_count ~domains:2 ~metrics:m rng catalog
            ~relation:"orders" ~n:400 ~replicates:64 ~level:0.9 orders_filter
        in
        Printf.sprintf "%s boot-ci=[%s,%s]" (fmt_estimate e)
          (fmt_float ci.Stats.Confidence.lo) (fmt_float ci.Stats.Confidence.hi));
    scenario "group-count/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        let r =
          Raestat.Group_count.estimate ~domains:2 ~metrics:m rng catalog
            ~relation:"suppliers" ~by:[ "s_region" ] ~n:50 ()
        in
        String.concat " ; "
          (List.map
             (fun g ->
               Printf.sprintf "%s:%s"
                 (String.concat "," (List.map Relational.Value.to_string g.Raestat.Group_count.key))
                 (fmt_estimate g.Raestat.Group_count.estimate))
             r.Raestat.Group_count.groups));
    scenario "group-sum/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        let r =
          Raestat.Group_count.estimate_sum ~domains:2 ~metrics:m rng catalog
            ~relation:"orders" ~by:[ "o_part" ] ~attribute:"o_quantity" ~n:300
            ~where:(P.le (P.attr "o_part") (P.vint 3)) ()
        in
        String.concat " ; "
          (List.map
             (fun g ->
               Printf.sprintf "%s:%s"
                 (String.concat "," (List.map Relational.Value.to_string g.Raestat.Group_count.key))
                 (fmt_estimate g.Raestat.Group_count.estimate))
             r.Raestat.Group_count.groups));
  ]

let expected =
  [
    "estimate/select/g1/col | point=0x1.02cp+11 var=nan n=400 status=unbiased ci=[-] | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=400 hit=0 miss=0 draws=400";
    "estimate/chain/g4/dom1 | point=0x1.3428e38e38e3ap+12 var=0x1.d6f34587e6b7p+16 n=2480 status=unbiased ci=[0x1.09a034e6ea2p+12,0x1.5eb1923587a74p+12] | tuples=2480 pages=0 bytes=0 batches=0 cache=0 idx=2480 hit=460 miss=2329 draws=2484";
    "estimate/chain/g4/dom2 | point=0x1.3428e38e38e3ap+12 var=0x1.d6f34587e6b7p+16 n=2480 status=unbiased ci=[0x1.09a034e6ea2p+12,0x1.5eb1923587a74p+12] | tuples=2480 pages=0 bytes=0 batches=0 cache=0 idx=2480 hit=460 miss=2329 draws=2484";
    "estimate/self-join/g1 | point=0x1.0903cp+19 var=nan n=1600 status=unbiased ci=[-] | tuples=1600 pages=0 bytes=0 batches=0 cache=0 idx=1600 hit=800 miss=0 draws=1600";
    "estimate/distinct/g1 | point=0x1.04p+8 var=nan n=1200 status=consistent ci=[-] | tuples=1200 pages=0 bytes=0 batches=0 cache=0 idx=1200 hit=0 miss=0 draws=1200";
    "selection/col | point=0x1.f6p+10 var=0x1.b65ea73f1a2a1p+12 n=500 status=unbiased ci=[0x1.ccf6b58eee465p+10,0x1.0f84a53888dcep+11] | tuples=500 pages=0 bytes=0 batches=0 cache=0 idx=500 hit=0 miss=0 draws=500";
    "equijoin/g1 | point=0x1.162p+12 var=nan n=816 status=unbiased ci=[-] | tuples=816 pages=0 bytes=0 batches=0 cache=0 idx=816 hit=178 miss=622 draws=816";
    "equijoin/g8/dom2 | point=0x1.c2p+11 var=0x1.4ed2492492492p+18 n=1632 status=unbiased ci=[0x1.328ba01b8bc5ep+11,0x1.28ba2ff23a1d1p+12] | tuples=1632 pages=0 bytes=0 batches=0 cache=0 idx=1632 hit=72 miss=1528 draws=1640";
    "equijoin-indexed | point=0x1.f4p+11 var=0x0p+0 n=600 status=unbiased ci=[0x1.f4p+11,0x1.f4p+11] | tuples=600 pages=0 bytes=0 batches=0 cache=0 idx=600 hit=600 miss=0 draws=600";
    "intersection | point=0x1.38p+8 var=0x1.68207407211e6p+9 n=900 status=unbiased ci=[0x1.03664068fbef9p+8,0x1.6c99bf9704107p+8] | tuples=900 pages=0 bytes=0 batches=0 cache=0 idx=900 hit=0 miss=0 draws=900";
    "union | point=0x1.74p+10 var=0x1.68207407211e6p+9 n=900 status=unbiased ci=[0x1.66d9901a3efbep+10,0x1.81266fe5c1042p+10] | tuples=900 pages=0 bytes=0 batches=0 cache=0 idx=900 hit=0 miss=0 draws=900";
    "difference | point=0x1.26p+9 var=0x1.68207407211e6p+9 n=900 status=unbiased ci=[0x1.0bb320347df7cp+9,0x1.404cdfcb82084p+9] | tuples=900 pages=0 bytes=0 batches=0 cache=0 idx=900 hit=0 miss=0 draws=900";
    "cluster/m12 | point=0x1.004p+11 var=0x1.00cc9b26c9b27p+12 n=1200 status=unbiased ci=[0x1.e1177861ad54p+10,0x1.0ff443cf2956p+11] pages=12 tuples=1200 | tuples=1200 pages=0 bytes=0 batches=0 cache=0 idx=12 hit=0 miss=0 draws=12";
    "cluster/raf/m12 | point=0x1.004p+11 var=0x1.00cc9b26c9b27p+12 n=1200 status=unbiased ci=[0x1.e1177861ad54p+10,0x1.0ff443cf2956p+11] pages=12 tuples=1200 | tuples=1200 pages=12 bytes=48780 batches=9 cache=0 idx=12 hit=0 miss=0 draws=12";
    "sequential/selection | point=0x1.1a8p+11 var=0x1.153099fc267f1p+13 n=400 status=unbiased ci=[0x1.036d1331da825p+11,0x1.3192ecce257dbp+11] reached=true steps=2 | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=0 hit=0 miss=0 draws=3999";
    "sequential/two-phase/dom2 | point=0x1.108p+11 var=0x1.a838p+14 n=400 status=unbiased ci=[0x1.d043522d9aba4p+10,0x1.38de56e932a2ep+11] reached=true steps=1 | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=400 hit=0 miss=0 draws=405";
    "stratified/count | point=0x1.5255555555555p+5 var=0x1.562e1ee1ee1eep+4 n=40 status=unbiased ci=[0x1.09d275c070d37p+5,0x1.9ad834ea39d73p+5] strata=5 | tuples=0 pages=0 bytes=0 batches=0 cache=0 idx=0 hit=0 miss=0 draws=0";
    "bootstrap/selection/dom2 | point=0x1.02cp+11 var=0x1.92dfb6db6db75p+13 n=400 status=unbiased ci=[0x1.cddd7694965d5p+10,0x1.1e9144b5b4d15p+11] boot-ci=[0x1.e06p+10,0x1.18ep+11] | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=26000 hit=0 miss=0 draws=26064";
    "group-count/dom2 | 0:point=0x1.199999999999ap+4 var=0x1.0cf4ec909d272p+3 n=50 status=unbiased ci=[0x1.7d5ee1b64af7ep+3,0x1.7483c2580db75p+4] ; 1:point=0x1.6666666666667p+3 var=0x1.796ac9dfd1305p+2 n=50 status=unbiased ci=[0x1.9c2fd653a461p+2,0x1.feb4e1a2fa9c6p+3] ; 2:point=0x1p+4 var=0x1.f58d0fac687d6p+2 n=50 status=unbiased ci=[0x1.506c853181dbp+3,0x1.57c9bd673f128p+4] ; 3:point=0x1.6666666666667p+4 var=0x1.3bfa2608c6f2ep+3 n=50 status=unbiased ci=[0x1.03dbb0881f532p+4,0x1.c8f11c44ad79cp+4] ; 4:point=0x1.999999999999ap+3 var=0x1.a54d880bb3ee7p+2 n=50 status=unbiased ci=[0x1.f15d1bd81e91dp+2,0x1.1d4252a391f53p+4] | tuples=50 pages=0 bytes=0 batches=0 cache=0 idx=50 hit=0 miss=0 draws=50";
    "group-sum/dom2 | 0:point=0x1.c8aaaaaaaaaabp+11 var=0x1.dc6ee78d14a4dp+19 n=300 status=unbiased ci=[0x1.ad52eaa993011p+10,0x1.5d55f00045ea7p+12] ; 1:point=0x1.0255555555556p+11 var=0x1.9baac08c08c08p+18 n=300 status=unbiased ci=[0x1.8d1070ed73ac4p+9,0x1.a1668e6f4dbfbp+11] ; 2:point=0x1.5c55555555555p+11 var=0x1.877dab9e34528p+19 n=300 status=unbiased ci=[0x1.01eb910be83c3p+10,0x1.1bda71125b464p+12] ; 3:point=0x1.faaaaaaaaaaabp+9 var=0x1.09224e94372d3p+17 n=300 status=unbiased ci=[0x1.2333fe022d1e6p+8,0x1.b1ddab2a1f632p+10] | tuples=300 pages=0 bytes=0 batches=0 cache=0 idx=300 hit=0 miss=0 draws=300";
  ]

(* --- extras -------------------------------------------------------------

   The same seeds and catalogs as [scenarios], rendering the parts of
   each result that the table above leaves out. *)

let fmt_interval (ci : Stats.Confidence.interval) =
  Printf.sprintf "[%s,%s]@%s" (fmt_float ci.Stats.Confidence.lo)
    (fmt_float ci.Stats.Confidence.hi) (fmt_float ci.Stats.Confidence.level)

let fmt_groups (r : Raestat.Group_count.result) =
  Printf.sprintf "label=%s level=%s n=%d groups=%s"
    (match r.Raestat.Group_count.groups with
    | g :: _ -> g.Raestat.Group_count.estimate.Estimate.label
    | [] -> "-")
    (fmt_float r.Raestat.Group_count.level) r.Raestat.Group_count.sample_size
    (String.concat " ; "
       (List.map
          (fun g ->
            Printf.sprintf "%s:%s"
              (String.concat "," (List.map Relational.Value.to_string g.Raestat.Group_count.key))
              (fmt_interval g.Raestat.Group_count.interval))
          r.Raestat.Group_count.groups))

let extras () =
  [
    scenario "cluster/m12" (fun rng m ->
        let catalog = fixed_catalog () in
        let paged =
          Relational.Paged.make ~page_capacity:100
            (Relational.Catalog.find catalog "orders")
        in
        let r = Raestat.Cluster_estimator.count ~metrics:m rng ~m:12 paged orders_filter in
        Printf.sprintf "label=%s" r.Raestat.Cluster_estimator.estimate.Estimate.label);
    scenario "sequential/selection" (fun rng m ->
        let catalog = fixed_catalog () in
        let r =
          Raestat.Sequential.selection ~metrics:m rng catalog ~relation:"orders"
            ~target:0.2 ~batch:200 orders_filter
        in
        Printf.sprintf "label=%s trajectory=%s"
          r.Raestat.Sequential.estimate.Estimate.label
          (String.concat " ; "
             (List.map
                (fun (p : Raestat.Sequential.trajectory_point) ->
                  Printf.sprintf "n=%d point=%s hw=%s" p.Raestat.Sequential.n
                    (fmt_float p.Raestat.Sequential.point)
                    (fmt_float p.Raestat.Sequential.half_width))
                r.Raestat.Sequential.trajectory)));
    scenario "stratified/count" (fun rng _ ->
        let catalog = fixed_catalog () in
        let r =
          Raestat.Stratified_estimator.count_by_attribute rng catalog ~relation:"suppliers"
            ~attribute:"s_region" ~n:40 (P.ge (P.attr "s_balance") (P.vint 5000))
        in
        Printf.sprintf "label=%s strata=%s"
          r.Raestat.Stratified_estimator.estimate.Estimate.label
          (String.concat " ; "
             (List.map
                (fun (key, population, allocated) ->
                  Printf.sprintf "%s:%d:%d" key population allocated)
                r.Raestat.Stratified_estimator.strata)));
    scenario "bootstrap/selection/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        let e, ci =
          Raestat.Bootstrap.selection_count ~domains:2 ~metrics:m rng catalog
            ~relation:"orders" ~n:400 ~replicates:64 ~level:0.9 orders_filter
        in
        Printf.sprintf "label=%s boot-ci=%s" e.Estimate.label (fmt_interval ci));
    scenario "equijoin-indexed" (fun rng m ->
        let catalog = fixed_catalog () in
        let e =
          Raestat.Count_estimator.equijoin_indexed ~metrics:m rng catalog ~left:"orders"
            ~right:"parts" ~on:("o_part", "p_key") ~n:600
        in
        Printf.sprintf "label=%s" e.Estimate.label);
    scenario "group-count/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        fmt_groups
          (Raestat.Group_count.estimate ~domains:2 ~metrics:m rng catalog
             ~relation:"suppliers" ~by:[ "s_region" ] ~n:50 ()));
    scenario "group-sum/dom2" (fun rng m ->
        let catalog = fixed_catalog () in
        fmt_groups
          (Raestat.Group_count.estimate_sum ~domains:2 ~metrics:m rng catalog
             ~relation:"orders" ~by:[ "o_part" ] ~attribute:"o_quantity" ~n:300
             ~where:(P.le (P.attr "o_part") (P.vint 3)) ()));
  ]

let expected_extras =
  [
    "cluster/m12 | label=cluster | tuples=1200 pages=0 bytes=0 batches=0 cache=0 idx=12 hit=0 miss=0 draws=12";
    "sequential/selection | label=selection trajectory=n=200 point=0x1.36p+11 hw=0x1.06ec9efe8ffbcp+8 ; n=400 point=0x1.1a8p+11 hw=0x1.712ecce257dadp+7 | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=0 hit=0 miss=0 draws=3999";
    "stratified/count | label=stratified selection strata=4:17:8 ; 0:16:8 ; 3:17:9 ; 2:12:6 ; 1:18:9 | tuples=0 pages=0 bytes=0 batches=0 cache=0 idx=0 hit=0 miss=0 draws=0";
    "bootstrap/selection/dom2 | label=selection (bootstrap) boot-ci=[0x1.e06p+10,0x1.18ep+11]@0x1.ccccccccccccdp-1 | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=26000 hit=0 miss=0 draws=26064";
    "equijoin-indexed | label=equijoin (indexed) | tuples=600 pages=0 bytes=0 batches=0 cache=0 idx=600 hit=600 miss=0 draws=600";
    "group-count/dom2 | label=group-count level=0x1.e666666666666p-1 n=50 groups=0:[0x1.443c41265c756p+3,0x1.911512a004f89p+4]@0x1.fae147ae147aep-1 ; 1:[0x1.3c784caf20b51p+2,0x1.1748533a9e393p+4]@0x1.fae147ae147aep-1 ; 2:[0x1.1940ea7d64393p+3,0x1.735f8ac14de36p+4]@0x1.fae147ae147aep-1 ; 3:[0x1.c9c9ac31cc4b5p+3,0x1.e7e7f6b3e6a74p+4]@0x1.fae147ae147aep-1 ; 4:[0x1.8c3c1d4b5046p+2,0x1.368a9246c5882p+4]@0x1.fae147ae147aep-1 | tuples=50 pages=0 bytes=0 batches=0 cache=0 idx=50 hit=0 miss=0 draws=50";
    "group-sum/dom2 | label=group-sum level=0x1.e666666666666p-1 n=300 groups=0:[0x1.288770dad3c12p+10,0x1.7e88ce73f5ba6p+12]@0x1.f99999999999ap-1 ; 1:[0x1.bcfd56fecad18p+8,0x1.cd0affcad1509p+11]@0x1.f99999999999ap-1 ; 2:[0x1.13167834e26e4p+9,0x1.39f2864eb9078p+12]@0x1.f99999999999ap-1 ; 3:[0x1.744e4c20359ep+6,0x1.e365c5e8a750dp+10]@0x1.f99999999999ap-1 | tuples=300 pages=0 bytes=0 batches=0 cache=0 idx=300 hit=0 miss=0 draws=300";
  ]

(* Compare a rendered table with its pinned lines; with
   RAESTAT_GOLDEN_OUT set, also write the lines to that path plus
   [suffix], ready to paste. *)
let check_table ~suffix expected actual =
  (match Sys.getenv_opt "RAESTAT_GOLDEN_OUT" with
  | Some path ->
    let oc = open_out (path ^ suffix) in
    List.iter (fun line -> output_string oc ("    \"" ^ String.escaped line ^ "\";\n")) actual;
    close_out oc
  | None -> ());
  Alcotest.(check int) "scenario count" (List.length expected) (List.length actual);
  List.iter2
    (fun want got -> Alcotest.(check string) "golden line" want got)
    expected actual

let test_golden () = check_table ~suffix:"" expected (scenarios ())

let test_golden_extras () = check_table ~suffix:".extras" expected_extras (extras ())

let suite =
  [
    Alcotest.test_case "golden-seed snapshots" `Quick test_golden;
    Alcotest.test_case "golden extras" `Quick test_golden_extras;
  ]
