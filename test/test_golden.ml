(* Golden-seed snapshot suite: the refactor contract for the Estplan
   IR.  Every estimator entry point runs a fixed-seed scenario on the
   tpc_mini workload and renders one line capturing its estimate,
   variance, CI and the nine metrics counter totals; the lines must
   match the table below bit-for-bit (floats are printed as %h, the
   exact hexadecimal form).

   The table was captured from the pre-Estplan implementation (PR 3
   tree) and pins the compile-to-IR refactor to bit-identical
   behaviour.  To regenerate after an *intentional* contract change:

     RAESTAT_GOLDEN_OUT=/tmp/golden dune exec test/test_main.exe -- test golden
     # then paste /tmp/golden over the [expected] list below.  *)

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
    "estimate/select/g1/col | point=0x1.0f4p+11 var=nan n=400 status=unbiased ci=[-] | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=400 hit=0 miss=0 draws=400";
    "estimate/chain/g4/dom1 | point=0x1.63e71c71c71c8p+12 var=0x1.96964a88f4697p+20 n=2480 status=unbiased ci=[0x1.8ba3d4d5054fep+11,0x1.00fe273c85c88p+13] | tuples=2480 pages=0 bytes=0 batches=0 cache=0 idx=2480 hit=504 miss=2318 draws=2484";
    "estimate/chain/g4/dom2 | point=0x1.63e71c71c71c8p+12 var=0x1.96964a88f4697p+20 n=2480 status=unbiased ci=[0x1.8ba3d4d5054fep+11,0x1.00fe273c85c88p+13] | tuples=2480 pages=0 bytes=0 batches=0 cache=0 idx=2480 hit=504 miss=2318 draws=2484";
    "estimate/self-join/g1 | point=0x1.137dp+19 var=nan n=1600 status=unbiased ci=[-] | tuples=1600 pages=0 bytes=0 batches=0 cache=0 idx=1600 hit=800 miss=0 draws=1600";
    "estimate/distinct/g1 | point=0x1.0aaaaaaaaaaabp+8 var=nan n=1200 status=consistent ci=[-] | tuples=1200 pages=0 bytes=0 batches=0 cache=0 idx=1200 hit=0 miss=0 draws=1200";
    "selection/col | point=0x1.1p+11 var=0x1.b2fb61fcebfdfp+12 n=500 status=unbiased ci=[0x1.f71f618ba2c4ep+10,0x1.24704f3a2e9d9p+11] | tuples=500 pages=0 bytes=0 batches=0 cache=0 idx=500 hit=0 miss=0 draws=500";
    "equijoin/g1 | point=0x1.de2p+11 var=nan n=816 status=unbiased ci=[-] | tuples=816 pages=0 bytes=0 batches=0 cache=0 idx=816 hit=153 miss=647 draws=816";
    "equijoin/g8/dom2 | point=0x1.a900000000001p+11 var=0x1.75e2492492492p+18 n=1632 status=unbiased ci=[0x1.11687423eeb2ep+11,0x1.204bc5ee08a6ap+12] | tuples=1632 pages=0 bytes=0 batches=0 cache=0 idx=1632 hit=68 miss=1532 draws=1829";
    "equijoin-indexed | point=0x1.f4p+11 var=0x0p+0 n=600 status=unbiased ci=[0x1.f4p+11,0x1.f4p+11] | tuples=600 pages=0 bytes=0 batches=0 cache=0 idx=600 hit=600 miss=0 draws=600";
    "intersection | point=0x1.34p+8 var=0x1.64e12102a9afep+9 n=900 status=unbiased ci=[0x1.ff4633d5097a5p+7,0x1.685ce6157b42ep+8] | tuples=900 pages=0 bytes=0 batches=0 cache=0 idx=900 hit=0 miss=0 draws=900";
    "union | point=0x1.75p+10 var=0x1.64e12102a9afep+9 n=900 status=unbiased ci=[0x1.67e8c67aa12f5p+10,0x1.821739855ed0bp+10] | tuples=900 pages=0 bytes=0 batches=0 cache=0 idx=900 hit=0 miss=0 draws=900";
    "difference | point=0x1.28p+9 var=0x1.64e12102a9afep+9 n=900 status=unbiased ci=[0x1.0dd18cf5425e9p+9,0x1.422e730abda17p+9] | tuples=900 pages=0 bytes=0 batches=0 cache=0 idx=900 hit=0 miss=0 draws=900";
    "cluster/m12 | point=0x1.0755555555556p+11 var=0x1.cfd6a052bf5a8p+10 n=1200 status=unbiased ci=[0x1.f98f9700ff9b2p+10,0x1.11e2df2a2add3p+11] pages=12 tuples=1200 | tuples=1200 pages=0 bytes=0 batches=0 cache=0 idx=12 hit=0 miss=0 draws=12";
    "cluster/raf/m12 | point=0x1.0755555555556p+11 var=0x1.cfd6a052bf5a8p+10 n=1200 status=unbiased ci=[0x1.f98f9700ff9b2p+10,0x1.11e2df2a2add3p+11] pages=12 tuples=1200 | tuples=1200 pages=12 bytes=48780 batches=9 cache=0 idx=12 hit=0 miss=0 draws=12";
    "sequential/selection | point=0x1.1a8p+11 var=0x1.153099fc267f1p+13 n=400 status=unbiased ci=[0x1.036d1331da825p+11,0x1.3192ecce257dbp+11] reached=true steps=2 | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=0 hit=0 miss=0 draws=3999";
    "sequential/two-phase/dom2 | point=0x1.fb8p+10 var=0x1.ce8p+12 n=400 status=unbiased ci=[0x1.d15972ae3cd5dp+10,0x1.12d346a8e1952p+11] reached=true steps=1 | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=400 hit=0 miss=0 draws=421";
    "stratified/count | point=0x1.3171c71c71c72p+5 var=0x1.6177b709a97e2p+4 n=40 status=unbiased ci=[0x1.cf7e71c9a47p+4,0x1.7b24555411564p+5] strata=5 | tuples=0 pages=0 bytes=0 batches=0 cache=0 idx=0 hit=0 miss=0 draws=0";
    "bootstrap/selection/dom2 | point=0x1.0f4p+11 var=0x1.9310208208205p+13 n=400 status=unbiased ci=[0x1.e6da1eedfa007p+10,0x1.2b12f08902ffdp+11] boot-ci=[0x1.f52p+10,0x1.2b7p+11] | tuples=400 pages=0 bytes=0 batches=0 cache=0 idx=26000 hit=0 miss=0 draws=26064";
    "group-count/dom2 | 0:point=0x1.4cccccccccccdp+4 var=0x1.2d8ebba9e6812p+3 n=50 status=unbiased ci=[0x1.d910d72dbf73p+3,0x1.ad112e02b9e02p+4] ; 1:point=0x1.4cccccccccccdp+4 var=0x1.2d8ebba9e6812p+3 n=50 status=unbiased ci=[0x1.d910d72dbf73p+3,0x1.ad112e02b9e02p+4] ; 2:point=0x1p+3 var=0x1.1a1f58d0fac68p+2 n=50 status=unbiased ci=[0x1.f1458f9485912p+1,0x1.83ae9c1ade9bcp+3] ; 3:point=0x1.6666666666667p+3 var=0x1.796ac9dfd1305p+2 n=50 status=unbiased ci=[0x1.9c2fd653a461p+2,0x1.feb4e1a2fa9c6p+3] ; 4:point=0x1.3333333333333p+4 var=0x1.1de2532c833d4p+3 n=50 status=unbiased ci=[0x1.aaef9fcab6c4ep+3,0x1.90ee96810b03fp+4] | tuples=50 pages=0 bytes=0 batches=0 cache=0 idx=50 hit=0 miss=0 draws=50";
    "group-sum/dom2 | 0:point=0x1.bb55555555556p+10 var=0x1.292174895ed8bp+17 n=300 status=unbiased ci=[0x1.f86f61d4e2896p+9,0x1.3d397ce01cb3p+11] ; 1:point=0x1.d6p+10 var=0x1.88f236cbc5c77p+18 n=300 status=unbiased ci=[0x1.3e5dda7ee288cp+9,0x1.86688960475ddp+11] ; 2:point=0x1.c555555555555p+9 var=0x1.a9c11e28254acp+16 n=300 status=unbiased ci=[0x1.039a3bc10324ap+8,0x1.846ec665148c2p+10] ; 3:point=0x1.ed55555555556p+10 var=0x1.0e7382ce6faf5p+19 n=300 status=unbiased ci=[0x1.0154cf9ce31fep+9,0x1.ad00216e1c8d6p+11] | tuples=300 pages=0 bytes=0 batches=0 cache=0 idx=300 hit=0 miss=0 draws=300";
  ]

let test_golden () =
  let actual = scenarios () in
  (match Sys.getenv_opt "RAESTAT_GOLDEN_OUT" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun line -> output_string oc ("    \"" ^ String.escaped line ^ "\";\n")) actual;
    close_out oc
  | None -> ());
  Alcotest.(check int) "scenario count" (List.length expected) (List.length actual);
  List.iter2
    (fun want got -> Alcotest.(check string) "golden line" want got)
    expected actual

let suite = [ Alcotest.test_case "golden-seed snapshots" `Quick test_golden ]
