(* The fuzz harness itself under test: the reference estimator passes
   the battery, known-bad mutants are flagged by the oracle that owns
   their defect, the shrinker reaches a minimal reproduction, and the
   seed-file format round-trips. *)

module Gen = Check.Gen
module Oracle = Check.Oracle
module Shrink = Check.Shrink
module Fuzz = Check.Fuzz
module Dist = Workload.Dist
module Expr = Relational.Expr
module P = Relational.Predicate
module Estimate = Stats.Estimate

let replicates = 24

(* --- fixed cases ------------------------------------------------------ *)

let selection_case =
  {
    Gen.id = 0;
    seed = 12_345;
    body =
      Gen.Bag
        [ { Gen.rname = "r0"; card = 60; columns = [ ("a0", Dist.Uniform { lo = 0; hi = 9 }) ] } ];
    expr = Expr.Select (P.lt (P.attr "a0") (P.vint 5), Expr.Base "r0");
    fraction = 0.3;
  }

let nested_case =
  { selection_case with
    Gen.expr =
      Expr.Select
        ( P.lt (P.attr "a0") (P.vint 8),
          Expr.Select (P.ge (P.attr "a0") (P.vint 0), Expr.Base "r0") );
  }

let join_case =
  {
    Gen.id = 1;
    seed = 54_321;
    body =
      Gen.Bag
        [ { Gen.rname = "r0"; card = 80; columns = [ ("a0", Dist.Uniform { lo = 0; hi = 9 }) ] };
          { Gen.rname = "r1"; card = 60; columns = [ ("a1", Dist.Uniform { lo = 0; hi = 9 }) ] };
        ];
    expr = Expr.Equijoin ([ ("a0", "a1") ], Expr.Base "r0", Expr.Base "r1");
    fraction = 0.3;
  }

(* --- mutants ---------------------------------------------------------- *)

(* Scale-factor bias: every point estimate multiplied by [factor].
   The census oracle must notice (fraction 1.0 no longer reproduces the
   exact count); for factors well outside the replicate spread the
   unbiasedness oracle must notice too. *)
let biased factor =
  {
    Oracle.label = Printf.sprintf "biased x%g" factor;
    estimate =
      (fun ~groups ~domains ~metrics rng catalog ~fraction expr ->
        let est =
          Oracle.reference.Oracle.estimate ~groups ~domains ~metrics rng catalog
            ~fraction expr
        in
        { est with Estimate.point = est.Estimate.point *. factor });
  }

(* Wrong second-moment factor: the GUS pair scale N(N−1)/(n(n−1))
   applied where the first-moment scale-up N/n belongs.  The estimate
   comes out multiplied by Π (N−1)/(n−1) over the leaves — strongly
   biased upward — and the unbiasedness oracle must notice. *)
let wrong_pair_scale =
  {
    Oracle.label = "second moment pair scale";
    estimate =
      (fun ~groups ~domains ~metrics rng catalog ~fraction expr ->
        let est =
          Oracle.reference.Oracle.estimate ~groups ~domains ~metrics rng catalog
            ~fraction expr
        in
        let factor =
          List.fold_left
            (fun acc name ->
              let big_n =
                Relational.Relation.cardinality (Relational.Catalog.find catalog name)
              in
              let n = Sampling.Srs.size_of_fraction ~fraction big_n in
              if n > 1 then acc *. (float_of_int (big_n - 1) /. float_of_int (n - 1))
              else acc)
            1. (Expr.leaves expr)
        in
        { est with Estimate.point = est.Estimate.point *. factor });
  }

(* Dropped metrics increments: the sink handed in by the caller is
   ignored, so every counter stays at zero.  The conservation oracle's
   sample-indices law must notice. *)
let deaf =
  {
    Oracle.label = "deaf";
    estimate =
      (fun ~groups ~domains ~metrics:_ rng catalog ~fraction expr ->
        Oracle.reference.Oracle.estimate ~groups ~domains ~metrics:Obs.Metrics.noop rng
          catalog ~fraction expr);
  }

(* Skipped deletions: the writer applies inserts but silently drops
   every delete, so the stream's population and samples keep dead
   tuples.  The maintenance oracle's trace differential must notice. *)
let skip_deletions stream = function
  | Oracle.Add tuple -> ignore (Raestat.Stream_relation.insert stream tuple)
  | Oracle.Remove _ -> ()

(* --- tests ------------------------------------------------------------ *)

let check_verdict name expected got =
  Alcotest.(check (option string)) name expected (Option.map fst got)

let test_reference_passes () =
  check_verdict "selection case" None (Oracle.check_case ~replicates selection_case);
  check_verdict "join case" None (Oracle.check_case ~replicates join_case);
  (* A slice of the generated stream, whole battery. *)
  for id = 0 to 5 do
    check_verdict
      (Printf.sprintf "generated case %d" id)
      None
      (Oracle.check_case ~replicates (Gen.case ~master:2024 ~id))
  done

let test_generation_is_deterministic () =
  let a = Gen.case ~master:77 ~id:3 and b = Gen.case ~master:77 ~id:3 in
  Alcotest.(check string) "same case" (Gen.to_string a) (Gen.to_string b);
  let ca = Gen.materialize a and cb = Gen.materialize b in
  Alcotest.(check (list string)) "same relations" (Relational.Catalog.names ca)
    (Relational.Catalog.names cb);
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "same cardinality for %s" name)
        (Relational.Relation.cardinality (Relational.Catalog.find ca name))
        (Relational.Relation.cardinality (Relational.Catalog.find cb name)))
    (Relational.Catalog.names ca)

let test_census_flags_biased_scale () =
  check_verdict "biased subject caught" (Some "census")
    (Oracle.check_case ~subject:(biased 1.05) ~replicates selection_case)

let test_unbiasedness_flags_biased_scale () =
  (* A 2x bias is dozens of replicate standard errors wide: the
     statistical oracle must flag it without help from the census. *)
  Alcotest.(check bool) "unbiasedness caught" true
    (Oracle.check_one ~subject:(biased 2.0) ~replicates ~oracle:"unbiasedness"
       selection_case
    <> None);
  Alcotest.(check bool) "reference clean" true
    (Oracle.check_one ~replicates ~oracle:"unbiasedness" selection_case = None)

let test_unbiasedness_flags_pair_scale () =
  (* At fraction 0.3 over 60 tuples the wrong factor is (60−1)/(18−1)
     ≈ 3.5× — far outside any Student-t bracket. *)
  Alcotest.(check bool) "pair-scale mutant caught" true
    (Oracle.check_one ~subject:wrong_pair_scale ~replicates ~oracle:"unbiasedness"
       selection_case
    <> None);
  (* At fraction 1.0 the wrong factor degenerates to (N−1)/(N−1) = 1,
     so the census oracle is blind to it: only the statistical oracle
     owns this defect. *)
  check_verdict "pair-scale mutant owned by unbiasedness" (Some "unbiasedness")
    (Oracle.check_case ~subject:wrong_pair_scale ~replicates selection_case)

let test_pushdown_oracle () =
  (* The planner's determinism/unbiasedness oracle holds on the fixed
     cases (a join with two pushdown candidates and a selection chain)
     and across a slice of the generated stream. *)
  Alcotest.(check bool) "pushdown clean on join case" true
    (Oracle.check_one ~replicates ~oracle:"pushdown" join_case = None);
  Alcotest.(check bool) "pushdown clean on nested selects" true
    (Oracle.check_one ~replicates ~oracle:"pushdown" nested_case = None);
  for id = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "pushdown clean on generated case %d" id)
      true
      (Oracle.check_one ~replicates ~oracle:"pushdown" (Gen.case ~master:2024 ~id)
      = None)
  done

let test_conservation_flags_dropped_metrics () =
  check_verdict "deaf subject caught" (Some "conservation")
    (Oracle.check_case ~subject:deaf ~replicates join_case);
  Alcotest.(check bool) "conservation clean on reference" true
    (Oracle.check_one ~replicates ~oracle:"conservation" join_case = None)

let test_maintenance_oracle () =
  Alcotest.(check bool) "maintenance clean on selection case" true
    (Oracle.check_one ~replicates ~oracle:"maintenance" selection_case = None);
  Alcotest.(check bool) "maintenance clean on join case" true
    (Oracle.check_one ~replicates ~oracle:"maintenance" join_case = None);
  for id = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "maintenance clean on generated case %d" id)
      true
      (Oracle.check_one ~replicates ~oracle:"maintenance" (Gen.case ~master:2024 ~id)
      = None)
  done

let test_maintenance_flags_skipped_deletions () =
  let mutant = Oracle.maintenance_oracle ~writer:skip_deletions () in
  let fails case =
    match mutant.Oracle.run Oracle.reference ~replicates case with
    | Oracle.Fail _ -> true
    | Oracle.Pass | Oracle.Skip _ -> false
  in
  Alcotest.(check bool) "mutant caught" true (fails nested_case);
  (* The defect shrinks: the trace differential fails for any non-empty
     pool (the drain phase deletes every live id, a dropped deletion
     leaves the population non-zero), so minimization bottoms out at a
     bare leaf with one tuple. *)
  let shrunk = Shrink.minimize ~check:fails nested_case in
  (match shrunk.Gen.expr with
  | Expr.Base "r0" -> ()
  | other -> Alcotest.failf "expected bare leaf, got %s" (Expr.to_string other));
  match shrunk.Gen.body with
  | Gen.Bag [ spec ] -> Alcotest.(check int) "minimal cardinality" 1 spec.Gen.card
  | _ -> Alcotest.fail "expected a single bag relation"

let test_shrink_minimizes () =
  let subject = biased 1.05 in
  let still_fails case =
    Oracle.check_one ~subject ~replicates ~oracle:"census" case <> None
  in
  Alcotest.(check bool) "nested case fails before shrinking" true
    (still_fails nested_case);
  let shrunk = Shrink.minimize ~check:still_fails nested_case in
  (match shrunk.Gen.expr with
  | Expr.Base "r0" -> ()
  | other -> Alcotest.failf "expected bare leaf, got %s" (Expr.to_string other));
  match shrunk.Gen.body with
  | Gen.Bag [ spec ] ->
    (* Halving stops at one row: with zero rows the census is 0 = 0 and
       the bias disappears. *)
    Alcotest.(check int) "minimal cardinality" 1 spec.Gen.card
  | _ -> Alcotest.fail "expected a single bag relation"

let test_contractions () =
  let e = Expr.Select (P.lt (P.attr "a0") (P.vint 5), Expr.Base "r0") in
  Alcotest.(check int) "select contracts to its input" 1
    (List.length (Shrink.contractions e));
  Alcotest.(check int) "leaf has no contractions" 0
    (List.length (Shrink.contractions (Expr.Base "r0")))

let test_replay_roundtrip () =
  let config = { Fuzz.budget = 20; seed = 1988; replicates } in
  match Fuzz.run ~subject:(biased 1.05) config with
  | Fuzz.Passed _ -> Alcotest.fail "biased subject survived 20 cases"
  | Fuzz.Found failure ->
    let file = Fuzz.replay_file config failure in
    (match Fuzz.parse_replay file with
    | Error message -> Alcotest.failf "own seed file rejected: %s" message
    | Ok header ->
      Alcotest.(check int) "seed" 1988 header.Fuzz.rseed;
      Alcotest.(check int) "case" failure.Fuzz.case.Gen.id header.Fuzz.rcase;
      Alcotest.(check int) "replicates" replicates header.Fuzz.rreplicates;
      Alcotest.(check string) "oracle" failure.Fuzz.oracle header.Fuzz.roracle;
      (* Still failing under the mutant; fixed under the reference. *)
      (match Fuzz.replay ~subject:(biased 1.05) header with
      | Fuzz.Found _ -> ()
      | Fuzz.Passed _ -> Alcotest.fail "replay lost the failure");
      match Fuzz.replay header with
      | Fuzz.Passed _ -> ()
      | Fuzz.Found f ->
        Alcotest.failf "reference estimator fails replay: %s" f.Fuzz.detail)

let test_parse_replay_rejects () =
  let rejected content =
    match Fuzz.parse_replay content with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "wrong version" true (rejected "bogus/9\nseed 1\n");
  Alcotest.(check bool) "missing field" true
    (rejected "raestat-fuzz/1\nseed 1\ncase 2\noracle census\n");
  Alcotest.(check bool) "bad integer" true
    (rejected "raestat-fuzz/1\nseed x\ncase 2\nreplicates 24\noracle census\n")

let suite =
  [
    Alcotest.test_case "reference passes battery" `Quick test_reference_passes;
    Alcotest.test_case "generation deterministic" `Quick test_generation_is_deterministic;
    Alcotest.test_case "census flags biased scale" `Quick test_census_flags_biased_scale;
    Alcotest.test_case "unbiasedness flags biased scale" `Quick
      test_unbiasedness_flags_biased_scale;
    Alcotest.test_case "unbiasedness flags pair scale" `Quick
      test_unbiasedness_flags_pair_scale;
    Alcotest.test_case "pushdown oracle" `Quick test_pushdown_oracle;
    Alcotest.test_case "conservation flags dropped metrics" `Quick
      test_conservation_flags_dropped_metrics;
    Alcotest.test_case "maintenance oracle" `Quick test_maintenance_oracle;
    Alcotest.test_case "maintenance flags skipped deletions" `Quick
      test_maintenance_flags_skipped_deletions;
    Alcotest.test_case "shrink minimizes" `Quick test_shrink_minimizes;
    Alcotest.test_case "contractions" `Quick test_contractions;
    Alcotest.test_case "replay roundtrip" `Quick test_replay_roundtrip;
    Alcotest.test_case "parse_replay rejects" `Quick test_parse_replay_rejects;
  ]
