open Helpers
module Physical = Relational.Physical
module P = Predicate

let sorted_tuples relation =
  let tuples = Array.copy (Relation.tuples relation) in
  Array.sort Tuple.compare tuples;
  Array.to_list (Array.map Tuple.to_string tuples)

(* Same schema, same tuples in the same order: [Aggregate] sums floats
   in tuple order, so production must match the reference exactly. *)
let same_relation r1 r2 =
  Schema.equal (Relation.schema r1) (Relation.schema r2)
  && Relation.cardinality r1 = Relation.cardinality r2
  && Array.for_all2 Tuple.equal (Relation.tuples r1) (Relation.tuples r2)

let catalog () =
  Catalog.of_list
    [
      ("r", two_column_relation ~names:("a", "b") [ (1, 10); (1, 11); (2, 20); (3, 30) ]);
      ("s", two_column_relation ~names:("c", "d") [ (1, 100); (1, 101); (2, 200) ]);
      ("x", int_relation [ 1; 2; 2; 3 ]);
      ("y", int_relation [ 2; 3; 4 ]);
    ]

let expressions =
  [
    Expr.base "r";
    Expr.select (P.eq (P.attr "a") (P.vint 1)) (Expr.base "r");
    Expr.project [ "a" ] (Expr.base "r");
    Expr.project_distinct [ "a" ] (Expr.base "r");
    Expr.distinct (Expr.base "x");
    Expr.product (Expr.base "r") (Expr.base "s");
    Expr.equijoin [ ("a", "c") ] (Expr.base "r") (Expr.base "s");
    Expr.theta_join (P.lt (P.attr "a") (P.attr "c")) (Expr.base "r") (Expr.base "s");
    Expr.union (Expr.base "x") (Expr.base "y");
    Expr.inter (Expr.base "x") (Expr.base "y");
    Expr.diff (Expr.base "x") (Expr.base "y");
    Expr.rename [ ("a", "z") ] (Expr.base "r");
    Expr.select
      (P.gt (P.attr "d") (P.vint 100))
      (Expr.equijoin [ ("a", "c") ] (Expr.base "r") (Expr.base "s"));
    Expr.group_count ~by:[ "a" ] (Expr.base "r");
    Expr.aggregate ~by:[ "a" ]
      [ (Expr.Sum "b", "total"); (Expr.Max "b", "hi") ]
      (Expr.base "r");
    Expr.select
      (P.ge (P.attr "count") (P.vint 2))
      (Expr.group_count ~by:[ "a" ] (Expr.base "r"));
  ]

let test_agrees_with_eval () =
  let c = catalog () in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Expr.to_string e)
        true
        (same_relation (Eval.eval c e) (Physical.run (Physical.of_expr c e))))
    expressions

let test_count_matches () =
  let c = catalog () in
  List.iter
    (fun e ->
      Alcotest.(check int) (Expr.to_string e) (Eval.count c e) (Physical.count_expr c e))
    expressions

let test_reset_replays () =
  let c = catalog () in
  List.iter
    (fun e ->
      let cursor = Physical.of_expr c e in
      let first = Physical.count cursor in
      let second = Physical.count cursor in
      Alcotest.(check int) ("replay " ^ Expr.to_string e) first second)
    expressions

let test_streaming_product_is_lazy () =
  (* A 3000×3000 product (9M tuples) would blow memory if materialized
     as a relation of concatenated tuples; counting it streams in
     constant memory and finishes fast. *)
  let n = 3_000 in
  let big = int_relation (List.init n (fun i -> i)) in
  let c = Catalog.of_list [ ("b", big) ] in
  let count = Physical.count_expr c (Expr.product (Expr.base "b") (Expr.base "b")) in
  Alcotest.(check int) "9M combinations" (n * n) count

let test_partial_consumption_then_reset () =
  let c = catalog () in
  let cursor = Physical.of_expr c (Expr.base "x") in
  Alcotest.(check bool) "first pull" true (Physical.next cursor <> None);
  Physical.reset cursor;
  Alcotest.(check int) "full count after reset" 4 (Physical.count cursor)

let test_operator_level_api () =
  let c = catalog () in
  let r = Catalog.find c "r" in
  let scan = Physical.scan r in
  let keep = P.compile (Relation.schema r) (P.ge (P.attr "b") (P.vint 20)) in
  let filtered = Physical.filter keep scan in
  Alcotest.(check int) "filter" 2 (Physical.count filtered);
  let indices = [| 0 |] in
  let projected =
    Physical.project (Schema.project (Relation.schema r) [ "a" ]) indices filtered
  in
  Alcotest.(check int) "project keeps count" 2 (Physical.count projected);
  Alcotest.(check (list string)) "schema" [ "a" ] (Schema.names (Physical.schema projected))

let test_sort () =
  let c = catalog () in
  let cursor = Physical.of_expr c (Expr.base "x") in
  let sorted = Physical.sort_by [| 0 |] cursor in
  let values =
    Array.to_list (Array.map Tuple.to_string (Relation.tuples (Physical.run sorted)))
  in
  Alcotest.(check (list string)) "ascending" [ "<1>"; "<2>"; "<2>"; "<3>" ] values;
  (* Reset re-sorts. *)
  Alcotest.(check int) "replay" 4 (Physical.count sorted)

let test_merge_join_matches_hash_join () =
  let c = catalog () in
  let run_with join_maker =
    let left = Physical.of_expr c (Expr.base "r") in
    let right = Physical.of_expr c (Expr.base "s") in
    let schema =
      Expr.schema_of c (Expr.equijoin [ ("a", "c") ] (Expr.base "r") (Expr.base "s"))
    in
    let joined = join_maker schema ~left_key:[| 0 |] ~right_key:[| 0 |] left right in
    sorted_tuples (Physical.run joined)
  in
  Alcotest.(check bool) "same result" true
    (run_with (Physical.hash_join ?metrics:None) = run_with Physical.merge_join)

let prop_merge_join_equals_hash_join =
  qcheck_case ~count:80 "merge join ≍ hash join on random bags"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 15) (int_range 0 4))
              (list_of_size (QCheck.Gen.int_range 0 15) (int_range 0 4)))
    (fun (xs, ys) ->
      let c = Catalog.of_list [ ("x", int_relation xs); ("y", int_relation ys) ] in
      let schema =
        Expr.schema_of c (Expr.equijoin [ ("a", "a") ] (Expr.base "x") (Expr.base "y"))
      in
      let build maker =
        let left = Physical.of_expr c (Expr.base "x") in
        let right = Physical.of_expr c (Expr.base "y") in
        sorted_tuples
          (Physical.run (maker schema ~left_key:[| 0 |] ~right_key:[| 0 |] left right))
      in
      build (Physical.hash_join ?metrics:None) = build Physical.merge_join)

let prop_engines_agree =
  qcheck_case ~count:60 "engines agree on random set-op inputs"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 12) (int_range 0 4))
              (list_of_size (QCheck.Gen.int_range 0 12) (int_range 0 4)))
    (fun (xs, ys) ->
      let c = Catalog.of_list [ ("x", int_relation xs); ("y", int_relation ys) ] in
      List.for_all
        (fun e ->
          same_relation (Eval.eval c e) (Physical.run (Physical.of_expr c e))
          && Eval.count c e = Physical.count_expr c e)
        [
          Expr.union (Expr.base "x") (Expr.base "y");
          Expr.inter (Expr.base "x") (Expr.base "y");
          Expr.diff (Expr.base "x") (Expr.base "y");
          Expr.equijoin [ ("a", "a") ] (Expr.base "x") (Expr.base "y");
          Expr.product (Expr.base "x") (Expr.base "y");
          Expr.distinct (Expr.base "x");
          Expr.select (P.le (P.attr "a") (P.vint 2)) (Expr.base "x");
        ])

(* [count_expr] counts a selection over a base relation without a
   cursor: through the kernel at and above [kernel_threshold], through
   the row predicate below it.  Both must match the reference. *)
let test_select_count_fast_path () =
  let threshold = Relation.kernel_threshold in
  List.iter
    (fun n ->
      let c = Catalog.of_list [ ("r", int_relation (List.init n (fun i -> i mod 7))) ] in
      List.iter
        (fun p ->
          let e = Expr.select p (Expr.base "r") in
          Alcotest.(check int)
            (Printf.sprintf "n=%d %s" n (Expr.to_string e))
            (Eval.count c e) (Physical.count_expr c e))
        [ P.le (P.attr "a") (P.vint 2); P.neq (P.attr "a") (P.vint 3); P.True ])
    [ threshold - 1; threshold; threshold + 100 ];
  (* An unknown attribute raises the cursor path's schema error, not
     the predicate compiler's Not_found. *)
  let c = Catalog.of_list [ ("r", int_relation [ 1 ]) ] in
  let e = Expr.select (P.eq (P.attr "zz") (P.vint 1)) (Expr.base "r") in
  Alcotest.check_raises "unknown attribute"
    (Failure "Expr.schema_of: unknown attribute \"zz\" in selection")
    (fun () -> ignore (Physical.count_expr c e))

let suite =
  [
    Alcotest.test_case "agrees with Eval" `Quick test_agrees_with_eval;
    Alcotest.test_case "counts match" `Quick test_count_matches;
    Alcotest.test_case "reset replays" `Quick test_reset_replays;
    Alcotest.test_case "streaming product is lazy" `Quick test_streaming_product_is_lazy;
    Alcotest.test_case "partial consumption then reset" `Quick
      test_partial_consumption_then_reset;
    Alcotest.test_case "operator-level API" `Quick test_operator_level_api;
    Alcotest.test_case "sort" `Quick test_sort;
    Alcotest.test_case "merge join = hash join" `Quick test_merge_join_matches_hash_join;
    prop_merge_join_equals_hash_join;
    prop_engines_agree;
    Alcotest.test_case "select count fast path" `Quick test_select_count_fast_path;
  ]
