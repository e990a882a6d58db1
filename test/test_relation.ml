open Helpers

let r = int_relation [ 1; 2; 2; 3; 3; 3 ]

let test_cardinality () =
  Alcotest.(check int) "card" 6 (Relation.cardinality r);
  Alcotest.(check bool) "nonempty" false (Relation.is_empty r)

let test_make_checks_arity () =
  let schema = Schema.of_list [ ("a", Value.Tint); ("b", Value.Tint) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Relation.make schema [ Tuple.make [ Value.Int 1 ] ]);
       false
     with Invalid_argument _ -> true)

let test_make_checks_types () =
  let schema = Schema.of_list [ ("a", Value.Tint) ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Relation.make schema [ Tuple.make [ Value.Str "x" ] ]);
       false
     with Invalid_argument _ -> true);
  (* Null is accepted at any type. *)
  ignore (Relation.make schema [ Tuple.make [ Value.Null ] ])

let test_count_filter () =
  let even t = match Tuple.get t 0 with Value.Int i -> i mod 2 = 0 | _ -> false in
  Alcotest.(check int) "count" 2 (Relation.count even r);
  Alcotest.(check int) "filter" 2 (Relation.cardinality (Relation.filter even r))

let test_distinct_is_set () =
  let d = Relation.distinct r in
  Alcotest.(check int) "distinct card" 3 (Relation.cardinality d);
  Alcotest.(check bool) "distinct is set" true (Relation.is_set d);
  Alcotest.(check bool) "original is not" false (Relation.is_set r)

let test_distinct_preserves_first_occurrence_order () =
  let d = Relation.distinct (int_relation [ 5; 1; 5; 2; 1 ]) in
  let rendered = Array.to_list (Array.map Tuple.to_string (Relation.tuples d)) in
  Alcotest.(check (list string)) "order" [ "<5>"; "<1>"; "<2>" ] rendered

let test_column () =
  let col = Relation.column r "a" in
  Alcotest.(check int) "length" 6 (Array.length col);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Relation.column r "z"))

let test_append () =
  let r2 = int_relation [ 9 ] in
  Alcotest.(check int) "appended" 7 (Relation.cardinality (Relation.append r r2));
  let other = two_column_relation [ (1, 2) ] in
  Alcotest.(check bool) "schema mismatch" true
    (try
       ignore (Relation.append r other);
       false
     with Invalid_argument _ -> true)

let test_map_fold () =
  let doubled =
    Relation.map (Relation.schema r)
      (fun t ->
        match Tuple.get t 0 with
        | Value.Int i -> Tuple.make [ Value.Int (2 * i) ]
        | _ -> t)
      r
  in
  let total =
    Relation.fold
      (fun acc t -> match Tuple.get t 0 with Value.Int i -> acc + i | _ -> acc)
      0 doubled
  in
  Alcotest.(check int) "sum of doubles" 28 total

let test_empty () =
  let e = Relation.empty (Relation.schema r) in
  Alcotest.(check bool) "empty" true (Relation.is_empty e);
  Alcotest.(check bool) "empty is set" true (Relation.is_set e)

(* A sample of a sample gathers from the first base at composed row
   ids, with or without a columnar view on that base, and its view
   decodes to the same values either way. *)
let test_sample_of_sample () =
  let schema = Schema.of_list [ ("a", Value.Tint); ("s", Value.Tstr) ] in
  let rows =
    List.init 8 (fun i ->
        Tuple.make
          [
            (if i = 5 then Value.Null else Value.Int (i * 10));
            Value.Str (String.make 1 (Char.chr (97 + (i mod 3))));
          ])
  in
  let a = [| 7; 2; 2; 5; 0; 6 |] and b = [| 3; 0; 5; 1; 1 |] in
  let expected = Array.map (fun i -> List.nth rows a.(i)) b in
  List.iter
    (fun viewed ->
      let label what =
        Printf.sprintf "%s (%s base)" what (if viewed then "viewed" else "plain")
      in
      let r = Relation.make schema rows in
      if viewed then ignore (Relation.columnar r);
      let inner = Relation.sample r a in
      let outer = Relation.sample inner b in
      for j = 0 to 1 do
        Alcotest.(check (array string))
          (label (Printf.sprintf "view column %d" j))
          (Array.map (fun t -> Value.to_string (Tuple.get t j)) expected)
          (Array.map Value.to_string
             (Relational.Column.values (Relation.columnar outer) j))
      done;
      Alcotest.(check (array string))
        (label "tuples at a.(b.(i))")
        (Array.map Tuple.to_string expected)
        (Array.map Tuple.to_string (Relation.tuples outer));
      List.iter
        (fun bad ->
          Alcotest.(check bool)
            (label (Printf.sprintf "row id %d rejected" bad))
            true
            (try
               ignore (Relation.sample inner [| 0; bad |]);
               false
             with Invalid_argument _ -> true))
        [ Array.length a; -1 ])
    [ false; true ]

(* A masked relation over 140 rows: a mask of 130 bits that spans
   three words, with set bits at both ends of the middle one. *)
let masked_fixture ?(bits = [ 0; 62; 63; 64; 125; 129 ]) ?live () =
  let base = Array.init 140 (fun i -> Tuple.make [ Value.Int i ]) in
  let mask = Relational.Column.Bitset.create 130 in
  List.iter (Relational.Column.Bitset.set mask) bits;
  let live = Option.value live ~default:(List.length bits) in
  Relation.masked (Schema.of_list [ ("a", Value.Tint) ]) base mask ~live

let values r =
  Array.to_list
    (Array.map (fun t -> match Tuple.get t 0 with Value.Int i -> i | _ -> -1) (Relation.tuples r))

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_masked () =
  let rows = [ 0; 62; 63; 64; 125; 129 ] in
  (* The size comes from the count given, without resolving the mask:
     a wrong count, above or below the 6 set bits, shows through
     [cardinality] and fails the first read, which sizes its row ids
     by the count and writes none past it. *)
  List.iter
    (fun live ->
      let wrong = masked_fixture ~live () in
      Alcotest.(check int) "cardinality is the count given" live (Relation.cardinality wrong);
      Alcotest.check_raises "a wrong count fails the first read"
        (Invalid_argument "Relation.masked: live is not the mask's count") (fun () ->
          ignore (Relation.tuples wrong)))
    [ 9; 3 ];
  Alcotest.(check int) "cardinality" 6 (Relation.cardinality (masked_fixture ()));
  Alcotest.(check (list int)) "tuples at the set bits, in order" rows
    (values (masked_fixture ()));
  Alcotest.(check (list int))
    "sample: unsorted, repeated ids" [ 129; 0; 0; 64; 62 ]
    (values (Relation.sample (masked_fixture ()) [| 5; 0; 0; 3; 1 |]));
  let m = masked_fixture () in
  let inner = Relation.sample m [| 5; 4; 3; 2 |] in
  Alcotest.(check (list int))
    "a sample of a sample" [ 64; 129; 64 ]
    (values (Relation.sample inner [| 2; 0; 2 |]));
  Alcotest.(check (list int)) "the masked relation after its samples" rows (values m);
  Alcotest.(check (list string))
    "columnar view" (List.map string_of_int rows)
    (Array.to_list
       (Array.map Value.to_string
          (Relational.Column.values (Relation.columnar (masked_fixture ())) 0)));
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "row id %d rejected" bad)
        true
        (raises_invalid (fun () -> Relation.sample (masked_fixture ()) [| 0; bad |])))
    [ 6; -1 ];
  let dead = masked_fixture ~bits:[] () in
  Alcotest.(check int) "all-dead cardinality" 0 (Relation.cardinality dead);
  Alcotest.(check (list int)) "all-dead sample" [] (values (Relation.sample dead [||]));
  Alcotest.(check bool) "all-dead rejects every row id" true
    (raises_invalid (fun () -> Relation.sample dead [| 0 |]));
  Alcotest.(check (list int)) "all-dead tuples" [] (values dead);
  Alcotest.(check bool) "a mask longer than its rows" true
    (raises_invalid (fun () ->
         Relation.masked (Schema.of_list [ ("a", Value.Tint) ]) [||]
           (Relational.Column.Bitset.create 1) ~live:0))

let prop_distinct_idempotent =
  qcheck_case "distinct idempotent"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (QCheck.int_range 0 5))
    (fun values ->
      let r = int_relation values in
      let once = Relation.distinct r in
      let twice = Relation.distinct once in
      Relation.cardinality once = Relation.cardinality twice)

let prop_distinct_bounded =
  qcheck_case "distinct no larger"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (QCheck.int_range 0 5))
    (fun values ->
      let r = int_relation values in
      Relation.cardinality (Relation.distinct r) <= Relation.cardinality r)

let suite =
  [
    Alcotest.test_case "cardinality" `Quick test_cardinality;
    Alcotest.test_case "make checks arity" `Quick test_make_checks_arity;
    Alcotest.test_case "make checks types" `Quick test_make_checks_types;
    Alcotest.test_case "count and filter" `Quick test_count_filter;
    Alcotest.test_case "distinct and is_set" `Quick test_distinct_is_set;
    Alcotest.test_case "distinct keeps first occurrences" `Quick
      test_distinct_preserves_first_occurrence_order;
    Alcotest.test_case "column" `Quick test_column;
    Alcotest.test_case "append" `Quick test_append;
    Alcotest.test_case "map and fold" `Quick test_map_fold;
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "sample of a sample composes row ids" `Quick test_sample_of_sample;
    Alcotest.test_case "masked rows resolve on first read" `Quick test_masked;
    prop_distinct_idempotent;
    prop_distinct_bounded;
  ]
