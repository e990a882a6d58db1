open Helpers
module Parser = Relational.Parser
module Optimizer = Relational.Optimizer
module P = Predicate

let catalog () =
  Catalog.of_list
    [
      ("orders", two_column_relation ~names:("o_cust", "o_amount")
         [ (1, 100); (1, 250); (2, 50); (3, 400); (3, 80); (3, 120) ]);
      ("customers", two_column_relation ~names:("c_id", "c_region")
         [ (1, 0); (2, 1); (3, 0) ]);
    ]

let count_sql c text = Eval.count c (Parser.parse_sql text)
let parse_optimized c text = Optimizer.optimize c (Parser.parse_sql text)

let test_select_star () =
  let c = catalog () in
  Alcotest.(check int) "all rows" 6 (count_sql c "SELECT * FROM orders");
  Alcotest.(check int) "filtered" 3
    (count_sql c "SELECT * FROM orders WHERE o_amount >= 120")

let test_count_star () =
  let c = catalog () in
  let result = Eval.eval c (Parser.parse_sql "SELECT COUNT(*) FROM orders WHERE o_cust = 3") in
  Alcotest.(check int) "one row" 1 (Relation.cardinality result);
  Alcotest.(check string) "count value" "<3>" (Tuple.to_string (Relation.tuple result 0))

let test_projection () =
  let c = catalog () in
  Alcotest.(check int) "bag projection" 6 (count_sql c "SELECT o_cust FROM orders");
  Alcotest.(check int) "distinct projection" 3
    (count_sql c "SELECT DISTINCT o_cust FROM orders")

let test_where_language () =
  let c = catalog () in
  Alcotest.(check int) "between" 4
    (count_sql c "SELECT * FROM orders WHERE o_amount BETWEEN 80 AND 250");
  Alcotest.(check int) "in" 4
    (count_sql c "SELECT * FROM orders WHERE o_cust IN (1, 3) AND o_amount > 90");
  Alcotest.(check int) "or / not" 4
    (count_sql c "SELECT * FROM orders WHERE NOT o_cust = 3 OR o_amount < 100")

let test_comma_join () =
  let c = catalog () in
  Alcotest.(check int) "product" 18 (count_sql c "SELECT * FROM orders, customers");
  Alcotest.(check int) "product + where = join" 6
    (count_sql c "SELECT * FROM orders, customers WHERE o_cust = c_id")

let test_join_on () =
  let c = catalog () in
  Alcotest.(check int) "join" 6
    (count_sql c "SELECT * FROM orders JOIN customers ON o_cust = c_id");
  Alcotest.(check int) "join + filter" 5
    (count_sql c
       "SELECT * FROM orders JOIN customers ON o_cust = c_id WHERE c_region = 0")

let test_join_on_optimizes_to_equijoin () =
  let c = catalog () in
  let optimized =
    parse_optimized c "SELECT * FROM orders JOIN customers ON o_cust = c_id"
  in
  match optimized with
  | Expr.Equijoin ([ ("o_cust", "c_id") ], Expr.Base "orders", Expr.Base "customers") -> ()
  | other -> Alcotest.failf "expected equijoin, got %s" (Expr.to_string other)

let test_where_join_optimizes_with_pushdown () =
  let c = catalog () in
  let optimized =
    parse_optimized c
      "SELECT * FROM orders, customers WHERE o_cust = c_id AND c_region = 0"
  in
  (match optimized with
  | Expr.Equijoin (_, Expr.Base "orders", Expr.Select (_, Expr.Base "customers")) -> ()
  | other -> Alcotest.failf "expected pushed equijoin, got %s" (Expr.to_string other));
  Alcotest.(check int) "same answer" 5 (Eval.count c optimized)

let test_group_by () =
  let c = catalog () in
  let e = Parser.parse_sql "SELECT o_cust, COUNT(*) AS n, SUM(o_amount) FROM orders GROUP BY o_cust" in
  let result = Eval.eval c e in
  Alcotest.(check (list string)) "schema" [ "o_cust"; "n"; "sum_o_amount" ]
    (Schema.names (Relation.schema result));
  let rows = List.sort compare (Array.to_list (Array.map Tuple.to_string (Relation.tuples result))) in
  Alcotest.(check (list string)) "rows" [ "<1, 2, 350>"; "<2, 1, 50>"; "<3, 3, 600>" ] rows

let test_group_by_without_aggregates () =
  let c = catalog () in
  Alcotest.(check int) "groups" 3 (count_sql c "SELECT o_cust FROM orders GROUP BY o_cust")

let test_global_aggregates () =
  let c = catalog () in
  let result = Eval.eval c (Parser.parse_sql "SELECT MIN(o_amount), MAX(o_amount), AVG(o_amount) FROM orders") in
  Alcotest.(check string) "row" "<50, 400, 166.667>"
    (Tuple.to_string (Relation.tuple result 0))

let test_case_insensitive () =
  let c = catalog () in
  Alcotest.(check int) "lowercase" 6 (count_sql c "select * from orders");
  Alcotest.(check int) "mixed" 3
    (count_sql c "Select * From orders Where o_cust = 3")

let test_rejections () =
  let rejects text =
    Alcotest.(check bool) text true
      (try
         ignore (Parser.parse_sql text);
         false
       with Failure _ -> true)
  in
  rejects "DELETE FROM orders";
  rejects "SELECT * FROM orders ORDER BY o_amount";
  rejects "SELECT * FROM orders LIMIT 5";
  rejects "SELECT * FROM orders HAVING o_cust = 1";
  rejects "SELECT o_cust FROM";
  rejects "SELECT FROM orders";
  rejects "SELECT COUNT(o_cust) FROM orders";
  rejects "SELECT o_cust, COUNT(*) FROM orders";
  rejects "SELECT o_amount FROM orders GROUP BY o_cust";
  rejects "SELECT * FROM orders JOIN customers";
  rejects "SELECT * FROM orders WHERE o_cust = (SELECT c_id FROM customers)"

let test_error_positions () =
  (* SQL errors carry offset/line context in the format of
     Parser.parse_expr's errors; pin a few exact messages so the format
     cannot drift. *)
  let fails_with expected text =
    Alcotest.(check string) text expected
      (try
         ignore (Parser.parse_sql text);
         "<no error>"
       with Failure message -> message)
  in
  fails_with
    "Sql: ORDER BY is not supported at offset 21 (line 1) in \
     \"SELECT * FROM orders ORDER BY o_amount\""
    "SELECT * FROM orders ORDER BY o_amount";
  fails_with
    "Sql: query must start with SELECT at offset 0 (line 1) in \"DELETE FROM orders\""
    "DELETE FROM orders";
  fails_with
    "Sql: only COUNT(*) is supported, not COUNT(o_cust) at offset 7 (line 1) in \
     \"SELECT COUNT(o_cust) FROM orders\""
    "SELECT COUNT(o_cust) FROM orders";
  (* A newline before the offending token bumps the reported line. *)
  fails_with
    "Sql: ORDER BY is not supported at offset 21 (line 2) in \
     \"SELECT * FROM orders\\nORDER BY o_amount\""
    "SELECT * FROM orders\nORDER BY o_amount";
  (* Errors inside a condition, and tokenizer errors, are placed in the
     whole query too. *)
  fails_with
    "Sql: expected a term at offset 37 (line 1) in \"SELECT * FROM orders WHERE o_amount <\""
    "SELECT * FROM orders WHERE o_amount <";
  fails_with
    "Sql: expected a term at offset 47 (line 1) in \
     \"SELECT * FROM orders JOIN customers ON o_cust == c_id\""
    "SELECT * FROM orders JOIN customers ON o_cust == c_id";
  fails_with
    "Sql: unterminated string literal at offset 36 (line 1) in \
     \"SELECT * FROM orders WHERE c_name = 'bob\""
    "SELECT * FROM orders WHERE c_name = 'bob"

let test_keyword_inside_string_literal () =
  let c =
    Catalog.of_list
      [
        ( "notes",
          Relation.make
            (Schema.of_list [ ("text", Value.Tstr) ])
            [ Tuple.make [ Value.Str "select from where" ]; Tuple.make [ Value.Str "x" ] ] );
      ]
  in
  Alcotest.(check int) "literal untouched" 1
    (count_sql c "SELECT * FROM notes WHERE text = 'select from where'")

let test_count_star_target () =
  let e = Parser.parse_sql "SELECT COUNT(*) FROM orders WHERE o_cust = 3" in
  (match Parser.count_star_target e with
  | Some (Expr.Select (_, Expr.Base "orders")) -> ()
  | Some other -> Alcotest.failf "unexpected target %s" (Expr.to_string other)
  | None -> Alcotest.fail "expected a count target");
  Alcotest.(check bool) "grouped query has none" true
    (Parser.count_star_target (Parser.parse_sql "SELECT o_cust, COUNT(*) FROM orders GROUP BY o_cust")
    = None);
  Alcotest.(check bool) "plain query has none" true
    (Parser.count_star_target (Parser.parse_sql "SELECT * FROM orders") = None)

(* Random queries of the supported subset, each built together with the
   expression it must parse to. Keywords come in random case and words
   are separated by random whitespace, newlines included; WHERE and ON
   conditions are random predicates printed by [Parser.print_predicate]. *)

let random_case word =
  QCheck.Gen.(
    map
      (fun upper ->
        String.mapi
          (fun i c -> if upper land (1 lsl i) <> 0 then Char.uppercase_ascii c else c)
          word)
      (int_bound ((1 lsl String.length word) - 1)))

(* [blank] separates words; [blank0] may be empty. *)
let blank = QCheck.Gen.oneofl [ " "; "  "; "\n"; "\t"; "\r\n"; " \n\t " ]
let blank0 = QCheck.Gen.oneofl [ ""; " "; "\n"; " \t" ]

(* [words] separated by blanks. *)
let spaced words =
  QCheck.Gen.(
    let+ blanks = list_repeat (List.length words - 1) blank in
    List.hd words ^ String.concat "" (List.map2 ( ^ ) blanks (List.tl words)))

(* [items] separated by commas, with blanks or nothing around each. *)
let commas items =
  QCheck.Gen.(
    let+ seps = list_repeat (List.length items - 1) (pair blank0 blank0) in
    List.hd items
    ^ String.concat "" (List.map2 (fun (b1, b2) item -> b1 ^ "," ^ b2 ^ item) seps (List.tl items)))

let sql_attr_gen = QCheck.Gen.oneofl [ "a"; "b"; "c1"; "l.a"; "x_y" ]

let agg_gen =
  QCheck.Gen.(
    let* which = int_range 0 4 and* attr = sql_attr_gen in
    let f, name =
      match which with
      | 0 -> (Expr.Count, "count")
      | 1 -> (Expr.Sum attr, "sum")
      | 2 -> (Expr.Avg attr, "avg")
      | 3 -> (Expr.Min attr, "min")
      | _ -> (Expr.Max attr, "max")
    in
    let arg, default = match f with Expr.Count -> ("*", name) | _ -> (attr, name ^ "_" ^ attr) in
    let* func = random_case name and* b1 = blank0 and* b2 = blank0 and* b3 = blank0 in
    let call = String.concat "" [ func; b1; "("; b2; arg; b3; ")" ] in
    let* alias = opt (oneofl [ "n"; "total"; "o1" ]) in
    match alias with
    | None -> return (call, (f, default))
    | Some output ->
      let* as_ = random_case "as" in
      let+ text = spaced [ call; as_; output ] in
      (text, (f, output)))

let sql_gen =
  QCheck.Gen.(
    let* names = list_size (int_range 1 3) (oneofl [ "r"; "s"; "orders" ]) and* joins = bool in
    let first = Expr.Base (List.hd names) and rest = List.tl names in
    let* from_words, from_expr =
      if joins then
        let+ ons = list_repeat (List.length rest) Test_parser.pred_gen
        and+ kws = list_repeat (List.length rest) (pair (random_case "join") (random_case "on")) in
        ( List.hd names
          :: List.concat
               (List.map2
                  (fun (join, on) (name, p) -> [ join; name; on; Parser.print_predicate p ])
                  kws (List.combine rest ons)),
          List.fold_left2 (fun acc name p -> Expr.Theta_join (p, acc, Expr.Base name)) first rest ons )
      else
        let+ text = commas names in
        ([ text ], List.fold_left (fun acc name -> Expr.Product (acc, Expr.Base name)) first rest)
    in
    let* where = opt Test_parser.pred_gen in
    let filtered = match where with Some p -> Expr.Select (p, from_expr) | None -> from_expr in
    let* group = opt (list_size (int_range 1 2) sql_attr_gen) in
    (* Plain select items must be grouping attributes when there is a
       GROUP BY; without one they cannot sit beside aggregates.  DISTINCT
       only changes a query without aggregates or GROUP BY. *)
    let* distinct = bool and* shape = int_range 0 2 and* aggs = list_size (int_range 1 2) agg_gen in
    let* plain =
      match group with
      | Some g -> list_size (int_range 0 2) (oneofl g)
      | None -> list_size (int_range 1 3) sql_attr_gen
    in
    let dedup e = if distinct then Expr.Distinct e else e in
    let items, expected =
      match (shape, group) with
      | 0, None -> ([ "*" ], dedup filtered)
      | 1, None -> (plain, dedup (Expr.Project (plain, filtered)))
      | _, None -> (List.map fst aggs, Expr.Aggregate ([], List.map snd aggs, filtered))
      | 2, Some g -> (plain @ List.map fst aggs, Expr.Aggregate (g, List.map snd aggs, filtered))
      | _, Some g -> ((if plain = [] then g else plain), Expr.Distinct (Expr.Project (g, filtered)))
    in
    let* select = random_case "select" and* from = random_case "from"
    and* items_text = commas items in
    let* select_words =
      if distinct then
        let+ distinct_kw = random_case "distinct" in
        [ select; distinct_kw; items_text ]
      else return [ select; items_text ]
    in
    let* where_words =
      match where with
      | None -> return []
      | Some p ->
        let+ w = random_case "where" in
        [ w; Parser.print_predicate p ]
    in
    let* group_words =
      match group with
      | None -> return []
      | Some g ->
        let+ group_kw = random_case "group" and+ by = random_case "by" and+ attrs = commas g in
        [ group_kw; by; attrs ]
    in
    let+ text = spaced (select_words @ (from :: from_words) @ where_words @ group_words)
    and+ trailing = blank0 in
    (text ^ trailing, expected))

let prop_sql_to_expr =
  qcheck_case ~count:500 "sql parses to its expression"
    (QCheck.make ~print:fst sql_gen)
    (fun (text, expected) -> Parser.parse_sql text = expected)

let test_estimation_pipeline () =
  (* SQL → optimizer → sampled estimate, the end-to-end workflow. *)
  let rng_ = rng ~seed:141 () in
  let l, r =
    Workload.Correlated.pair rng_ ~n_left:10_000 ~n_right:10_000 ~domain:200 ~skew_left:0.5
      ~skew_right:0.5 Workload.Correlated.Independent ~attribute:"a"
  in
  let r = Relation.of_array (Schema.of_list [ ("b", Value.Tint) ]) (Relation.tuples r) in
  let c = Catalog.of_list [ ("l", l); ("r", r) ] in
  let e = parse_optimized c "SELECT * FROM l, r WHERE a = b" in
  let truth = float_of_int (Eval.count c e) in
  let est = Raestat.Count_estimator.estimate ~groups:5 rng_ c ~fraction:0.1 e in
  Alcotest.(check bool) "unbiased classification" true
    (est.Stats.Estimate.status = Stats.Estimate.Unbiased);
  check_close ~tol:0.3 "estimate near truth" truth est.Stats.Estimate.point

let suite =
  [
    Alcotest.test_case "select star" `Quick test_select_star;
    Alcotest.test_case "count(*)" `Quick test_count_star;
    Alcotest.test_case "projection" `Quick test_projection;
    Alcotest.test_case "where language" `Quick test_where_language;
    Alcotest.test_case "comma join" `Quick test_comma_join;
    Alcotest.test_case "join ... on" `Quick test_join_on;
    Alcotest.test_case "join on → equijoin" `Quick test_join_on_optimizes_to_equijoin;
    Alcotest.test_case "where-join pushdown" `Quick test_where_join_optimizes_with_pushdown;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "group by without aggregates" `Quick test_group_by_without_aggregates;
    Alcotest.test_case "global aggregates" `Quick test_global_aggregates;
    Alcotest.test_case "case insensitive" `Quick test_case_insensitive;
    Alcotest.test_case "rejections" `Quick test_rejections;
    Alcotest.test_case "error positions" `Quick test_error_positions;
    Alcotest.test_case "keywords inside strings" `Quick test_keyword_inside_string_literal;
    Alcotest.test_case "count(*) target" `Quick test_count_star_target;
    Alcotest.test_case "sql → estimate pipeline" `Quick test_estimation_pipeline;
    prop_sql_to_expr;
  ]
