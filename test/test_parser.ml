open Helpers
module Parser = Relational.Parser
module P = Predicate

let check_pred text expected =
  let parsed = Parser.parse_predicate text in
  Alcotest.(check bool) text true (parsed = expected)

let check_expr text expected =
  let parsed = Parser.parse_expr text in
  Alcotest.(check bool) text true (parsed = expected)

let test_predicate_comparisons () =
  check_pred "a = 1" (P.eq (P.attr "a") (P.vint 1));
  check_pred "a != 1" (P.neq (P.attr "a") (P.vint 1));
  check_pred "a <> 1" (P.neq (P.attr "a") (P.vint 1));
  check_pred "a <= 2.5" (P.le (P.attr "a") (P.vfloat 2.5));
  check_pred "a >= -3" (P.ge (P.attr "a") (P.const (Value.Int (-3))));
  check_pred "name = 'bob'" (P.eq (P.attr "name") (P.vstr "bob"));
  check_pred "a < b" (P.lt (P.attr "a") (P.attr "b"))

let test_predicate_boolean_structure () =
  (* and binds tighter than or; both left-associative. *)
  check_pred "a = 1 or b = 2 and c = 3"
    P.(eq (attr "a") (vint 1) ||| (eq (attr "b") (vint 2) &&& eq (attr "c") (vint 3)));
  check_pred "(a = 1 or b = 2) and c = 3"
    P.((eq (attr "a") (vint 1) ||| eq (attr "b") (vint 2)) &&& eq (attr "c") (vint 3));
  check_pred "not a = 1" (P.not_ (P.eq (P.attr "a") (P.vint 1)));
  check_pred "not (a = 1 and true)" (P.not_ P.(eq (attr "a") (vint 1) &&& True));
  check_pred "true" P.True;
  check_pred "false" P.False

let test_predicate_between_in () =
  check_pred "age between 25 and 64" (P.between (P.attr "age") (Value.Int 25) (Value.Int 64));
  check_pred "c in (1, 2, 3)" (P.in_ (P.attr "c") [ Value.Int 1; Value.Int 2; Value.Int 3 ]);
  check_pred "s in ('x', 'y')" (P.in_ (P.attr "s") [ Value.Str "x"; Value.Str "y" ]);
  check_pred "v in (null, true)" (P.in_ (P.attr "v") [ Value.Null; Value.Bool true ])

let test_predicate_arithmetic () =
  (* * binds tighter than +. *)
  check_pred "a + b * 2 < 10"
    (P.lt (P.Add (P.attr "a", P.Mul (P.attr "b", P.vint 2))) (P.vint 10));
  check_pred "(a + b) * 2 < 10"
    (P.lt (P.Mul (P.Add (P.attr "a", P.attr "b"), P.vint 2)) (P.vint 10));
  check_pred "(a - b) / c >= 0.5"
    (P.ge (P.Div (P.Sub (P.attr "a", P.attr "b"), P.attr "c")) (P.vfloat 0.5))

let test_string_escapes () =
  check_pred "s = 'it''s'" (P.eq (P.attr "s") (P.vstr "it's"))

let test_expr_leaves_and_unary () =
  check_expr "r" (Expr.base "r");
  check_expr "select[a = 1](r)" (Expr.select (P.eq (P.attr "a") (P.vint 1)) (Expr.base "r"));
  check_expr "pi[a, b](r)" (Expr.project [ "a"; "b" ] (Expr.base "r"));
  check_expr "pidist[a](r)" (Expr.project_distinct [ "a" ] (Expr.base "r"));
  check_expr "distinct(r)" (Expr.distinct (Expr.base "r"));
  check_expr "rho[a -> b, c -> d](r)"
    (Expr.rename [ ("a", "b"); ("c", "d") ] (Expr.base "r"))

let test_expr_binary () =
  check_expr "r cross s" (Expr.product (Expr.base "r") (Expr.base "s"));
  check_expr "r join[a = b] s" (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s"));
  check_expr "r join[a = b, c = d] s"
    (Expr.equijoin [ ("a", "b"); ("c", "d") ] (Expr.base "r") (Expr.base "s"));
  check_expr "r theta[l.a < r.b] s"
    (Expr.theta_join (P.lt (P.attr "l.a") (P.attr "r.b")) (Expr.base "r") (Expr.base "s"));
  check_expr "r union s" (Expr.union (Expr.base "r") (Expr.base "s"));
  check_expr "r inter s" (Expr.inter (Expr.base "r") (Expr.base "s"));
  check_expr "r minus s" (Expr.diff (Expr.base "r") (Expr.base "s"))

let test_expr_precedence () =
  (* join binds tighter than union; binary ops left-associative. *)
  check_expr "a union b cross c"
    (Expr.union (Expr.base "a") (Expr.product (Expr.base "b") (Expr.base "c")));
  check_expr "(a union b) cross c"
    (Expr.product (Expr.union (Expr.base "a") (Expr.base "b")) (Expr.base "c"));
  check_expr "a minus b minus c"
    (Expr.diff (Expr.diff (Expr.base "a") (Expr.base "b")) (Expr.base "c"));
  check_expr "a cross b join[x = y] c"
    (Expr.equijoin [ ("x", "y") ] (Expr.product (Expr.base "a") (Expr.base "b")) (Expr.base "c"))

let test_expr_nested () =
  check_expr "select[q >= 5](orders) join[s = k] select[g = 0](suppliers)"
    (Expr.equijoin
       [ ("s", "k") ]
       (Expr.select (P.ge (P.attr "q") (P.vint 5)) (Expr.base "orders"))
       (Expr.select (P.eq (P.attr "g") (P.vint 0)) (Expr.base "suppliers")))

let test_aggregate_forms () =
  check_expr "gamma[g; count](r)"
    (Expr.aggregate ~by:[ "g" ] [ (Expr.Count, "count") ] (Expr.base "r"));
  check_expr "gamma[g; count as n, sum(v) as total](r)"
    (Expr.aggregate ~by:[ "g" ]
       [ (Expr.Count, "n"); (Expr.Sum "v", "total") ]
       (Expr.base "r"));
  check_expr "gamma[; avg(v)](r)"
    (Expr.aggregate ~by:[] [ (Expr.Avg "v", "avg_v") ] (Expr.base "r"));
  check_expr "gamma[a, b; min(v), max(v)](r)"
    (Expr.aggregate ~by:[ "a"; "b" ]
       [ (Expr.Min "v", "min_v"); (Expr.Max "v", "max_v") ]
       (Expr.base "r"));
  (* Composition with other operators. *)
  check_expr "select[n >= 2](gamma[g; count as n](r))"
    (Expr.select
       (P.ge (P.attr "n") (P.vint 2))
       (Expr.aggregate ~by:[ "g" ] [ (Expr.Count, "n") ] (Expr.base "r")))

let test_case_insensitive_keywords () =
  check_expr "SELECT[A = 1](R)" (Expr.select (P.eq (P.attr "A") (P.vint 1)) (Expr.base "R"));
  check_pred "a BETWEEN 1 AND 2 AND TRUE"
    P.(between (attr "a") (Value.Int 1) (Value.Int 2) &&& True)

let test_errors () =
  let rejects text =
    Alcotest.(check bool) text true
      (try
         ignore (Parser.parse_expr text);
         false
       with Failure _ -> true)
  in
  rejects "";
  rejects "select[a = 1]";
  rejects "r join s";
  rejects "r union";
  rejects "pi[](r)";
  rejects "r )";
  rejects "r extra";
  let rejects_pred text =
    Alcotest.(check bool) text true
      (try
         ignore (Parser.parse_predicate text);
         false
       with Failure _ -> true)
  in
  rejects_pred "a";
  rejects_pred "a = ";
  rejects_pred "a in ()";
  rejects_pred "between 1 and 2";
  rejects_pred "a = 'unterminated"

let test_error_mentions_offset () =
  (try
     ignore (Parser.parse_expr "select[a = 1](r");
     Alcotest.fail "should have raised"
   with Failure message ->
     Alcotest.(check bool) "message has offset" true
       (String.length message > 0
       && String.exists (fun c -> c = 'o') message))

(* A literal beyond the int range is the parser's positioned error, not
   a bare [int_of_string] failure. *)
let test_literal_out_of_range () =
  let message parse text =
    match parse text with
    | _ -> Alcotest.fail ("accepted " ^ text)
    | exception Failure message -> message
  in
  Alcotest.(check string) "expression"
    {|Parser: integer literal 99999999999999999999 out of range at offset 11 (line 1) in "select[a < 99999999999999999999](r)"|}
    (message Parser.parse_expr "select[a < 99999999999999999999](r)");
  Alcotest.(check string) "predicate"
    {|Parser: integer literal 99999999999999999999 out of range at offset 4 (line 1) in "a < 99999999999999999999"|}
    (message Parser.parse_predicate "a < 99999999999999999999");
  Alcotest.(check string) "exponent without digits"
    {|Parser: malformed number 1.5e at offset 4 (line 1) in "a < 1.5e"|}
    (message Parser.parse_predicate "a < 1.5e")

(* Printing writes one buffer: a 4,000-deep chain of selections
   allocates a small multiple of its text, not a copy of it per level. *)
let test_print_linear () =
  let e = ref (Expr.base "r") in
  for i = 1 to 4_000 do
    e := Expr.select (P.le (P.attr "a") (P.vint (i mod 100))) !e
  done;
  let before = Gc.allocated_bytes () in
  let text = Parser.print_expr !e in
  let allocated = Gc.allocated_bytes () -. before in
  let ratio = allocated /. float_of_int (String.length text) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated for %d of text (%.1fx)" allocated
       (String.length text) ratio)
    true (ratio < 16.)

(* Random ASTs for the print/parse roundtrip property. *)

let attr_gen = QCheck.Gen.oneofl [ "a"; "b"; "c1"; "l.a"; "r.b"; "x_y" ]

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-50) 50);
        map (fun i -> Value.Float (0.25 *. float_of_int i)) (int_range (-20) 20);
        map (fun s -> Value.Str s) (oneofl [ "x"; "it's"; "a,b"; "" ]);
      ])

let term_gen =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self size ->
            if size <= 1 then
              oneof [ map (fun a -> P.Attr a) attr_gen; map (fun v -> P.Const v) value_gen ]
            else
              let sub = self (size / 2) in
              oneof
                [
                  map2 (fun t1 t2 -> P.Add (t1, t2)) sub sub;
                  map2 (fun t1 t2 -> P.Sub (t1, t2)) sub sub;
                  map2 (fun t1 t2 -> P.Mul (t1, t2)) sub sub;
                  map2 (fun t1 t2 -> P.Div (t1, t2)) sub sub;
                ])
          (min size 6)))

let cmp_gen = QCheck.Gen.oneofl [ P.Eq; P.Neq; P.Lt; P.Le; P.Gt; P.Ge ]

let pred_gen =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self size ->
            if size <= 1 then
              oneof
                [
                  return P.True;
                  return P.False;
                  map3 (fun cmp t1 t2 -> P.Cmp (cmp, t1, t2)) cmp_gen term_gen term_gen;
                  map3 (fun a lo hi -> P.Between (P.Attr a, lo, hi)) attr_gen value_gen
                    value_gen;
                  map2
                    (fun a values -> P.In (P.Attr a, values))
                    attr_gen
                    (list_size (int_range 1 3) value_gen);
                ]
            else
              let sub = self (size / 2) in
              oneof
                [
                  map2 (fun p1 p2 -> P.And (p1, p2)) sub sub;
                  map2 (fun p1 p2 -> P.Or (p1, p2)) sub sub;
                  map (fun p -> P.Not p) sub;
                ])
          (min size 6)))

let expr_gen =
  QCheck.Gen.(
    sized (fun size ->
        fix
          (fun self size ->
            if size <= 1 then map (fun n -> Expr.Base n) (oneofl [ "r"; "s"; "t" ])
            else
              let sub = self (size / 2) in
              oneof
                [
                  map2 (fun p e -> Expr.Select (p, e)) pred_gen sub;
                  map2
                    (fun attrs e -> Expr.Project (attrs, e))
                    (list_size (int_range 1 3) attr_gen)
                    sub;
                  map (fun e -> Expr.Distinct e) sub;
                  map2
                    (fun pairs e -> Expr.Rename (pairs, e))
                    (list_size (int_range 1 2) (pair attr_gen attr_gen))
                    sub;
                  map2 (fun l r -> Expr.Product (l, r)) sub sub;
                  map3
                    (fun pairs l r -> Expr.Equijoin (pairs, l, r))
                    (list_size (int_range 1 2) (pair attr_gen attr_gen))
                    sub sub;
                  map3 (fun p l r -> Expr.Theta_join (p, l, r)) pred_gen sub sub;
                  map2 (fun l r -> Expr.Union (l, r)) sub sub;
                  map2 (fun l r -> Expr.Inter (l, r)) sub sub;
                  map2 (fun l r -> Expr.Diff (l, r)) sub sub;
                  map3
                    (fun by specs e -> Expr.Aggregate (by, specs, e))
                    (list_size (int_range 0 2) attr_gen)
                    (list_size (int_range 1 2)
                       (map2
                          (fun which output ->
                            let f =
                              match which with
                              | 0 -> Expr.Count
                              | 1 -> Expr.Sum "v"
                              | 2 -> Expr.Avg "v"
                              | 3 -> Expr.Min "v"
                              | _ -> Expr.Max "v"
                            in
                            (f, output))
                          (int_range 0 4)
                          (oneofl [ "n"; "o1"; "o2" ])))
                    sub;
                ])
          (min size 5)))

let prop_predicate_roundtrip =
  qcheck_case ~count:300 "parse(print(predicate)) roundtrip"
    (QCheck.make ~print:Parser.print_predicate pred_gen)
    (fun p -> Parser.parse_predicate (Parser.print_predicate p) = p)

let prop_expr_roundtrip =
  qcheck_case ~count:300 "parse(print(expr)) roundtrip"
    (QCheck.make ~print:Parser.print_expr expr_gen)
    (fun e -> Parser.parse_expr (Parser.print_expr e) = e)

let test_parse_print_examples () =
  let examples =
    [
      "select[a = 1](r)";
      "(r join[a = b] s)";
      "pidist[a](select[b < 3](r))";
      "((r cross s) union t)";
    ]
  in
  List.iter
    (fun text ->
      let once = Parser.parse_expr text in
      let twice = Parser.parse_expr (Parser.print_expr once) in
      Alcotest.(check bool) text true (once = twice))
    examples

let suite =
  [
    Alcotest.test_case "predicate comparisons" `Quick test_predicate_comparisons;
    Alcotest.test_case "boolean precedence" `Quick test_predicate_boolean_structure;
    Alcotest.test_case "between / in" `Quick test_predicate_between_in;
    Alcotest.test_case "arithmetic precedence" `Quick test_predicate_arithmetic;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    Alcotest.test_case "expression unary forms" `Quick test_expr_leaves_and_unary;
    Alcotest.test_case "expression binary forms" `Quick test_expr_binary;
    Alcotest.test_case "expression precedence" `Quick test_expr_precedence;
    Alcotest.test_case "nested expression" `Quick test_expr_nested;
    Alcotest.test_case "aggregate (gamma) forms" `Quick test_aggregate_forms;
    Alcotest.test_case "case-insensitive keywords" `Quick test_case_insensitive_keywords;
    Alcotest.test_case "rejects malformed input" `Quick test_errors;
    Alcotest.test_case "errors carry position" `Quick test_error_mentions_offset;
    Alcotest.test_case "out-of-range literals" `Quick test_literal_out_of_range;
    Alcotest.test_case "printing is linear in depth" `Quick test_print_linear;
    prop_predicate_roundtrip;
    prop_expr_roundtrip;
    Alcotest.test_case "parse/print examples" `Quick test_parse_print_examples;
  ]
