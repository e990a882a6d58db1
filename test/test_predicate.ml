open Helpers
module P = Predicate

let schema = Schema.of_list [ ("a", Value.Tint); ("b", Value.Tint); ("s", Value.Tstr) ]

let tuple a b s = Tuple.make [ Value.Int a; Value.Int b; Value.Str s ]

let holds p t = P.eval schema p t

let test_comparisons () =
  let t = tuple 3 7 "x" in
  Alcotest.(check bool) "eq" true (holds (P.eq (P.attr "a") (P.vint 3)) t);
  Alcotest.(check bool) "neq" true (holds (P.neq (P.attr "a") (P.vint 4)) t);
  Alcotest.(check bool) "lt" true (holds (P.lt (P.attr "a") (P.attr "b")) t);
  Alcotest.(check bool) "le" true (holds (P.le (P.attr "a") (P.vint 3)) t);
  Alcotest.(check bool) "gt" false (holds (P.gt (P.attr "a") (P.attr "b")) t);
  Alcotest.(check bool) "ge" true (holds (P.ge (P.attr "b") (P.vint 7)) t);
  Alcotest.(check bool) "string eq" true (holds (P.eq (P.attr "s") (P.vstr "x")) t)

let test_boolean_combinators () =
  let t = tuple 1 2 "y" in
  let p1 = P.eq (P.attr "a") (P.vint 1) in
  let p2 = P.eq (P.attr "b") (P.vint 9) in
  Alcotest.(check bool) "and" false (holds P.(p1 &&& p2) t);
  Alcotest.(check bool) "or" true (holds P.(p1 ||| p2) t);
  Alcotest.(check bool) "not" true (holds (P.not_ p2) t);
  Alcotest.(check bool) "true" true (holds P.True t);
  Alcotest.(check bool) "false" false (holds P.False t)

let test_between_in () =
  let t = tuple 5 0 "z" in
  Alcotest.(check bool) "between inclusive lo" true
    (holds (P.between (P.attr "a") (Value.Int 5) (Value.Int 9)) t);
  Alcotest.(check bool) "between inclusive hi" true
    (holds (P.between (P.attr "a") (Value.Int 1) (Value.Int 5)) t);
  Alcotest.(check bool) "between outside" false
    (holds (P.between (P.attr "a") (Value.Int 6) (Value.Int 9)) t);
  Alcotest.(check bool) "in" true
    (holds (P.in_ (P.attr "a") [ Value.Int 1; Value.Int 5 ]) t);
  Alcotest.(check bool) "not in" false (holds (P.in_ (P.attr "a") [ Value.Int 2 ]) t)

let test_arithmetic () =
  let t = tuple 3 4 "w" in
  (* a + b = 7 *)
  Alcotest.(check bool) "add" true
    (holds (P.eq (P.Add (P.attr "a", P.attr "b")) (P.vfloat 7.)) t);
  Alcotest.(check bool) "mul" true
    (holds (P.eq (P.Mul (P.attr "a", P.attr "b")) (P.vint 12)) t);
  Alcotest.(check bool) "sub" true
    (holds (P.lt (P.Sub (P.attr "a", P.attr "b")) (P.vint 0)) t);
  Alcotest.(check bool) "div" true
    (holds (P.eq (P.Div (P.attr "b", P.attr "a")) (P.vfloat (4. /. 3.))) t)

let test_null_semantics () =
  let t = Tuple.make [ Value.Null; Value.Int 1; Value.Str "s" ] in
  (* Any comparison touching Null is false; Not flips it to true. *)
  Alcotest.(check bool) "eq null" false (holds (P.eq (P.attr "a") (P.vint 0)) t);
  Alcotest.(check bool) "neq null" false (holds (P.neq (P.attr "a") (P.vint 0)) t);
  Alcotest.(check bool) "arith null" false
    (holds (P.gt (P.Add (P.attr "a", P.attr "b")) (P.vint (-100))) t);
  Alcotest.(check bool) "not of null-cmp" true
    (holds (P.not_ (P.eq (P.attr "a") (P.vint 0))) t)

let test_attributes () =
  let p = P.((eq (attr "a") (vint 1)) &&& gt (Add (attr "b", attr "a")) (attr "b")) in
  Alcotest.(check (list string)) "attrs" [ "a"; "b" ] (P.attributes p)

let test_unknown_attribute () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      let (_ : Tuple.t -> bool) = P.compile schema (P.eq (P.attr "zz") (P.vint 1)) in
      ())

let test_to_string () =
  let p = P.(eq (attr "a") (vint 1) &&& not_ (lt (attr "b") (vint 2))) in
  Alcotest.(check string) "render" "(a = 1 and not b < 2)" (P.to_string p)

let prop_not_involutive =
  qcheck_case "not(not p) = p on random tuples"
    QCheck.(triple (int_range 0 20) (int_range 0 20) (int_range 0 20))
    (fun (a, b, threshold) ->
      let t = tuple a b "q" in
      let p = P.lt (P.attr "a") (P.vint threshold) in
      holds p t = holds (P.not_ (P.not_ p)) t)

let prop_de_morgan =
  qcheck_case "De Morgan" QCheck.(pair (int_range 0 10) (int_range 0 10))
    (fun (a, b) ->
      let t = tuple a b "q" in
      let p1 = P.lt (P.attr "a") (P.vint 5) and p2 = P.gt (P.attr "b") (P.vint 5) in
      holds (P.not_ P.(p1 &&& p2)) t = holds P.(not_ p1 ||| not_ p2) t)

(* An attribute against a constant, either way round, takes the
   allocation-free path; the same comparison against a second attribute
   holding the constant takes the general one.  They must agree on
   every pair of values: Nulls, cross-type ranks, NaN, ±0, extreme
   ints. *)
let prop_attr_const_agrees =
  let values =
    Value.
      [|
        Null; Int 0; Int (-3); Int 7; Int max_int; Int min_int; Float 0.; Float (-0.);
        Float 7.; Float 2.5; Float Float.nan; Float Float.neg_infinity; Str ""; Str "7";
        Str "b"; Bool false; Bool true;
      |]
  in
  let cmps = P.[| Eq; Neq; Lt; Le; Gt; Ge |] in
  let pair_schema = Schema.of_list [ ("v", Value.Tint); ("k", Value.Tint) ] in
  qcheck_case ~count:500 "attr-vs-const decides like attr-vs-attr"
    QCheck.(
      triple
        (int_range 0 (Array.length values - 1))
        (int_range 0 (Array.length values - 1))
        (int_range 0 (Array.length cmps - 1)))
    (fun (i, j, c) ->
      let v = values.(i) and k = values.(j) and cmp = cmps.(c) in
      let t = Tuple.make [ v; k ] in
      let decide p = P.eval pair_schema p t in
      decide (P.Cmp (cmp, P.Attr "v", P.Const k))
      = decide (P.Cmp (cmp, P.Attr "v", P.Attr "k"))
      && decide (P.Cmp (cmp, P.Const k, P.Attr "v"))
         = decide (P.Cmp (cmp, P.Attr "k", P.Attr "v")))

let suite =
  [
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "boolean combinators" `Quick test_boolean_combinators;
    Alcotest.test_case "between and in" `Quick test_between_in;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "null semantics" `Quick test_null_semantics;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "unknown attribute" `Quick test_unknown_attribute;
    Alcotest.test_case "to_string" `Quick test_to_string;
    prop_not_involutive;
    prop_de_morgan;
    prop_attr_const_agrees;
  ]
