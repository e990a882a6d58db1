open Helpers
module Planner = Raestat.Planner
module Count_estimator = Raestat.Count_estimator
module P = Predicate
module Tpc = Workload.Tpc_mini

let tpc () =
  Tpc.catalog (rng ~seed:151 ())
    ~sizes:{ Tpc.suppliers = 500; parts = 800; orders = 10_000 }
    ()

let inputs ?supplier_filter () =
  [
    { Planner.name = "orders"; filter = None };
    { Planner.name = "suppliers"; filter = supplier_filter };
    { Planner.name = "parts"; filter = None };
  ]

let joins =
  [
    { Planner.left_attr = "o_supplier"; right_attr = "s_key" };
    { Planner.left_attr = "o_part"; right_attr = "p_key" };
  ]

let test_plan_shape () =
  let c = tpc () in
  let plan = Planner.plan (rng ()) c ~fraction:0.2 ~inputs:(inputs ()) ~joins in
  Alcotest.(check int) "order covers all inputs" 3 (List.length plan.Planner.order);
  Alcotest.(check int) "one strict intermediate" 1 (List.length plan.Planner.intermediates);
  Alcotest.(check bool) "cost positive" true (plan.Planner.estimated_cost > 0.);
  Alcotest.(check bool) "estimates recorded" true (List.length plan.Planner.estimates >= 1)

let test_plan_expr_is_equivalent_to_query () =
  let c = tpc () in
  let plan = Planner.plan (rng ()) c ~fraction:0.2 ~inputs:(inputs ()) ~joins in
  (* Any join order yields the same count; compare with the canonical
     chain expression. *)
  let canonical = Eval.count c (Tpc.chain_query ()) in
  Alcotest.(check int) "same result count" canonical (Eval.count c plan.Planner.expr)

let test_planner_prefers_filtered_side_first () =
  (* A highly selective supplier filter makes orders⋈suppliers the
     small intermediate; the planner should join it before parts. *)
  let c = tpc () in
  let supplier_filter = P.eq (P.attr "s_region") (P.vint 0) in
  let plan =
    Planner.plan (rng ()) c ~fraction:0.5
      ~inputs:(inputs ~supplier_filter ())
      ~joins
  in
  (match plan.Planner.order with
  | [ a; b; "parts" ] when (a = "orders" && b = "suppliers") || (a = "suppliers" && b = "orders")
    -> ()
  | order -> Alcotest.failf "unexpected order: %s" (String.concat " -> " order));
  (* And the estimated choice should agree with the exact cost ranking. *)
  let exact = Planner.exact_cost c plan in
  Alcotest.(check bool) "exact cost finite" true (exact >= 0.)

let test_no_cross_products_in_plan () =
  let c = tpc () in
  let plan = Planner.plan (rng ()) c ~fraction:0.2 ~inputs:(inputs ()) ~joins in
  let rec no_products = function
    | Expr.Product _ -> false
    | Expr.Base _ -> true
    | Expr.Select (_, e) | Expr.Project (_, e) | Expr.Distinct e | Expr.Rename (_, e)
    | Expr.Aggregate (_, _, e) ->
      no_products e
    | Expr.Equijoin (_, l, r) | Expr.Theta_join (_, l, r) | Expr.Union (l, r)
    | Expr.Inter (l, r) | Expr.Diff (l, r) ->
      no_products l && no_products r
  in
  Alcotest.(check bool) "join tree only" true (no_products plan.Planner.expr)

let test_validation () =
  let c = tpc () in
  let check_fails name thunk =
    Alcotest.(check bool) name true
      (try
         ignore (thunk ());
         false
       with Invalid_argument _ -> true)
  in
  check_fails "one input" (fun () ->
      Planner.plan (rng ()) c ~fraction:0.2
        ~inputs:[ { Planner.name = "orders"; filter = None } ]
        ~joins:[]);
  check_fails "duplicate names" (fun () ->
      Planner.plan (rng ()) c ~fraction:0.2
        ~inputs:
          [
            { Planner.name = "orders"; filter = None };
            { Planner.name = "orders"; filter = None };
          ]
        ~joins);
  check_fails "unknown attribute" (fun () ->
      Planner.plan (rng ()) c ~fraction:0.2 ~inputs:(inputs ())
        ~joins:[ { Planner.left_attr = "nope"; right_attr = "s_key" } ]);
  check_fails "disconnected graph" (fun () ->
      Planner.plan (rng ()) c ~fraction:0.2 ~inputs:(inputs ())
        ~joins:[ { Planner.left_attr = "o_supplier"; right_attr = "s_key" } ]);
  check_fails "within-input join" (fun () ->
      Planner.plan (rng ()) c ~fraction:0.2 ~inputs:(inputs ())
        ~joins:[ { Planner.left_attr = "o_supplier"; right_attr = "o_part" } ])

let test_memoization_shares_estimates () =
  (* 3 inputs in a chain have 3 singleton sets, 2 joinable pairs and 1
     triple: at most 6 memo entries regardless of orders explored. *)
  let c = tpc () in
  let plan = Planner.plan (rng ()) c ~fraction:0.2 ~inputs:(inputs ()) ~joins in
  Alcotest.(check bool) "few memo entries" true (List.length plan.Planner.estimates <= 6)

(* --- sampling-placement optimization ------------------------------- *)

(* A selective predicate under a join with a small exact side: the
   canonical pushdown win. *)
let pushdown_catalog () =
  let c = Catalog.create () in
  Catalog.add c "big"
    (Workload.Generator.relation (rng ~seed:71 ()) ~n:4000
       [ ("a", Workload.Dist.Uniform { lo = 0; hi = 99 }) ]);
  Catalog.add c "small"
    (Workload.Generator.relation (rng ~seed:72 ()) ~n:80
       [ ("b", Workload.Dist.Uniform { lo = 0; hi = 99 }) ]);
  c

let pushdown_expr =
  Expr.Equijoin
    ([ ("a", "b") ], Expr.Select (P.lt (P.attr "a") (P.vint 10), Expr.Base "big"),
     Expr.Base "small")

let test_choose_sampling_pushdown_wins () =
  let c = pushdown_catalog () in
  let choice = Planner.choose_sampling c ~fraction:0.05 pushdown_expr in
  Alcotest.(check int) "three candidates" 3 (List.length choice.Planner.candidates);
  Alcotest.(check bool) "analytic stats" true choice.Planner.analytic;
  (match choice.Planner.winner.Planner.derivation with
  | Some _ -> ()
  | None -> Alcotest.failf "expected a pushdown winner, got %s" choice.Planner.winner.Planner.label);
  (* The winner's predicted variance beats root-sampling's. *)
  let root =
    List.find (fun c -> c.Planner.label = "root-sampling") choice.Planner.candidates
  in
  Alcotest.(check bool) "variance improves" true
    (choice.Planner.winner.Planner.predicted_variance
    < root.Planner.predicted_variance)

let test_choose_sampling_deterministic () =
  let c = pushdown_catalog () in
  let labels choice = List.map (fun c -> c.Planner.label) choice.Planner.candidates in
  let a = Planner.choose_sampling c ~fraction:0.05 pushdown_expr in
  let b = Planner.choose_sampling c ~fraction:0.05 pushdown_expr in
  Alcotest.(check (list string)) "candidate order stable" (labels a) (labels b);
  Alcotest.(check (list string)) "leaf-occurrence order"
    [ "root-sampling"; "pushdown(big#0)"; "pushdown(small#1)" ]
    (labels a);
  Alcotest.(check string) "winner stable" a.Planner.winner.Planner.label
    b.Planner.winner.Planner.label;
  Alcotest.(check string) "rationale stable" a.Planner.rationale b.Planner.rationale

let test_choose_sampling_estimates_unbiased () =
  (* The chosen pushed-down plan still estimates the true count: mean
     over replicated runs lands near the exact join size. *)
  let c = pushdown_catalog () in
  let truth = float_of_int (Eval.count c pushdown_expr) in
  let choice = Planner.choose_sampling c ~fraction:0.05 pushdown_expr in
  let acc = ref 0. in
  for i = 1 to 60 do
    acc :=
      !acc
      +. (Raestat.Estplan.run (rng ~seed:(9000 + i) ()) c choice.Planner.chosen)
           .Stats.Estimate.point
  done;
  check_close ~tol:0.15 "pushed-down estimate unbiased" truth (!acc /. 60.)

let test_choose_sampling_equal_budget () =
  let c = pushdown_catalog () in
  let choice = Planner.choose_sampling c ~fraction:0.05 pushdown_expr in
  let root =
    List.find (fun c -> c.Planner.label = "root-sampling") choice.Planner.candidates
  in
  (* Sampled-tuple budget: every candidate draws at most what
     root-sampling draws (min with the target's population). *)
  Alcotest.(check bool) "budget respected" true
    (List.for_all
       (fun c -> c.Planner.drawn_tuples <= root.Planner.drawn_tuples +. 1e-9)
       choice.Planner.candidates);
  Alcotest.(check int) "budget is the root draw" (int_of_float root.Planner.drawn_tuples)
    choice.Planner.budget

let test_choose_sampling_dedup_falls_back () =
  let c = pushdown_catalog () in
  let expr = Expr.Distinct pushdown_expr in
  let choice = Planner.choose_sampling c ~fraction:0.05 expr in
  Alcotest.(check int) "single candidate" 1 (List.length choice.Planner.candidates);
  Alcotest.(check string) "root fallback" "root-sampling"
    choice.Planner.winner.Planner.label;
  Alcotest.(check bool) "rationale explains" true
    (String.length choice.Planner.rationale > 0
    && choice.Planner.winner.Planner.derivation = None)

let test_choose_sampling_single_leaf_tie () =
  (* On a bare selection the pushdown candidate is the same design as
     root sampling; the tie-break keeps the historical strategy. *)
  let c = pushdown_catalog () in
  let expr = Expr.Select (P.lt (P.attr "a") (P.vint 50), Expr.Base "big") in
  let choice = Planner.choose_sampling c ~fraction:0.1 expr in
  Alcotest.(check string) "tie prefers root" "root-sampling"
    choice.Planner.winner.Planner.label;
  Alcotest.(check int) "both candidates listed" 2 (List.length choice.Planner.candidates)

let test_choose_sampling_metrics () =
  let c = pushdown_catalog () in
  let metrics = Obs.Metrics.create () in
  ignore (Planner.choose_sampling ~metrics c ~fraction:0.05 pushdown_expr);
  let snap = Obs.Metrics.snapshot metrics in
  Alcotest.(check int) "plans_considered counts candidates" 3
    snap.Obs.Metrics.plans_considered

let test_fraction_of_goal () =
  check_float "fraction passes through" 0.25
    (Planner.fraction_of_goal ~population:1000 (Planner.Budget_fraction 0.25));
  check_float "tuple budget" 0.05
    (Planner.fraction_of_goal ~population:1000 (Planner.Budget_tuples 50));
  check_float "tuple budget caps at 1" 1.
    (Planner.fraction_of_goal ~population:10 (Planner.Budget_tuples 50));
  let tight =
    Planner.fraction_of_goal ~population:10_000
      (Planner.Ci_width { width = 50.; level = 0.95 })
  in
  let loose =
    Planner.fraction_of_goal ~population:10_000
      (Planner.Ci_width { width = 5000.; level = 0.95 })
  in
  Alcotest.(check bool) "tighter width needs more" true (tight > loose);
  Alcotest.(check bool) "fractions in range" true
    (tight <= 1. && loose > 0.);
  let invalid thunk =
    try
      ignore (thunk ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad fraction" true
    (invalid (fun () -> Planner.fraction_of_goal ~population:10 (Planner.Budget_fraction 1.5)));
  Alcotest.(check bool) "bad budget" true
    (invalid (fun () -> Planner.fraction_of_goal ~population:10 (Planner.Budget_tuples 0)));
  Alcotest.(check bool) "bad width" true
    (invalid (fun () ->
         Planner.fraction_of_goal ~population:10 (Planner.Ci_width { width = 0.; level = 0.95 })))

let test_goal_front_ends () =
  let c = pushdown_catalog () in
  (* size_of_goal clamps to [1, population]. *)
  Alcotest.(check int) "size from fraction" 200
    (Planner.size_of_goal ~population:4000 (Planner.Budget_fraction 0.05));
  Alcotest.(check int) "size from budget" 50
    (Planner.size_of_goal ~population:4000 (Planner.Budget_tuples 50));
  Alcotest.(check int) "size capped" 10
    (Planner.size_of_goal ~population:10 (Planner.Budget_tuples 50));
  Alcotest.(check int) "empty population" 0
    (Planner.size_of_goal ~population:0 (Planner.Budget_tuples 50));
  (* The non-optimized goal path is byte-identical to the historical
     fixed-fraction entry at the resolved fraction. *)
  let goal = Planner.Budget_fraction 0.05 in
  let direct =
    Count_estimator.estimate ~groups:4 (rng ~seed:901 ()) c ~fraction:0.05 pushdown_expr
  in
  let via_goal, no_choice =
    Count_estimator.estimate_with_goal ~groups:4 ~optimize:false (rng ~seed:901 ()) c
      ~goal pushdown_expr
  in
  Alcotest.(check bool) "no choice when not optimizing" true (no_choice = None);
  check_float "same point" direct.Stats.Estimate.point via_goal.Stats.Estimate.point;
  (* The optimized path runs the planner's winner and reports it —
     unless the process-wide kill switch is thrown, in which case the
     goal entry must keep the historical behavior and report nothing. *)
  let optimized, choice =
    Count_estimator.estimate_with_goal ~groups:4 (rng ~seed:902 ()) c ~goal pushdown_expr
  in
  if Planner.optimize_enabled () then
    match choice with
    | Some choice ->
      Alcotest.(check int) "three candidates" 3 (List.length choice.Planner.candidates)
    | None -> Alcotest.fail "expected a planner choice"
  else Alcotest.(check bool) "kill switch suppresses the choice" true (choice = None);
  Alcotest.(check bool) "optimized estimate is finite" true
    (Float.is_finite optimized.Stats.Estimate.point)

let test_explain_surfaces () =
  let c = pushdown_catalog () in
  let choice = Planner.choose_sampling c ~fraction:0.05 pushdown_expr in
  let text = Planner.render_choice choice in
  Alcotest.(check bool) "text lists candidates" true
    (List.for_all
       (fun cand ->
         let sub = cand.Planner.label in
         let rec contains i =
           i + String.length sub <= String.length text
           && (String.sub text i (String.length sub) = sub || contains (i + 1))
         in
         contains 0)
       choice.Planner.candidates);
  let json = Planner.choice_to_json choice in
  let has sub =
    let rec contains i =
      i + String.length sub <= String.length json
      && (String.sub json i (String.length sub) = sub || contains (i + 1))
    in
    contains 0
  in
  Alcotest.(check bool) "v2 schema" true (has "\"schema\": \"raestat-explain/2\"");
  Alcotest.(check bool) "embeds v1 plan" true (has "\"schema\": \"raestat-explain/1\"");
  Alcotest.(check bool) "rationale present" true (has "\"rationale\"");
  Alcotest.(check bool) "candidates present" true (has "\"candidates\"")

(* --- join statistics ------------------------------------------------ *)

(* The join moments the way the planner first computed them, kept here
   as the reference: materialize each filtered side, histogram it on its
   key tuples under [Tuple.equal] and [Tuple.hash] (Null matching Null,
   [Int 1] matching [Float 1.0], as in [Eval]), and sum over the left
   histogram's keys. *)
module Tuple_hash = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let reference_moments catalog pairs (pl, nl) (pr, nr) =
  let filtered preds name =
    List.fold_left (fun r p -> Relation.filter_pred p r) (Catalog.find catalog name) preds
  in
  let histogram relation attrs =
    let columns = Array.of_list (List.map (Relation.column relation) attrs) in
    let table = Tuple_hash.create 256 in
    for i = 0 to Relation.cardinality relation - 1 do
      let key = Array.map (fun column -> column.(i)) columns in
      Tuple_hash.replace table key
        (1 + Option.value (Tuple_hash.find_opt table key) ~default:0)
    done;
    table
  in
  let hl = histogram (filtered pl nl) (List.map fst pairs)
  and hr = histogram (filtered pr nr) (List.map snd pairs) in
  let j = ref 0. and ss_l = ref 0. and ss_r = ref 0. in
  Tuple_hash.iter
    (fun key m ->
      match Tuple_hash.find_opt hr key with
      | Some n ->
        let m = float_of_int m and n = float_of_int n in
        j := !j +. (m *. n);
        ss_l := !ss_l +. (m *. n *. n);
        ss_r := !ss_r +. (n *. m *. m)
      | None -> ())
    hl;
  (!j, !ss_l, !ss_r)

(* Random two-leaf catalogs: int keys (null-free, so they take the int
   table), int keys with Nulls, string keys with Nulls (dictionary codes,
   Null matching Null), float keys, mixed keys (ints on the left,
   integer-valued floats on the right, both with Nulls) and a two-pair
   key (the key and the payload, drawn from a small range); the last
   four go through the key dictionary.  Each side draws its keys from its
   own range, so some keys exist on one side only, and one key is heavy
   about half the time.  Either side may carry one or two selections, on
   its payload or on its key. *)
let moments_gen =
  let open QCheck.Gen in
  oneofl [ `Int; `Int_null; `Str; `Float; `Mixed; `Two ] >>= fun kind ->
  let ty ~right =
    match kind with
    | `Int | `Int_null | `Two -> Value.Tint
    | `Mixed -> if right then Value.Tfloat else Value.Tint
    | `Str -> Value.Tstr
    | `Float -> Value.Tfloat
  in
  let key_value ~right k =
    match kind with
    | `Int | `Int_null | `Two -> Value.Int k
    | `Mixed -> if right then Value.Float (float_of_int k) else Value.Int k
    | `Str -> Value.Str (Printf.sprintf "k%d" k)
    | `Float -> Value.Float (float_of_int k /. 2.)
  in
  let payload_g = if kind = `Two then int_range 0 3 else int_range 0 99 in
  let side ~right key payload =
    int_range 0 1500 >>= fun rows ->
    int_range 0 30 >>= fun lo ->
    int_range 1 40 >>= fun width ->
    float_range 0. 0.9 >>= fun heavy ->
    let key_g =
      float_range 0. 1. >>= fun u ->
      int_range 1 width >|= fun d ->
      key_value ~right (if u < heavy then lo else lo + d)
    in
    let key_g =
      match kind with
      | `Int | `Two -> key_g
      | `Int_null | `Str | `Float | `Mixed -> frequency [ (1, return Value.Null); (9, key_g) ]
    in
    list_size (return rows) (pair key_g payload_g) >|= fun pairs ->
    Relation.of_array
      (Schema.of_list [ (key, ty ~right); (payload, Value.Tint) ])
      (Array.of_list (List.map (fun (k, v) -> [| k; Value.Int v |]) pairs))
  in
  let preds ~right key payload =
    let cmp =
      oneofl P.[ Eq; Neq; Lt; Le; Gt; Ge ] >>= fun op ->
      int_range 0 99 >>= fun c ->
      oneofl
        [
          P.Cmp (op, P.Attr payload, P.vint c);
          P.Cmp (op, P.Attr key, P.Const (key_value ~right (c mod 40)));
        ]
    in
    list_size (int_range 0 2) cmp
  in
  side ~right:false "k" "x" >>= fun l ->
  side ~right:true "k2" "y" >>= fun r ->
  preds ~right:false "k" "x" >>= fun pl ->
  preds ~right:true "k2" "y" >|= fun pr ->
  let pairs = if kind = `Two then [ ("k", "k2"); ("x", "y") ] else [ ("k", "k2") ] in
  (pairs, l, r, pl, pr)

let prop_join_moments =
  qcheck_case ~count:200 "join_moments = histogram reference"
    (QCheck.make
       ~print:(fun (pairs, l, r, pl, pr) ->
         Printf.sprintf "on %s\nleft %s\n%s\nright %s\n%s"
           (String.concat ", " (List.map (fun (a, b) -> a ^ " = " ^ b) pairs))
           (String.concat " ; " (List.map P.to_string pl)) (Relation.to_string l)
           (String.concat " ; " (List.map P.to_string pr)) (Relation.to_string r))
       moments_gen)
    (fun (pairs, l, r, pl, pr) ->
      let catalog = Catalog.of_list [ ("l", l); ("r", r) ] in
      let chain preds name = List.fold_left (fun e p -> Expr.select p e) (Expr.base name) preds in
      let expr = Expr.equijoin pairs (chain pl "l") (chain pr "r") in
      let reference = reference_moments catalog pairs (List.rev pl, "l") (List.rev pr, "r") in
      let j, _, _ = reference in
      Planner.join_moments catalog expr = Some reference
      && j = float_of_int (Eval.count catalog expr))

let suite =
  [
    Alcotest.test_case "plan shape" `Quick test_plan_shape;
    Alcotest.test_case "plan ≡ canonical query" `Quick test_plan_expr_is_equivalent_to_query;
    Alcotest.test_case "prefers filtered side first" `Quick
      test_planner_prefers_filtered_side_first;
    Alcotest.test_case "no cross products" `Quick test_no_cross_products_in_plan;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "memoization" `Quick test_memoization_shares_estimates;
    Alcotest.test_case "choose_sampling: pushdown wins" `Quick
      test_choose_sampling_pushdown_wins;
    Alcotest.test_case "choose_sampling: deterministic" `Quick
      test_choose_sampling_deterministic;
    Alcotest.test_case "choose_sampling: unbiased winner" `Quick
      test_choose_sampling_estimates_unbiased;
    Alcotest.test_case "choose_sampling: equal budget" `Quick
      test_choose_sampling_equal_budget;
    Alcotest.test_case "choose_sampling: dedup falls back" `Quick
      test_choose_sampling_dedup_falls_back;
    Alcotest.test_case "choose_sampling: single-leaf tie" `Quick
      test_choose_sampling_single_leaf_tie;
    Alcotest.test_case "choose_sampling: plans_considered" `Quick
      test_choose_sampling_metrics;
    Alcotest.test_case "fraction_of_goal" `Quick test_fraction_of_goal;
    Alcotest.test_case "goal front-ends" `Quick test_goal_front_ends;
    Alcotest.test_case "explain surfaces" `Quick test_explain_surfaces;
    prop_join_moments;
  ]
