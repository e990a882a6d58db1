open Helpers
module Column = Relational.Column
module Kernel = Relational.Kernel
module Metrics = Obs.Metrics
module CE = Raestat.Count_estimator
module Physical = Relational.Physical

(* The columnar layer's whole contract is exact agreement with the row
   semantics, so almost everything here is a differential property
   test: generate a random relation (nulls, duplicates, and — through
   the unchecked [Relation.of_array] — values that contradict the
   declared column type, which must land in the [Generic] fallback),
   run the kernel and the row reference ([Predicate.compile], [Eval]),
   demand identical results. *)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let ty_gen = QCheck.Gen.oneofl [ Value.Tint; Value.Tfloat; Value.Tbool; Value.Tstr ]

(* Small pools keep duplicate rates high; the float pool covers the
   encoder's edge cases (signed zero, NaN, an integer above 2^53). *)
let float_pool = [ 0.; -0.; 1.5; -2.25; 3.; Float.nan; 1.8e16 ]
let str_pool = [ ""; "a"; "b"; "ab"; "z" ]

(* [sloppy] mixes in values whose constructor contradicts the declared
   type — legal through [Relation.of_array] and the trigger for the
   Generic column encoding. *)
let value_gen ~sloppy ty =
  let open QCheck.Gen in
  let typed =
    match ty with
    | Value.Tint -> map (fun i -> Value.Int i) (int_range (-3) 3)
    | Value.Tfloat -> map (fun f -> Value.Float f) (oneofl float_pool)
    | Value.Tbool -> map (fun b -> Value.Bool b) bool
    | Value.Tstr -> map (fun s -> Value.Str s) (oneofl str_pool)
    | Value.Tnull -> return Value.Null
  in
  let off_type =
    oneofl [ Value.Int 1; Value.Float 0.5; Value.Str "x"; Value.Bool true ]
  in
  frequency
    ((8, typed) :: (1, return Value.Null)
    :: (if sloppy then [ (1, off_type) ] else []))

let relation_gen ~sloppy =
  let open QCheck.Gen in
  int_range 1 4 >>= fun arity ->
  list_size (return arity) ty_gen >>= fun tys ->
  let schema =
    Schema.of_list (List.mapi (fun i ty -> (Printf.sprintf "c%d" i, ty)) tys)
  in
  int_range 0 60 >>= fun rows ->
  list_size (return rows) (flatten_l (List.map (value_gen ~sloppy) tys))
  >|= fun tuples -> (schema, Array.of_list (List.map Array.of_list tuples))

let const_pool =
  [
    Value.Null;
    Value.Bool true;
    Value.Bool false;
    Value.Int 0;
    Value.Int 2;
    Value.Int (-1);
    Value.Float 0.5;
    Value.Float (-0.);
    Value.Float Float.nan;
    Value.Str "a";
    Value.Str "q";
  ]

(* Random predicates over the schema's attributes: every comparison
   shape the kernel lowers (Attr/Const on either side, Between, In,
   arithmetic terms, boolean connectives) plus cross-type constants. *)
let pred_gen schema =
  let open QCheck.Gen in
  let open Predicate in
  let attr_t = map (fun a -> Attr a) (oneofl (Schema.names schema)) in
  let const_t = map (fun v -> Const v) (oneofl const_pool) in
  let term =
    frequency
      [
        (5, attr_t);
        (2, const_t);
        (1, map2 (fun a b -> Add (a, b)) attr_t const_t);
        (1, map2 (fun a b -> Mul (a, b)) attr_t attr_t);
      ]
  in
  let cmp_gen = oneofl [ Eq; Neq; Lt; Le; Gt; Ge ] in
  let leaf =
    frequency
      [
        (1, return True);
        (1, return False);
        (8, map3 (fun c t1 t2 -> Cmp (c, t1, t2)) cmp_gen term term);
        ( 2,
          map3
            (fun t lo hi -> Between (t, lo, hi))
            term (oneofl const_pool) (oneofl const_pool) );
        (2, map2 (fun t vs -> In (t, vs)) term (list_size (int_range 0 3) (oneofl const_pool)));
      ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (2, map2 (fun a b -> And (a, b)) (self (n - 1)) (self (n - 1)));
            (2, map2 (fun a b -> Or (a, b)) (self (n - 1)) (self (n - 1)));
            (1, map (fun a -> Not a) (self (n - 1)));
          ])
    2

let scenario_gen ~sloppy =
  let open QCheck.Gen in
  relation_gen ~sloppy >>= fun (schema, tuples) ->
  pred_gen schema >|= fun p -> (schema, tuples, p)

let print_scenario (schema, tuples, _) =
  Printf.sprintf "%s:\n%s" (Schema.to_string schema)
    (Relation.to_string (Relation.of_array schema tuples))

let scenario_arb ~sloppy = QCheck.make ~print:print_scenario (scenario_gen ~sloppy)

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let value_identical x y = Value.type_of x = Value.type_of y && Value.compare x y = 0

let prop_roundtrip =
  qcheck_case ~count:300 "of_tuples |> to_tuples is the identity"
    (scenario_arb ~sloppy:true)
    (fun (schema, tuples, _) ->
      let decoded = Column.to_tuples (Column.of_tuples schema tuples) in
      Array.length decoded = Array.length tuples
      && Array.for_all2
           (fun a b ->
             Array.length a = Array.length b && Array.for_all2 value_identical a b)
           decoded tuples)

(* ------------------------------------------------------------------ *)
(* Predicate kernels                                                   *)
(* ------------------------------------------------------------------ *)

(* The row path raises [Invalid_argument] when arithmetic meets a
   string or bool; the kernel's constant-folded branches may never
   evaluate such a term.  Ill-typed arithmetic is outside the exact
   agreement contract, so those scenarios are skipped. *)
let row_filter schema tuples p =
  try Some (List.filter (Predicate.compile schema p) (Array.to_list tuples))
  with Invalid_argument _ -> None

let prop_kernel_pred =
  qcheck_case ~count:500 "kernel count/filter agree with the row path"
    (scenario_arb ~sloppy:true)
    (fun (schema, tuples, p) ->
      let r = Relation.of_array schema tuples in
      let view = Relation.columnar r in
      match row_filter schema tuples p with
      | None -> true
      | Some row_kept ->
        let idx = Kernel.filter_indices view p in
        Kernel.count view p = List.length row_kept
        && Array.length idx = List.length row_kept
        (* the kept rows are the same physical tuples, in the same order *)
        && List.for_all2
             (fun i t -> tuples.(i) == t)
             (Array.to_list idx) row_kept)

let prop_count_indices =
  qcheck_case ~count:200 "count_indices = row count over the same subset"
    (scenario_arb ~sloppy:true)
    (fun (schema, tuples, p) ->
      let n = Array.length tuples in
      let view = Column.of_tuples schema tuples in
      let keep = Predicate.compile schema p in
      (* every other row, a fixed but non-trivial subset *)
      let indices = Array.init ((n + 1) / 2) (fun i -> 2 * i) in
      match
        Array.fold_left
          (fun acc i -> if keep tuples.(i) then acc + 1 else acc)
          0 indices
      with
      | exception Invalid_argument _ -> true
      | expected -> Kernel.count ~ids:indices view p = expected)

(* The scan kernels against the row path ([Predicate.compile] on the
   tuples) and the closure [Kernel.compile] builds, row for row.  One
   column of a chosen representation: ints with and without nulls,
   floats with NaN, signed zeros and infinities, dictionary strings with
   Null, bools, and the Generic fallback.  An Attr-vs-Const comparison
   with every operator in either operand order against extreme and
   cross-type constants, or two of them under And or Between.  Up to 150
   rows, so null bitsets span several words; ids repeat. *)
let scan_gen =
  let open QCheck.Gen in
  let column =
    oneofl [ `Ints; `Ints_null; `Floats; `Dict; `Bools; `Generic ] >>= fun kind ->
    let maybe_null g = frequency [ (6, g); (1, return Value.Null) ] in
    let ints = oneofl [ min_int; max_int; min_int + 1; max_int - 1; -3; -1; 0; 1; 2; 3 ] in
    let ty, value =
      match kind with
      | `Ints -> (Value.Tint, map (fun i -> Value.Int i) ints)
      | `Ints_null -> (Value.Tint, maybe_null (map (fun i -> Value.Int i) ints))
      | `Floats ->
        ( Value.Tfloat,
          maybe_null
            (map
               (fun f -> Value.Float f)
               (oneofl
                  [ 0.; -0.; Float.nan; Float.infinity; Float.neg_infinity; 1.5; -2.25; 3. ]))
        )
      | `Dict -> (Value.Tstr, maybe_null (map (fun s -> Value.Str s) (oneofl str_pool)))
      | `Bools -> (Value.Tbool, maybe_null (map (fun b -> Value.Bool b) bool))
      | `Generic ->
        ( Value.Tint,
          oneofl [ Value.Int 1; Value.Int (-2); Value.Float 0.5; Value.Str "a"; Value.Null ] )
    in
    int_range 0 150 >>= fun rows ->
    array_size (return rows) value >|= fun column ->
    (Schema.of_list [ ("c", ty) ], Array.map (fun v -> [| v |]) column)
  in
  let const =
    oneofl
      [
        Value.Null; Value.Int min_int; Value.Int max_int; Value.Int 0; Value.Int (-1);
        Value.Int 3; Value.Float Float.nan; Value.Float 0.; Value.Float (-0.);
        Value.Float Float.infinity; Value.Float Float.neg_infinity; Value.Float 1.5;
        Value.Float 2.; Value.Str ""; Value.Str "b"; Value.Bool true; Value.Bool false;
      ]
  in
  let cmp =
    oneofl Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ] >>= fun op ->
    const >>= fun k ->
    bool >|= fun attr_first ->
    if attr_first then Predicate.Cmp (op, Attr "c", Const k)
    else Predicate.Cmp (op, Const k, Attr "c")
  in
  let pred =
    frequency
      [
        (6, cmp);
        (1, map2 (fun p q -> Predicate.And (p, q)) cmp cmp);
        (1, map2 (fun lo hi -> Predicate.Between (Attr "c", lo, hi)) const const);
      ]
  in
  column >>= fun (schema, tuples) ->
  pred >>= fun p ->
  let n = Array.length tuples in
  (if n = 0 then return [||] else array_size (int_range 0 (2 * n)) (int_range 0 (n - 1)))
  >|= fun ids -> (schema, tuples, p, ids)

let prop_scan_kernels =
  qcheck_case ~count:1000 "scan kernels = row path and compile, row for row"
    (QCheck.make
       ~print:(fun (schema, tuples, p, ids) ->
         Printf.sprintf "%s\nids %s\n%s" (Predicate.to_string p)
           (String.concat "," (Array.to_list (Array.map string_of_int ids)))
           (print_scenario (schema, tuples, p)))
       scan_gen)
    (fun (schema, tuples, p, ids) ->
      let view = Column.of_tuples schema tuples in
      let row = Predicate.compile schema p and compiled = Kernel.compile view p in
      let keep i = row tuples.(i) in
      let all = List.filter keep (List.init (Array.length tuples) Fun.id) in
      let among = List.filter keep (Array.to_list ids) in
      List.for_all (fun i -> compiled i = keep i) (List.init (Array.length tuples) Fun.id)
      && Kernel.count view p = List.length all
      && Array.to_list (Kernel.filter_indices view p) = all
      && Kernel.count ~ids view p = List.length among)

(* Predicates over large relations cross the kernel-engagement
   threshold inside [Relation.count_pred]/[filter_pred]; the public API
   must agree with the row predicate there too. *)
let test_count_pred_large () =
  let n = 3000 in
  Alcotest.(check bool) "kernels engage" true (n >= Relation.kernel_threshold);
  let schema = Schema.of_list [ ("a", Value.Tint); ("s", Value.Tstr) ] in
  let tuples =
    Array.init n (fun i ->
        [|
          (if i mod 97 = 0 then Value.Null else Value.Int (i * 7919 mod 100));
          Value.Str (List.nth str_pool (i mod List.length str_pool));
        |])
  in
  let r = Relation.of_array schema tuples in
  let open Predicate in
  let preds =
    [
      gt (attr "a") (vint 50);
      And (le (attr "a") (vint 80), eq (attr "s") (vstr "ab"));
      In (Attr "s", [ Value.Str "a"; Value.Str "z" ]);
      Between (Attr "a", Value.Int 10, Value.Int 20);
    ]
  in
  List.iteri
    (fun k p ->
      let label = Printf.sprintf "pred %d" k in
      let keep = Predicate.compile schema p in
      Alcotest.(check int) (label ^ " count") (Relation.count keep r)
        (Relation.count_pred p r);
      let rf = Relation.filter keep r in
      let cf = Relation.filter_pred p r in
      Alcotest.(check int) (label ^ " filter cardinality")
        (Relation.cardinality rf) (Relation.cardinality cf);
      Array.iteri
        (fun i t ->
          if not (Relation.tuple cf i == t) then
            Alcotest.failf "%s: filter row %d differs" label i)
        (Relation.tuples rf))
    preds

(* Unknown attributes must raise [Not_found] from the kernel exactly
   like the row compiler, even inside constant-foldable branches. *)
let test_kernel_not_found () =
  let schema = Schema.of_list [ ("a", Value.Tint) ] in
  let view = Column.of_tuples schema [| [| Value.Int 1 |] |] in
  let open Predicate in
  List.iter
    (fun p ->
      Alcotest.check_raises "unknown attribute" Not_found (fun () ->
          ignore (Kernel.count view p)))
    [
      eq (attr "zz") (vint 1);
      (* constant-false comparison still resolves its terms *)
      eq (attr "zz") (const Value.Null);
      Between (Attr "zz", Value.Int 1, Value.Null);
      In (Attr "zz", []);
    ]

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let join_gen =
  let open QCheck.Gen in
  oneofl [ `IntClean; `IntNull; `Str; `Float ] >>= fun kind ->
  let key_gen =
    let maybe_null g = frequency [ (5, g); (1, return Value.Null) ] in
    match kind with
    | `IntClean -> map (fun i -> Value.Int i) (int_range 0 4)
    | `IntNull -> maybe_null (map (fun i -> Value.Int i) (int_range 0 4))
    | `Str -> maybe_null (map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "c"; "" ]))
    | `Float -> maybe_null (map (fun f -> Value.Float f) (oneofl [ 0.; 1.; 2.5 ]))
  in
  let key_ty =
    match kind with
    | `IntClean | `IntNull -> Value.Tint
    | `Str -> Value.Tstr
    | `Float -> Value.Tfloat
  in
  let side payload =
    int_range 0 40 >>= fun rows ->
    list_size (return rows) (pair key_gen (int_range 0 1000)) >|= fun pairs ->
    Relation.of_array
      (Schema.of_list [ ("k", key_ty); (payload, Value.Tint) ])
      (Array.of_list (List.map (fun (k, v) -> [| k; Value.Int v |]) pairs))
  in
  side "lv" >>= fun l ->
  side "rv" >|= fun r -> (l, r)

let join_arb =
  QCheck.make
    ~print:(fun (l, r) ->
      Printf.sprintf "left:\n%s\nright:\n%s" (Relation.to_string l)
        (Relation.to_string r))
    join_gen

let join_catalog l r = Catalog.of_list [ ("l", l); ("r", r) ]

let join_expr = Expr.equijoin [ ("k", "k") ] (Expr.base "l") (Expr.base "r")

(* The production join of two base relations (int codes wherever the
   keys admit them, the key dictionary otherwise) against the reference
   row join. *)
let prop_join =
  qcheck_case ~count:400 "hash_equijoin columnar = row (tuples, order, counters)"
    join_arb
    (fun (l, r) ->
      let m1 = Metrics.create () and m2 = Metrics.create () in
      let a = Relation.tuples (Physical.eval ~metrics:m1 (join_catalog l r) join_expr) in
      let b = Eval.hash_equijoin ~metrics:m2 [ ("k", "k") ] l r in
      Array.length a = Array.length b
      && Array.for_all2 Tuple.equal a b
      && Metrics.counters_equal (Metrics.snapshot m1) (Metrics.snapshot m2))

let prop_join_count =
  qcheck_case ~count:300 "equijoin kernel count = Eval.count" join_arb
    (fun (l, r) ->
      let catalog = join_catalog l r in
      let m1 = Metrics.create () and m2 = Metrics.create () in
      Physical.count_expr ~metrics:m1 catalog join_expr
      = Eval.count ~metrics:m2 catalog join_expr
      && Metrics.counters_equal (Metrics.snapshot m1) (Metrics.snapshot m2))

(* ------------------------------------------------------------------ *)
(* Sample views                                                        *)
(* ------------------------------------------------------------------ *)

(* A sample of a viewed base is read in place: its source is the base
   and the drawn ids, and the kernels must decide the base's view at
   those ids as they decide an encoding of the gathered tuples, row for
   row, through [compile], [count] and [filter_indices].  A sample's own
   view, if asked for, decodes to the gathered tuples.  The scenarios
   cover every representation: ints with and without nulls, floats
   with NaN and nulls, bools, dictionaries with NULL, and the Generic
   fallback of an ill-typed [of_array] (which the base's column keeps
   even when the sampled rows are well typed). *)
let sample_arb =
  QCheck.(
    pair (scenario_arb ~sloppy:true)
      (make ~print:Print.(list int) Gen.(list_size (int_range 0 40) nat)))

let prop_sample_view =
  qcheck_case ~count:400 "sample view = encoding of the gathered tuples" sample_arb
    (fun ((schema, tuples, p), picks) ->
      let n = Array.length tuples in
      let ids =
        if n = 0 then [||] else Array.of_list (List.map (fun k -> k mod n) picks)
      in
      let base = Relation.of_array schema tuples in
      let view = Relation.columnar base in
      let sampled = Relation.sample base ids in
      let gathered = Array.map (fun i -> tuples.(i)) ids in
      let encoded = Column.of_tuples schema gathered in
      let attempt f = try Some (f ()) with Invalid_argument _ -> None in
      let decide view rows =
        let test = Kernel.compile view p in
        Array.map (fun i -> attempt (fun () -> test i)) rows
      in
      let same_rows a b =
        Array.length a = Array.length b
        && Array.for_all2
             (fun x y ->
               Array.length x = Array.length y && Array.for_all2 value_identical x y)
             a b
      in
      Array.for_all2 ( == ) (Relation.tuples sampled) gathered
      && same_rows (Column.to_tuples (Relation.columnar sampled)) gathered
      && (match Relation.source sampled with
         | source, Some at -> source == base && at = ids
         | _, None -> false)
      && decide view ids = decide encoded (Array.init (Array.length ids) Fun.id)
      && attempt (fun () -> Kernel.count ~ids view p) = attempt (fun () -> Kernel.count encoded p)
      && attempt (fun () -> Kernel.filter_indices ~ids view p)
         = attempt (fun () -> Array.map (fun k -> ids.(k)) (Kernel.filter_indices encoded p)))

(* A census draws nothing: the sample is the base itself (its tuples, in
   order), with the counters of the identity draw. *)
let test_census_sample () =
  let r = int_relation (List.init 50 (fun i -> i mod 7)) in
  let m = Metrics.create () in
  let g = rng ~seed:3 () in
  let s = Sampling.Srs.relation_without_replacement ~metrics:m g ~n:50 r in
  Alcotest.(check bool) "same relation" true (s == r);
  Alcotest.(check bool) "same tuples in order" true
    (Array.for_all2 ( == ) (Relation.tuples s) (Relation.tuples r));
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "indices" 50 snap.Metrics.sample_indices;
  Alcotest.(check int) "tuples" 50 snap.Metrics.tuples_scanned;
  Alcotest.(check int) "rng draws" 0 snap.Metrics.rng_draws;
  Alcotest.(check int) "generator untouched" 0 (Sampling.Rng.draws g);
  (* Below a census the sample is the drawn rows, in draw order. *)
  let s = Sampling.Srs.relation_without_replacement (rng ~seed:3 ()) ~n:20 r in
  let ids = Sampling.Srs.indices_without_replacement (rng ~seed:3 ()) ~n:20 ~universe:50 in
  Alcotest.(check bool) "drawn rows" true
    (Array.for_all2 ( == ) (Relation.tuples s) (Array.map (Relation.tuple r) ids))

(* ------------------------------------------------------------------ *)
(* Distinct                                                            *)
(* ------------------------------------------------------------------ *)

let reference_distinct tuples =
  let kept = ref [] in
  Array.iter
    (fun t -> if not (List.exists (Tuple.equal t) !kept) then kept := t :: !kept)
    tuples;
  List.rev !kept

let prop_distinct =
  qcheck_case ~count:200 "distinct = first occurrences under Tuple.equal"
    (scenario_arb ~sloppy:true)
    (fun (schema, tuples, _) ->
      if Array.length tuples = 0 then true
      else begin
        (* replicate rows so every scenario carries duplicates *)
        let reps = (96 / Array.length tuples) + 1 in
        let big = Array.concat (List.init reps (fun _ -> tuples)) in
        let r = Relation.of_array schema big in
        let expected = reference_distinct big in
        let got = Relation.tuples (Relation.distinct r) in
        Array.length got = List.length expected
        && List.for_all2 (fun g e -> g == e) (Array.to_list got) expected
      end)

(* ------------------------------------------------------------------ *)
(* Estimators: the kernels against the reference evaluator             *)
(* ------------------------------------------------------------------ *)

let big_catalog () =
  let n = 5000 in
  let r =
    Relation.of_array
      (Schema.of_list [ ("a", Value.Tint); ("s", Value.Tstr) ])
      (Array.init n (fun i ->
           [|
             Value.Int (i * 7919 mod 1000);
             Value.Str (List.nth str_pool (i mod List.length str_pool));
           |]))
  in
  let s =
    Relation.of_array
      (Schema.of_list [ ("b", Value.Tint) ])
      (Array.init 2000 (fun i -> [| Value.Int (i * 31 mod 1000) |]))
  in
  Catalog.of_list [ ("r", r); ("s", s) ]

let check_estimates_equal label (e1 : Stats.Estimate.t) (e2 : Stats.Estimate.t) =
  check_float (label ^ " point") e2.point e1.point;
  check_float (label ^ " variance") e2.variance e1.variance;
  Alcotest.(check int) (label ^ " sample size") e2.sample_size e1.sample_size

let check_counters_equal label m1 m2 =
  Alcotest.(check bool) (label ^ " counters") true
    (Metrics.counters_equal (Metrics.snapshot m1) (Metrics.snapshot m2))

(* The production replicated scale-up loop (split streams in replicate
   order, the parent's split draws added once), with every replicate's
   sampled expression counted by the reference evaluator.  Returns the
   replicate mean and its variance s²/g. *)
let reference_scale_up ~groups ~metrics rng catalog ~fraction expr =
  let splan = Raestat.Sampling_plan.make catalog ~fraction expr in
  let draws_before = Sampling.Rng.draws rng in
  let points =
    Raestat.Parallel.replicate_init rng groups (fun child _ ->
        let sampled, _, _ = Raestat.Sampling_plan.draw ~metrics child catalog splan in
        splan.Raestat.Sampling_plan.scale
        *. float_of_int (Eval.count ~metrics sampled splan.Raestat.Sampling_plan.expr))
  in
  Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
  let summary = Stats.Summary.of_array points in
  (Stats.Summary.mean summary, Stats.Summary.variance summary /. float_of_int groups)

let test_selection_estimator_parity () =
  let catalog = big_catalog () in
  let p = Predicate.(gt (attr "a") (vint 500)) in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let e1 = CE.selection ~metrics:m1 (rng ~seed:7 ()) catalog ~relation:"r" ~n:400 p in
  let r = Catalog.find catalog "r" in
  let sample =
    Sampling.Srs.relation_without_replacement ~metrics:m2 (rng ~seed:7 ()) ~n:400 r
  in
  let hits =
    Eval.count (Catalog.of_list [ ("s", sample) ]) (Expr.select p (Expr.base "s"))
  in
  let e2 = CE.selection_of_counts ~big_n:(Relation.cardinality r) ~n:400 ~hits in
  check_estimates_equal "selection" e1 e2;
  check_counters_equal "selection" m1 m2

let test_equijoin_estimator_parity () =
  let catalog = big_catalog () in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let e1 =
    CE.equijoin ~groups:4 ~metrics:m1 (rng ~seed:11 ()) catalog ~left:"r" ~right:"s"
      ~on:[ ("a", "b") ] ~fraction:0.1
  in
  (* The equijoin front-end splits the fraction across replicates. *)
  let point, variance =
    reference_scale_up ~groups:4 ~metrics:m2 (rng ~seed:11 ()) catalog ~fraction:0.025
      (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s"))
  in
  check_float "equijoin point" point e1.point;
  check_float "equijoin variance" variance e1.variance;
  check_counters_equal "equijoin" m1 m2

let test_estimate_expr_parity () =
  let catalog = big_catalog () in
  let e =
    Expr.select
      Predicate.(le (attr "a") (vint 700))
      (Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s"))
  in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let e1 = CE.estimate ~groups:3 ~metrics:m1 (rng ~seed:3 ()) catalog ~fraction:0.05 e in
  let point, variance =
    reference_scale_up ~groups:3 ~metrics:m2 (rng ~seed:3 ()) catalog ~fraction:0.05 e
  in
  check_float "estimate point" point e1.point;
  check_float "estimate variance" variance e1.variance;
  check_counters_equal "estimate" m1 m2

let test_exact_baseline_parity () =
  let catalog = big_catalog () in
  let exprs =
    [
      Expr.select Predicate.(gt (attr "a") (vint 250)) (Expr.base "r");
      Expr.equijoin [ ("a", "b") ] (Expr.base "r") (Expr.base "s");
    ]
  in
  List.iteri
    (fun i e ->
      Alcotest.(check int)
        (Printf.sprintf "exact %d" i)
        (Eval.count catalog e)
        (Baselines.Exact.count catalog e).count)
    exprs

(* ------------------------------------------------------------------ *)
(* Storage details                                                     *)
(* ------------------------------------------------------------------ *)

let test_column_memoized () =
  let schema = Schema.of_list [ ("a", Value.Tint) ] in
  let r = Relation.of_array schema [| [| Value.Int 1 |]; [| Value.Int 2 |] |] in
  Alcotest.(check bool) "view memoized" true (Relation.columnar r == Relation.columnar r);
  let c1 = Relation.column r "a" in
  (* Once the view exists, the memoized boxed column is shared. *)
  Alcotest.(check bool) "column shared" true (c1 == Relation.column r "a");
  Alcotest.(check bool) "column values" true
    (c1 = [| Value.Int 1; Value.Int 2 |])

let test_iter_columns () =
  let schema =
    Schema.of_list [ ("a", Value.Tint); ("b", Value.Tfloat); ("c", Value.Tint) ]
  in
  let r =
    Relation.of_array schema
      [|
        [| Value.Int 1; Value.Float 0.5; Value.Int 4 |];
        [| Value.Int 2; Value.Float 1.5; Value.Null |];
        [| Value.Int 3; Value.Float 2.5; Value.Int 6 |];
      |]
  in
  let sum = ref 0 in
  Alcotest.(check bool) "int iter runs" true
    (Relation.iter_column_int r "a" (fun v -> sum := !sum + v));
  Alcotest.(check int) "int sum" 6 !sum;
  let fsum = ref 0. in
  Alcotest.(check bool) "float iter runs" true
    (Relation.iter_column_float r "b" (fun v -> fsum := !fsum +. v));
  check_float "float sum" 4.5 !fsum;
  Alcotest.(check bool) "nullable column declines" false
    (Relation.iter_column_int r "c" (fun _ -> Alcotest.fail "called on nulls"));
  Alcotest.(check bool) "wrong type declines" false
    (Relation.iter_column_int r "b" (fun _ -> Alcotest.fail "called on floats"));
  Alcotest.check_raises "missing attribute" Not_found (fun () ->
      ignore (Relation.iter_column_int r "zz" ignore))

let test_generic_fallback () =
  let schema = Schema.of_list [ ("a", Value.Tint) ] in
  let view =
    Column.of_tuples schema [| [| Value.Int 1 |]; [| Value.Float 2.5 |] |]
  in
  (match Column.col view 0 with
  | Column.Generic vs -> Alcotest.(check int) "generic length" 2 (Array.length vs)
  | _ -> Alcotest.fail "mistyped column should encode as Generic");
  (* kernels still agree on generically-stored columns *)
  Alcotest.(check int) "kernel count over Generic" 1
    (Kernel.count view Predicate.(gt (attr "a") (vint 1)))

let test_bitset () =
  let module B = Column.Bitset in
  let positions b = B.positions ~count:(B.count b) b in
  let b = B.create 131 in
  Alcotest.(check int) "fresh popcount" 0 (B.count b);
  List.iter (B.set b) [ 0; 1; 63; 64; 65; 130 ];
  Alcotest.(check int) "popcount" 6 (B.count b);
  Alcotest.(check bool) "get set" true (B.get b 64);
  Alcotest.(check bool) "get clear" false (B.get b 2);
  Alcotest.(check int) "length" 131 (B.length b);
  Alcotest.(check (array int)) "positions" [| 0; 1; 63; 64; 65; 130 |] (positions b);
  B.clear b 64;
  B.clear b 2;
  Alcotest.(check (array int)) "cleared" [| 0; 1; 63; 65; 130 |] (positions b);
  let prefix = B.resize b 64 in
  Alcotest.(check int) "prefix length" 64 (B.length prefix);
  Alcotest.(check (array int))
    "a prefix inside a word keeps the bits below it" [| 0; 1; 63 |] (positions prefix);
  let grown = B.resize prefix 200 in
  Alcotest.(check (array int)) "growth adds clear bits" [| 0; 1; 63 |] (positions grown);
  B.set grown 199;
  Alcotest.(check (array int)) "copies are independent" [| 0; 1; 63; 65; 130 |]
    (positions b);
  Alcotest.(check (array int)) "a prefix at a word boundary" [| 0; 1 |]
    (positions (B.resize b 63));
  (* Sparse words holding only their sign bit (bit 62): the peeled
     lowest bit is [min_int]. *)
  let signs = B.create 130 in
  B.set signs 62;
  B.set signs 125;
  Alcotest.(check (array int)) "sign bits alone" [| 62; 125 |] (positions signs);
  (* A full word, sign bit included. *)
  let full = B.create 70 in
  for i = 0 to 62 do
    B.set full i
  done;
  Alcotest.(check int) "full word count" 63 (B.count full);
  Alcotest.(check (array int))
    "full word positions" (Array.init 63 Fun.id) (positions full);
  (* test_and_set returns the old bit and sets it: the first bit, the
     sign bit and the first bit of the second word. *)
  let marks = B.create 130 in
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "bit %d was clear" i) false (B.test_and_set marks i);
      Alcotest.(check bool) (Printf.sprintf "bit %d is set" i) true (B.get marks i);
      Alcotest.(check bool) (Printf.sprintf "bit %d was set" i) true (B.test_and_set marks i))
    [ 0; 62; 63 ];
  Alcotest.(check (array int)) "only those bits" [| 0; 62; 63 |] (positions marks)

(* Every bit position in the first words, so each word's sign bit
   (bit [Sys.int_size - 1]) is exercised. *)
let prop_bitset =
  qcheck_case ~count:500 "bitset positions, count and resize = a bit-by-bit scan"
    QCheck.(
      triple (int_range 0 300) (int_range 0 320)
        (list_of_size (QCheck.Gen.int_range 0 200) (int_range 0 299)))
    (fun (length, cut, bits) ->
      let module B = Column.Bitset in
      let b = B.create length in
      List.iter (fun i -> if i < length then B.set b i) bits;
      let scan b = List.filter (B.get b) (List.init (B.length b) Fun.id) in
      let positions b = B.positions ~count:(B.count b) b in
      let resized = B.resize b cut in
      Array.to_list (positions b) = scan b
      && B.count b = List.length (scan b)
      && B.length resized = cut
      && Array.to_list (positions resized) = List.filter (fun i -> i < cut) (scan b))

let suite =
  [
    prop_roundtrip;
    prop_kernel_pred;
    prop_count_indices;
    prop_scan_kernels;
    Alcotest.test_case "count_pred/filter_pred over large relations" `Quick
      test_count_pred_large;
    Alcotest.test_case "kernel raises Not_found like the row compiler" `Quick
      test_kernel_not_found;
    prop_join;
    prop_join_count;
    prop_sample_view;
    Alcotest.test_case "SRSWOR census is the base" `Quick test_census_sample;
    prop_distinct;
    Alcotest.test_case "selection estimator parity" `Quick
      test_selection_estimator_parity;
    Alcotest.test_case "equijoin estimator parity" `Quick
      test_equijoin_estimator_parity;
    Alcotest.test_case "scale-up estimate parity" `Quick test_estimate_expr_parity;
    Alcotest.test_case "exact baseline parity" `Quick test_exact_baseline_parity;
    Alcotest.test_case "column memoization" `Quick test_column_memoized;
    Alcotest.test_case "allocation-free column iteration" `Quick test_iter_columns;
    Alcotest.test_case "Generic fallback on mistyped columns" `Quick
      test_generic_fallback;
    Alcotest.test_case "bitset" `Quick test_bitset;
    prop_bitset;
  ]
