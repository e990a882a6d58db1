open Helpers
module Physical = Relational.Physical
module P = Predicate

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
        (same_relation (Eval.eval c e) (Physical.eval c e)))
    expressions

let test_count_matches () =
  let c = catalog () in
  List.iter
    (fun e ->
      Alcotest.(check int) (Expr.to_string e) (Eval.count c e) (Physical.count_expr c e))
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

let prop_engines_agree =
  qcheck_case ~count:60 "engines agree on random set-op inputs"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 12) (int_range 0 4))
              (list_of_size (QCheck.Gen.int_range 0 12) (int_range 0 4)))
    (fun (xs, ys) ->
      let c = Catalog.of_list [ ("x", int_relation xs); ("y", int_relation ys) ] in
      List.for_all
        (fun e ->
          same_relation (Eval.eval c e) (Physical.eval c e)
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
   tuple: through the kernel at and above [kernel_threshold], through
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
  (* An unknown attribute raises the schema error, not the predicate
     compiler's Not_found. *)
  let c = Catalog.of_list [ ("r", int_relation [ 1 ]) ] in
  let e = Expr.select (P.eq (P.attr "zz") (P.vint 1)) (Expr.base "r") in
  Alcotest.check_raises "unknown attribute"
    (Failure "Expr.schema_of: unknown attribute \"zz\" in selection")
    (fun () -> ignore (Physical.count_expr c e))

(* ------------------------------------------------------------------ *)
(* Counting on row ids                                                 *)
(* ------------------------------------------------------------------ *)

(* [count_expr] and [eval] compile every operator to row ids; they must
   equal the reference count and relation (schema, tuples and order) and
   record the same probe hits and misses.  Random catalogs mix int
   columns with and without nulls, string and float columns (some
   floats integer-valued, so mixed int/float keys match) and empty
   relations; random trees mix left-deep and bushy equijoins on one or
   two attribute pairs of every type, products and θ-joins, single- and
   multi-leaf selections, duplicate elimination, the set operations and
   aggregates, self-joins with their qualified names, and root renames
   and projections. *)

module Metrics = Obs.Metrics

let column_pool =
  [|
    ("k", Value.Tint, false);
    ("j", Value.Tint, false);
    ("n", Value.Tint, true);
    ("s", Value.Tstr, true);
    ("f", Value.Tfloat, true);
  |]

let random_value st ty ~nullable =
  if nullable && Random.State.int st 5 = 0 then Value.Null
  else
    match (ty : Value.ty) with
    | Value.Tint -> Value.Int (Random.State.int st 4)
    | Value.Tstr -> Value.Str (List.nth [ "x"; "y"; "z" ] (Random.State.int st 3))
    | Value.Tfloat -> Value.Float (List.nth [ 0.5; 1.; 1.5; 2.; 2.5 ] (Random.State.int st 5))
    | Value.Tbool -> Value.Bool (Random.State.bool st)
    | Value.Tnull -> Value.Null

let random_relation st =
  let columns =
    match List.filter (fun _ -> Random.State.bool st) (Array.to_list column_pool) with
    | [] -> [ column_pool.(Random.State.int st (Array.length column_pool)) ]
    | cs -> cs
  in
  let card = if Random.State.int st 6 = 0 then 0 else Random.State.int st 12 in
  let schema = Schema.of_list (List.map (fun (name, ty, _) -> (name, ty)) columns) in
  let tuples =
    Array.init card (fun _ ->
        Array.of_list
          (List.map (fun (_, ty, nullable) -> random_value st ty ~nullable) columns))
  in
  Relation.of_array schema tuples

let pick st l = List.nth l (Random.State.int st (List.length l))

let random_attr st schema = pick st (Schema.attributes schema)

let random_predicate st schema =
  let cmp = pick st [ P.Eq; P.Neq; P.Lt; P.Le; P.Gt; P.Ge ] in
  let one () =
    let a = random_attr st schema in
    if Random.State.int st 3 = 0 then
      (* Possibly two leaves: tests the gathered tuple. *)
      P.Cmp (cmp, P.Attr a.Schema.name, P.Attr (random_attr st schema).Schema.name)
    else
      P.Cmp
        (cmp, P.Attr a.Schema.name, P.Const (random_value st a.Schema.ty ~nullable:false))
  in
  if Random.State.int st 4 = 0 then P.And (one (), one ()) else one ()

(* A valid tree over [names], or [None] when Schema.concat's
   qualification would repeat a name or set operands do not match. *)
let rec random_tree st catalog names depth =
  let valid e =
    match Expr.schema_of catalog e with
    | schema -> Some (e, schema)
    | exception (Failure _ | Invalid_argument _) -> None
  in
  let sub () = random_tree st catalog names (depth - 1) in
  (* An attribute of [sr], of [a]'s type when there is one and most of
     the time: more matches. *)
  let partner a sr =
    let same = List.filter (fun b -> b.Schema.ty = a.Schema.ty) (Schema.attributes sr) in
    if same <> [] && Random.State.int st 4 > 0 then pick st same else random_attr st sr
  in
  match if depth = 0 then 0 else Random.State.int st 10 with
  | 0 -> valid (Expr.base (pick st names))
  | 1 ->
    Option.bind (sub ()) (fun (e, schema) -> valid (Expr.select (random_predicate st schema) e))
  | 2 ->
    Option.bind (sub ()) (fun (e, schema) ->
        let a = random_attr st schema in
        match Random.State.int st 3 with
        | 0 -> valid (Expr.distinct e)
        | 1 -> valid (Expr.project_distinct [ a.Schema.name ] e)
        | _ -> (
          let numeric =
            List.filter
              (fun b -> b.Schema.ty = Value.Tint || b.Schema.ty = Value.Tfloat)
              (Schema.attributes schema)
          in
          match numeric with
          | b :: _ when Random.State.bool st ->
            valid
              (Expr.aggregate ~by:[ a.Schema.name ]
                 [ (Expr.Sum b.Schema.name, "total"); (Expr.Count, "count") ]
                 e)
          | _ -> valid (Expr.group_count ~by:[ a.Schema.name ] e)))
  | 3 ->
    Option.bind (sub ()) (fun (l, sl) ->
        Option.bind (sub ()) (fun (r, sr) ->
            let op = pick st [ Expr.union; Expr.inter; Expr.diff ] in
            if Schema.compatible sl sr then valid (op l r)
            else
              let a = random_attr st sl in
              let b = partner a sr in
              valid (op (Expr.project [ a.Schema.name ] l) (Expr.project [ b.Schema.name ] r))))
  | _ ->
    Option.bind (sub ()) (fun (l, sl) ->
        Option.bind (sub ()) (fun (r, sr) ->
            let a = random_attr st sl in
            let b = partner a sr in
            match Random.State.int st 6 with
            | 0 -> valid (Expr.product l r)
            | 1 -> (
              (* An attribute of each side, by position in the joined
                 schema, which qualifies clashing names. *)
              match Expr.schema_of catalog (Expr.product l r) with
              | joined ->
                let name i = P.Attr (Schema.attribute joined i).Schema.name in
                let cmp = pick st [ P.Eq; P.Neq; P.Lt; P.Le; P.Gt; P.Ge ] in
                let i = Random.State.int st (Schema.arity sl) in
                let j = Schema.arity sl + Random.State.int st (Schema.arity sr) in
                valid (Expr.theta_join (P.Cmp (cmp, name i, name j)) l r)
              | exception (Failure _ | Invalid_argument _) -> None)
            | 2 ->
              let c = random_attr st sl in
              let d = partner c sr in
              valid
                (Expr.equijoin
                   [ (a.Schema.name, b.Schema.name); (c.Schema.name, d.Schema.name) ]
                   l r)
            | _ -> valid (Expr.equijoin [ (a.Schema.name, b.Schema.name) ] l r)))

let random_root st (e, schema) =
  match Random.State.int st 4 with
  | 0 -> Expr.rename [ ((random_attr st schema).Schema.name, "renamed") ] e
  | 1 ->
    let names =
      List.filter (fun _ -> Random.State.bool st) (Schema.names schema)
    in
    Expr.project (if names = [] then [ List.hd (Schema.names schema) ] else names) e
  | _ -> e

(* At most four leaves keep the reference's materialized joins small. *)
let count_case_gen st =
  let names = [ "r0"; "r1"; "r2" ] in
  let catalog = Catalog.of_list (List.map (fun n -> (n, random_relation st)) names) in
  let rec tree () =
    match random_tree st catalog names 3 with
    | Some ((e, _) as t) when List.length (Expr.leaves e) <= 4 -> t
    | Some _ | None -> tree ()
  in
  (catalog, random_root st (tree ()), Random.State.bits st)

let print_count_case (catalog, e, seed) =
  Printf.sprintf "%s (sample seed %d)\n%s" (Expr.to_string e) seed
    (String.concat "\n"
       (List.map
          (fun n -> n ^ ": " ^ Relation.to_string (Catalog.find catalog n))
          (Catalog.names catalog)))

let counts_agree catalog e =
  let m1 = Metrics.create () and m2 = Metrics.create () in
  Physical.count_expr ~metrics:m1 catalog e = Eval.count ~metrics:m2 catalog e
  && Metrics.counters_equal (Metrics.snapshot m1) (Metrics.snapshot m2)

let relations_agree catalog e =
  let m1 = Metrics.create () and m2 = Metrics.create () in
  same_relation (Physical.eval ~metrics:m1 catalog e) (Eval.eval ~metrics:m2 catalog e)
  && Metrics.counters_equal (Metrics.snapshot m1) (Metrics.snapshot m2)

let agrees catalog e = counts_agree catalog e && relations_agree catalog e

(* One sample per relation, all drawn from fresh copies of the plain
   relations: with [viewed], each copy's view is forced first, so the
   samples are read in place on it, at their row ids of the copy;
   without, they are read as relations of their own.  One copy in two
   is padded past the kernel threshold with repeats of its rows, so
   that selections over samples of a viewed copy run the scan kernels
   through the row ids, and one sample in three is a sample of a
   sample.  Each sample holds at most twice the relation's rows.  The
   same seed draws the same rows either way. *)
let sample_catalog ~viewed ~seed catalog =
  let rng = Sampling.Rng.create ~seed () in
  let draw ~card r =
    let size = min card (Relation.cardinality r) in
    if size > 0 && Sampling.Rng.int rng 3 = 0 then
      Sampling.Srs.relation_with_replacement rng ~n:(Sampling.Rng.int rng (2 * size)) r
    else Sampling.Srs.relation_without_replacement rng ~n:(Sampling.Rng.int rng (size + 1)) r
  in
  Catalog.of_list
    (List.map
       (fun name ->
         let r = Catalog.find catalog name in
         let tuples = Relation.tuples r in
         let card = Array.length tuples in
         let rows =
           if card > 0 && Sampling.Rng.int rng 2 = 0 then
             Array.init (Relation.kernel_threshold + card) (fun i -> tuples.(i mod card))
           else tuples
         in
         let copy = Relation.of_array (Relation.schema r) rows in
         if viewed then ignore (Relation.columnar copy);
         let sample = draw ~card copy in
         let sample = if Sampling.Rng.int rng 3 = 0 then draw ~card sample else sample in
         (name, sample))
       (Catalog.names catalog))

let prop_engine =
  qcheck_case ~count:500 "count_expr/eval = Eval with equal probes on every operator"
    (QCheck.make ~print:print_count_case count_case_gen)
    (fun (catalog, e, seed) ->
      agrees (sample_catalog ~viewed:true ~seed catalog) e
      && agrees (sample_catalog ~viewed:false ~seed catalog) e
      && agrees catalog e)

(* The same agreement above the kernel threshold, where selections
   compile to column kernels, on shapes the estimators evaluate: fk
   join, select-join-select, a 3-way chain, a bushy join, a self-join
   with a selection on a qualified name. *)
let test_columnar_count_large () =
  let n = 3000 in
  let orders =
    Relation.of_array
      (Schema.of_list
         [ ("o_key", Value.Tint); ("o_supp", Value.Tint); ("o_tag", Value.Tstr) ])
      (Array.init n (fun i ->
           let tag = if i mod 3 = 0 then "a" else "b" in
           [| Value.Int i; Value.Int (i * 7 mod 50); Value.Str tag |]))
  in
  let suppliers =
    Relation.of_array
      (Schema.of_list
         [ ("s_key", Value.Tint); ("s_region", Value.Tint); ("s_tag", Value.Tstr) ])
      (Array.init 1100 (fun i ->
           let tag = if i mod 2 = 0 then "a" else "c" in
           [| Value.Int (i mod 60); Value.Int (i mod 5); Value.Str tag |]))
  in
  let catalog = Catalog.of_list [ ("orders", orders); ("suppliers", suppliers) ] in
  let fk = Expr.equijoin [ ("o_supp", "s_key") ] (Expr.base "orders") (Expr.base "suppliers") in
  let exprs =
    [
      fk;
      Expr.equijoin [ ("o_supp", "s_key") ]
        (Expr.select (P.lt (P.attr "o_key") (P.vint 1200)) (Expr.base "orders"))
        (Expr.select (P.eq (P.attr "s_region") (P.vint 2)) (Expr.base "suppliers"));
      Expr.equijoin [ ("s_region", "o_supp") ] fk (Expr.base "orders");
      Expr.equijoin [ ("o_tag", "s_tag") ]
        (Expr.select (P.ge (P.attr "o_key") (P.vint 2900)) (Expr.base "orders"))
        (Expr.select (P.lt (P.attr "s_key") (P.vint 3)) (Expr.base "suppliers"));
      Expr.equijoin [ ("l.o_key", "r.o_key") ]
        (Expr.equijoin [ ("o_key", "o_key") ] (Expr.base "orders") (Expr.base "orders"))
        (Expr.select (P.lt (P.attr "r.o_supp") (P.vint 10))
           (Expr.equijoin [ ("o_key", "o_key") ] (Expr.base "orders") (Expr.base "orders")));
      Expr.select (P.lt (P.attr "l.o_supp") (P.vint 5))
        (Expr.equijoin [ ("o_supp", "o_supp") ] (Expr.base "orders") (Expr.base "orders"));
      Expr.project [ "s_region" ] (Expr.select (P.neq (P.attr "o_tag") (P.vstr "a")) fk);
    ]
  in
  List.iter
    (fun (label, c) ->
      List.iter
        (fun e -> Alcotest.(check bool) (label ^ " " ^ Expr.to_string e) true (counts_agree c e))
        exprs)
    [
      ("sampled+viewed", sample_catalog ~viewed:true ~seed:5 catalog);
      ("sampled", sample_catalog ~viewed:false ~seed:5 catalog);
      ("plain", catalog);
    ]

(* A root join probing from a leaf's selection vector: two stacked
   selections on a relation above the kernel threshold narrow one vector,
   and the probes it makes (hits and misses, added to the sink at once)
   are the row engine's.  Of every 100 fact rows, 60 pass
   [10 <= a < 70]; their keys [i mod 50] are 10..49 and 0..19, and the
   dimension holds 0..39, so 50 hit once and 10 miss. *)
let test_vector_probe () =
  let fact =
    Relation.of_array
      (Schema.of_list [ ("k", Value.Tint); ("a", Value.Tint) ])
      (Array.init 3000 (fun i -> [| Value.Int (i mod 50); Value.Int (i mod 100) |]))
  in
  Alcotest.(check bool) "above the kernel threshold" true
    (Relation.cardinality fact >= Relation.kernel_threshold);
  let catalog =
    Catalog.of_list [ ("fact", fact); ("dim", int_relation ~attribute:"d" (List.init 40 Fun.id)) ]
  in
  let e =
    Expr.equijoin [ ("k", "d") ]
      (Expr.select (P.lt (P.attr "a") (P.vint 70))
         (Expr.select (P.ge (P.attr "a") (P.vint 10)) (Expr.base "fact")))
      (Expr.base "dim")
  in
  let metrics = Metrics.create () in
  Alcotest.(check int) "count" 1500 (Physical.count_expr ~metrics catalog e);
  let snap = Metrics.snapshot metrics in
  Alcotest.(check (pair int int)) "hits and misses" (1500, 300)
    (snap.Metrics.hash_probe_hits, snap.Metrics.hash_probe_misses);
  Alcotest.(check bool) "row engine agrees" true (counts_agree catalog e)

(* ------------------------------------------------------------------ *)
(* The key table's representations                                     *)
(* ------------------------------------------------------------------ *)

(* Joins whose key codes force each representation of the key table
   ([Kernel.Key_table]):
   - [Small]: a dense array over a small range with negative keys;
   - [Boundary]: keys in [-3, 3] plus -2600 and 2600 on the right, a
     span of 5,201, with 600-700 right rows: dense from 651 build rows
     ([8 × rows >= 5201]), open addressing below;
   - [Wide]: keys × 2^40, open addressing;
   - [Extreme]: [min_int] with [max_int], where [hi - lo] overflows;
   - [Dict]: string keys with Null (code -1) and strings the right side
     lacks (code -2);
   - [Two]: a two-attribute key, coded through the join's [Key_dict].
   Each case counts a root join (with and without selections) and a
   join under a join, on either side of the outer join, on the plain
   relations and on samples read in place, against [Eval], probe hits
   and misses included, and checks [Planner.join_moments] against sums
   over a hash table of the passing key tuples. *)

type key_kind =
  | Small
  | Boundary
  | Wide
  | Extreme
  | Dict
  | Two

let key_kinds = [ Small; Boundary; Wide; Extreme; Dict; Two ]

let key_kind_name = function
  | Small -> "small"
  | Boundary -> "boundary"
  | Wide -> "wide"
  | Extreme -> "extreme"
  | Dict -> "dict"
  | Two -> "two"

let key_value st kind ~right =
  match kind with
  | Small | Two -> Value.Int (Random.State.int st 13 - 6)
  | Boundary -> Value.Int (Random.State.int st 7 - 3)
  | Wide -> Value.Int ((Random.State.int st 9 - 4) * (1 lsl 40))
  | Extreme -> Value.Int (pick st [ min_int; min_int + 1; -1; 0; max_int - 1; max_int ])
  | Dict ->
    if Random.State.int st 5 = 0 then Value.Null
    else Value.Str (pick st (if right then [ "a"; "b"; "c" ] else [ "a"; "b"; "c"; "left only" ]))

(* A relation of [rows] rows over [key] and an int payload [payload]
   in [0, 3]; a [Boundary] right side starts with its two extremes. *)
let key_relation st kind ~right ~rows (key, payload) =
  let ty = if kind = Dict then Value.Tstr else Value.Tint in
  Relation.of_array
    (Schema.of_list [ (key, ty); (payload, Value.Tint) ])
    (Array.init rows (fun i ->
         let k =
           match kind, i with
           | Boundary, 0 when right -> Value.Int (-2600)
           | Boundary, 1 when right -> Value.Int 2600
           | _ -> key_value st kind ~right
         in
         [| k; Value.Int (Random.State.int st 4) |]))

let key_case_gen st =
  let kind = pick st key_kinds in
  let right_rows =
    if kind = Boundary then 600 + Random.State.int st 101 else Random.State.int st 40
  in
  let l = key_relation st kind ~right:false ~rows:(Random.State.int st 40) ("k", "x") in
  let r = key_relation st kind ~right:true ~rows:right_rows ("k2", "y") in
  let m = key_relation st kind ~right:true ~rows:(Random.State.int st 12) ("k3", "z") in
  let catalog = Catalog.of_list [ ("l", l); ("m", m); ("r", r) ] in
  (kind, catalog, Random.State.int st 4, Random.State.bits st)

let print_key_case (kind, catalog, c, seed) =
  Printf.sprintf "%s, constant %d (sample seed %d)\n%s" (key_kind_name kind) c seed
    (String.concat "\n"
       (List.map
          (fun n -> n ^ ": " ^ Relation.to_string (Catalog.find catalog n))
          (Catalog.names catalog)))

module Tuple_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* J, SS_left and SS_right of [l ⋈ r] from the tuples each side passes,
   in ints: the key tuples' multiplicities in a hash table. *)
let reference_moments catalog pairs l r =
  let counts e attrs =
    let relation = Eval.eval catalog e in
    let key = Array.of_list (List.map (Schema.index_of (Relation.schema relation)) attrs) in
    let table = Tuple_table.create 16 in
    Relation.iter
      (fun t ->
        let k = Tuple.project t key in
        Tuple_table.replace table k (1 + Option.value (Tuple_table.find_opt table k) ~default:0))
      relation;
    table
  in
  let cl = counts l (List.map fst pairs) and cr = counts r (List.map snd pairs) in
  let j = ref 0 and ss_l = ref 0 and ss_r = ref 0 in
  Tuple_table.iter
    (fun key m ->
      match Tuple_table.find_opt cr key with
      | Some n ->
        j := !j + (m * n);
        ss_l := !ss_l + (m * n * n);
        ss_r := !ss_r + (n * m * m)
      | None -> ())
    cl;
  (float_of_int !j, float_of_int !ss_l, float_of_int !ss_r)

let prop_key_table =
  qcheck_case ~count:300 "joins agree with Eval on every key table representation"
    (QCheck.make ~print:print_key_case key_case_gen)
    (fun (kind, catalog, c, seed) ->
      let pairs = if kind = Two then [ ("k", "k2"); ("x", "y") ] else [ ("k", "k2") ] in
      let l = Expr.base "l" and r = Expr.base "r" in
      let sl = Expr.select (P.lt (P.attr "x") (P.vint c)) l
      and sr = Expr.select (P.ge (P.attr "y") (P.vint c)) r in
      let inner = Expr.equijoin pairs l r in
      let exprs =
        [
          inner;
          Expr.equijoin pairs sl sr;
          Expr.equijoin [ ("k2", "k3") ] inner (Expr.base "m");
          Expr.equijoin [ ("k3", "k") ] (Expr.base "m") (Expr.equijoin pairs sl r);
        ]
      in
      let moments_agree catalog =
        List.for_all
          (fun (l, r) ->
            Raestat.Planner.join_moments catalog (Expr.equijoin pairs l r)
            = Some (reference_moments catalog pairs l r))
          [ (l, r); (sl, sr) ]
      in
      List.for_all
        (fun catalog -> List.for_all (agrees catalog) exprs && moments_agree catalog)
        [
          catalog;
          sample_catalog ~viewed:true ~seed catalog;
          sample_catalog ~viewed:false ~seed catalog;
        ])

(* Counts whose selection buffers and key tables come from the pool,
   over samples of [pool_catalog] read in place: repeated in one
   domain, after the other shapes have left their arrays in the pool,
   dirty, each gives the count and counters of a run on a fresh domain
   over a cold pool, and the samples' ids (read by the scans, never
   handed to the pool) come out as they went in. *)
let test_pool_reuse () =
  let base = Lazy.force pool_catalog in
  let g = rng ~seed:77 () in
  let sample name n =
    let r = Catalog.find base name in
    let ids = Sampling.Srs.indices_without_replacement g ~n ~universe:(Relation.cardinality r) in
    (name, Relation.sample r ids, ids)
  in
  let samples =
    [ sample "r" 1_000; sample "s" 600; sample "t" 400; sample "w" 1_000 ]
    @ [ (let _, r2, ids = sample "r" 1_000 in ("r2", r2, ids)) ]
  in
  let kept = List.map (fun (_, _, ids) -> Array.copy ids) samples in
  let catalog = Catalog.of_list (List.map (fun (name, r, _) -> (name, r)) samples) in
  let lt a k = P.lt (P.attr a) (P.vint k) in
  let shapes =
    [
      (* a self-join of two same-size samples, a selection on each side *)
      Expr.equijoin [ ("a", "a2") ]
        (Expr.select (lt "b" 50) (Expr.base "r"))
        (Expr.select (lt "b2" 70) (Expr.rename [ ("a", "a2"); ("b", "b2") ] (Expr.base "r2")));
      (* a join under a join *)
      Expr.equijoin [ ("d", "e") ]
        (Expr.equijoin [ ("a", "c") ] (Expr.select (lt "b" 60) (Expr.base "r")) (Expr.base "s"))
        (Expr.select (lt "f" 30) (Expr.base "t"));
      (* open-addressing keys *)
      Expr.equijoin [ ("a", "g") ] (Expr.select (lt "b" 80) (Expr.base "r")) (Expr.base "w");
    ]
  in
  let run e () =
    let m = Obs.Metrics.create () in
    let count = Physical.count_expr ~metrics:m catalog e in
    (count, Obs.Metrics.counters (Obs.Metrics.snapshot m))
  in
  let cold = List.map (fun e -> cold_run (run e)) shapes in
  for _ = 1 to 3 do
    List.iter2
      (fun e expected -> Alcotest.(check bool) (Expr.to_string e) true (run e () = expected))
      shapes cold
  done;
  List.iter2
    (fun (name, _, ids) copy -> Alcotest.(check bool) (name ^ " ids") true (ids = copy))
    samples kept

let suite =
  [
    Alcotest.test_case "agrees with Eval" `Quick test_agrees_with_eval;
    Alcotest.test_case "counts match" `Quick test_count_matches;
    Alcotest.test_case "streaming product is lazy" `Quick test_streaming_product_is_lazy;
    prop_engines_agree;
    Alcotest.test_case "select count fast path" `Quick test_select_count_fast_path;
    prop_engine;
    Alcotest.test_case "columnar count above the kernel threshold" `Quick
      test_columnar_count_large;
    Alcotest.test_case "root join probes a stacked selection vector" `Quick
      test_vector_probe;
    prop_key_table;
    Alcotest.test_case "pooled arrays reused" `Quick test_pool_reuse;
  ]
