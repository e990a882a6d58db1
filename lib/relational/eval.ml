module Tuple_hash = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let project_relation names relation =
  let schema = Relation.schema relation in
  let indices =
    Array.of_list (List.map (fun name -> Schema.index_of schema name) names)
  in
  let out_schema = Schema.project schema names in
  Relation.map out_schema (fun t -> Tuple.project t indices) relation

let product_like ~keep l r =
  let out = ref [] in
  Relation.iter
    (fun tl ->
      Relation.iter
        (fun tr ->
          let t = Tuple.concat tl tr in
          if keep t then out := t :: !out)
        r)
    l;
  Array.of_list (List.rev !out)

(* Hash join: build on the right side, probe with the left, preserving
   left-major output order like the nested-loop variants.  [metrics]
   records per-probe hit/miss counts. *)
let hash_equijoin ?(metrics = Obs.Metrics.noop) pairs l r =
  let sl = Relation.schema l and sr = Relation.schema r in
  let left_idx =
    Array.of_list (List.map (fun (a, _) -> Schema.index_of sl a) pairs)
  in
  let right_idx =
    Array.of_list (List.map (fun (_, b) -> Schema.index_of sr b) pairs)
  in
  let table = Tuple_hash.create (max 16 (Relation.cardinality r)) in
  Relation.iter
    (fun tr ->
      let key = Tuple.project tr right_idx in
      let bucket = try Tuple_hash.find table key with Not_found -> [] in
      Tuple_hash.replace table key (tr :: bucket))
    r;
  (* Buckets accumulate reversed; restore build order once here rather
     than rev-ing on every probe. *)
  Tuple_hash.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) table;
  let out = ref [] in
  Relation.iter
    (fun tl ->
      let key = Tuple.project tl left_idx in
      match Tuple_hash.find_opt table key with
      | None -> Obs.Metrics.probe_miss metrics
      | Some bucket ->
        Obs.Metrics.probe_hit metrics;
        List.iter (fun tr -> out := Tuple.concat tl tr :: !out) bucket)
    l;
  Array.of_list (List.rev !out)

let hash_of_relation relation =
  let table = Tuple_hash.create (max 16 (Relation.cardinality relation)) in
  Relation.iter (fun t -> Tuple_hash.replace table t ()) relation;
  table

let rec eval ?(metrics = Obs.Metrics.noop) catalog expr =
  let eval catalog expr = eval ~metrics catalog expr in
  let out_schema = Expr.schema_of catalog expr in
  match expr with
  | Expr.Base name -> Catalog.find catalog name
  | Expr.Select (p, e) ->
    let relation = eval catalog e in
    Relation.filter (Predicate.compile (Relation.schema relation) p) relation
  | Expr.Project (names, e) -> project_relation names (eval catalog e)
  | Expr.Distinct e -> Relation.distinct (eval catalog e)
  | Expr.Product (l, r) ->
    let rl = eval catalog l and rr = eval catalog r in
    Relation.of_array out_schema (product_like ~keep:(fun _ -> true) rl rr)
  | Expr.Equijoin (pairs, l, r) ->
    let rl = eval catalog l and rr = eval catalog r in
    Relation.of_array out_schema (hash_equijoin ~metrics pairs rl rr)
  | Expr.Theta_join (p, l, r) ->
    let rl = eval catalog l and rr = eval catalog r in
    let keep = Predicate.compile out_schema p in
    Relation.of_array out_schema (product_like ~keep rl rr)
  | Expr.Union (l, r) ->
    let rl = eval catalog l and rr = eval catalog r in
    (* Retag the right side with the left schema (operands are
       union-compatible, names may differ). *)
    let rr = Relation.of_array (Relation.schema rl) (Relation.tuples rr) in
    Relation.distinct (Relation.append rl rr)
  | Expr.Inter (l, r) ->
    let rl = Relation.distinct (eval catalog l) in
    let table = hash_of_relation (eval catalog r) in
    Relation.filter (fun t -> Tuple_hash.mem table t) rl
  | Expr.Diff (l, r) ->
    let rl = Relation.distinct (eval catalog l) in
    let table = hash_of_relation (eval catalog r) in
    Relation.filter (fun t -> not (Tuple_hash.mem table t)) rl
  | Expr.Rename (_, e) ->
    let relation = eval catalog e in
    Relation.of_array out_schema (Relation.tuples relation)
  | Expr.Aggregate (by, specs, e) ->
    let input = eval catalog e in
    let rows =
      Aggregate_impl.run ~input_schema:(Relation.schema input) ~by ~specs
        (Array.to_seq (Relation.tuples input))
    in
    Relation.of_array out_schema (Array.of_list rows)

let count ?metrics catalog expr = Relation.cardinality (eval ?metrics catalog expr)
