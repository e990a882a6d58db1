type agg =
  | Count
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

type t =
  | Base of string
  | Select of Predicate.t * t
  | Project of string list * t
  | Distinct of t
  | Product of t * t
  | Equijoin of (string * string) list * t * t
  | Theta_join of Predicate.t * t * t
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Rename of (string * string) list * t
  | Aggregate of string list * (agg * string) list * t

let base name = Base name
let select p e = Select (p, e)
let project names e = Project (names, e)
let project_distinct names e = Distinct (Project (names, e))
let distinct e = Distinct e
let product l r = Product (l, r)
let equijoin pairs l r = Equijoin (pairs, l, r)
let theta_join p l r = Theta_join (p, l, r)
let union l r = Union (l, r)
let inter l r = Inter (l, r)
let diff l r = Diff (l, r)
let rename pairs e = Rename (pairs, e)
let aggregate ~by specs e = Aggregate (by, specs, e)
let group_count ~by e = Aggregate (by, [ (Count, "count") ], e)

let check_selection schema p =
  List.iter
    (fun a ->
      if not (Schema.mem schema a) then
        failwith (Printf.sprintf "Expr.schema_of: unknown attribute %S in selection" a))
    (Predicate.attributes p)

let rec schema_of catalog = function
  | Base name -> Relation.schema (Catalog.find catalog name)
  | Select (p, e) ->
    let schema = schema_of catalog e in
    check_selection schema p;
    schema
  | Project (names, e) | Distinct (Project (names, e)) ->
    let schema = schema_of catalog e in
    (try Schema.project schema names
     with Not_found ->
       failwith
         (Printf.sprintf "Expr.schema_of: projection attribute missing from %s"
            (Schema.to_string schema)))
  | Distinct e -> schema_of catalog e
  | Product (l, r) -> Schema.concat (schema_of catalog l) (schema_of catalog r)
  | Equijoin (pairs, l, r) ->
    let sl = schema_of catalog l and sr = schema_of catalog r in
    List.iter
      (fun (a, b) ->
        if not (Schema.mem sl a) then
          failwith (Printf.sprintf "Expr.schema_of: join attribute %S missing on the left" a);
        if not (Schema.mem sr b) then
          failwith (Printf.sprintf "Expr.schema_of: join attribute %S missing on the right" b))
      pairs;
    Schema.concat sl sr
  | Theta_join (p, l, r) ->
    let schema = Schema.concat (schema_of catalog l) (schema_of catalog r) in
    List.iter
      (fun a ->
        if not (Schema.mem schema a) then
          failwith (Printf.sprintf "Expr.schema_of: unknown attribute %S in θ-join" a))
      (Predicate.attributes p);
    schema
  | Union (l, r) | Inter (l, r) | Diff (l, r) ->
    let sl = schema_of catalog l and sr = schema_of catalog r in
    if not (Schema.compatible sl sr) then
      failwith
        (Printf.sprintf "Expr.schema_of: incompatible operands %s vs %s"
           (Schema.to_string sl) (Schema.to_string sr));
    sl
  | Rename (pairs, e) ->
    (try Schema.rename (schema_of catalog e) pairs
     with Not_found -> failwith "Expr.schema_of: rename of a missing attribute")
  | Aggregate (by, specs, e) ->
    let input = schema_of catalog e in
    if specs = [] then failwith "Expr.schema_of: aggregate without aggregate functions";
    let source_ty name =
      match Schema.index_of_opt input name with
      | Some i -> (Schema.attribute input i).Schema.ty
      | None ->
        failwith (Printf.sprintf "Expr.schema_of: unknown aggregate attribute %S" name)
    in
    let numeric name =
      match source_ty name with
      | Value.Tint | Value.Tfloat -> ()
      | Value.Tnull | Value.Tbool | Value.Tstr ->
        failwith (Printf.sprintf "Expr.schema_of: attribute %S is not numeric" name)
    in
    let group_attrs =
      try Schema.attributes (Schema.project input by)
      with Not_found -> failwith "Expr.schema_of: unknown group-by attribute"
    in
    let agg_attr (f, output) =
      let ty =
        match f with
        | Count -> Value.Tint
        | Sum name ->
          numeric name;
          source_ty name
        | Avg name ->
          numeric name;
          Value.Tfloat
        | Min name | Max name -> source_ty name
      in
      { Schema.name = output; ty }
    in
    (try Schema.make (group_attrs @ List.map agg_attr specs)
     with Invalid_argument message -> failwith ("Expr.schema_of: " ^ message))

let rec leaves = function
  | Base name -> [ name ]
  | Select (_, e) | Project (_, e) | Distinct e | Rename (_, e) | Aggregate (_, _, e) ->
    leaves e
  | Product (l, r)
  | Equijoin (_, l, r)
  | Theta_join (_, l, r)
  | Union (l, r)
  | Inter (l, r)
  | Diff (l, r) ->
    leaves l @ leaves r

let map_bases f e =
  let counter = ref 0 in
  let rec loop = function
    | Base name ->
      let i = !counter in
      incr counter;
      f i name
    | Select (p, e) -> Select (p, loop e)
    | Project (names, e) -> Project (names, loop e)
    | Distinct e -> Distinct (loop e)
    | Rename (pairs, e) -> Rename (pairs, loop e)
    | Aggregate (by, specs, e) -> Aggregate (by, specs, loop e)
    | Product (l, r) ->
      let l = loop l in
      Product (l, loop r)
    | Equijoin (pairs, l, r) ->
      let l = loop l in
      Equijoin (pairs, l, loop r)
    | Theta_join (p, l, r) ->
      let l = loop l in
      Theta_join (p, l, loop r)
    | Union (l, r) ->
      let l = loop l in
      Union (l, loop r)
    | Inter (l, r) ->
      let l = loop l in
      Inter (l, loop r)
    | Diff (l, r) ->
      let l = loop l in
      Diff (l, loop r)
  in
  loop e

let rec has_dedup = function
  | Base _ -> false
  | Distinct _ | Union _ | Inter _ | Diff _ | Aggregate _ -> true
  | Select (_, e) | Project (_, e) | Rename (_, e) -> has_dedup e
  | Product (l, r) | Equijoin (_, l, r) | Theta_join (_, l, r) ->
    has_dedup l || has_dedup r

let has_repeated_leaf e =
  let sorted = List.sort String.compare (leaves e) in
  let rec adjacent_dup = function
    | a :: (b :: _ as rest) -> a = b || adjacent_dup rest
    | [ _ ] | [] -> false
  in
  adjacent_dup sorted

let rec size = function
  | Base _ -> 1
  | Select (_, e) | Project (_, e) | Distinct e | Rename (_, e) | Aggregate (_, _, e) ->
    1 + size e
  | Product (l, r)
  | Equijoin (_, l, r)
  | Theta_join (_, l, r)
  | Union (l, r)
  | Inter (l, r)
  | Diff (l, r) ->
    1 + size l + size r

let rec pp ppf = function
  | Base name -> Format.pp_print_string ppf name
  | Select (p, e) -> Format.fprintf ppf "σ[%a](%a)" Predicate.pp p pp e
  | Project (names, e) ->
    Format.fprintf ppf "π[%s](%a)" (String.concat "," names) pp e
  | Distinct e -> Format.fprintf ppf "δ(%a)" pp e
  | Product (l, r) -> Format.fprintf ppf "(%a × %a)" pp l pp r
  | Equijoin (pairs, l, r) ->
    let pairs = List.map (fun (a, b) -> a ^ "=" ^ b) pairs in
    Format.fprintf ppf "(%a ⋈[%s] %a)" pp l (String.concat "," pairs) pp r
  | Theta_join (p, l, r) -> Format.fprintf ppf "(%a ⋈θ[%a] %a)" pp l Predicate.pp p pp r
  | Union (l, r) -> Format.fprintf ppf "(%a ∪ %a)" pp l pp r
  | Inter (l, r) -> Format.fprintf ppf "(%a ∩ %a)" pp l pp r
  | Diff (l, r) -> Format.fprintf ppf "(%a − %a)" pp l pp r
  | Rename (pairs, e) ->
    let pairs = List.map (fun (a, b) -> a ^ "→" ^ b) pairs in
    Format.fprintf ppf "ρ[%s](%a)" (String.concat "," pairs) pp e
  | Aggregate (by, specs, e) ->
    let spec_to_string (f, output) =
      let f_text =
        match f with
        | Count -> "count"
        | Sum a -> "sum(" ^ a ^ ")"
        | Avg a -> "avg(" ^ a ^ ")"
        | Min a -> "min(" ^ a ^ ")"
        | Max a -> "max(" ^ a ^ ")"
      in
      f_text ^ " as " ^ output
    in
    Format.fprintf ppf "γ[%s; %s](%a)" (String.concat "," by)
      (String.concat ", " (List.map spec_to_string specs))
      pp e

let to_string e = Format.asprintf "%a" pp e
