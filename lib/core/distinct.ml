module Relation = Relational.Relation
module Catalog = Relational.Catalog
module Tuple = Relational.Tuple
module Estimate = Stats.Estimate

type method_ = Goodman | Chao1 | Gee | Shlosser | Scale_up | Sample_distinct

let method_to_string = function
  | Goodman -> "goodman"
  | Chao1 -> "chao1"
  | Gee -> "gee"
  | Shlosser -> "shlosser"
  | Scale_up -> "scale-up"
  | Sample_distinct -> "sample-distinct"

let all_methods = [ Goodman; Chao1; Gee; Shlosser; Scale_up; Sample_distinct ]

module Tuple_hash = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let frequency_of_frequencies tuples =
  let counts = Tuple_hash.create (max 16 (Array.length tuples)) in
  Array.iter
    (fun t ->
      let c = try Tuple_hash.find counts t with Not_found -> 0 in
      Tuple_hash.replace counts t (c + 1))
    tuples;
  let fof = Hashtbl.create 16 in
  Tuple_hash.iter
    (fun _ j ->
      let f = try Hashtbl.find fof j with Not_found -> 0 in
      Hashtbl.replace fof j (f + 1))
    counts;
  Hashtbl.fold (fun j f acc -> (j, f) :: acc) fof []
  |> List.sort (fun (j1, _) (j2, _) -> Int.compare j1 j2)

let check_fof ~big_n ~n fof =
  if n <= 0 || n > big_n then invalid_arg "Distinct: sample size out of range";
  let total = List.fold_left (fun acc (j, f) -> acc + (j * f)) 0 fof in
  if total <> n then
    invalid_arg
      (Printf.sprintf "Distinct: frequency-of-frequencies sums to %d, sample size is %d"
         total n);
  List.iter
    (fun (j, f) ->
      if j <= 0 || f < 0 then invalid_arg "Distinct: malformed frequency-of-frequencies")
    fof

(* Goodman's coefficient for term j, in log space:
   c_j = (N−n+j−1)!·(n−j)! / ((N−n−1)!·n!), sign (−1)^{j+1}. *)
let goodman_term ~big_n ~n j =
  let open Stats.Distributions in
  let log_c =
    log_gamma (float_of_int (big_n - n + j))
    +. log_gamma (float_of_int (n - j + 1))
    -. log_gamma (float_of_int (big_n - n))
    -. log_gamma (float_of_int (n + 1))
  in
  let sign = if j mod 2 = 1 then 1. else -1. in
  sign *. exp log_c

let goodman ~big_n ~n fof =
  let d = List.fold_left (fun acc (_, f) -> acc + f) 0 fof in
  if n = big_n then float_of_int d
  else
    List.fold_left
      (fun acc (j, f) -> acc +. (goodman_term ~big_n ~n j *. float_of_int f))
      (float_of_int d) fof

let chao1 fof =
  let d = List.fold_left (fun acc (_, f) -> acc + f) 0 fof in
  let f1 = try List.assoc 1 fof with Not_found -> 0 in
  let f2 = try List.assoc 2 fof with Not_found -> 0 in
  (* Bias-corrected form, defined even when f2 = 0. *)
  float_of_int d
  +. (float_of_int (f1 * (f1 - 1)) /. (2. *. float_of_int (f2 + 1)))

let gee ~big_n ~n fof =
  let f1 = try List.assoc 1 fof with Not_found -> 0 in
  let rest =
    List.fold_left (fun acc (j, f) -> if j >= 2 then acc + f else acc) 0 fof
  in
  (Float.sqrt (float_of_int big_n /. float_of_int n) *. float_of_int f1)
  +. float_of_int rest

let shlosser ~big_n ~n fof =
  let d = List.fold_left (fun acc (_, f) -> acc + f) 0 fof in
  let q = float_of_int n /. float_of_int big_n in
  if q >= 1. then float_of_int d
  else begin
    let f1 = float_of_int (try List.assoc 1 fof with Not_found -> 0) in
    let numerator =
      List.fold_left
        (fun acc (j, f) -> acc +. (((1. -. q) ** float_of_int j) *. float_of_int f))
        0. fof
    in
    let denominator =
      List.fold_left
        (fun acc (j, f) ->
          acc +. (float_of_int j *. q *. ((1. -. q) ** float_of_int (j - 1)) *. float_of_int f))
        0. fof
    in
    if denominator <= 0. then float_of_int d
    else float_of_int d +. (f1 *. numerator /. denominator)
  end

let scale_up ~big_n ~n fof =
  let d = List.fold_left (fun acc (_, f) -> acc + f) 0 fof in
  float_of_int d *. float_of_int big_n /. float_of_int n

let sample_distinct fof =
  float_of_int (List.fold_left (fun acc (_, f) -> acc + f) 0 fof)

let estimate_from_fof ~method_ ~big_n ~n fof =
  check_fof ~big_n ~n fof;
  let point, status =
    match method_ with
    | Goodman -> (goodman ~big_n ~n fof, Estimate.Unbiased)
    | Chao1 -> (chao1 fof, Estimate.Consistent)
    | Gee -> (gee ~big_n ~n fof, Estimate.Consistent)
    | Shlosser -> (shlosser ~big_n ~n fof, Estimate.Consistent)
    | Scale_up -> (scale_up ~big_n ~n fof, Estimate.Heuristic)
    | Sample_distinct -> (sample_distinct fof, Estimate.Consistent)
  in
  Estimate.make ~label:("distinct/" ^ method_to_string method_) ~status ~sample_size:n point

let project_tuples catalog ~relation ~attributes =
  let r = Catalog.find catalog relation in
  let schema = Relation.schema r in
  let indices =
    Array.of_list
      (List.map (fun a -> Relational.Schema.index_of schema a) attributes)
  in
  (r, fun tuple -> Tuple.project tuple indices)

let estimate rng catalog ~method_ ~relation ~attributes ~n =
  let r, project = project_tuples catalog ~relation ~attributes in
  let sample =
    Sampling.Srs.sample_without_replacement rng ~n (Relation.tuples r)
  in
  let fof = frequency_of_frequencies (Array.map project sample) in
  estimate_from_fof ~method_ ~big_n:(Relation.cardinality r) ~n fof

let plausible ~big_n estimate =
  let p = estimate.Estimate.point in
  Float.is_finite p && p >= 0. && p <= float_of_int big_n

let exact catalog ~relation ~attributes =
  Relational.Physical.count_expr catalog
    (Relational.Expr.project_distinct attributes (Relational.Expr.base relation))
