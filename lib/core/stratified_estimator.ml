module Relation = Relational.Relation
module Catalog = Relational.Catalog

type result = {
  estimate : Stats.Estimate.t;
  strata : (string * int * int) list;
}

let count rng catalog ~relation ~key ~n predicate =
  let r = Catalog.find catalog relation in
  let big_n = Relation.cardinality r in
  if n <= 0 || n > big_n then invalid_arg "Stratified_estimator.count: n out of range";
  let keep = Relational.Predicate.compile (Relation.schema r) predicate in
  let strata = Sampling.Stratified.sample rng ~n ~key (Relation.tuples r) in
  (* Recover per-stratum population sizes with one grouping pass. *)
  let populations = Hashtbl.create 16 in
  Relation.iter
    (fun t ->
      let k = key t in
      Hashtbl.replace populations k
        (1 + Option.value (Hashtbl.find_opt populations k) ~default:0))
    r;
  let point = ref 0. and variance = ref 0. and drawn = ref 0 in
  let strata =
    List.map
      (fun stratum ->
        let k = stratum.Sampling.Stratified.key in
        let n_h = stratum.Sampling.Stratified.allocated in
        let big_nh = Hashtbl.find populations k in
        drawn := !drawn + n_h;
        if n_h > 0 then begin
          let hits =
            Array.fold_left
              (fun acc t -> if keep t then acc + 1 else acc)
              0 stratum.Sampling.Stratified.members
          in
          let nf = float_of_int n_h and big_nf = float_of_int big_nh in
          let p_hat = float_of_int hits /. nf in
          point := !point +. (big_nf *. p_hat);
          if n_h >= 2 then
            variance :=
              !variance
              +. big_nf *. big_nf
                 *. (1. -. (nf /. big_nf))
                 *. p_hat *. (1. -. p_hat) /. (nf -. 1.)
        end;
        (k, big_nh, n_h))
      strata
  in
  let estimate =
    Stats.Estimate.make ~variance:!variance ~label:"stratified selection"
      ~status:Stats.Estimate.Unbiased ~sample_size:!drawn !point
  in
  { estimate; strata }

(* Goal-based entry: the goal resolves to the total sample size over
   the relation's population (root-sampling strategy; the proportional
   allocation then splits it across strata as usual). *)
let count_with_goal rng catalog ~relation ~key ~goal predicate =
  let big_n = Relation.cardinality (Catalog.find catalog relation) in
  let n = Planner.size_of_goal ~population:big_n goal in
  count rng catalog ~relation ~key ~n predicate

let count_by_attribute rng catalog ~relation ~attribute ~n predicate =
  let r = Catalog.find catalog relation in
  let i = Relational.Schema.index_of (Relation.schema r) attribute in
  let key t = Relational.Value.to_string (Relational.Tuple.get t i) in
  count rng catalog ~relation ~key ~n predicate
