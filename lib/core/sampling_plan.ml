module Expr = Relational.Expr
module Catalog = Relational.Catalog
module Relation = Relational.Relation

type mode =
  | Srswor of int
  | Bernoulli of float

type leaf = {
  occurrence : int;
  relation : string;
  alias : string;
  population : int;
  mode : mode;
}

type t = {
  expr : Expr.t;
  leaves : leaf list;
  scale : float;
}

let leaf_scale leaf =
  match leaf.mode with
  (* An empty leaf is sampled as [Srswor 0]: the sample IS the
     population, i.e. a census, so its scale contribution is 1. *)
  | Srswor n -> if leaf.population = 0 then 1. else float_of_int leaf.population /. float_of_int n
  | Bernoulli p -> 1. /. p

let check_mode ~population ~relation = function
  | Srswor n ->
    if n < 0 || n > population || (n = 0 && population > 0) then
      invalid_arg
        (Printf.sprintf "Sampling_plan: sample size %d out of range for %S (N=%d)" n
           relation population)
  | Bernoulli p ->
    if p <= 0. || p > 1. then
      invalid_arg
        (Printf.sprintf "Sampling_plan: Bernoulli rate %g out of (0, 1] for %S" p relation)

let make_custom catalog ~mode expr =
  let leaves = ref [] in
  let rewritten =
    Expr.map_bases
      (fun occurrence relation ->
        let population = Relation.cardinality (Catalog.find catalog relation) in
        let m = mode occurrence relation population in
        check_mode ~population ~relation m;
        let alias = Printf.sprintf "%s#%d" relation occurrence in
        leaves := { occurrence; relation; alias; population; mode = m } :: !leaves;
        Expr.Base alias)
      expr
  in
  let leaves = List.rev !leaves in
  let scale = List.fold_left (fun acc leaf -> acc *. leaf_scale leaf) 1. leaves in
  { expr = rewritten; leaves; scale }

let make catalog ~fraction expr =
  make_custom catalog
    ~mode:(fun _ _ population -> Srswor (Sampling.Srs.size_of_fraction ~fraction population))
    expr

let draw ?(metrics = Obs.Metrics.noop) rng catalog plan =
  let sampled = Catalog.create () in
  let total = ref 0 and drawn = ref [] in
  List.iter
    (fun leaf ->
      let relation = Catalog.find catalog leaf.relation in
      let sample =
        match leaf.mode with
        | Srswor n ->
          let sample, ids = Sampling.Srs.relation_ids_without_replacement ~metrics rng ~n relation in
          Option.iter (fun ids -> drawn := ids :: !drawn) ids;
          sample
        | Bernoulli p ->
          (* A Bernoulli draw scans the whole leaf (every tuple flips a
             coin), so the scan cost is the population, not the yield. *)
          let draws_before = Sampling.Rng.draws rng in
          let sample = Sampling.Bernoulli.relation rng ~p relation in
          Obs.Metrics.add_tuples metrics leaf.population;
          Obs.Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
          sample
      in
      total := !total + Relation.cardinality sample;
      Catalog.add sampled leaf.alias sample)
    plan.leaves;
  (sampled, !total, !drawn)

let expected_sample_size plan =
  List.fold_left
    (fun acc leaf ->
      acc
      +.
      match leaf.mode with
      | Srswor n -> float_of_int n
      | Bernoulli p -> p *. float_of_int leaf.population)
    0. plan.leaves
