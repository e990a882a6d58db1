type resample = {
  point : float;
  replicates : float array;
}

let run ?domains ?(metrics = Obs.Metrics.noop) rng ~replicates ~statistic sample =
  if Array.length sample = 0 then invalid_arg "Bootstrap.run: empty sample";
  if replicates <= 0 then invalid_arg "Bootstrap.run: replicates must be positive";
  let n = Array.length sample in
  (* One split stream per replicate, derived serially: replicate r sees
     the same draws whatever the domain count.  Each chunk reuses a
     single scratch buffer, matching the serial code's allocation. *)
  let draws_before = Sampling.Rng.draws rng in
  let children = Array.init replicates (fun _ -> Sampling.Rng.split rng) in
  Obs.Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
  (* Per-replicate sinks, absorbed in replicate order below: counter
     totals are independent of the domain count. *)
  let sinks = Array.init replicates (fun _ -> Obs.Metrics.child metrics) in
  let values =
    Parallel.chunked_init ?domains replicates (fun start len ->
        let resampled = Array.make n sample.(0) in
        Array.init len (fun k ->
            let child = children.(start + k) in
            for i = 0 to n - 1 do
              resampled.(i) <- sample.(Sampling.Rng.int child n)
            done;
            let sink = sinks.(start + k) in
            Obs.Metrics.add_indices sink n;
            Obs.Metrics.add_rng_draws sink (Sampling.Rng.draws child);
            statistic resampled))
  in
  Array.iter (fun sink -> Obs.Metrics.absorb metrics sink) sinks;
  { point = statistic sample; replicates = values }

let variance r = Stats.Summary.variance (Stats.Summary.of_array r.replicates)

let percentile_interval ~level r =
  if level <= 0. || level >= 1. then
    invalid_arg "Bootstrap.percentile_interval: level outside (0, 1)";
  let alpha2 = (1. -. level) /. 2. in
  {
    Stats.Confidence.lo = Stats.Summary.quantile alpha2 r.replicates;
    hi = Stats.Summary.quantile (1. -. alpha2) r.replicates;
    level;
  }

let normal_interval ~level r =
  Stats.Confidence.normal ~level ~point:r.point ~stderr:(Float.sqrt (variance r))

let selection_count ?domains ?(metrics = Obs.Metrics.noop) rng catalog ~relation ~n
    ?(replicates = 200) ?(level = 0.95) predicate =
  let r = Relational.Catalog.find catalog relation in
  let big_n = Relational.Relation.cardinality r in
  if n <= 0 || n > big_n then
    invalid_arg "Bootstrap.selection_count: sample size out of range";
  let sample =
    Sampling.Srs.sample_without_replacement ~metrics rng ~n (Relational.Relation.tuples r)
  in
  let keep = Relational.Predicate.compile (Relational.Relation.schema r) predicate in
  (* Statistic over 0/1 hit indicators: scale-up count. *)
  let indicators = Array.map (fun t -> if keep t then 1. else 0.) sample in
  let statistic hits =
    float_of_int big_n *. (Array.fold_left ( +. ) 0. hits /. float_of_int n)
  in
  let resample = run ?domains ~metrics rng ~replicates ~statistic indicators in
  let estimate =
    Stats.Estimate.make ~variance:(variance resample) ~label:"selection (bootstrap)"
      ~status:Stats.Estimate.Unbiased ~sample_size:n resample.point
  in
  (estimate, Stats.Confidence.clamp_nonnegative (percentile_interval ~level resample))
