module Relation = Relational.Relation
module Catalog = Relational.Catalog
module Estimate = Stats.Estimate

type trajectory_point = {
  n : int;
  point : float;
  half_width : float;
}

type result = {
  estimate : Stats.Estimate.t;
  reached_target : bool;
  trajectory : trajectory_point list;
}

let check_common ~target ~level =
  if target <= 0. then invalid_arg "Sequential: target must be positive";
  if level <= 0. || level >= 1. then invalid_arg "Sequential: level outside (0, 1)"

let selection ?(metrics = Obs.Metrics.noop) rng catalog ~relation ~target ?(level = 0.95)
    ?(batch = 100) predicate =
  check_common ~target ~level;
  if batch <= 0 then invalid_arg "Sequential.selection: batch must be positive";
  Obs.Metrics.with_span metrics (Printf.sprintf "sequential %s" relation) (fun () ->
      let r = Catalog.find catalog relation in
      let big_n = Relation.cardinality r in
      let keep = Relational.Predicate.compile (Relation.schema r) predicate in
      (* A uniformly random permutation makes every prefix an SRSWOR. *)
      let order = Array.init big_n (fun i -> i) in
      let draws_before = Sampling.Rng.draws rng in
      Sampling.Rng.shuffle_in_place rng order;
      Obs.Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
      let z = Stats.Confidence.z_value ~level in
      let trajectory = ref [] in
      (* [batches] counts completed batches; the trajectory list stays
         write-only inside the loop, so growth is O(batches), not
         O(batches²) as a [List.length] stopping test would make it. *)
      let rec grow n hits batches =
        let stop = min (n + batch) big_n in
        let hits = ref hits in
        for k = n to stop - 1 do
          if keep (Relation.tuple r order.(k)) then incr hits
        done;
        Obs.Metrics.add_tuples metrics (stop - n);
        let n = stop in
        let estimate = Estplan.binomial_estimate ~big_n ~n ~hits:!hits () in
        let half_width =
          if Estimate.has_variance estimate then z *. Estimate.stderr estimate
          else Float.infinity
        in
        trajectory := { n; point = estimate.Estimate.point; half_width } :: !trajectory;
        let precise =
          estimate.Estimate.point > 0. && half_width /. estimate.Estimate.point <= target
        in
        (* Demand at least two batches so a lucky first batch cannot stop
           on a degenerate variance estimate. *)
        if (precise && batches >= 2) || n >= big_n then
          (estimate, precise || (n >= big_n && half_width = 0.))
        else grow n !hits (batches + 1)
      in
      let estimate, reached_target = grow 0 0 1 in
      { estimate; reached_target; trajectory = List.rev !trajectory })

let two_phase ?domains ?(metrics = Obs.Metrics.noop) rng catalog ~target ?(level = 0.95)
    ?(pilot_fraction = 0.01) ?(groups = 5) expr =
  check_common ~target ~level;
  if pilot_fraction <= 0. || pilot_fraction > 1. then
    invalid_arg "Sequential.two_phase: pilot_fraction outside (0, 1]";
  if groups < 2 then invalid_arg "Sequential.two_phase: need at least 2 groups";
  let z = Stats.Confidence.z_value ~level in
  let pilot =
    Obs.Metrics.with_span metrics "pilot" (fun () ->
        Count_estimator.estimate ~groups ?domains ~metrics rng catalog
          ~fraction:pilot_fraction expr)
  in
  let pilot_half_width = z *. Estimate.stderr pilot in
  let pilot_point =
    {
      n = pilot.Estimate.sample_size;
      point = pilot.Estimate.point;
      half_width = pilot_half_width;
    }
  in
  if pilot.Estimate.point > 0. && pilot_half_width /. pilot.Estimate.point <= target then
    { estimate = pilot; reached_target = true; trajectory = [ pilot_point ] }
  else begin
    (* Variance of the scale-up estimator shrinks like 1/fraction (each
       replicate's sample grows linearly), so size the final fraction by
       the ratio of the pilot's squared precision to the target's. *)
    let rel =
      if pilot.Estimate.point > 0. then pilot_half_width /. pilot.Estimate.point
      else Float.infinity
    in
    let blow_up =
      if Float.is_finite rel then (rel /. target) ** 2. else 1. /. pilot_fraction
    in
    let final_fraction = Float.min 1. (pilot_fraction *. blow_up) in
    let final =
      Obs.Metrics.with_span metrics "final" (fun () ->
          Count_estimator.estimate ~groups ?domains ~metrics rng catalog
            ~fraction:final_fraction expr)
    in
    let final_half_width = z *. Estimate.stderr final in
    let final_point =
      {
        n = pilot.Estimate.sample_size + final.Estimate.sample_size;
        point = final.Estimate.point;
        half_width = final_half_width;
      }
    in
    let reached_target =
      final.Estimate.point > 0. && final_half_width /. final.Estimate.point <= target
    in
    { estimate = final; reached_target; trajectory = [ pilot_point; final_point ] }
  end
