type result = {
  count : int;
  seconds : float;
}

let count catalog expr =
  let started = Unix.gettimeofday () in
  let count = Relational.Physical.count_expr catalog expr in
  { count; seconds = Unix.gettimeofday () -. started }

let as_estimate catalog expr =
  let { count; _ } = count catalog expr in
  Stats.Estimate.make ~variance:0. ~label:"exact" ~status:Stats.Estimate.Unbiased
    ~sample_size:count (float_of_int count)
