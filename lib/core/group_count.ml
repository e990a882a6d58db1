module Relation = Relational.Relation
module Catalog = Relational.Catalog
module Tuple = Relational.Tuple
module Value = Relational.Value
module Estimate = Stats.Estimate

type group = {
  key : Value.t list;
  estimate : Stats.Estimate.t;
  interval : Stats.Confidence.interval;
}

type result = {
  groups : group list;
  level : float;
  sample_size : int;
}

let group_indices catalog ~relation ~by =
  if by = [] then invalid_arg "Group_count: empty group-by attribute list";
  let r = Catalog.find catalog relation in
  let schema = Relation.schema r in
  (r, List.map (fun a -> Relational.Schema.index_of schema a) by)

let contribution r attribute =
  let i = Relational.Schema.index_of (Relation.schema r) attribute in
  fun tuple ->
    match Tuple.get tuple i with Value.Null -> 0. | v -> Value.to_float v

(* Validation order is part of the error contract: level, then
   attribute resolution, then the sample size. *)
let check_level level =
  if level <= 0. || level >= 1. then invalid_arg "Group_count: level outside (0, 1)"

let check_n ~n ~big_n =
  if n <= 0 || n > big_n then invalid_arg "Group_count: sample size out of range"

(* ------------------------------------------------------------------ *)
(* Blocked tallies                                                     *)

let compare_keys k1 k2 = List.compare Value.compare k1 k2

let key_of indices tuple = List.map (fun i -> Tuple.get tuple i) indices

(* Parallel tallies run over fixed-size blocks, not per-domain chunks:
   the block decomposition — and with it the per-key merge order of
   partial aggregates — is independent of the domain count, so results
   are bit-identical whether tallied on 1 or N domains. *)
let tally_block = 8192

let blocked_tables ?domains ~per_block n =
  let nblocks = max 1 ((n + tally_block - 1) / tally_block) in
  Parallel.init ?domains nblocks (fun b ->
      let start = b * tally_block in
      per_block start (min tally_block (n - start)))

let group_tally ?domains ~indices ~keep tuples =
  let per_block start len =
    let table = Hashtbl.create 64 in
    for i = start to start + len - 1 do
      let t = tuples.(i) in
      if keep t then begin
        let key = key_of indices t in
        Hashtbl.replace table key
          (1 + Option.value (Hashtbl.find_opt table key) ~default:0)
      end
    done;
    table
  in
  let merged = Hashtbl.create 64 in
  Array.iter
    (fun table ->
      Hashtbl.iter
        (fun key count ->
          Hashtbl.replace merged key
            (count + Option.value (Hashtbl.find_opt merged key) ~default:0))
        table)
    (blocked_tables ?domains ~per_block (Array.length tuples));
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) merged []
  |> List.sort (fun (k1, _) (k2, _) -> compare_keys k1 k2)

(* Per-group sums of [value] over the given tuples, with the per-group
   sum of squares (needed for the expansion variance).  Blocked like
   {!group_tally}: per-block partials combine in block order, so a
   fixed seed gives the same sums on any domain count. *)
let group_tally_sums ?domains ~indices ~keep ~value tuples =
  let per_block start len =
    let table = Hashtbl.create 64 in
    for i = start to start + len - 1 do
      let t = tuples.(i) in
      if keep t then begin
        let key = key_of indices t in
        let y = value t in
        let sum, sum_sq, hits =
          Option.value (Hashtbl.find_opt table key) ~default:(0., 0., 0)
        in
        Hashtbl.replace table key (sum +. y, sum_sq +. (y *. y), hits + 1)
      end
    done;
    table
  in
  let merged = Hashtbl.create 64 in
  Array.iter
    (fun table ->
      Hashtbl.iter
        (fun key (sum, sum_sq, hits) ->
          let acc_sum, acc_sq, acc_hits =
            Option.value (Hashtbl.find_opt merged key) ~default:(0., 0., 0)
          in
          Hashtbl.replace merged key (acc_sum +. sum, acc_sq +. sum_sq, acc_hits + hits))
        table)
    (blocked_tables ?domains ~per_block (Array.length tuples));
  Hashtbl.fold (fun key totals acc -> (key, totals) :: acc) merged []
  |> List.sort (fun (k1, _) (k2, _) -> compare_keys k1 k2)

(* ------------------------------------------------------------------ *)
(* Estimators                                                          *)

(* The shared SRSWOR draw.  The [where] filter compiles first, so a
   bad predicate fails before any sampling. *)
let draw ~metrics rng r ~n where =
  let keep = Relational.Predicate.compile (Relation.schema r) where in
  (keep, Sampling.Srs.sample_without_replacement ~metrics rng ~n (Relation.tuples r))

(* Bonferroni over the [k] reported groups. *)
let per_group_level ~level k =
  if k = 0 then level else 1. -. ((1. -. level) /. float_of_int k)

let estimate ?domains ?(metrics = Obs.Metrics.noop) rng catalog ~relation ~by ~n
    ?(level = 0.95) ?(where = Relational.Predicate.True) () =
  check_level level;
  let r, indices = group_indices catalog ~relation ~by in
  let big_n = Relation.cardinality r in
  check_n ~n ~big_n;
  Obs.Metrics.with_span metrics (Printf.sprintf "group-count %s" relation) @@ fun () ->
  let keep, sample = draw ~metrics rng r ~n where in
  let counts =
    Obs.Metrics.time metrics "tally" (fun () -> group_tally ?domains ~indices ~keep sample)
  in
  let per_group_level = per_group_level ~level (List.length counts) in
  let groups =
    List.map
      (fun (key, hits) ->
        let estimate = Estplan.binomial_estimate ~label:"group-count" ~big_n ~n ~hits () in
        let interval =
          if Estimate.has_variance estimate then
            Estimate.ci ~level:per_group_level estimate
          else
            { Stats.Confidence.lo = 0.; hi = float_of_int big_n; level = per_group_level }
        in
        { key; estimate; interval })
      counts
  in
  { groups; level; sample_size = n }

let exact catalog ~relation ~by ?(where = Relational.Predicate.True) () =
  let r, indices = group_indices catalog ~relation ~by in
  let keep = Relational.Predicate.compile (Relation.schema r) where in
  group_tally ~indices ~keep (Relation.tuples r)

let estimate_sum ?domains ?(metrics = Obs.Metrics.noop) rng catalog ~relation ~by
    ~attribute ~n ?(level = 0.95) ?(where = Relational.Predicate.True) () =
  check_level level;
  let r, indices = group_indices catalog ~relation ~by in
  let big_n = Relation.cardinality r in
  check_n ~n ~big_n;
  (* Resolve the summed attribute before any sampling. *)
  let value = contribution r attribute in
  Obs.Metrics.with_span metrics (Printf.sprintf "group-sum %s" relation) @@ fun () ->
  let keep, sample = draw ~metrics rng r ~n where in
  let sums =
    Obs.Metrics.time metrics "tally" (fun () ->
        group_tally_sums ?domains ~indices ~keep ~value sample)
  in
  let per_group_level = per_group_level ~level (List.length sums) in
  let big_nf = float_of_int big_n and nf = float_of_int n in
  let groups =
    List.map
      (fun (key, (sum, sum_sq, _hits)) ->
        (* Expansion over per-tuple contributions: y for the group's
           tuples, 0 for everything else in the sample. *)
        let mean = sum /. nf in
        let point = big_nf *. mean in
        let variance =
          if n < 2 then Float.nan
          else begin
            let ss = sum_sq -. (nf *. mean *. mean) in
            big_nf *. big_nf *. (1. -. (nf /. big_nf)) *. (ss /. (nf -. 1.)) /. nf
          end
        in
        let estimate =
          Estimate.make ~variance ~label:"group-sum" ~status:Estimate.Unbiased
            ~sample_size:n point
        in
        let interval =
          if Estimate.has_variance estimate then
            Stats.Confidence.normal ~level:per_group_level ~point
              ~stderr:(Estimate.stderr estimate)
          else
            {
              Stats.Confidence.lo = Float.neg_infinity;
              hi = Float.infinity;
              level = per_group_level;
            }
        in
        { key; estimate; interval })
      sums
  in
  { groups; level; sample_size = n }

let exact_sum catalog ~relation ~by ~attribute ?(where = Relational.Predicate.True) () =
  let r, indices = group_indices catalog ~relation ~by in
  let keep = Relational.Predicate.compile (Relation.schema r) where in
  let value = contribution r attribute in
  group_tally_sums ~indices ~keep ~value (Relation.tuples r)
  |> List.map (fun (key, (sum, _, _)) -> (key, sum))
