module Relation = Relational.Relation

type id = int

type t = {
  rng : Sampling.Rng.t;
  capacity : int;
  schema : Relational.Schema.t;
  mutable next_id : int;
  mutable population : int;
  (* Sample slots: parallel arrays of ids and tuples, [filled] live.
     Slot [k] is occupied exactly when [ids.(k) >= 0]; a vacant slot
     holds id -1 and the empty tuple [[||]], so the occupied slots are
     [0 .. filled - 1] and an estimate counts them where they lie.  The
     arrays double as [filled] reaches their length, up to [capacity]:
     their memory follows the tuples held, not the capacity asked
     for. *)
  mutable ids : id array;
  mutable tuples : Relational.Tuple.t array;
  mutable filled : int;
  (* Members for O(1) deletion checks: id -> slot. *)
  slot_of : (id, int) Hashtbl.t;
  mutable seen : int;  (* inserts observed, drives reservoir admission *)
  metrics : Obs.Metrics.t;
}

let create ?(metrics = Obs.Metrics.noop) rng ~capacity ~schema =
  if capacity <= 0 then invalid_arg "Backing_sample.create: capacity must be positive";
  {
    rng;
    capacity;
    schema;
    next_id = 0;
    population = 0;
    ids = [||];
    tuples = [||];
    filled = 0;
    slot_of = Hashtbl.create 16;
    seen = 0;
    metrics;
  }

(* Slots are put at most one past the occupied ones, so [put] grows
   the arrays only when [slot = filled] has reached their length. *)
let put t slot id tuple =
  let size = Array.length t.ids in
  if slot = size then begin
    let grown = min t.capacity (max 16 (2 * size)) in
    let ids = Array.make grown (-1) and tuples = Array.make grown [||] in
    Array.blit t.ids 0 ids 0 size;
    Array.blit t.tuples 0 tuples 0 size;
    t.ids <- ids;
    t.tuples <- tuples
  end;
  if t.ids.(slot) >= 0 then Hashtbl.remove t.slot_of t.ids.(slot);
  t.ids.(slot) <- id;
  t.tuples.(slot) <- tuple;
  Hashtbl.replace t.slot_of id slot

let insert t tuple =
  let draws_before = Sampling.Rng.draws t.rng in
  Obs.Metrics.add_maintenance_ops t.metrics 1;
  let id = t.next_id in
  t.next_id <- id + 1;
  t.population <- t.population + 1;
  t.seen <- t.seen + 1;
  if t.seen <= t.capacity then begin
    (* Fill phase: Algorithm R admits the first [capacity] stream items
       outright.  A gap left by a deleted sampled item stays a gap —
       eagerly refilling it would admit the newcomer with probability 1
       while its live peers hold the reservoir's admission rate, biasing
       the sample toward recent arrivals. *)
    put t t.filled id tuple;
    t.filled <- t.filled + 1
  end
  else begin
    (* Algorithm R admission over the insert stream: the maintained
       sample is the virtual (no-deletion) reservoir minus the deleted
       members, which stays uniform over the live population.  [j] is
       the uniformly drawn virtual slot; a slot holding a deleted member
       ([j >= filled] after compaction) hands its place to the
       newcomer. *)
    let j = Sampling.Rng.int t.rng t.seen in
    if j < t.capacity then
      if j < t.filled then put t j id tuple
      else begin
        put t t.filled id tuple;
        t.filled <- t.filled + 1
      end
  end;
  Obs.Metrics.add_rng_draws t.metrics (Sampling.Rng.draws t.rng - draws_before);
  id

let delete t id =
  Obs.Metrics.add_maintenance_ops t.metrics 1;
  if id < 0 || id >= t.next_id then false
  else begin
    match Hashtbl.find_opt t.slot_of id with
    | Some slot ->
      Hashtbl.remove t.slot_of id;
      (* Compact: move the last live slot into the hole. *)
      let last = t.filled - 1 in
      if slot <> last then begin
        t.ids.(slot) <- t.ids.(last);
        t.tuples.(slot) <- t.tuples.(last);
        Hashtbl.replace t.slot_of t.ids.(slot) slot
      end;
      t.ids.(last) <- -1;
      t.tuples.(last) <- [||];
      t.filled <- last;
      t.population <- t.population - 1;
      true
    | None ->
      (* Not sampled: only the population shrinks.  We cannot tell a
         live unsampled id from an already-deleted one without O(N)
         state; treat both as a population decrement guarded at 0 and
         report true only while the population is consistent. *)
      if t.population > t.filled then begin
        t.population <- t.population - 1;
        true
      end
      else false
  end

let population t = t.population

let capacity t = t.capacity

let sample t = Relation.of_array t.schema (Array.sub t.tuples 0 t.filled)

let sample_size t = t.filled

let fill_ratio t = float_of_int t.filled /. float_of_int t.capacity

let needs_rescan ?(min_ratio = 0.5) t =
  t.filled < t.population && fill_ratio t < min_ratio

let rescan t live =
  (* Rebuild as a fresh reservoir pass over the live population:
     deletion erosion is reset, and [seen] restarts at the population so
     later inserts resume Algorithm-R admission at the correct k/n
     rate. *)
  let draws_before = Sampling.Rng.draws t.rng in
  Array.fill t.ids 0 (Array.length t.ids) (-1);
  Array.fill t.tuples 0 (Array.length t.tuples) [||];
  Hashtbl.reset t.slot_of;
  t.filled <- 0;
  t.seen <- 0;
  t.population <- Array.length live;
  Array.iter
    (fun (id, tuple) ->
      if id < 0 || id >= t.next_id then
        invalid_arg "Backing_sample.rescan: id was never issued by this sample";
      t.seen <- t.seen + 1;
      if t.filled < t.capacity then begin
        put t t.filled id tuple;
        t.filled <- t.filled + 1
      end
      else begin
        let j = Sampling.Rng.int t.rng t.seen in
        if j < t.capacity then put t j id tuple
      end)
    live;
  Obs.Metrics.add_tuples t.metrics (Array.length live);
  Obs.Metrics.add_maintenance_ops t.metrics (Array.length live);
  Obs.Metrics.add_rng_draws t.metrics (Sampling.Rng.draws t.rng - draws_before)

let estimate_count t predicate =
  if t.population = 0 then
    (* All deleted (or nothing ever inserted): the exact-0 degenerate
       estimate, matching the empty-relation contract everywhere else. *)
    Count_estimator.selection_of_counts ~big_n:0 ~n:0 ~hits:0
  else if t.filled = 0 then
    (* Deletions consumed every sampled tuple while unsampled rows are
       still live: no unbiased estimate exists without a rebuild.
       Failure (not Invalid_argument masquerading as a caller bug)
       routes through the `raestat: error:` / JSON-error contract. *)
    failwith
      (Printf.sprintf
         "Backing_sample.estimate_count: sample exhausted by deletions (%d live tuples unsampled); rescan required"
         t.population)
  else begin
    (* One pass over the occupied slots where they lie: no copy of the
       sample, no relation. *)
    let keep = Relational.Predicate.compile t.schema predicate in
    let hits = ref 0 in
    for k = 0 to t.filled - 1 do
      if keep (Array.unsafe_get t.tuples k) then incr hits
    done;
    let hits = !hits in
    Obs.Metrics.add_tuples t.metrics t.filled;
    if t.filled >= t.population then
      (* Census: the sample IS the population. *)
      Count_estimator.selection_of_counts ~big_n:t.filled ~n:t.filled ~hits
    else Count_estimator.selection_of_counts ~big_n:t.population ~n:t.filled ~hits
  end
