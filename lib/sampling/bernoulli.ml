let check_p p =
  if p < 0. || p > 1. then invalid_arg "Bernoulli: p must be in [0, 1]"

let sample rng ~p array =
  check_p p;
  let kept = ref [] in
  Array.iter (fun x -> if Rng.float rng < p then kept := x :: !kept) array;
  Array.of_list (List.rev !kept)

let relation rng ~p r =
  let ids = sample rng ~p (Array.init (Relational.Relation.cardinality r) Fun.id) in
  Relational.Relation.sample r ids

let expected_size ~p n =
  check_p p;
  p *. float_of_int n

(* --- maintained sample ------------------------------------------------ *)

(* Inclusion events are independent coins, so the sample is maintained
   exactly under writes: an insert flips its own coin once, a delete
   removes the element if (and only if) its coin came up — the
   surviving table is distributed identically to a fresh Bernoulli(p)
   sample of the live population (Gibbons & Matias). *)
type 'a maintained = {
  rng : Rng.t;
  p : float;
  kept : (int, 'a) Hashtbl.t;
  metrics : Obs.Metrics.t;
}

let maintained ?(metrics = Obs.Metrics.noop) rng ~p () =
  check_p p;
  { rng; p; kept = Hashtbl.create 64; metrics }

let prob m = m.p

let size m = Hashtbl.length m.kept

let insert m ~id x =
  let draws_before = Rng.draws m.rng in
  Obs.Metrics.add_maintenance_ops m.metrics 1;
  if Rng.float m.rng < m.p then Hashtbl.replace m.kept id x;
  Obs.Metrics.add_rng_draws m.metrics (Rng.draws m.rng - draws_before)

let delete m ~id =
  Obs.Metrics.add_maintenance_ops m.metrics 1;
  Hashtbl.remove m.kept id

let contents m =
  let pairs = Hashtbl.fold (fun id x acc -> (id, x) :: acc) m.kept [] in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  Array.of_list sorted
