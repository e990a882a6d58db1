module Bitset = Relational.Column.Bitset

let size_of_fraction ~fraction n =
  if n < 0 then invalid_arg "Srs.size_of_fraction: negative universe";
  if fraction <= 0. || fraction > 1. then
    invalid_arg "Srs.size_of_fraction: fraction must be in (0, 1]";
  if n = 0 then 0
  else
    let size = int_of_float (Float.round (fraction *. float_of_int n)) in
    max 1 (min n size)

(* Floyd's algorithm (Bentley and Floyd, "A sample of brilliance",
   CACM 30(9), 1987) over a bitset of the universe: for j = N − n …
   N − 1, draw t uniform on [0, j] and take t, or j if t is already
   taken.  By induction every size-n subset comes out with probability
   1/C(N, n).  That is exactly n bounded draws, with no float, no hash
   and no sort: the bitset reads the indices back in increasing order.
   The dispatch below keeps the bitset (N/63 words) within about 2n
   words. *)
let floyd rng ~n ~universe =
  let taken = Bitset.create universe in
  for j = universe - n to universe - 1 do
    let t = Rng.int rng (j + 1) in
    Bitset.set taken (if Bitset.get taken t then j else t)
  done;
  Bitset.positions taken

(* Sparse draws: Vitter's sequential sampling (Algorithm D with the
   Algorithm A finish), "An Efficient Algorithm for Sequential Random
   Sampling", ACM TOMS 13(1), 1987.  Emits the n selected indices in
   increasing order directly — no hash table, no sort, O(n) expected
   time and exactly n words of output allocation, where a bitset of
   the universe would dwarf the sample. *)

(* Algorithm A: skip distances by sequential search over the
   hypergeometric skip distribution.  O(universe - position) total, used
   once the remaining sample is a sizable share of what is left. *)
let method_a rng ~indices ~k ~n ~big_n ~position =
  let k = ref k and n = ref n and big_n = ref big_n and position = ref position in
  while !n >= 2 do
    let v = Rng.float rng in
    let s = ref 0 in
    let top = ref (float_of_int (!big_n - !n)) in
    let bigf = ref (float_of_int !big_n) in
    let quot = ref (!top /. !bigf) in
    while !quot > v do
      incr s;
      top := !top -. 1.;
      bigf := !bigf -. 1.;
      quot := !quot *. !top /. !bigf
    done;
    position := !position + !s;
    indices.(!k) <- !position;
    incr k;
    incr position;
    big_n := !big_n - !s - 1;
    decr n
  done;
  if !n = 1 then indices.(!k) <- !position + Rng.int rng !big_n

let method_d rng ~n ~universe =
  let indices = Array.make n 0 in
  (* Mutable cursor state: k selected so far, n' still to select, N'
     records still eligible, position = next eligible absolute index. *)
  let k = ref 0 and n' = ref n and big_n = ref universe and position = ref 0 in
  let alpha_inv = 13 in
  let ninv = ref (1. /. float_of_int n) in
  let vprime = ref (Float.exp (Float.log (Rng.positive_float rng) *. !ninv)) in
  let qu1 = ref (universe - n + 1) in
  while !n' > 1 && alpha_inv * !n' < !big_n do
    let nmin1inv = 1. /. float_of_int (!n' - 1) in
    let big_nf = float_of_int !big_n in
    let qu1f = float_of_int !qu1 in
    let s = ref 0 in
    let accepted = ref false in
    while not !accepted do
      (* D2: propose a skip S = floor(N'(1 - V'^(1/n'))). *)
      let x = ref 0. in
      let valid = ref false in
      while not !valid do
        x := big_nf *. (1. -. !vprime);
        s := int_of_float !x;
        if !s < !qu1 then valid := true
        else vprime := Float.exp (Float.log (Rng.positive_float rng) *. !ninv)
      done;
      (* D3: squeeze-accept. *)
      let u = Rng.positive_float rng in
      let y1 = Float.exp (Float.log (u *. big_nf /. qu1f) *. nmin1inv) in
      vprime :=
        y1 *. (1. -. (!x /. big_nf)) *. (qu1f /. (qu1f -. float_of_int !s));
      if !vprime <= 1. then accepted := true
      else begin
        (* D4: exact acceptance test. *)
        let y2 = ref 1. in
        let top = ref (big_nf -. 1.) in
        let bottom, limit =
          if !n' - 1 > !s then (big_nf -. float_of_int !n', !big_n - !s)
          else (big_nf -. float_of_int !s -. 1., !qu1)
        in
        let bottom = ref bottom in
        for _t = !big_n - 1 downto limit do
          y2 := !y2 *. !top /. !bottom;
          top := !top -. 1.;
          bottom := !bottom -. 1.
        done;
        if big_nf /. (big_nf -. !x) >= y1 *. Float.exp (Float.log !y2 *. nmin1inv)
        then begin
          vprime := Float.exp (Float.log (Rng.positive_float rng) *. nmin1inv);
          accepted := true
        end
        else vprime := Float.exp (Float.log (Rng.positive_float rng) *. !ninv)
      end
    done;
    (* Skip S records, select the next one. *)
    position := !position + !s;
    indices.(!k) <- !position;
    incr k;
    incr position;
    big_n := !big_n - !s - 1;
    qu1 := !qu1 - !s;
    decr n';
    ninv := 1. /. float_of_int (max 1 !n')
  done;
  if !n' > 1 then
    (* Dense tail: hand the remainder to Algorithm A. *)
    method_a rng ~indices ~k:!k ~n:!n' ~big_n:!big_n ~position:!position
  else if !n' = 1 then
    (* S = floor(N'·V') is the last skip, V' being Beta-distributed as
       the algorithm's invariant maintains. *)
    indices.(!k) <- !position + min (!big_n - 1) (int_of_float (float_of_int !big_n *. !vprime));
  indices

(* Metrics accounting: the index kernels record the indices generated
   and the PRNG draws they consumed (delta of the generator's draw
   counter — exact for Floyd's bounded draws and the rejection loops of
   Algorithm D); the gathers record the tuples materialized.  Counts
   are derived from the seed-determined stream, so they are identical
   on every run and every domain layout.

   Floyd runs while universe <= 128n, written so it cannot overflow.
   The constant is measured (release build): for n = 100, 1,000 and
   10,000, Floyd drew 1.1–1.6× faster than Algorithm D at N/n = 128,
   0.8–1.1× at 256 and 0.5–0.8× at 512. *)

let indices_without_replacement ?(metrics = Obs.Metrics.noop) rng ~n ~universe =
  if n < 0 then invalid_arg "Srs: negative sample size";
  if n > universe then invalid_arg "Srs: sample size exceeds universe";
  if n = 0 then [||]
  else begin
    let draws_before = Rng.draws rng in
    let indices =
      if n = universe then Array.init n (fun i -> i)
      else if (universe - 1) / 128 < n then floyd rng ~n ~universe
      else method_d rng ~n ~universe
    in
    Obs.Metrics.add_indices metrics n;
    Obs.Metrics.add_rng_draws metrics (Rng.draws rng - draws_before);
    indices
  end

let indices_with_replacement ?(metrics = Obs.Metrics.noop) rng ~n ~universe =
  if n < 0 then invalid_arg "Srs: negative sample size";
  if n > 0 && universe <= 0 then invalid_arg "Srs: empty universe";
  let draws_before = Rng.draws rng in
  let indices = Array.init n (fun _ -> Rng.int rng universe) in
  Obs.Metrics.add_indices metrics n;
  Obs.Metrics.add_rng_draws metrics (Rng.draws rng - draws_before);
  indices

let sample_without_replacement ?metrics rng ~n array =
  let indices =
    indices_without_replacement ?metrics rng ~n ~universe:(Array.length array)
  in
  Option.iter (fun m -> Obs.Metrics.add_tuples m n) metrics;
  (* Single fused gather: the index array doubles as the output slot
     count, so there is exactly one pass and one result allocation. *)
  Array.map (fun i -> Array.unsafe_get array i) indices

(* The relation samplers return [Relation.sample base ids]: the drawn
   rows in draw order, sharing the base's tuples and, when the base has
   a columnar view, gathering their columns from it. *)

let relation_without_replacement ?metrics rng ~n relation =
  let universe = Relational.Relation.cardinality relation in
  if n = universe then begin
    (* A census draws nothing and keeps every row in order: the sample
       is the base itself, with the accounting of the identity draw. *)
    Option.iter
      (fun m ->
        Obs.Metrics.add_indices m n;
        Obs.Metrics.add_tuples m n)
      metrics;
    relation
  end
  else begin
    let ids = indices_without_replacement ?metrics rng ~n ~universe in
    Option.iter (fun m -> Obs.Metrics.add_tuples m n) metrics;
    Relational.Relation.sample relation ids
  end

let relation_fraction ?metrics rng ~fraction relation =
  let n = size_of_fraction ~fraction (Relational.Relation.cardinality relation) in
  relation_without_replacement ?metrics rng ~n relation

let relation_with_replacement ?metrics rng ~n relation =
  let ids =
    indices_with_replacement ?metrics rng ~n
      ~universe:(Relational.Relation.cardinality relation)
  in
  Option.iter (fun m -> Obs.Metrics.add_tuples m n) metrics;
  Relational.Relation.sample relation ids
