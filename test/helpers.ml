(* Shared helpers for the test suites. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Predicate = Relational.Predicate
module Expr = Relational.Expr
module Eval = Relational.Eval
module Catalog = Relational.Catalog

let rng ?(seed = 4242) () = Sampling.Rng.create ~seed ()

(* The bounded draw as it was before the division-free acceptance test,
   with the rejection limit computed on every call: the oracle that
   [Rng.int], [Rng.int_run] and Floyd's loop must match raw draw for
   raw draw. *)
let two_division_int r bound =
  let bits62 () = Int64.to_int (Int64.logand (Sampling.Rng.bits64 r) 0x3FFFFFFFFFFFFFFFL) in
  let limit = max_int - (max_int mod bound) in
  let x = ref (bits62 ()) in
  while !x > limit do
    x := bits62 ()
  done;
  !x mod bound

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* Relative-tolerance float check for Monte-Carlo results. *)
let check_close ~tol name expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %g, got %g (tolerance %g%%)" name expected actual
      (100. *. tol)

let int_relation ?(attribute = "a") values =
  Relation.make
    (Schema.of_list [ (attribute, Value.Tint) ])
    (List.map (fun v -> Tuple.make [ Value.Int v ]) values)

let two_column_relation ?(names = ("a", "b")) rows =
  let a, b = names in
  Relation.make
    (Schema.of_list [ (a, Value.Tint); (b, Value.Tint) ])
    (List.map (fun (x, y) -> Tuple.make [ Value.Int x; Value.Int y ]) rows)

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Mean of [reps] draws of [f]. *)
let monte_carlo ~reps f =
  let acc = ref 0. in
  for _ = 1 to reps do
    acc := !acc +. f ()
  done;
  !acc /. float_of_int reps

(* All size-[k] subsets of [0, n), for exhaustive unbiasedness checks. *)
let rec subsets k n start =
  if k = 0 then [ [] ]
  else if start >= n then []
  else
    let with_start = List.map (fun rest -> start :: rest) (subsets (k - 1) n (start + 1)) in
    with_start @ subsets k n (start + 1)

let all_samples ~n ~k = subsets k n 0

(* Every slot of [Relational.Scratch] holds an array of [max_words], a
   length no test takes: the next run makes every array fresh.  The
   first [slots] frees fill the empty slots and the next [slots] evict
   each slot once, in turn. *)
let cold_pool () =
  for _ = 1 to 2 * Relational.Scratch.slots do
    Relational.Scratch.free (Array.make Relational.Scratch.max_words 0)
  done

(* [f ()] on a fresh domain, over a cold pool. *)
let cold_run f =
  cold_pool ();
  Domain.join (Domain.spawn f)

(* Int relations of [n] rows whose columns are large enough for the
   pool: a sample of a few percent is hundreds of ids, and its key
   tables span thousands of codes.  [g] keys are [a]'s range half the
   time and a code past a billion the other half, so a join on them
   takes the open-addressing table.  Every view is warm, as the daemon
   keeps them, so samples are read in place. *)
let pool_catalog =
  lazy
    (let g = Sampling.Rng.create ~seed:31 () in
     let rel names n draw =
       let r = two_column_relation ~names (List.init n (fun _ -> draw ())) in
       Relation.warm_view r;
       r
     in
     let int = Sampling.Rng.int g in
     Catalog.of_list
       [
         ("r", rel ("a", "b") 20_000 (fun () -> (int 3_000, int 100)));
         ("s", rel ("c", "d") 12_000 (fun () -> (int 3_000, int 100)));
         ("t", rel ("e", "f") 8_000 (fun () -> (int 100, int 50)));
         ( "w",
           rel ("g", "h") 20_000 (fun () ->
               ((if int 2 = 0 then int 3_000 else 1_000_000_000 + int 1_000_000), int 100)) );
       ])
