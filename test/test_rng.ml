open Helpers
module Rng = Sampling.Rng

let test_deterministic () =
  let r1 = Rng.create ~seed:7 () and r2 = Rng.create ~seed:7 () in
  for i = 1 to 100 do
    Alcotest.(check bool)
      (Printf.sprintf "draw %d equal" i)
      true
      (Rng.bits64 r1 = Rng.bits64 r2)
  done

let test_seed_changes_stream () =
  let r1 = Rng.create ~seed:1 () and r2 = Rng.create ~seed:2 () in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits64 r1 = Rng.bits64 r2 then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_int_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let x = Rng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of bounds: %d" x
  done;
  Alcotest.(check int) "bound 1 is constant" 0 (Rng.int r 1);
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_int_roughly_uniform () =
  let r = rng () in
  let buckets = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  (* Chi-squared with 9 degrees of freedom: 99.9th percentile ≈ 27.9. *)
  let expected = float_of_int draws /. 10. in
  let chi2 =
    Array.fold_left
      (fun acc observed ->
        let d = float_of_int observed -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2=%.2f < 27.9" chi2) true (chi2 < 27.9)

let test_float_range_and_mean () =
  let r = rng () in
  let summary = ref Stats.Summary.empty in
  for _ = 1 to 50_000 do
    let x = Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %f" x;
    summary := Stats.Summary.add !summary x
  done;
  check_close ~tol:0.01 "mean ≈ 1/2" 0.5 (Stats.Summary.mean !summary);
  (* Var of U(0,1) is 1/12. *)
  check_close ~tol:0.05 "variance ≈ 1/12" (1. /. 12.) (Stats.Summary.variance !summary)

let test_gaussian_moments () =
  let r = rng () in
  let summary = ref Stats.Summary.empty in
  for _ = 1 to 50_000 do
    summary := Stats.Summary.add !summary (Rng.gaussian r)
  done;
  Alcotest.(check bool) "mean near 0" true (Float.abs (Stats.Summary.mean !summary) < 0.02);
  check_close ~tol:0.05 "unit variance" 1.0 (Stats.Summary.variance !summary)

let test_shuffle_is_permutation () =
  let r = rng () in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 100 (fun i -> i))

let test_shuffle_uniform_first_position () =
  (* Over many shuffles of [0;1;2], each value should land in slot 0
     about a third of the time. *)
  let r = rng () in
  let counts = Array.make 3 0 in
  let reps = 30_000 in
  for _ = 1 to reps do
    let a = [| 0; 1; 2 |] in
    Rng.shuffle_in_place r a;
    counts.(a.(0)) <- counts.(a.(0)) + 1
  done;
  Array.iteri
    (fun v c ->
      check_close ~tol:0.05
        (Printf.sprintf "value %d fraction" v)
        (1. /. 3.)
        (float_of_int c /. float_of_int reps))
    counts

let test_split_independence () =
  let parent = Rng.create ~seed:99 () in
  let child1 = Rng.split parent in
  let child2 = Rng.split parent in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.bits64 child1 = Rng.bits64 child2 then incr same
  done;
  Alcotest.(check int) "children differ" 0 !same

let test_copy_independent () =
  let r = Rng.create ~seed:5 () in
  let c = Rng.copy r in
  let from_r = Rng.bits64 r in
  let from_c = Rng.bits64 c in
  Alcotest.(check bool) "same next draw" true (from_r = from_c);
  ignore (Rng.bits64 r);
  ignore (Rng.bits64 r);
  (* The copy is not advanced by the original's draws. *)
  let r2 = Rng.create ~seed:5 () in
  ignore (Rng.bits64 r2);
  Alcotest.(check bool) "copy keeps own position" true (Rng.bits64 c = Rng.bits64 r2)

(* The stream is part of the reproducibility contract (every golden and
   every seeded estimate hangs on it): pin the first draws of seed 42
   through each typed view, and the parent's draw count after a split. *)
let test_pinned_stream () =
  let r = Rng.create ~seed:42 () in
  Alcotest.(check (array int64))
    "bits64"
    [| -3425465463722317665L; 5881210131331364753L; -297100157724070516L |]
    (Array.init 3 (fun _ -> Rng.bits64 r));
  Alcotest.(check (array int))
    "int" [| 656; 619; 157; 78; 622 |]
    (Array.init 5 (fun _ -> Rng.int r 1000));
  Alcotest.(check (array (float 0.)))
    "float"
    [| 0x1.a9679ed784ae4p-3; 0x1.dddfac6433694p-1; 0x1.1e7bf530041cfp-1 |]
    (Array.init 3 (fun _ -> Rng.float r));
  Alcotest.(check (array bool))
    "bool"
    [| true; false; true; true; false; false; false; false |]
    (Array.init 8 (fun _ -> Rng.bool r));
  let child = Rng.split r in
  Alcotest.(check int64) "split child" (-6017019654973286170L) (Rng.bits64 child);
  Alcotest.(check int) "parent draws" 20 (Rng.draws r)

(* Runs of [k] bounds from [bound], drawn three ways from one seed:
   [two_division_int], successive [Rng.int] calls and one
   [Rng.int_run].  The values, the draw counters and the next raw draw
   must agree.  The bounds straddle max_int/2, where the rejection
   limit halves (so a limit taken from the wrong bound shows), sit
   just above it, where about half of all draws are rejected, and run
   up to max_int. *)
let test_int_run_matches_int () =
  let rejections = ref 0 in
  List.iter
    (fun (bound, k) ->
      for seed = 1 to 40 do
        let oracle = Rng.create ~seed () and single = Rng.create ~seed () in
        let run = Rng.create ~seed () in
        let expected = Array.init k (fun i -> two_division_int oracle (bound + i)) in
        let singles = Array.init k (fun i -> Rng.int single (bound + i)) in
        let out = Array.make (k + 3) (-1) in
        Rng.int_run run out ~bound k;
        let label = Printf.sprintf "bound %d, k %d, seed %d" bound k seed in
        Alcotest.(check (array int)) (label ^ ": int") expected singles;
        Alcotest.(check (array int)) (label ^ ": int_run") expected (Array.sub out 0 k);
        Alcotest.(check (array int)) (label ^ ": past k untouched") [| -1; -1; -1 |]
          (Array.sub out k 3);
        Alcotest.(check int) (label ^ ": int draws") (Rng.draws oracle) (Rng.draws single);
        Alcotest.(check int) (label ^ ": int_run draws") (Rng.draws oracle) (Rng.draws run);
        let next = Rng.bits64 oracle in
        Alcotest.(check int64) (label ^ ": next after int") next (Rng.bits64 single);
        Alcotest.(check int64) (label ^ ": next after int_run") next (Rng.bits64 run);
        rejections := !rejections + Rng.draws oracle - 1 - k
      done)
    [
      (1, 300);
      (1000, 64);
      ((max_int / 2) - 10, 100);
      ((max_int / 2) + 1, 100);
      (max_int / 3 * 2, 50);
      (max_int - 99, 100);
    ];
  Alcotest.(check bool)
    (Printf.sprintf "rejections exercised (%d)" !rejections)
    true (!rejections > 1000);
  let r = Rng.create ~seed:3 () in
  Rng.int_run r [||] ~bound:7 0;
  Rng.int_run r [| 5 |] ~bound:max_int 0;
  Alcotest.(check int) "k = 0 draws nothing" 0 (Rng.draws r);
  List.iter
    (fun (name, out, bound, k) ->
      match Rng.int_run r out ~bound k with
      | () -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("bound 0", [| 0 |], 0, 1);
      ("k past the array", [| 0 |], 5, 2);
      ("negative k", [| 0 |], 5, -1);
      ("bound + k - 1 past max_int", [| 0; 0 |], max_int, 2);
    ]

let test_positive_float () =
  let r = rng () in
  for _ = 1 to 1_000 do
    if Rng.positive_float r <= 0. then Alcotest.fail "non-positive draw"
  done

let test_choose () =
  let r = rng () in
  let x = Rng.choose r [| 42 |] in
  Alcotest.(check int) "singleton" 42 x;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose r ([||] : int array)))

let suite =
  [
    Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
    Alcotest.test_case "different seeds differ" `Quick test_seed_changes_stream;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniform (chi2)" `Quick test_int_roughly_uniform;
    Alcotest.test_case "float range and moments" `Quick test_float_range_and_mean;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "shuffle uniform" `Quick test_shuffle_uniform_first_position;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
    Alcotest.test_case "int_run = successive int = two-division int" `Quick
      test_int_run_matches_int;
    Alcotest.test_case "positive_float" `Quick test_positive_float;
    Alcotest.test_case "choose" `Quick test_choose;
  ]
