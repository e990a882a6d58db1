open Helpers
module Srs = Sampling.Srs
module Rng = Sampling.Rng

let test_size_of_fraction () =
  Alcotest.(check int) "half" 50 (Srs.size_of_fraction ~fraction:0.5 100);
  Alcotest.(check int) "full" 100 (Srs.size_of_fraction ~fraction:1.0 100);
  Alcotest.(check int) "tiny clamps to 1" 1 (Srs.size_of_fraction ~fraction:0.0001 100);
  Alcotest.(check int) "empty universe" 0 (Srs.size_of_fraction ~fraction:0.5 0);
  Alcotest.(check bool) "bad fraction" true
    (try
       ignore (Srs.size_of_fraction ~fraction:1.5 10);
       false
     with Invalid_argument _ -> true)

let test_wor_properties () =
  let r = rng () in
  for _ = 1 to 50 do
    let idx = Srs.indices_without_replacement r ~n:10 ~universe:30 in
    Alcotest.(check int) "size" 10 (Array.length idx);
    Array.iter (fun i -> if i < 0 || i >= 30 then Alcotest.failf "oob %d" i) idx;
    (* Sorted increasing implies distinct when strict. *)
    for k = 1 to 9 do
      if idx.(k) <= idx.(k - 1) then Alcotest.fail "not strictly increasing"
    done
  done

let test_wor_full_draw () =
  let r = rng () in
  let idx = Srs.indices_without_replacement r ~n:12 ~universe:12 in
  Alcotest.(check (list int)) "whole universe" (List.init 12 (fun i -> i))
    (Array.to_list idx)

let test_wor_inclusion_uniform () =
  (* Every element of a 6-universe must appear in a size-2 sample with
     probability 2/6. *)
  let r = rng () in
  let counts = Array.make 6 0 in
  let reps = 30_000 in
  for _ = 1 to reps do
    let idx = Srs.indices_without_replacement r ~n:2 ~universe:6 in
    Array.iter (fun i -> counts.(i) <- counts.(i) + 1) idx
  done;
  Array.iteri
    (fun i c ->
      check_close ~tol:0.04
        (Printf.sprintf "inclusion of %d" i)
        (2. /. 6.)
        (float_of_int c /. float_of_int reps))
    counts

let test_wor_subset_uniform () =
  (* All C(4,2)=6 subsets of a 4-universe equally likely. *)
  let r = rng () in
  let table = Hashtbl.create 6 in
  let reps = 30_000 in
  for _ = 1 to reps do
    let idx = Srs.indices_without_replacement r ~n:2 ~universe:4 in
    let key = (idx.(0), idx.(1)) in
    Hashtbl.replace table key (1 + Option.value (Hashtbl.find_opt table key) ~default:0)
  done;
  Alcotest.(check int) "all subsets seen" 6 (Hashtbl.length table);
  Hashtbl.iter
    (fun (i, j) c ->
      check_close ~tol:0.06
        (Printf.sprintf "subset (%d,%d)" i j)
        (1. /. 6.)
        (float_of_int c /. float_of_int reps))
    table

let test_wr_size_and_range () =
  let r = rng () in
  let idx = Srs.indices_with_replacement r ~n:1000 ~universe:5 in
  Alcotest.(check int) "size" 1000 (Array.length idx);
  Array.iter (fun i -> if i < 0 || i >= 5 then Alcotest.failf "oob %d" i) idx;
  (* With replacement over 5 values, 1000 draws must repeat. *)
  let distinct = List.sort_uniq Int.compare (Array.to_list idx) in
  Alcotest.(check bool) "repeats happen" true (List.length distinct <= 5)

let test_errors () =
  let r = rng () in
  Alcotest.(check bool) "n too large" true
    (try
       ignore (Srs.indices_without_replacement r ~n:5 ~universe:3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative n" true
    (try
       ignore (Srs.indices_without_replacement r ~n:(-1) ~universe:3);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wr empty universe" true
    (try
       ignore (Srs.indices_with_replacement r ~n:1 ~universe:0);
       false
     with Invalid_argument _ -> true)

let test_relation_sampling () =
  let r = rng () in
  let relation = int_relation (List.init 40 (fun i -> i)) in
  let sample = Srs.relation_without_replacement r ~n:10 relation in
  Alcotest.(check int) "size" 10 (Relation.cardinality sample);
  Alcotest.(check bool) "schema preserved" true
    (Schema.equal (Relation.schema relation) (Relation.schema sample));
  Alcotest.(check bool) "sample is subset (distinct values here)" true
    (Relation.is_set sample);
  let full = Srs.relation_fraction r ~fraction:1.0 relation in
  Alcotest.(check int) "fraction 1 = all" 40 (Relation.cardinality full)

let prop_sample_size =
  qcheck_case "sample has requested size"
    QCheck.(pair (int_range 0 20) (int_range 20 60))
    (fun (n, universe) ->
      let r = rng ~seed:(n + (universe * 1000)) () in
      Array.length (Srs.indices_without_replacement r ~n ~universe) = n)

(* ------------------------------------------------------------------ *)
(* Distribution tests.  SRSWOR must give every size-n subset of the
   universe probability 1/C(N, n), whichever algorithm draws it, so the
   tests below check the design, not a draw stream: subset frequencies,
   first-order inclusion n/N and second-order inclusion
   n(n-1)/(N(N-1)).  The sampler has two branches: Floyd's algorithm
   over a bitset while universe <= 128n, Vitter's Algorithm D above.
   Each test names the branch its draws take. *)

let check_invariants ~n ~universe idx =
  Alcotest.(check int) "exact n" n (Array.length idx);
  Array.iter (fun i -> if i < 0 || i >= universe then Alcotest.failf "oob %d" i) idx;
  for k = 1 to n - 1 do
    if idx.(k) <= idx.(k - 1) then Alcotest.fail "not strictly increasing"
  done

let test_sparse_invariants () =
  let r = rng ~seed:808 () in
  (* universe = 5000 > 128·25: every draw is Algorithm D's. *)
  for _ = 1 to 200 do
    check_invariants ~n:25 ~universe:5_000
      (Srs.indices_without_replacement r ~n:25 ~universe:5_000)
  done

(* A Pearson statistic over [cells] cells must stay within 6 sigma of
   its chi-square mean, so a correct sampler never flakes while a
   biased one (an off-by-one in a skip or a bounded draw) fails. *)
let check_chi_square label ~cells stat =
  let df = float_of_int (cells - 1) in
  let bound = df +. (6. *. Float.sqrt (2. *. df)) in
  if stat > bound then
    Alcotest.failf "%s chi-square %.1f exceeds %.1f (df %.0f)" label stat bound df

let pearson ~expected counts =
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0. counts

(* Pearson chi-square of per-index inclusion counts against the uniform
   inclusion probability n/universe.  For SRSWOR the statistic is
   approximately (1 − n/universe)·χ²(universe − 1), so it is scaled by
   1/(1 − n/universe).  Every draw is also checked for size, range and
   order. *)
let inclusion_chi_square ~seed ~n ~universe ~reps =
  let r = rng ~seed () in
  let counts = Array.make universe 0 in
  for _ = 1 to reps do
    let idx = Srs.indices_without_replacement r ~n ~universe in
    check_invariants ~n ~universe idx;
    Array.iter (fun i -> counts.(i) <- counts.(i) + 1) idx
  done;
  let expected = float_of_int (reps * n) /. float_of_int universe in
  let f = float_of_int n /. float_of_int universe in
  pearson ~expected counts /. (1. -. f)

let check_inclusion ~seed ~n ~universe ~reps =
  check_chi_square
    (Printf.sprintf "inclusion of %d of %d" n universe)
    ~cells:universe
    (inclusion_chi_square ~seed ~n ~universe ~reps)

let test_sparse_inclusion_chi_square () =
  (* 5 of 1,000 > 128·5: Algorithm D. *)
  check_inclusion ~seed:809 ~n:5 ~universe:1_000 ~reps:20_000

let test_dense_inclusion_chi_square () =
  (* 16 of 64 = 4n: Floyd. *)
  check_inclusion ~seed:810 ~n:16 ~universe:64 ~reps:20_000

(* The edges of the design, and the sizes either side of the cutoff:
   one element (n = 1) on each branch, all but one (n = N − 1, Floyd),
   and N = 128n (Floyd) against 128n + 1 (Algorithm D) at a small and
   a larger n. *)
let test_inclusion_edges () =
  List.iteri
    (fun i (n, universe, reps) -> check_inclusion ~seed:(820 + i) ~n ~universe ~reps)
    [
      (1, 50, 10_000);
      (1, 300, 30_000);
      (29, 30, 3_000);
      (2, 256, 20_000);
      (2, 257, 20_000);
      (40, 5_120, 2_000);
      (40, 5_121, 2_000);
    ]

(* Joint inclusion: every unordered pair should appear together with
   probability n(n−1)/(N(N−1)).  Catches samplers with correct
   marginals but broken joint structure.  Pairs are counted in an
   N × N table at (smaller, larger). *)
let pair_chi_square ~seed ~n ~universe ~reps =
  let r = rng ~seed () in
  let counts = Array.make (universe * universe) 0 in
  for _ = 1 to reps do
    let idx = Srs.indices_without_replacement r ~n ~universe in
    for a = 0 to n - 1 do
      for b = a + 1 to n - 1 do
        let key = (idx.(a) * universe) + idx.(b) in
        counts.(key) <- counts.(key) + 1
      done
    done
  done;
  let pairs = universe * (universe - 1) / 2 in
  let expected = float_of_int (reps * n * (n - 1) / 2) /. float_of_int pairs in
  let cells = ref [] in
  for i = 0 to universe - 1 do
    for j = i + 1 to universe - 1 do
      cells := counts.((i * universe) + j) :: !cells
    done
  done;
  check_chi_square
    (Printf.sprintf "pairs of %d of %d" n universe)
    ~cells:pairs
    (pearson ~expected (Array.of_list !cells))

let test_sparse_pair_inclusion () =
  (* 3 of 400 > 128·3: Algorithm D.  79,800 pairs at about 7.5 each. *)
  pair_chi_square ~seed:811 ~n:3 ~universe:400 ~reps:200_000

let test_dense_pair_inclusion () =
  (* 4 of 40 = 10n: Floyd. *)
  pair_chi_square ~seed:812 ~n:4 ~universe:40 ~reps:30_000

(* The whole design on Floyd's branch: each of the C(10, 3) = 120
   subsets of 10 has probability 1/120.  A sorted draw (a, b, c) is
   counted at 100a + 10b + c. *)
let test_all_subsets_chi_square () =
  let universe = 10 and n = 3 and reps = 24_000 in
  let r = rng ~seed:813 () in
  let counts = Array.make 1_000 0 in
  for _ = 1 to reps do
    let idx = Srs.indices_without_replacement r ~n ~universe in
    check_invariants ~n ~universe idx;
    let key = (100 * idx.(0)) + (10 * idx.(1)) + idx.(2) in
    counts.(key) <- counts.(key) + 1
  done;
  let subsets = ref [] in
  for a = 0 to universe - 1 do
    for b = a + 1 to universe - 1 do
      for c = b + 1 to universe - 1 do
        subsets := counts.((100 * a) + (10 * b) + c) :: !subsets
      done
    done
  done;
  let cells = List.length !subsets in
  Alcotest.(check int) "C(10, 3) subsets" 120 cells;
  check_chi_square "subsets of 3 of 10" ~cells
    (pearson ~expected:(float_of_int reps /. float_of_int cells) (Array.of_list !subsets))

(* Pinned seed → index traces, one per branch, so any rewrite of the
   sampler is observably reproducible (or observably not).  Regenerate
   by printing the draws if a branch begins consuming the Rng stream
   differently on purpose. *)
let golden_floyd = [ 0; 16; 40; 55; 69; 77; 80; 90 ]
let golden_method_d = [ 142; 518; 1016; 1304; 1500; 1550; 1782; 1957 ]

let test_golden_determinism () =
  let draw universe =
    Array.to_list (Srs.indices_without_replacement (rng ~seed:12345 ()) ~n:8 ~universe)
  in
  Alcotest.(check (list int)) "Floyd golden (8 of 100)" golden_floyd (draw 100);
  Alcotest.(check (list int)) "Algorithm D golden (8 of 2,000)" golden_method_d (draw 2_000)

(* Floyd's loop as it drew before the bounds were drawn in chunks: one
   two-division bounded draw per j, over a bool array.  The chunked
   loop must give the same indices from the same raw draws, across the
   chunk edges (n = 255, 256, 257, 512, 513) and the whole Floyd branch
   (N = n + 1 up to 128n); a census draws nothing on either. *)
let per_call_floyd r ~n ~universe =
  if n = universe then Array.init n Fun.id
  else begin
    let taken = Array.make universe false in
    for j = universe - n to universe - 1 do
      let t = two_division_int r (j + 1) in
      taken.(if taken.(t) then j else t) <- true
    done;
    Array.of_list (List.filter (Array.get taken) (List.init universe Fun.id))
  end

let test_floyd_matches_per_call () =
  List.iter
    (fun (n, seeds) ->
      List.iter
        (fun universe ->
          for seed = 1 to seeds do
            let oracle = Rng.create ~seed () and r = Rng.create ~seed () in
            let label = Printf.sprintf "%d of %d, seed %d" n universe seed in
            Alcotest.(check (array int))
              (label ^ ": indices")
              (per_call_floyd oracle ~n ~universe)
              (Srs.indices_without_replacement r ~n ~universe);
            Alcotest.(check int) (label ^ ": draws") (Rng.draws oracle) (Rng.draws r);
            Alcotest.(check int64) (label ^ ": next draw") (Rng.bits64 oracle) (Rng.bits64 r)
          done)
        [ n; n + 1; 2 * n; (16 * n) + 3; 128 * n ])
    [ (1, 40); (2, 40); (255, 12); (256, 12); (257, 12); (512, 6); (513, 6); (4_000, 2) ]

let test_repeatability_and_divergence () =
  let draw seed =
    Array.to_list (Srs.indices_without_replacement (rng ~seed ()) ~n:20 ~universe:10_000)
  in
  Alcotest.(check (list int)) "same seed, same indices" (draw 7) (draw 7);
  Alcotest.(check bool) "different seed, different indices" true (draw 7 <> draw 8)

let suite =
  [
    Alcotest.test_case "size_of_fraction" `Quick test_size_of_fraction;
    Alcotest.test_case "WOR size/range/distinct" `Quick test_wor_properties;
    Alcotest.test_case "WOR full draw" `Quick test_wor_full_draw;
    Alcotest.test_case "WOR inclusion uniform" `Quick test_wor_inclusion_uniform;
    Alcotest.test_case "WOR subsets uniform" `Quick test_wor_subset_uniform;
    Alcotest.test_case "WR size and range" `Quick test_wr_size_and_range;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "relation sampling" `Quick test_relation_sampling;
    prop_sample_size;
    Alcotest.test_case "sparse-path invariants" `Quick test_sparse_invariants;
    Alcotest.test_case "sparse inclusion chi-square" `Slow test_sparse_inclusion_chi_square;
    Alcotest.test_case "dense inclusion chi-square" `Slow test_dense_inclusion_chi_square;
    Alcotest.test_case "sparse pair inclusion" `Slow test_sparse_pair_inclusion;
    Alcotest.test_case "dense pair inclusion" `Slow test_dense_pair_inclusion;
    Alcotest.test_case "inclusion edges and cutoff" `Slow test_inclusion_edges;
    Alcotest.test_case "all subsets chi-square" `Slow test_all_subsets_chi_square;
    Alcotest.test_case "golden determinism" `Quick test_golden_determinism;
    Alcotest.test_case "chunked Floyd = per-call Floyd" `Quick test_floyd_matches_per_call;
    Alcotest.test_case "repeatability / divergence" `Quick test_repeatability_and_divergence;
  ]
