(* The pool of large int arrays: [take] is [Array.make n 0], a pooled
   array is handed to one taker at a time, short and over-long arrays
   bypass it, and what it retains stays within its bound.  The lengths
   below are above [min_words], so every case reaches the slots. *)
module Scratch = Relational.Scratch

let all_zero a = Array.for_all (fun x -> x = 0) a

let test_take_is_make () =
  Helpers.cold_pool ();
  List.iter
    (fun n ->
      let a = Scratch.take n in
      Alcotest.(check int) "fresh length" n (Array.length a);
      Alcotest.(check bool) "fresh zeros" true (all_zero a);
      Array.fill a 0 n 7;
      Scratch.free a;
      let b = Scratch.take n in
      Alcotest.(check bool) (Printf.sprintf "%d words reused" n) true (b == a);
      Alcotest.(check int) "reused length" n (Array.length b);
      Alcotest.(check bool) "reused zeros" true (all_zero b))
    [ Scratch.min_words + 1; 1000; 4321; Scratch.max_words - 1 ];
  (* The cap itself is pooled. *)
  let a = Scratch.take Scratch.max_words in
  Scratch.free a;
  Alcotest.(check bool) "max_words reused" true (Scratch.take Scratch.max_words == a);
  Alcotest.check_raises "negative" (Invalid_argument "Array.make") (fun () ->
      ignore (Scratch.take (-1)))

let test_bypass () =
  Helpers.cold_pool ();
  List.iter
    (fun n ->
      let a = Scratch.take n in
      Alcotest.(check int) "length" n (Array.length a);
      let before = Scratch.retained () in
      Scratch.free a;
      Alcotest.(check int) (Printf.sprintf "%d words not retained" n) before (Scratch.retained ());
      Alcotest.(check bool) (Printf.sprintf "%d words not reused" n) false (Scratch.take n == a))
    [ 1; Scratch.min_words; Scratch.max_words + 1 ]

let test_bound () =
  Alcotest.(check int) "4 MiB" (4 lsl 20) (Scratch.slots * Scratch.max_words * 8);
  for k = 1 to 5 * Scratch.slots do
    Scratch.free (Array.make Scratch.max_words 0);
    Scratch.free (Array.make (Scratch.min_words + k) 0);
    Alcotest.(check bool) "within the bound" true
      (Scratch.retained () <= Scratch.slots * Scratch.max_words)
  done;
  Helpers.cold_pool ();
  Alcotest.(check int) "every slot full" (Scratch.slots * Scratch.max_words) (Scratch.retained ())

(* Worker [w] runs [rounds] of: take an array of 300 words, the length
   every worker takes, so they contend for the same slots; check it is
   zero, stamp it with a value no other worker writes, let the others
   run, check the stamp is intact, free it.  An array held by two takers
   at once shows as a stamp overwritten or a non-zero array at [take];
   the result is the number of such rounds. *)
let worker ~pause ~rounds w () =
  let bad = ref 0 in
  for r = 0 to rounds - 1 do
    let a = Scratch.take 300 in
    if not (all_zero a) then incr bad;
    let stamp = (w * rounds) + r + 1 in
    Array.fill a 0 (Array.length a) stamp;
    pause r;
    if not (Array.for_all (fun x -> x = stamp) a) then incr bad;
    Scratch.free a
  done;
  !bad

let test_exclusive_domains () =
  Helpers.cold_pool ();
  let work = worker ~pause:(fun _ -> Domain.cpu_relax ()) ~rounds:200_000 in
  let domains = List.init 2 (fun w -> Domain.spawn (work w)) in
  Alcotest.(check int) "no array held twice" 0
    (List.fold_left (fun bad d -> bad + Domain.join d) 0 domains)

(* Two systhreads of one domain, which switch at a yield while one
   holds its array, and at any poll point the runtime's tick picks. *)
let test_exclusive_threads () =
  Helpers.cold_pool ();
  let bad = Array.make 2 0 in
  let work = worker ~pause:(fun r -> if r mod 3 = 0 then Thread.yield ()) ~rounds:5_000 in
  let threads = Array.init 2 (fun w -> Thread.create (fun () -> bad.(w) <- work w ()) ()) in
  Array.iter Thread.join threads;
  Alcotest.(check int) "no array held twice" 0 (bad.(0) + bad.(1))

let suite =
  [
    Alcotest.test_case "take is Array.make" `Quick test_take_is_make;
    Alcotest.test_case "short and long arrays bypass" `Quick test_bypass;
    Alcotest.test_case "retention bound" `Quick test_bound;
    Alcotest.test_case "one taker under 2 domains" `Quick test_exclusive_domains;
    Alcotest.test_case "one taker under 2 systhreads" `Quick test_exclusive_threads;
  ]
