open Helpers
module SR = Raestat.Stream_relation
module Estimate = Stats.Estimate
module P = Predicate

let schema = Schema.of_list [ ("a", Value.Tint) ]

let tuple v = Tuple.make [ Value.Int v ]

let value tu = match Tuple.get tu 0 with Value.Int v -> v | _ -> assert false

let test_insert_delete_epoch () =
  let t = SR.create ~seed:1 ~schema () in
  Alcotest.(check int) "epoch 0" 0 (SR.epoch t);
  let id = SR.insert t (tuple 7) in
  Alcotest.(check int) "first id" 0 id;
  Alcotest.(check int) "epoch bumped" 1 (SR.epoch t);
  Alcotest.(check int) "population" 1 (SR.population t);
  Alcotest.(check bool) "live" true (SR.mem t id);
  Alcotest.(check bool) "delete" true (SR.delete t id);
  Alcotest.(check int) "epoch bumped again" 2 (SR.epoch t);
  Alcotest.(check int) "empty" 0 (SR.population t);
  Alcotest.(check bool) "dead delete is a no-op" false (SR.delete t id);
  Alcotest.(check int) "no bump on no-op" 2 (SR.epoch t)

let test_ingest_batch () =
  let t = SR.create ~seed:2 ~schema () in
  let c = SR.ingest t ~inserts:(Array.init 10 tuple) ~deletes:[||] in
  Alcotest.(check int) "first id" 0 c.SR.first_id;
  Alcotest.(check int) "inserted" 10 c.SR.inserted;
  Alcotest.(check int) "one epoch per batch" 1 (SR.epoch t);
  let c = SR.ingest t ~inserts:(Array.init 5 (fun v -> tuple (v + 10))) ~deletes:[| 0; 1; 99 |] in
  Alcotest.(check int) "second batch first id" 10 c.SR.first_id;
  Alcotest.(check int) "deletes count live only" 2 c.SR.deleted;
  Alcotest.(check int) "population" 13 (SR.population t);
  Alcotest.(check int) "epoch 2" 2 (SR.epoch t);
  let c = SR.ingest t ~inserts:[||] ~deletes:[| 0 |] in
  Alcotest.(check int) "empty batch: first_id -1" (-1) c.SR.first_id;
  Alcotest.(check int) "no-op batch: no bump" 2 (SR.epoch t)

let test_estimate_fresh_after_writes () =
  (* The estimate must reflect the batch that just landed, with no
     rescan: census while underfull, so exact. *)
  let t = SR.create ~capacity:100 ~seed:3 ~schema () in
  ignore (SR.ingest t ~inserts:(Array.init 50 tuple) ~deletes:[||]);
  let est = SR.estimate_count t (P.lt (P.attr "a") (P.vint 20)) in
  check_float "exact at census" 20. est.Estimate.point;
  ignore (SR.ingest t ~inserts:(Array.init 50 (fun v -> tuple (v + 50))) ~deletes:[||]);
  let est = SR.estimate_count t (P.lt (P.attr "a") (P.vint 20)) in
  check_float "still exact after second batch" 20. est.Estimate.point

let test_estimate_sampled () =
  let t = SR.create ~capacity:400 ~seed:4 ~schema () in
  let inserts = Array.init 20_000 (fun v -> tuple (v mod 100)) in
  ignore (SR.ingest t ~inserts ~deletes:[||]);
  let est = SR.estimate_count t (P.lt (P.attr "a") (P.vint 25)) in
  check_close ~tol:0.25 "sampled estimate sane" 5_000. est.Estimate.point

let test_snapshot_memoized () =
  let t = SR.create ~seed:5 ~schema () in
  ignore (SR.ingest t ~inserts:(Array.init 100 tuple) ~deletes:[||]);
  let s1 = SR.snapshot t in
  let s2 = SR.snapshot t in
  Alcotest.(check bool) "same epoch, same physical relation" true (s1 == s2);
  Alcotest.(check int) "cardinality" 100 (Relation.cardinality s1);
  ignore (SR.delete t 0);
  let s3 = SR.snapshot t in
  Alcotest.(check bool) "new epoch, fresh relation" false (s1 == s3);
  Alcotest.(check int) "tracks delete" 99 (Relation.cardinality s3);
  (* Id order = insertion order. *)
  Alcotest.(check int) "first survivor" 1 (value (Relation.tuple s3 0))

(* A snapshot reads the log's rows, so it must read the same tuples
   after appends, deletes and a compaction of the log under it, and
   after an append that moves the log to larger arrays.  That holds
   for a snapshot first read early and for one first read only after
   all of those writes, whose liveness must come from its own copy of
   the mask. *)
let test_snapshot_outlives_writes () =
  let t = SR.create ~capacity:4 ~seed:12 ~schema () in
  (* Twenty tuples: the log's arrays hold 32 slots. *)
  ignore (SR.ingest t ~inserts:(Array.init 20 tuple) ~deletes:[||]);
  let snap = SR.snapshot t in
  let expected = List.init 20 Fun.id in
  (* Through a sample, so the snapshot's own tuples stay unbuilt. *)
  let through_sample snap =
    let all = Array.init (Relation.cardinality snap) Fun.id in
    Array.to_list (Array.map value (Relation.tuples (Relation.sample snap all)))
  in
  let check event = Alcotest.(check (list int)) event expected (through_sample snap) in
  ignore (SR.ingest t ~inserts:(Array.init 3 (fun k -> tuple (20 + k))) ~deletes:[||]);
  check "after appends into the same arrays";
  let unread = SR.snapshot t in
  ignore (SR.ingest t ~inserts:[||] ~deletes:[| 0; 3; 7 |]);
  check "after deletes";
  (* 20 live, 3 dead: the ninth of these deletes leaves more dead slots
     than live ones, and the log compacts to 11 slots in 22. *)
  ignore (SR.ingest t ~inserts:[||] ~deletes:(Array.init 9 (fun i -> i + 8)));
  check "after a compaction";
  ignore (SR.ingest t ~inserts:(Array.init 12 (fun k -> tuple (23 + k))) ~deletes:[||]);
  check "after an append that grows the arrays";
  Alcotest.(check (list int))
    "read directly" expected
    (Array.to_list (Array.map value (Relation.tuples snap)));
  Alcotest.(check int) "unread snapshot's size" 23 (Relation.cardinality unread);
  Alcotest.(check (list int))
    "a snapshot first read after the deletes, the compaction and the growth"
    (List.init 23 Fun.id) (through_sample unread);
  Alcotest.(check (list int))
    "a fresh snapshot holds the survivors"
    ([ 1; 2; 4; 5; 6 ] @ List.init 18 (fun k -> 17 + k))
    (Array.to_list (Array.map value (Relation.tuples (SR.snapshot t))))

let test_maintained_samples () =
  let t =
    SR.create ~capacity:50 ~bernoulli:0.2 ~window:100 ~window_chains:8 ~seed:6 ~schema ()
  in
  ignore (SR.ingest t ~inserts:(Array.init 5_000 tuple) ~deletes:[||]);
  check_float "bernoulli p" 0.2 (Option.get (SR.bernoulli_p t));
  let bsize = Option.get (SR.bernoulli_size t) in
  (* Binomial(5000, 0.2): mean 1000, sd ≈ 28. *)
  Alcotest.(check bool) "bernoulli near mean" true (abs (bsize - 1000) < 150);
  let b = Option.get (SR.bernoulli_sample t) in
  Alcotest.(check int) "bernoulli relation size" bsize (Relation.cardinality b);
  let w = Option.get (SR.window_sample t) in
  Alcotest.(check int) "one draw per chain" 8 (Array.length w);
  Array.iter
    (fun tu ->
      let v = value tu in
      if v < 4_900 then Alcotest.failf "window draw %d outside last 100" v)
    w;
  Alcotest.(check int) "window size" 100 (Option.get (SR.window_size t))

let test_delete_all_consistent_empty () =
  let t = SR.create ~capacity:10 ~bernoulli:0.5 ~seed:7 ~schema () in
  ignore (SR.ingest t ~inserts:(Array.init 200 tuple) ~deletes:[||]);
  for id = 0 to 199 do
    ignore (SR.delete t id)
  done;
  Alcotest.(check int) "population 0" 0 (SR.population t);
  Alcotest.(check int) "sample 0" 0 (SR.sample_size t);
  Alcotest.(check int) "bernoulli 0" 0 (Option.get (SR.bernoulli_size t));
  Alcotest.(check bool) "no rescan needed on empty" false (SR.needs_rescan t);
  let est = SR.estimate_count t P.True in
  check_float "exact-0 estimate" 0. est.Estimate.point;
  Alcotest.(check int) "empty snapshot" 0 (Relation.cardinality (SR.snapshot t))

let test_rescan_after_erosion () =
  let t = SR.create ~capacity:20 ~seed:8 ~schema () in
  ignore (SR.ingest t ~inserts:(Array.init 1_000 tuple) ~deletes:[||]);
  (* Delete ~everything the sample holds plus more, eroding it. *)
  let deletes = Array.init 900 (fun i -> i) in
  ignore (SR.ingest t ~inserts:[||] ~deletes);
  if SR.needs_rescan t then begin
    let before = SR.epoch t in
    SR.rescan t;
    Alcotest.(check bool) "rescan bumps epoch" true (SR.epoch t > before);
    Alcotest.(check bool) "restored" false (SR.needs_rescan t);
    Alcotest.(check int) "sample refilled" 20 (SR.sample_size t)
  end;
  let est = SR.estimate_count t (P.ge (P.attr "a") (P.vint 900)) in
  check_float "estimate exact after rescan (census)" 100. est.Estimate.point

let test_write_time_determinism () =
  (* Two streams fed the same ops give byte-identical state; reads in
     between draw nothing and change nothing. *)
  let feed reads =
    let t = SR.create ~capacity:30 ~bernoulli:0.3 ~window:50 ~seed:42 ~schema () in
    for v = 0 to 499 do
      ignore (SR.insert t (tuple v));
      if reads && v mod 7 = 0 then begin
        ignore (SR.estimate_count t P.True);
        ignore (SR.snapshot t)
      end;
      if v mod 3 = 0 then ignore (SR.delete t (v / 2))
    done;
    ( Relation.tuples (SR.sample t),
      Option.get (SR.bernoulli_size t),
      Array.map value (Option.get (SR.window_sample t)),
      SR.epoch t )
  in
  let a = feed false and b = feed true in
  Alcotest.(check bool) "reads are invisible" true (a = b)

let test_metrics_delta_attribution () =
  let metrics = Obs.Metrics.create () in
  let t = SR.create ~capacity:10 ~metrics ~seed:9 ~schema () in
  let before = Obs.Metrics.snapshot metrics in
  ignore (SR.ingest t ~inserts:(Array.init 100 tuple) ~deletes:[| 0; 1 |]);
  let delta = Obs.Metrics.diff (Obs.Metrics.snapshot metrics) before in
  Alcotest.(check int) "maintenance ops: 100 inserts + 2 deletes" 102
    delta.Obs.Metrics.maintenance_ops;
  Alcotest.(check bool) "draws accounted" true (delta.Obs.Metrics.rng_draws > 0);
  (* Attribution: add the delta into a request sink. *)
  let request = Obs.Metrics.create () in
  Obs.Metrics.add_snapshot request delta;
  Alcotest.(check bool) "request sink carries the delta" true
    (Obs.Metrics.counters_equal (Obs.Metrics.snapshot request) delta)

(* --- model-based: the store against a sorted Hashtbl -------------------- *)

(* Delete targets resolve against the reference when the op runs, so a
   generated sequence stays meaningful whatever came before it. *)
type target =
  | Live of int  (** the [i mod n]-th live id *)
  | Dead of int  (** an id deleted earlier *)
  | Negative of int
  | Unissued of int  (** past the last id issued *)

type op =
  | Insert
  | Delete of target
  | Ingest of int * target list  (** inserts, then deletes *)
  | Cull of int  (** one batch deleting every live id but each [m]-th *)
  | Rescan

(* How a held snapshot is first read. *)
type read =
  | Sorted  (** a sample at increasing row ids *)
  | Unsorted  (** a sample at distinct row ids, shuffled *)
  | Repeated  (** a sample with repeated row ids *)
  | Whole  (** its tuples *)

(* An op's snapshot left unread for [ops] more ops, then first read
   through [read], with row ids drawn from [seed]. *)
type hold = { ops : int; read : read; seed : int }

let show_target = function
  | Live i -> Printf.sprintf "live %d" i
  | Dead i -> Printf.sprintf "dead %d" i
  | Negative i -> Printf.sprintf "neg %d" i
  | Unissued i -> Printf.sprintf "unissued %d" i

let show_op = function
  | Insert -> "insert"
  | Delete target -> "delete " ^ show_target target
  | Ingest (n, targets) ->
    Printf.sprintf "ingest +%d -[%s]" n (String.concat "; " (List.map show_target targets))
  | Cull m -> Printf.sprintf "cull %d" m
  | Rescan -> "rescan"

let show_read = function
  | Sorted -> "sorted sample"
  | Unsorted -> "unsorted sample"
  | Repeated -> "repeated sample"
  | Whole -> "tuples"

let show_step (op, hold) =
  show_op op
  ^
  match hold with
  | None -> ""
  | Some { ops; read; seed } ->
    Printf.sprintf " (snapshot unread for %d ops, then %s, seed %d)" ops (show_read read)
      seed

let ops_arb =
  let open QCheck.Gen in
  let target =
    frequency
      [
        (6, map (fun i -> Live i) nat);
        (2, map (fun i -> Dead i) nat);
        (1, map (fun i -> Negative i) small_nat);
        (1, map (fun i -> Unissued i) small_nat);
      ]
  in
  let op =
    frequency
      [
        (4, return Insert);
        (4, map (fun t -> Delete t) target);
        ( 3,
          map2
            (fun n targets -> Ingest (n, targets))
            (int_range 0 40)
            (list_size (int_range 0 30) target) );
        (1, map (fun m -> Cull m) (int_range 2 5));
        (1, return Rescan);
      ]
  in
  let hold =
    map3
      (fun ops read seed -> { ops; read; seed })
      (int_range 1 8)
      (oneofl [ Sorted; Unsorted; Repeated; Whole ])
      nat
  in
  let step = pair op (frequency [ (3, return None); (1, map Option.some hold) ]) in
  QCheck.make
    ~print:(fun steps -> String.concat "\n" (List.map show_step steps))
    (list_size (int_range 1 60) step)

(* The reference is the store this module used to keep: an id -> tuple
   Hashtbl, sorted by id whenever it is read.  Every tuple carries its
   own id, so the snapshot comparison also checks each id's tuple.
   After each op the snapshot is read at once, or, under a hold, left
   unread across later ops and compactions and checked at its first
   read against the reference at its epoch. *)
let store_agrees_with_reference steps =
  let t = SR.create ~capacity:8 ~bernoulli:0.5 ~seed:11 ~schema () in
  let reference = Hashtbl.create 64 and dead = ref [] and next = ref 0 in
  let live_ids () =
    List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) reference [])
  in
  let pick i = function [] -> None | l -> Some (List.nth l (i mod List.length l)) in
  let resolve = function
    | Live i -> Option.value (pick i (live_ids ())) ~default:!next
    | Dead i -> Option.value (pick i !dead) ~default:(-1)
    | Negative i -> -1 - i
    | Unissued i -> !next + i
  in
  let ref_insert () =
    let id = !next in
    Hashtbl.replace reference id (tuple id);
    incr next;
    id
  in
  let ref_delete id =
    if not (Hashtbl.mem reference id) then false
    else begin
      Hashtbl.remove reference id;
      dead := id :: !dead;
      true
    end
  in
  let show ids = String.concat "; " (List.map string_of_int ids) in
  (* The previous op's snapshot and what it held, re-read after the
     next op has written to the log under it. *)
  let held = ref None in
  (* Snapshots nothing has read yet, with the live ids at their epoch,
     the step that took them, their hold and the ops left before their
     first read. *)
  let unread = ref [] in
  let first_read step (snap, expected, taken, { read; seed; _ }, _) =
    let expected = Array.of_list expected in
    let n = Array.length expected and rng = Random.State.make [| seed |] in
    let ids =
      match read with
      | Whole -> Array.init n Fun.id
      | Sorted ->
        Array.of_list (List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id))
      | Unsorted ->
        let ids = Array.init n Fun.id in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = ids.(i) in
          ids.(i) <- ids.(j);
          ids.(j) <- x
        done;
        Array.sub ids 0 (Random.State.int rng (n + 1))
      | Repeated ->
        if n = 0 then [||]
        else Array.init (1 + Random.State.int rng (2 * n)) (fun _ -> Random.State.int rng n)
    in
    let read_values r = Array.to_list (Array.map value (Relation.tuples r)) in
    let got =
      match read with
      | Whole -> read_values snap
      | Sorted | Unsorted | Repeated -> read_values (Relation.sample snap ids)
    in
    let want = Array.to_list (Array.map (fun i -> expected.(i)) ids) in
    if got <> want then
      QCheck.Test.fail_reportf
        "after %s: the snapshot taken after %s, first read through a %s, reads [%s], \
         reference [%s]"
        step taken (show_read read) (show got) (show want);
    if read_values snap <> Array.to_list expected then
      QCheck.Test.fail_reportf "after %s: the snapshot taken after %s reads [%s], held [%s]"
        step taken
        (show (read_values snap))
        (show (Array.to_list expected))
  in
  let agree step hold =
    (match !held with
    | Some (snap, before, taken) ->
      let got = Array.to_list (Array.map value (Relation.tuples snap)) in
      if got <> before then
        QCheck.Test.fail_reportf
          "after %s: the snapshot taken after %s reads [%s], held [%s]" step taken
          (show got) (show before)
    | None -> ());
    let due, waiting = List.partition (fun (_, _, _, _, left) -> left <= 1) !unread in
    unread := List.map (fun (s, e, taken, h, left) -> (s, e, taken, h, left - 1)) waiting;
    List.iter (first_read step) due;
    let expected = live_ids () in
    let snap = SR.snapshot t in
    if Relation.cardinality snap <> List.length expected then
      QCheck.Test.fail_reportf "after %s: snapshot of %d tuples, reference %d" step
        (Relation.cardinality snap) (List.length expected);
    (match hold with
    | Some h ->
      unread := (snap, expected, step, h, h.ops) :: !unread;
      held := None
    | None when List.exists (fun (s, _, _, _, _) -> s == snap) !unread ->
      (* The op wrote nothing, so the snapshot is the memoized one a
         hold keeps unread. *)
      held := None
    | None ->
      (* Read through a sample, which leaves the snapshot's own tuples
         unbuilt until the re-check. *)
      let all = Array.init (Relation.cardinality snap) Fun.id in
      let got =
        Array.to_list (Array.map value (Relation.tuples (Relation.sample snap all)))
      in
      if got <> expected then
        QCheck.Test.fail_reportf "after %s: snapshot [%s], reference [%s]" step (show got)
          (show expected);
      held := Some (snap, expected, step));
    if SR.population t <> Hashtbl.length reference then
      QCheck.Test.fail_reportf "after %s: population %d, reference %d" step
        (SR.population t) (Hashtbl.length reference);
    for id = -2 to !next + 1 do
      if SR.mem t id <> Hashtbl.mem reference id then
        QCheck.Test.fail_reportf "after %s: mem %d is %b" step id (SR.mem t id)
    done
  in
  let returns step ~got ~expected =
    if got <> expected then
      QCheck.Test.fail_reportf "%s returned %s, reference %s" step got expected
  in
  (* Deletes resolve after the batch's inserts, as [SR.ingest] applies
     them. *)
  let batch step ~inserts:n ~deletes =
    let inserts = Array.init n (fun k -> tuple (!next + k)) in
    let first_id = if n = 0 then -1 else !next in
    Array.iter (fun _ -> ignore (ref_insert ())) inserts;
    let deletes = Array.of_list (deletes ()) in
    let c = SR.ingest t ~inserts ~deletes in
    let deleted =
      Array.fold_left (fun k id -> if ref_delete id then k + 1 else k) 0 deletes
    in
    let show (f, i, d) = Printf.sprintf "{first_id %d; inserted %d; deleted %d}" f i d in
    returns step
      ~got:(show (c.SR.first_id, c.SR.inserted, c.SR.deleted))
      ~expected:(show (first_id, n, deleted))
  in
  List.iter
    (fun (op, hold) ->
      let step = show_op op in
      (match op with
      | Insert ->
        let got = SR.insert t (tuple !next) in
        returns step ~got:(string_of_int got) ~expected:(string_of_int (ref_insert ()))
      | Delete target ->
        let id = resolve target in
        returns step
          ~got:(string_of_bool (SR.delete t id))
          ~expected:(string_of_bool (ref_delete id))
      | Ingest (n, targets) ->
        batch step ~inserts:n ~deletes:(fun () -> List.map resolve targets)
      | Cull m ->
        batch step ~inserts:0 ~deletes:(fun () ->
            List.filteri (fun i _ -> i mod m <> 0) (live_ids ()))
      | Rescan -> SR.rescan t);
      agree step hold)
    steps;
  List.iter (first_read "the last op") !unread;
  true

let suite =
  [
    Alcotest.test_case "insert/delete/epoch" `Quick test_insert_delete_epoch;
    Alcotest.test_case "ingest batches" `Quick test_ingest_batch;
    Alcotest.test_case "estimate fresh after writes" `Quick test_estimate_fresh_after_writes;
    Alcotest.test_case "estimate sampled" `Quick test_estimate_sampled;
    Alcotest.test_case "snapshot memoized by epoch" `Quick test_snapshot_memoized;
    Alcotest.test_case "snapshot outlives appends, deletes and compaction" `Quick
      test_snapshot_outlives_writes;
    Alcotest.test_case "maintained samples" `Quick test_maintained_samples;
    Alcotest.test_case "delete-all leaves consistent empty" `Quick
      test_delete_all_consistent_empty;
    Alcotest.test_case "rescan after erosion" `Quick test_rescan_after_erosion;
    Alcotest.test_case "write-time determinism" `Quick test_write_time_determinism;
    Alcotest.test_case "metrics delta attribution" `Quick test_metrics_delta_attribution;
    qcheck_case ~count:300 "store agrees with a sorted-Hashtbl reference" ops_arb
      store_agrees_with_reference;
  ]
