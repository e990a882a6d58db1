(* Streaming-maintenance benchmark: freshness under writes.

   Two sections:

   - A serial, fully deterministic write/query mix over a
     Stream_relation: seed-fixed insert/delete batches with an
     estimate after every batch, scored as q-error against the exact
     count *at that instant* (the model recounts the live population
     incrementally).  Staleness is what a rescan-based design would
     pay; the maintained sample answers at the current epoch, so the
     only error left is sampling error — the recorded q-errors bound
     it.  Each batch is also followed by the snapshot a query would
     rebuild, timed (wall-clock, not gated) and checked against the
     model's live count; the count does not resolve the snapshot's
     mask, so the time is the mask copy alone.  A final erosion phase deletes most of the
     population to drive [needs_rescan] and measures the rescan's cost
     and the post-rescan (census) accuracy.  Every count in this
     section — epochs, populations, sample sizes, maintenance ops, RNG
     draws, and the q-errors themselves — is a pure function of the
     seed, so the row pins them.

   - A concurrent daemon section: one writer connection streams ingest
     batches while reader connections hammer estimates on the same
     relation.  Read latency percentiles and both throughputs are
     wall-clock; the maintenance totals, the final stream state and
     the final served-estimate-vs-census q-error are deterministic
     (writes serialize on one connection, reads draw nothing) and the
     row pins them. *)

module SR = Raestat.Stream_relation
module Rng = Sampling.Rng
module P = Relational.Predicate

let seed = 1988
let threshold_predicate = P.lt (P.attr "a") (P.vint 300)

(* --- serial section ---------------------------------------------------- *)

type serial_result = {
  rounds : int;
  batch_inserts : int;
  batch_deletes : int;
  writes : int;  (** write ops applied after conversion (inserts + deletes) *)
  epoch : int;
  population : int;
  sample_size : int;
  capacity : int;
  maintenance_ops : int;
  rng_draws : int;
  qerr_mean : float;
  qerr_max : float;
  eroded_population : int;
  eroded_fill_ratio : float;
  qerr_after_rescan : float;
  write : Report.timing;  (** per-batch ingest latency, ns *)
  estimate : Report.timing;  (** maintained-estimate latency, ns *)
  snapshot : Report.timing;  (** post-batch snapshot latency, ns *)
}

(* The model: live ids in a swap-remove array for O(1) uniform picks,
   with the exact matching count maintained incrementally. *)
type model = {
  mutable ids : int array;
  mutable live : int;
  value_of : (int, int) Hashtbl.t;
  mutable matching : int;
}

let model_add model id value =
  if model.live = Array.length model.ids then begin
    let grown = Array.make (2 * Stdlib.max 16 model.live) 0 in
    Array.blit model.ids 0 grown 0 model.live;
    model.ids <- grown
  end;
  model.ids.(model.live) <- id;
  model.live <- model.live + 1;
  Hashtbl.replace model.value_of id value;
  if value < 300 then model.matching <- model.matching + 1

let model_remove_at model k =
  let id = model.ids.(k) in
  model.ids.(k) <- model.ids.(model.live - 1);
  model.live <- model.live - 1;
  let value = Hashtbl.find model.value_of id in
  Hashtbl.remove model.value_of id;
  if value < 300 then model.matching <- model.matching - 1;
  id

let run_serial ~quick () =
  let base_n = if quick then 20_000 else 100_000 in
  let rounds = if quick then 60 else 300 in
  let batch_inserts = 32 and batch_deletes = 8 in
  let capacity = 2048 in
  let workload = Rng.create ~seed:(seed + 1) () in
  let metrics = Obs.Metrics.create () in
  let schema = Relational.Schema.of_list [ ("a", Relational.Value.Tint) ] in
  let stream = SR.create ~capacity ~metrics ~seed ~schema () in
  let model =
    { ids = Array.make 16 0; live = 0; value_of = Hashtbl.create 1024; matching = 0 }
  in
  let fresh_tuple () =
    let value = Rng.int workload 1000 in
    (Relational.Tuple.make [ Relational.Value.Int value ], value)
  in
  (* Conversion: the base population arrives as one ingest batch.
     (Explicit ascending fills everywhere a draw is consumed: the
     workload stream's order is part of the determinism contract.) *)
  let base = Array.make base_n (Relational.Tuple.make [], 0) in
  for k = 0 to base_n - 1 do
    base.(k) <- fresh_tuple ()
  done;
  let counts =
    SR.ingest stream ~inserts:(Array.map fst base) ~deletes:[||]
  in
  Array.iteri (fun k (_, value) -> model_add model (counts.SR.first_id + k) value) base;
  let qerrs = Array.make rounds 0. in
  let est_lat = Array.make rounds 0. in
  let snap_lat = Array.make rounds 0. in
  let write_lat = Array.make rounds 0. in
  let writes = ref 0 in
  for round = 0 to rounds - 1 do
    let inserts = Array.make batch_inserts (Relational.Tuple.make [], 0) in
    for k = 0 to batch_inserts - 1 do
      inserts.(k) <- fresh_tuple ()
    done;
    let deletes = Array.make batch_deletes 0 in
    for k = 0 to batch_deletes - 1 do
      deletes.(k) <- model_remove_at model (Rng.int workload model.live)
    done;
    let t0 = Unix.gettimeofday () in
    let counts =
      SR.ingest stream ~inserts:(Array.map fst inserts) ~deletes
    in
    write_lat.(round) <- Unix.gettimeofday () -. t0;
    writes := !writes + batch_inserts + batch_deletes;
    Array.iteri
      (fun k (_, value) -> model_add model (counts.SR.first_id + k) value)
      inserts;
    Report.check
      (SR.population stream = model.live)
      (Printf.sprintf "stream: round %d: population %d, model %d" round
         (SR.population stream) model.live);
    let t1 = Unix.gettimeofday () in
    let est = SR.estimate_count stream threshold_predicate in
    est_lat.(round) <- Unix.gettimeofday () -. t1;
    qerrs.(round) <-
      Stats.Summary.q_error ~estimate:est.Stats.Estimate.point
        ~truth:(float_of_int model.matching);
    (* The snapshot a query after this batch would rebuild; a query's
       first draw from it would resolve its mask. *)
    let t2 = Unix.gettimeofday () in
    let snapshot = SR.snapshot stream in
    snap_lat.(round) <- Unix.gettimeofday () -. t2;
    Report.check
      (Relational.Relation.cardinality snapshot = model.live)
      (Printf.sprintf "stream: round %d: snapshot holds %d tuples, model %d" round
         (Relational.Relation.cardinality snapshot) model.live)
  done;
  let qerr_mean = Array.fold_left ( +. ) 0. qerrs /. float_of_int rounds in
  let qerr_max = Array.fold_left Float.max 1. qerrs in
  Report.check (Float.is_finite qerr_max && qerr_max < 1.5)
    (Printf.sprintf "stream: staleness q-error blew up: max %.3f" qerr_max);
  let epoch = SR.epoch stream
  and population = SR.population stream
  and sample_size = SR.sample_size stream in
  (* Erosion phase: delete ~95% of the live population in one batch,
     which must trip needs_rescan; a rescan rebuilds the sample and the
     follow-up estimate is a census (q-error exactly 1 when anything
     matches). *)
  let victims = Array.make (model.live * 95 / 100) 0 in
  for k = 0 to Array.length victims - 1 do
    victims.(k) <- model_remove_at model (Rng.int workload model.live)
  done;
  ignore (SR.ingest stream ~inserts:[||] ~deletes:victims);
  let eroded_population = SR.population stream in
  let eroded_fill_ratio = SR.fill_ratio stream in
  Report.check (SR.needs_rescan stream)
    (Printf.sprintf "stream: deleting %d of %d tuples did not trip needs_rescan (fill %.3f)"
       (Array.length victims)
       (eroded_population + Array.length victims)
       eroded_fill_ratio);
  SR.rescan stream;
  Report.check (not (SR.needs_rescan stream)) "stream: rescan did not clear needs_rescan";
  let est = SR.estimate_count stream threshold_predicate in
  let qerr_after_rescan =
    Stats.Summary.q_error ~estimate:est.Stats.Estimate.point
      ~truth:(float_of_int model.matching)
  in
  let s = Obs.Metrics.snapshot metrics in
  {
    rounds;
    batch_inserts;
    batch_deletes;
    writes = !writes;
    epoch;
    population;
    sample_size;
    capacity;
    maintenance_ops = s.Obs.Metrics.maintenance_ops;
    rng_draws = s.Obs.Metrics.rng_draws;
    qerr_mean;
    qerr_max;
    eroded_population;
    eroded_fill_ratio;
    qerr_after_rescan;
    write = Report.timing_ns write_lat;
    estimate = Report.timing_ns est_lat;
    snapshot = Report.timing_ns snap_lat;
  }

(* --- concurrent daemon section ----------------------------------------- *)

type served_result = {
  srv_write_batches : int;
  srv_batch_size : int;
  srv_reader_requests : int;
  srv_errors : int;
  srv_overloaded : int;
  srv_maintenance_ops : int;
  srv_epoch : int;
  srv_population : int;
  srv_final_qerr : float;
  srv_read : Report.timing;  (** read latency, ns *)
  srv_write : Report.timing;  (** per-batch write latency, ns *)
}

let run_served ~quick ~csv ~socket =
  let batches = if quick then 50 else 200 in
  let batch_size = 16 in
  let readers = 4 in
  let reads_each = if quick then 100 else 400 in
  let batch_body =
    (* 16 fixed-value inserts; values cycle so the matching fraction
       keeps moving and freshness is observable. *)
    let tuples =
      List.init batch_size (fun i -> Printf.sprintf {|{"a": %d}|} (i * 61 mod 1000))
    in
    String.concat ", " tuples
  in
  let write_request =
    Printf.sprintf
      {|{"op": "ingest", "relation": "r", "capacity": 2048, "insert": [%s]}|}
      batch_body
  in
  let read_latencies = Array.make (readers * reads_each) 0. in
  let write_latencies = Array.make batches 0. in
  (* One request on [fd], timed in seconds. *)
  let timed_request fd read_line request what =
    let t0 = Unix.gettimeofday () in
    Serve_bench.send_line fd request;
    (match read_line () with
    | Some response ->
      Report.check (Serve_bench.response_ok response)
        (Printf.sprintf "stream: %s failed: %s" what response)
    | None -> Report.check false ("stream: server closed on a " ^ what));
    Unix.gettimeofday () -. t0
  in
  let with_connection socket f =
    let fd = Serve_bench.connect socket in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> f fd (Serve_bench.line_reader fd))
  in
  let final_qerr, metrics_line =
    Serve_bench.with_daemon ~workers:1 ~csv ~socket ~queue_limit:64 (fun socket ->
        let writer =
          Thread.create
            (fun () ->
              with_connection socket (fun fd read_line ->
                  for b = 0 to batches - 1 do
                    write_latencies.(b) <- timed_request fd read_line write_request "write"
                  done))
            ()
        in
        let reader_threads =
          List.init readers (fun r ->
              Thread.create
                (fun () ->
                  with_connection socket (fun fd read_line ->
                      for i = 0 to reads_each - 1 do
                        read_latencies.((r * reads_each) + i) <-
                          timed_request fd read_line
                            {|{"op": "estimate", "relation": "r", "where": "a < 300"}|}
                            "read"
                      done))
                ())
        in
        Thread.join writer;
        List.iter Thread.join reader_threads;
        (* Freshness at rest: the maintained estimate against the
           census the overlay query computes from the same stream
           snapshot.  Deterministic — every write has landed. *)
        with_connection socket (fun fd read_line ->
            Serve_bench.send_line fd
              {|{"op": "estimate", "relation": "r", "where": "a < 300"}|};
            let estimate_line = Option.value (read_line ()) ~default:"" in
            Serve_bench.send_line fd
              {|{"op": "query", "expr": "select[a < 300](r)", "fraction": 1.0, "groups": 1}|};
            let census_line = Option.value (read_line ()) ~default:"" in
            let point line =
              match Serve_bench.reply_number line "point" with
              | Some p -> p
              | None ->
                Report.check false ("stream: no point in response: " ^ line);
                Float.nan
            in
            Stats.Summary.q_error ~estimate:(point estimate_line)
              ~truth:(point census_line)))
  in
  let scrape key =
    match Serve_bench.reply_number metrics_line key with
    | Some v -> int_of_float v
    | None -> -1
  in
  {
    srv_write_batches = batches;
    srv_batch_size = batch_size;
    srv_reader_requests = readers * reads_each;
    srv_errors = scrape "errors";
    srv_overloaded = scrape "overloaded";
    srv_maintenance_ops = scrape "maintenance_ops";
    srv_epoch = scrape "epoch";
    srv_population = scrape "population";
    srv_final_qerr = final_qerr;
    srv_read = Report.timing_ns read_latencies;
    srv_write = Report.timing_ns write_latencies;
  }

(* --- harness ----------------------------------------------------------- *)

let run ?(quick = false) () =
  Printf.printf "\n=== stream bench (maintained samples under writes) ===\n%!";
  let serial = run_serial ~quick () in
  Printf.printf
    "serial: %d rounds of +%d/-%d: write p50 %.1fus, estimate p50 %.1fus, snapshot \
     p50 %.1fus\n"
    serial.rounds serial.batch_inserts serial.batch_deletes (serial.write.median /. 1e3)
    (serial.estimate.median /. 1e3) (serial.snapshot.median /. 1e3);
  Printf.printf
    "serial: staleness q-error mean %.4f max %.4f over %d checkpoints (pop %d, \
     sample %d/%d)\n"
    serial.qerr_mean serial.qerr_max serial.rounds serial.population
    serial.sample_size serial.capacity;
  Printf.printf
    "serial: erosion to %d tuples (fill %.3f) tripped needs_rescan; census after \
     rescan q-error %.4f\n"
    serial.eroded_population serial.eroded_fill_ratio serial.qerr_after_rescan;
  let served =
    Report.with_temp_dir "raestat-stream" @@ fun dir ->
    let csv = Filename.concat dir "r.csv" in
    let rng = Rng.create ~seed () in
    Relational.Csv.save csv
      (Workload.Generator.int_relation rng
         ~n:(if quick then 20_000 else 100_000)
         ~attribute:"a"
         (Workload.Dist.Uniform { lo = 0; hi = 999 }));
    run_served ~quick ~csv ~socket:(Filename.concat dir "stream.sock")
  in
  Printf.printf
    "served: %d batches of %d inserts vs %d reads: write p50 %.1fus, read p50 %.1fus \
     p95 %.1fus\n"
    served.srv_write_batches served.srv_batch_size served.srv_reader_requests
    (served.srv_write.median /. 1e3) (served.srv_read.median /. 1e3)
    (served.srv_read.p95 /. 1e3);
  Printf.printf "served: final maintained estimate vs census q-error %.4f (pop %d, \
                 epoch %d)\n"
    served.srv_final_qerr served.srv_population served.srv_epoch;
  Report.
    [
      bench_row "serial"
        ~pinned:
          [
            pin_int "rounds" serial.rounds;
            pin_int "batch_inserts" serial.batch_inserts;
            pin_int "batch_deletes" serial.batch_deletes;
            pin_int "writes" serial.writes;
            pin_int "epoch" serial.epoch;
            pin_int "population" serial.population;
            pin_int "sample_size" serial.sample_size;
            pin_int "capacity" serial.capacity;
            pin_int "maintenance_ops" serial.maintenance_ops;
            pin_int "rng_draws" serial.rng_draws;
            pin_float "qerr_mean" serial.qerr_mean;
            pin_float "qerr_max" serial.qerr_max;
            pin_int "eroded_population" serial.eroded_population;
            pin_float "eroded_fill_ratio" serial.eroded_fill_ratio;
            pin_float "qerr_after_rescan" serial.qerr_after_rescan;
          ]
        ~timings:
          [
            ("write_ns", serial.write);
            ("estimate_ns", serial.estimate);
            ("snapshot_ns", serial.snapshot);
          ];
      bench_row "served"
        ~pinned:
          [
            pin_int "srv_write_batches" served.srv_write_batches;
            pin_int "srv_batch_size" served.srv_batch_size;
            pin_int "srv_reader_requests" served.srv_reader_requests;
            pin_int "srv_errors" served.srv_errors;
            pin_int "srv_overloaded" served.srv_overloaded;
            pin_int "srv_maintenance_ops" served.srv_maintenance_ops;
            pin_int "srv_epoch" served.srv_epoch;
            pin_int "srv_population" served.srv_population;
            pin_float "srv_final_qerr" served.srv_final_qerr;
          ]
        ~timings:[ ("read_ns", served.srv_read); ("write_ns", served.srv_write) ];
    ]
