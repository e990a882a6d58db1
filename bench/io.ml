(* Real-I/O benchmark over the binary pagefile.

   The point of page-level (cluster) sampling out-of-core is that
   sampling a fraction f of the pages costs ~f of the I/O of a full
   scan.  This harness packs a fixed-seed dataset, runs the cluster
   estimator at several fractions against a cold page cache plus the
   exact baseline over a full scan, and records the real-I/O counters
   (pages_read / bytes_read / io_batches / page_cache_hits) next to
   wall time.  The counters are seed-fixed and deterministic — unlike
   the timings — so each row pins them for the gate.

   Each row self-asserts the contract it exists to demonstrate:
   sampling m of M pages reads exactly m pages and at most ~(m/M) of
   the data bytes, the full scan reads everything in few batched
   syscalls, and a warm re-run is served entirely from the cache.

   The packed dataset is cached on disk (_bench/io-200k.raf, or under
   $RAESTAT_BENCH_CACHE) so repeated local runs and the CI cache skip
   the pack. *)

module Pagefile = Relational.Pagefile
module Paged = Relational.Paged
module Metrics = Obs.Metrics
module P = Relational.Predicate

let cardinality = 200_000
let page_capacity = 256
let seed = 1988

let pred = P.lt (P.attr "a") (P.vint 100)

let cache_path () =
  let dir =
    match Sys.getenv_opt "RAESTAT_BENCH_CACHE" with
    | Some d when d <> "" -> d
    | _ -> "_bench"
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "io-%dk.raf" (cardinality / 1000))

(* Reuse a cached pack when it matches the expected shape; regenerate
   otherwise (a stale cache from an older format version raises in
   [openfile] and is replaced the same way). *)
let ensure_packed () =
  let path = cache_path () in
  let usable =
    Sys.file_exists path
    && (try
          let pf = Pagefile.openfile path in
          let ok =
            Pagefile.cardinality pf = cardinality
            && Pagefile.page_capacity pf = page_capacity
          in
          Pagefile.close pf;
          ok
        with Failure _ -> false)
  in
  if not usable then begin
    let rng = Sampling.Rng.create ~seed () in
    let relation =
      Workload.Generator.int_relation rng ~n:cardinality ~attribute:"a"
        (Workload.Dist.Uniform { lo = 0; hi = 999 })
    in
    Pagefile.write_relation ~page_capacity path relation;
    Printf.printf "packed %s\n%!" path
  end
  else Printf.printf "reusing cached %s\n%!" path;
  path

(* Every row runs [runs] times, each time on a fresh reader.  The
   counters are seed-fixed, so the repeats must agree; the timing is
   over the repeats.  [once] returns a run's counters and seconds. *)
let runs = 5

let repeated name once =
  let results = Array.init runs (fun _ -> once ()) in
  let counters = fst results.(0) in
  Array.iter
    (fun (s, _) ->
      Report.check (Metrics.counters_equal s counters) (name ^ ": counters differ between repeats"))
    results;
  (counters, Report.timing_ns (Array.map snd results))

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let report_row name ~fraction ~pages_sampled ((s : Metrics.snapshot), ns) =
  Report.bench_row name
    ~pinned:
      Report.
        [
          pin_float "fraction" fraction;
          pin_int "pages_sampled" pages_sampled;
          pin_int "pages_read" s.pages_read;
          pin_int "bytes_read" s.bytes_read;
          pin_int "io_batches" s.io_batches;
          pin_int "page_cache_hits" s.page_cache_hits;
        ]
    ~timings:[ ("ns", ns) ]

(* Cold cluster runs: fresh reader (empty cache), fresh rng. *)
let cluster_row path ~pages_total ~data_bytes ~fraction =
  let m = Int.max 2 (int_of_float (fraction *. float_of_int pages_total)) in
  let name = Printf.sprintf "cluster-f%gpct" (100. *. fraction) in
  let once () =
    let pf = Pagefile.openfile path in
    Fun.protect ~finally:(fun () -> Pagefile.close pf) @@ fun () ->
    let paged = Paged.of_pagefile pf in
    let metrics = Metrics.create () in
    let rng = Sampling.Rng.create ~seed:(seed + m) () in
    let _, seconds =
      timed (fun () -> Raestat.Cluster_estimator.count ~metrics rng ~m paged pred)
    in
    (Metrics.snapshot metrics, seconds)
  in
  let ((s, _) as measured) = repeated name once in
  Report.check
    (s.Metrics.pages_read = m)
    (Printf.sprintf "%s: sampling %d pages cold must read exactly %d pages, read %d" name m m
       s.Metrics.pages_read);
  Report.check
    (float_of_int s.Metrics.bytes_read <= (fraction +. 0.02) *. float_of_int data_bytes)
    (Printf.sprintf "%s: read %d bytes, more than fraction %.3f (+2%% slack) of %d" name
       s.Metrics.bytes_read fraction data_bytes);
  Report.check
    (s.Metrics.io_batches <= m)
    (Printf.sprintf "%s: %d batches for %d pages: coalescing went backwards" name
       s.Metrics.io_batches m);
  report_row name ~fraction ~pages_sampled:m measured

(* The same sample re-drawn against a warm reader: every page is served
   from the cache, zero reads. *)
let warm_row path ~pages_total ~fraction =
  let m = Int.max 2 (int_of_float (fraction *. float_of_int pages_total)) in
  let name = Printf.sprintf "cluster-f%gpct-warm" (100. *. fraction) in
  let once () =
    let pf = Pagefile.openfile path ~cache_pages:(Int.max 64 m) in
    Fun.protect ~finally:(fun () -> Pagefile.close pf) @@ fun () ->
    let paged = Paged.of_pagefile pf in
    let run () =
      let metrics = Metrics.create () in
      let rng = Sampling.Rng.create ~seed:(seed + m) () in
      let _, seconds =
        timed (fun () -> Raestat.Cluster_estimator.count ~metrics rng ~m paged pred)
      in
      (Metrics.snapshot metrics, seconds)
    in
    ignore (run ());
    run ()
  in
  let ((s, _) as measured) = repeated name once in
  Report.check
    (s.Metrics.pages_read = 0 && s.Metrics.page_cache_hits = m)
    (Printf.sprintf "%s: warm re-run read %d pages, hit %d (want 0 read, %d hits)" name
       s.Metrics.pages_read s.Metrics.page_cache_hits m);
  report_row name ~fraction ~pages_sampled:m measured

(* Exact baseline: materialize through the page reader and count. *)
let exact_row path ~pages_total ~data_bytes =
  let name = "exact-full-scan" in
  let once () =
    let pf = Pagefile.openfile path in
    Fun.protect ~finally:(fun () -> Pagefile.close pf) @@ fun () ->
    let metrics = Metrics.create () in
    let _, seconds =
      timed (fun () ->
          let relation = Pagefile.to_relation ~metrics pf in
          let compiled =
            Relational.Predicate.compile (Relational.Relation.schema relation) pred
          in
          let n = ref 0 in
          Relational.Relation.iter (fun t -> if compiled t then incr n) relation;
          !n)
    in
    (Metrics.snapshot metrics, seconds)
  in
  let ((s, _) as measured) = repeated name once in
  Report.check
    (s.Metrics.pages_read = pages_total)
    (Printf.sprintf "%s: full scan read %d of %d pages" name s.Metrics.pages_read pages_total);
  Report.check
    (s.Metrics.bytes_read = data_bytes)
    (Printf.sprintf "%s: full scan read %d of %d data bytes" name s.Metrics.bytes_read
       data_bytes);
  Report.check
    (s.Metrics.io_batches <= (pages_total / 64) + 1)
    (Printf.sprintf "%s: full scan took %d batches for %d pages (64-page batch cap)" name
       s.Metrics.io_batches pages_total);
  report_row name ~fraction:1.0 ~pages_sampled:pages_total measured

let run () =
  Printf.printf "\n=== IO bench (pagefile, real reads) ===\n%!";
  let path = ensure_packed () in
  let pf = Pagefile.openfile path in
  let pages_total = Pagefile.page_count pf and data_bytes = Pagefile.data_bytes pf in
  Pagefile.close pf;
  let rows =
    [
      cluster_row path ~pages_total ~data_bytes ~fraction:0.01;
      cluster_row path ~pages_total ~data_bytes ~fraction:0.05;
      cluster_row path ~pages_total ~data_bytes ~fraction:0.20;
      warm_row path ~pages_total ~fraction:0.05;
      exact_row path ~pages_total ~data_bytes;
    ]
  in
  Printf.printf "%-24s %8s %10s %12s %8s %8s %12s\n" "run" "pages" "of total" "bytes"
    "batches" "hits" "median us";
  List.iter
    (fun (r : Report.row) ->
      let pin key =
        match List.assoc_opt key r.pinned with Some (Serve.Json.Int n) -> n | _ -> -1
      in
      Printf.printf "%-24s %8d %9.1f%% %12d %8d %8d %12.1f\n" r.name (pin "pages_read")
        (100. *. float_of_int (pin "pages_read") /. float_of_int pages_total)
        (pin "bytes_read") (pin "io_batches") (pin "page_cache_hits")
        ((List.assoc "ns" r.timings).Report.median /. 1e3))
    rows;
  rows
