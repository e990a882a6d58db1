(* Regression gate over BENCH_micro.json (and optionally BENCH_io.json)
   reports.

     dune exec bench/compare.exe -- BASELINE.json FRESH.json \
       [--threshold 0.25] [--io BASELINE_io.json FRESH_io.json]

   Guards the columnar kernel speedups: for every reference/kernel pair
   below, the speedup (reference ns / kernel ns) measured in FRESH must
   not fall more than [threshold] below the speedup recorded in
   BASELINE.  The reference row runs the kernel row's draw through the
   row-at-a-time reference evaluator.  Speedups are within-run ratios,
   so the check is meaningful across machines, unlike absolute
   nanoseconds.  The committed baseline is generated with the same
   `--quick` quota CI uses: the long reference benchmarks (f6's exact
   join) measure systematically slower at full quota, so quota must
   match for ratios to compare.

   With --io, the real-I/O counters of every row in the io report
   (pages_read, bytes_read, io_batches, page_cache_hits) are pinned
   exactly: they are seed-fixed and machine-independent, so any drift
   is a change in what the storage layer actually reads, not noise.

   The reader is a hand-rolled scan of the {"name", "ns_per_run"} rows
   — no JSON library in the dependency set. *)

(* (reference bench, kernel bench) pairs under guard. *)
let guarded_pairs =
  [
    ("f1-selection-n5000", "f1-selection-columnar");
    ("t2-equijoin-1pct", "t2-equijoin-columnar");
    ("f6-exact-join-baseline", "f6-exact-join-columnar");
  ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A baseline that cannot be read fails the gate with one line saying
   how to make it, not with an uncaught Sys_error.  [bench] is the
   bench/main.exe argument list that writes the report. *)
let read_baseline ~bench path =
  try read_file path
  with Sys_error _ ->
    Printf.eprintf
      "baseline %s missing: regenerate with `dune exec bench/main.exe -- %s` and \
       commit it\n"
      path bench;
    exit 1

(* "raestat/f1-selection-n5000" -> "f1-selection-n5000" *)
let strip_prefix name =
  match String.rindex_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let parse_rows content =
  let len = String.length content in
  let find_from pos pat =
    let plen = String.length pat in
    let rec go i =
      if i + plen > len then None
      else if String.sub content i plen = pat then Some (i + plen)
      else go (i + 1)
    in
    go pos
  in
  let rec loop pos acc =
    match find_from pos "\"name\": \"" with
    | None -> List.rev acc
    | Some start -> (
      let stop = String.index_from content start '"' in
      let name = strip_prefix (String.sub content start (stop - start)) in
      match find_from stop "\"ns_per_run\": " with
      | None -> List.rev acc
      | Some vstart ->
        let vend = ref vstart in
        while
          !vend < len
          &&
          match content.[!vend] with
          | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
          | _ -> false
        do
          incr vend
        done;
        let acc =
          match float_of_string_opt (String.sub content vstart (!vend - vstart)) with
          | Some ns -> (name, ns) :: acc
          | None -> acc (* "null": analysis failed for that row *)
        in
        loop !vend acc)
  in
  loop 0 []

let speedup rows (row_bench, col_bench) =
  match (List.assoc_opt row_bench rows, List.assoc_opt col_bench rows) with
  | Some row_ns, Some col_ns when col_ns > 0. -> Some (row_ns /. col_ns)
  | _ -> None

(* --- counter identity ---------------------------------------------------

   The work counters riding along in the report (--metrics runs) are
   seed-fixed and part of the reproducibility contract: for these rows
   they must be *identical* to the committed baseline, not merely
   close.  An estimator refactor that draws one extra sample or probes
   one extra bucket shows up here even when timings are unchanged. *)

let counter_keys =
  [
    "tuples_scanned";
    "pages_read";
    "bytes_read";
    "io_batches";
    "page_cache_hits";
    "sample_indices";
    "hash_probe_hits";
    "hash_probe_misses";
    "rng_draws";
  ]

let guarded_counter_rows =
  [
    "f1-selection-n5000";
    "f1-selection-columnar";
    "t2-equijoin-1pct";
    "t2-equijoin-columnar";
    "t5-chain-scaleup-5pct";
    "f6-exact-join-columnar";
  ]

(* Row objects are one-per-line; pull the {…} containing the name and
   read each counter's integer out of it. *)
let row_counters content name =
  let pat = Printf.sprintf "\"name\": \"raestat/%s\"" name in
  let len = String.length content and plen = String.length pat in
  let rec find i =
    if i + plen > len then None
    else if String.sub content i plen = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = try String.index_from content start '}' with Not_found -> len - 1 in
    let row = String.sub content start (stop - start) in
    let value key =
      let kpat = Printf.sprintf "\"%s\": " key in
      let klen = String.length kpat and rlen = String.length row in
      let rec kfind i =
        if i + klen > rlen then None
        else if String.sub row i klen = kpat then Some (i + klen)
        else kfind (i + 1)
      in
      match kfind 0 with
      | None -> None
      | Some vstart ->
        let vend = ref vstart in
        while !vend < rlen && (match row.[!vend] with '0' .. '9' -> true | _ -> false) do
          incr vend
        done;
        int_of_string_opt (String.sub row vstart (!vend - vstart))
    in
    Some (List.map (fun key -> (key, value key)) counter_keys)

let check_counters ~failed baseline fresh =
  Printf.printf "\n%-28s %s\n" "counter row" "verdict";
  List.iter
    (fun name ->
      match (row_counters baseline name, row_counters fresh name) with
      | None, _ ->
        (* Baseline lacks the row (e.g. a run without --metrics):
           nothing to compare against. *)
        Printf.printf "%-28s %s\n" name "no baseline counters"
      | Some _, None ->
        failed := true;
        Printf.printf "%-28s %s\n" name "MISSING in fresh report"
      | Some base, Some fresh_row ->
        let diffs =
          List.filter_map
            (fun (key, base_v) ->
              let fresh_v = List.assoc key fresh_row in
              if base_v = fresh_v then None
              else
                Some
                  (Printf.sprintf "%s %s->%s" key
                     (match base_v with Some v -> string_of_int v | None -> "-")
                     (match fresh_v with Some v -> string_of_int v | None -> "-")))
            base
        in
        if diffs = [] then Printf.printf "%-28s %s\n" name "identical"
        else begin
          failed := true;
          Printf.printf "%-28s DRIFTED: %s\n" name (String.concat ", " diffs)
        end)
    guarded_counter_rows

(* --- io report pinning --------------------------------------------------

   BENCH_io.json rows carry one named result object per line with the
   real-I/O counters of a seed-fixed run.  Every row present in the
   baseline must appear in the fresh report with identical counters. *)

let io_counter_keys = [ "pages_read"; "bytes_read"; "io_batches"; "page_cache_hits" ]

let io_row content name =
  let pat = Printf.sprintf "\"name\": \"%s\"" name in
  let len = String.length content and plen = String.length pat in
  let rec find i =
    if i + plen > len then None
    else if String.sub content i plen = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = try String.index_from content start '}' with Not_found -> len - 1 in
    let row = String.sub content start (stop - start) in
    let value key =
      let kpat = Printf.sprintf "\"%s\": " key in
      let klen = String.length kpat and rlen = String.length row in
      let rec kfind i =
        if i + klen > rlen then None
        else if String.sub row i klen = kpat then Some (i + klen)
        else kfind (i + 1)
      in
      match kfind 0 with
      | None -> None
      | Some vstart ->
        let vend = ref vstart in
        while !vend < rlen && (match row.[!vend] with '0' .. '9' -> true | _ -> false) do
          incr vend
        done;
        int_of_string_opt (String.sub row vstart (!vend - vstart))
    in
    Some (List.map (fun key -> (key, value key)) io_counter_keys)

let io_row_names content =
  let len = String.length content in
  let pat = "\"name\": \"" in
  let plen = String.length pat in
  let rec loop pos acc =
    if pos + plen > len then List.rev acc
    else if String.sub content pos plen = pat then begin
      let start = pos + plen in
      let stop = String.index_from content start '"' in
      loop stop (String.sub content start (stop - start) :: acc)
    end
    else loop (pos + 1) acc
  in
  loop 0 []

let check_io ~failed baseline fresh =
  Printf.printf "\n%-24s %s\n" "io row" "verdict";
  List.iter
    (fun name ->
      match (io_row baseline name, io_row fresh name) with
      | None, _ -> ()
      | Some _, None ->
        failed := true;
        Printf.printf "%-24s %s\n" name "MISSING in fresh report"
      | Some base, Some fresh_row ->
        let diffs =
          List.filter_map
            (fun (key, base_v) ->
              let fresh_v = List.assoc key fresh_row in
              if base_v = fresh_v then None
              else
                Some
                  (Printf.sprintf "%s %s->%s" key
                     (match base_v with Some v -> string_of_int v | None -> "-")
                     (match fresh_v with Some v -> string_of_int v | None -> "-")))
            base
        in
        if diffs = [] then Printf.printf "%-24s %s\n" name "identical"
        else begin
          failed := true;
          Printf.printf "%-24s DRIFTED: %s\n" name (String.concat ", " diffs)
        end)
    (io_row_names baseline)

(* --- serve report gate --------------------------------------------------

   BENCH_serve.json carries two kinds of field.  The cache/request
   totals (requests, shapes, plan_cache_hits, plan_cache_misses,
   errors, overloaded) are seed-fixed and machine-independent: pinned
   exactly — a hit drop means plan-cache key normalization or
   invalidation changed behaviour.  The latency percentiles are
   wall-clock: p95 is compared after normalizing by the p50 ratio
   between the two runs, so a uniformly faster or slower machine
   cancels and only a disproportionate tail regression (>threshold)
   fails.  A small additive grace absorbs timer quantization on
   sub-millisecond baselines. *)

let serve_pinned_keys =
  [
    "requests";
    "shapes";
    "plan_cache_hits";
    "plan_cache_misses";
    "errors";
    "overloaded";
    (* The worker-pool determinism contract: the same mix on two worker
       domains must produce the same deterministic totals as on one. *)
    "workers";
    "w2_workers";
    "w2_requests";
    "w2_plan_cache_hits";
    "w2_plan_cache_misses";
    "w2_errors";
    "w2_overloaded";
  ]

let scan_number content key =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat and len = String.length content in
  let rec find i =
    if i + plen > len then None
    else if String.sub content i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some vstart ->
    let vend = ref vstart in
    while
      !vend < len
      &&
      match content.[!vend] with '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true | _ -> false
    do
      incr vend
    done;
    float_of_string_opt (String.sub content vstart (!vend - vstart))

let check_serve ~failed ~threshold baseline fresh =
  Printf.printf "\n%-24s %10s %10s %8s\n" "serve field" "base" "fresh" "verdict";
  List.iter
    (fun key ->
      match (scan_number baseline key, scan_number fresh key) with
      | Some b, Some f ->
        let ok = b = f in
        if not ok then failed := true;
        Printf.printf "%-24s %10.0f %10.0f %8s\n" key b f
          (if ok then "pinned" else "DRIFTED")
      | _ ->
        failed := true;
        Printf.printf "%-24s %10s %10s %8s\n" key "-" "-" "MISSING")
    serve_pinned_keys;
  (match (scan_number baseline "hit_rate", scan_number fresh "hit_rate") with
  | Some b, Some f ->
    let ok = f >= b -. 1e-9 in
    if not ok then failed := true;
    Printf.printf "%-24s %10.4f %10.4f %8s\n" "hit_rate" b f
      (if ok then "ok" else "DROPPED")
  | _ ->
    failed := true;
    Printf.printf "%-24s %10s %10s %8s\n" "hit_rate" "-" "-" "MISSING");
  (match
     ( scan_number baseline "p50_us",
       scan_number fresh "p50_us",
       scan_number baseline "p95_us",
       scan_number fresh "p95_us" )
   with
  | Some bp50, Some fp50, Some bp95, Some fp95 when bp50 > 0. ->
    let scale = fp50 /. bp50 in
    let limit = (bp95 *. scale *. (1. +. threshold)) +. 200. in
    let ok = fp95 <= limit in
    if not ok then failed := true;
    Printf.printf "%-24s %10.0f %10.0f %8s  (limit %.0fus at p50 ratio %.2f)\n"
      "p95_us (normalized)" bp95 fp95
      (if ok then "ok" else "REGRESSED")
      limit scale
  | _ ->
    failed := true;
    Printf.printf "%-24s %10s %10s %8s\n" "p95_us (normalized)" "-" "-" "MISSING");
  (* Warm-state gate: the warm pass (sample cache serving the backing
     draw) must stay no slower than the cold pass in the fresh run.
     Judged within the fresh run only — a cross-machine ratio of
     ratios would compound noise. *)
  match (scan_number fresh "cold_us", scan_number fresh "warm_us") with
  | Some cold, Some warm when cold > 0. ->
    let ok = warm <= cold in
    if not ok then failed := true;
    Printf.printf "%-24s %10.0f %10.0f %8s  (speedup %.2fx)\n" "warm_us vs cold_us" cold
      warm
      (if ok then "ok" else "REGRESSED")
      (if warm > 0. then cold /. warm else 0.)
  | _ ->
    failed := true;
    Printf.printf "%-24s %10s %10s %8s\n" "warm_us vs cold_us" "-" "-" "MISSING"

(* --- stream report gate -------------------------------------------------

   BENCH_stream.json mixes three kinds of field.  The counts (write
   totals, epochs, populations, sample sizes, maintenance ops, RNG
   draws) are pure functions of the bench seed: pinned exactly — a
   drift means the maintenance path changed what it does per write.
   The staleness q-errors are seed-fixed doubles: pinned to the
   report's printed precision, so an estimator change that moves
   accuracy (for better or worse) must regenerate the baseline
   deliberately.  Throughputs and latencies are wall-clock and not
   gated. *)

let stream_pinned_int_keys =
  [
    "rounds";
    "batch_inserts";
    "batch_deletes";
    "writes";
    "epoch";
    "population";
    "sample_size";
    "capacity";
    "maintenance_ops";
    "rng_draws";
    "eroded_population";
    "srv_write_batches";
    "srv_batch_size";
    "srv_reader_requests";
    "srv_errors";
    "srv_overloaded";
    "srv_maintenance_ops";
    "srv_epoch";
    "srv_population";
  ]

let stream_pinned_float_keys =
  [ "qerr_mean"; "qerr_max"; "eroded_fill_ratio"; "qerr_after_rescan"; "srv_final_qerr" ]

let check_stream ~failed baseline fresh =
  Printf.printf "\n%-24s %12s %12s %8s\n" "stream field" "base" "fresh" "verdict";
  List.iter
    (fun key ->
      match (scan_number baseline key, scan_number fresh key) with
      | Some b, Some f ->
        let ok = b = f in
        if not ok then failed := true;
        Printf.printf "%-24s %12.0f %12.0f %8s\n" key b f
          (if ok then "pinned" else "DRIFTED")
      | _ ->
        failed := true;
        Printf.printf "%-24s %12s %12s %8s\n" key "-" "-" "MISSING")
    stream_pinned_int_keys;
  List.iter
    (fun key ->
      match (scan_number baseline key, scan_number fresh key) with
      | Some b, Some f ->
        (* The report prints six decimals; allow that rounding, nothing
           more. *)
        let ok = Float.abs (b -. f) <= 1e-6 *. Float.max 1. (Float.abs b) in
        if not ok then failed := true;
        Printf.printf "%-24s %12.6f %12.6f %8s\n" key b f
          (if ok then "pinned" else "DRIFTED")
      | _ ->
        failed := true;
        Printf.printf "%-24s %12s %12s %8s\n" key "-" "-" "MISSING")
    stream_pinned_float_keys

(* --- plans report gate --------------------------------------------------

   BENCH_plans.json records, per seed-fixed scenario, which sampling
   strategy the optimizing planner chose and the measured variance
   ratio of root-sampling over the winner at the same drawn-tuple
   budget.  Everything in it is deterministic (seeded data, RNG-free
   planner, seeded replicate streams), so the gate pins the winner and
   the candidate count exactly, and holds every pushdown winner to the
   >= 1.5x measured-variance acceptance floor — a cost-model change
   that flips a scenario back to root sampling, or a variance
   regression in a pushed-down plan, fails here. *)

let plans_row content name =
  let pat = Printf.sprintf "\"name\": \"%s\"" name in
  let len = String.length content and plen = String.length pat in
  let rec find i =
    if i + plen > len then None
    else if String.sub content i plen = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = try String.index_from content start '}' with Not_found -> len - 1 in
    Some (String.sub content start (stop - start))

let row_string row key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  let plen = String.length pat and len = String.length row in
  let rec find i =
    if i + plen > len then None
    else if String.sub row i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start -> (
    match String.index_from_opt row start '"' with
    | Some stop -> Some (String.sub row start (stop - start))
    | None -> None)

let plans_scenario_names content =
  let len = String.length content in
  let pat = "\"name\": \"" in
  let plen = String.length pat in
  let rec loop pos acc =
    if pos + plen > len then List.rev acc
    else if String.sub content pos plen = pat then begin
      let start = pos + plen in
      let stop = String.index_from content start '"' in
      loop stop (String.sub content start (stop - start) :: acc)
    end
    else loop (pos + 1) acc
  in
  loop 0 []

let starts_with_pushdown label =
  String.length label >= 8 && String.sub label 0 8 = "pushdown"

let check_plans ~failed baseline fresh =
  Printf.printf "\n%-20s %-20s %-20s %10s %8s\n" "plans scenario" "base winner"
    "fresh winner" "ratio" "verdict";
  List.iter
    (fun name ->
      match (plans_row baseline name, plans_row fresh name) with
      | None, _ -> ()
      | Some _, None ->
        failed := true;
        Printf.printf "%-20s %-20s %-20s %10s %8s\n" name "-" "-" "-"
          "MISSING in fresh report"
      | Some base_row, Some fresh_row -> (
        let base_winner = Option.value (row_string base_row "winner") ~default:"?" in
        let fresh_winner = Option.value (row_string fresh_row "winner") ~default:"?" in
        let fresh_ratio = scan_number fresh_row "variance_ratio" in
        let base_cands = scan_number base_row "candidates" in
        let fresh_cands = scan_number fresh_row "candidates" in
        let problems = ref [] in
        if base_winner <> fresh_winner then
          problems := "winner FLIPPED" :: !problems;
        if base_cands <> fresh_cands then
          problems := "candidate count drifted" :: !problems;
        (match fresh_ratio with
        | Some r when starts_with_pushdown base_winner && r < 1.5 ->
          problems := "ratio below the 1.5x floor" :: !problems
        | Some _ -> ()
        | None -> problems := "variance_ratio missing" :: !problems);
        match !problems with
        | [] ->
          Printf.printf "%-20s %-20s %-20s %9.1fx %8s\n" name base_winner fresh_winner
            (Option.value fresh_ratio ~default:Float.nan)
            "ok"
        | problems ->
          failed := true;
          Printf.printf "%-20s %-20s %-20s %9.1fx %s\n" name base_winner fresh_winner
            (Option.value fresh_ratio ~default:Float.nan)
            (String.concat ", " problems)))
    (plans_scenario_names baseline)

let () =
  let usage () =
    prerr_endline
      "usage: compare BASELINE.json FRESH.json [--threshold FRACTION] \
       [--io BASELINE_io.json FRESH_io.json] \
       [--serve BASELINE_serve.json FRESH_serve.json] \
       [--plans BASELINE_plans.json FRESH_plans.json] \
       [--stream BASELINE_stream.json FRESH_stream.json]";
    exit 2
  in
  let baseline_path, fresh_path, threshold, io_paths, serve_paths, plans_paths,
      stream_paths =
    let rec parse args (threshold, io_paths, serve_paths, plans_paths, stream_paths) =
      match args with
      | "--threshold" :: t :: rest -> (
        match float_of_string_opt t with
        | Some t -> parse rest (t, io_paths, serve_paths, plans_paths, stream_paths)
        | None -> usage ())
      | "--io" :: bi :: fi :: rest ->
        parse rest (threshold, Some (bi, fi), serve_paths, plans_paths, stream_paths)
      | "--serve" :: bs :: fs :: rest ->
        parse rest (threshold, io_paths, Some (bs, fs), plans_paths, stream_paths)
      | "--plans" :: bp :: fp :: rest ->
        parse rest (threshold, io_paths, serve_paths, Some (bp, fp), stream_paths)
      | "--stream" :: bt :: ft :: rest ->
        parse rest (threshold, io_paths, serve_paths, plans_paths, Some (bt, ft))
      | [] -> (threshold, io_paths, serve_paths, plans_paths, stream_paths)
      | _ -> usage ()
    in
    match Array.to_list Sys.argv with
    | _ :: b :: f :: rest ->
      let threshold, io_paths, serve_paths, plans_paths, stream_paths =
        parse rest (0.25, None, None, None, None)
      in
      (b, f, threshold, io_paths, serve_paths, plans_paths, stream_paths)
    | _ -> usage ()
  in
  let baseline_content =
    read_baseline ~bench:"micro --quick --json --metrics" baseline_path
  in
  let fresh_content = read_file fresh_path in
  let baseline = parse_rows baseline_content in
  let fresh = parse_rows fresh_content in
  let failed = ref false in
  Printf.printf "%-28s %10s %10s %8s\n" "kernel pair" "base" "fresh" "verdict";
  List.iter
    (fun ((_, col_bench) as pair) ->
      match (speedup baseline pair, speedup fresh pair) with
      | Some base_sp, Some fresh_sp ->
        let floor = base_sp /. (1. +. threshold) in
        let ok = fresh_sp >= floor in
        if not ok then failed := true;
        Printf.printf "%-28s %9.2fx %9.2fx %8s\n" col_bench base_sp fresh_sp
          (if ok then "ok" else "REGRESSED")
      | None, Some fresh_sp ->
        (* New pair: nothing to regress against, just record it. *)
        Printf.printf "%-28s %10s %9.2fx %8s\n" col_bench "-" fresh_sp "new"
      | _, None ->
        (* The fresh run must contain every guarded kernel. *)
        failed := true;
        Printf.printf "%-28s %10s %10s %8s\n" col_bench "-" "-" "MISSING")
    guarded_pairs;
  check_counters ~failed baseline_content fresh_content;
  (match io_paths with
  | None -> ()
  | Some (baseline_io, fresh_io) ->
    check_io ~failed (read_baseline ~bench:"io --json" baseline_io) (read_file fresh_io));
  (match serve_paths with
  | None -> ()
  | Some (baseline_serve, fresh_serve) ->
    check_serve ~failed ~threshold
      (read_baseline ~bench:"serve --quick --json" baseline_serve)
      (read_file fresh_serve));
  (match plans_paths with
  | None -> ()
  | Some (baseline_plans, fresh_plans) ->
    check_plans ~failed
      (read_baseline ~bench:"plans --quick --json" baseline_plans)
      (read_file fresh_plans));
  (match stream_paths with
  | None -> ()
  | Some (baseline_stream, fresh_stream) ->
    check_stream ~failed
      (read_baseline ~bench:"stream --quick --json" baseline_stream)
      (read_file fresh_stream));
  if !failed then begin
    Printf.eprintf
      "bench regression gate FAILED: a kernel speedup fell >%.0f%% below baseline, \
       a guarded counter row drifted, an io row's real-I/O counters changed, the \
       serve report regressed (cache totals drifted or normalized p95 grew >%.0f%%), \
       the plans report regressed (a chosen strategy flipped or a pushdown \
       scenario's measured variance ratio fell below 1.5x), or the stream \
       report drifted (a maintenance count or seed-fixed staleness q-error \
       changed)\n"
      (100. *. threshold) (100. *. threshold);
    exit 1
  end
