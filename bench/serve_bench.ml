(* Latency benchmark for the serve daemon.

   Spawns the server in-process on a Unix socket over a fixed-seed
   synthetic relation and drives three scenarios:

   - the concurrent mix (8 clients, fixed query-shape rotation) on one
     worker domain — the historical latency/cache numbers;
   - the same mix on two worker domains — proves the pool changes no
     totals (the [w2_*] fields must pin to the same values);
   - a warm-vs-cold pass: identical estimate requests with distinct
     seeds (every request draws its backing sample) versus a repeated
     seed (the warm sample cache serves the draw), isolating what the
     warm state is worth per request.

   Each mix runs 10 times, each time on a fresh daemon, and the
   latencies of the runs are pooled, so the tail is read from 1,600
   requests.
   Three classes of number come out:

   - Latencies are wall-clock and machine-dependent.  The row's tail
     check judges p95 *normalized by the p50 ratio* between baseline
     and fresh runs, so a uniformly slower machine cancels out and only
     a shape change in the latency distribution fails.
   - Cache and request totals are deterministic: the mix has a fixed
     number of distinct query shapes, each compiled exactly once
     (misses = shapes) with every repeat a hit, and the request count
     is fixed.  Every run must reproduce them, and the row pins them —
     a hit-rate drop means plan-cache normalization or invalidation
     actually changed.
   - The warm/cold medians are wall-clock but self-normalizing (both
     passes run on the same machine seconds apart); the row checks that
     warm stays no slower than cold.

   Client threads interleave nondeterministically, but totals are
   order-independent: the queue limit is sized so nothing is rejected,
   and hit/miss totals depend only on how many times each shape runs. *)

let seed = 1988

(* The mix: distinct shapes × repeats, round-robined over clients. *)
let shape_mix =
  [
    {|{"op": "estimate", "where": "a <= 400", "fraction": 0.02}|};
    {|{"op": "estimate", "where": "a > 900", "fraction": 0.01}|};
    {|{"op": "query", "expr": "select[a < 300](r)", "fraction": 0.02, "groups": 4}|};
    {|{"op": "sql", "query": "SELECT COUNT(*) FROM r WHERE a < 120", "fraction": 0.02}|};
  ]

(* --- one client connection ------------------------------------------- *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_line fd line =
  let line = line ^ "\n" in
  let len = String.length line in
  let rec go off =
    if off < len then
      match Unix.write_substring fd line off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Per-connection buffered line reader. *)
let line_reader fd =
  let ic = Unix.in_channel_of_descr fd in
  fun () -> In_channel.input_line ic

let response_ok response =
  String.length response > 0
  && String.sub response 0 1 = "{"
  &&
  (* cheap containment check, no parser needed in the hot loop *)
  let pat = "\"ok\": true" in
  let plen = String.length pat and rlen = String.length response in
  let rec find j = j + plen <= rlen && (String.sub response j plen = pat || find (j + 1)) in
  find 0

(* Runs its request list sequentially, recording seconds per request. *)
let client path requests latencies offset =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let read_line = line_reader fd in
  List.iteri
    (fun i request ->
      let t0 = Unix.gettimeofday () in
      send_line fd request;
      (match read_line () with
      | Some response ->
        Report.check (response_ok response)
          (Printf.sprintf "serve: request failed: %s -> %s" request response)
      | None -> Report.check false "serve: server closed the connection mid-mix");
      latencies.(offset + i) <- Unix.gettimeofday () -. t0)
    requests

(* --- replies ----------------------------------------------------------- *)

(* The number under the first member named [key] in a JSON reply,
   searched depth first. *)
let reply_number line key =
  let rec find = function
    | Serve.Json.Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> Some v
      | None -> List.find_map (fun (_, v) -> find v) fields)
    | Serve.Json.List items -> List.find_map find items
    | _ -> None
  in
  match Serve.Json.parse line with
  | Ok reply -> Option.bind (find reply) Report.number
  | Error _ -> None

(* --- daemon lifecycle ------------------------------------------------- *)

(* Boot an in-process daemon, run [drive socket], shut down via a
   client [shutdown] request, and return [drive]'s result plus the
   final metrics line. *)
let with_daemon ~workers ~csv ~socket ~queue_limit drive =
  let config =
    {
      Serve.Server.listen = Serve.Server.Unix_socket socket;
      bindings = [ ("r", csv) ];
      plan_capacity = 64;
      queue_limit;
      workers;
    }
  in
  let ready = Mutex.create () and ready_cond = Condition.create () in
  let is_ready = ref false in
  let server =
    Thread.create
      (fun () ->
        ignore
          (Serve.Server.run ~handle_signals:false
             ~on_ready:(fun _ ->
               Mutex.lock ready;
               is_ready := true;
               Condition.signal ready_cond;
               Mutex.unlock ready)
             config))
      ()
  in
  Mutex.lock ready;
  while not !is_ready do
    Condition.wait ready_cond ready
  done;
  Mutex.unlock ready;
  let result = drive socket in
  let fd = connect socket in
  send_line fd {|{"op": "metrics"}|};
  let read_line = line_reader fd in
  let metrics_line = Option.value (read_line ()) ~default:"" in
  send_line fd {|{"op": "shutdown"}|};
  ignore (read_line ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Thread.join server;
  (result, metrics_line)

(* --- the concurrent mix ----------------------------------------------- *)

(* The deterministic totals of one run, read from the metrics reply. *)
type totals = {
  hits : int;
  misses : int;
  served : int;  (** requests the daemon counted, the metrics request included *)
  errors : int;
  overloaded : int;
  workers : int;
}

let totals_of metrics_line =
  let get key =
    match reply_number metrics_line key with Some v -> int_of_float v | None -> -1
  in
  {
    hits = get "hits";
    misses = get "misses";
    served = get "requests";
    errors = get "errors";
    overloaded = get "overloaded";
    workers = get "workers";
  }

(* One run of the mix on a fresh daemon: per-request latencies in
   seconds, the wall time, and the run's totals. *)
let run_mix ~workers ~clients ~repeats ~csv ~socket =
  let shapes = List.length shape_mix in
  let total = clients * repeats * shapes in
  let mix = Array.of_list shape_mix in
  (* Round-robin the mix over clients; seeds are fixed per request so
     the workload is identical run to run. *)
  let requests_for c =
    List.init (repeats * shapes) (fun i ->
        let shape = mix.((c + i) mod shapes) in
        (* splice a per-request seed in (deterministic, shape-independent) *)
        String.sub shape 0 (String.length shape - 1)
        ^ Printf.sprintf ", \"seed\": %d}" (1 + (c * 1000) + i))
  in
  let latencies = Array.make total 0. in
  let wall, metrics_line =
    (* Queue sized so the full client fleet can be admitted: overloads
       would make the hit/miss totals nondeterministic. *)
    with_daemon ~workers ~csv ~socket ~queue_limit:(2 * clients) (fun socket ->
        let t_start = Unix.gettimeofday () in
        let threads =
          List.init clients (fun c ->
              Thread.create
                (fun () -> client socket (requests_for c) latencies (c * repeats * shapes))
                ())
        in
        List.iter Thread.join threads;
        Unix.gettimeofday () -. t_start)
  in
  (latencies, wall, totals_of metrics_line)

(* [runs] runs of the mix; every run must reproduce the first's totals.
   The timing pools the latencies of all runs. *)
let pooled_mix ~runs ~workers ~clients ~repeats ~csv ~socket =
  let results = List.init runs (fun _ -> run_mix ~workers ~clients ~repeats ~csv ~socket) in
  let _, _, first = List.hd results in
  List.iteri
    (fun i (_, _, totals) ->
      Report.check (totals = first)
        (Printf.sprintf "serve: workers=%d run %d changed the totals of run 1" workers (i + 1)))
    results;
  ( Report.timing_ns (Array.concat (List.map (fun (l, _, _) -> l) results)),
    List.fold_left (fun acc (_, w, _) -> acc +. w) 0. results,
    first )

(* --- warm vs cold ------------------------------------------------------ *)

(* One connection, sequential identical-shape estimates at a fraction
   big enough that the backing-sample draw dominates.  The cold pass
   changes the seed every request (every draw is fresh work); the warm
   pass repeats one seed after priming it, so the sample cache serves
   the draw.  Responses are identical bytes per seed either way — only
   the latency moves. *)
let run_warm_cold ~rounds ~csv ~socket =
  let request seed =
    Printf.sprintf
      {|{"op": "estimate", "where": "a <= 400", "fraction": 0.2, "seed": %d}|} seed
  in
  let (cold, warm), metrics_line =
    with_daemon ~workers:1 ~csv ~socket ~queue_limit:4 (fun socket ->
        let fd = connect socket in
        Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        @@ fun () ->
        let read_line = line_reader fd in
        let timed seed =
          let t0 = Unix.gettimeofday () in
          send_line fd (request seed);
          (match read_line () with
          | Some response ->
            Report.check (response_ok response) ("serve: warm/cold request failed: " ^ response)
          | None -> Report.check false "serve: server closed during warm/cold pass");
          Unix.gettimeofday () -. t0
        in
        (* Prime the plan cache (and the warm seed) so both passes hit
           the compiled plan and only the sample draw differs. *)
        ignore (timed 500_000);
        let cold = Array.init rounds (fun i -> timed (1 + i)) in
        ignore (timed 500_000);
        let warm = Array.init rounds (fun _ -> timed 500_000) in
        (cold, warm))
  in
  let sample_hits =
    match reply_number metrics_line "sample_hits" with Some v -> int_of_float v | None -> -1
  in
  (* rounds warm repeats + 1 re-prime of the already-cached warm seed *)
  Report.check (sample_hits = rounds + 1)
    (Printf.sprintf "serve: expected %d warm sample-cache hits, saw %d" (rounds + 1)
       sample_hits);
  (Report.timing_ns cold, Report.timing_ns warm, sample_hits)

(* --- harness ---------------------------------------------------------- *)

let run ?(quick = false) () =
  Printf.printf "\n=== serve bench (daemon latency, plan cache, worker pool) ===\n%!";
  let cardinality = if quick then 20_000 else 100_000 in
  let clients = 8 in
  let repeats = if quick then 5 else 25 in
  let runs = 10 in
  let warm_rounds = if quick then 40 else 100 in
  Report.with_temp_dir "raestat-serve" @@ fun dir ->
  let csv = Filename.concat dir "r.csv" in
  let rng = Sampling.Rng.create ~seed () in
  Relational.Csv.save csv
    (Workload.Generator.int_relation rng ~n:cardinality ~attribute:"a"
       (Workload.Dist.Uniform { lo = 0; hi = 999 }));
  let socket = Filename.concat dir "serve.sock" in
  let shapes = List.length shape_mix in
  let total = clients * repeats * shapes in
  let mix workers =
    let t, wall, totals = pooled_mix ~runs ~workers ~clients ~repeats ~csv ~socket in
    Printf.printf
      "workers=%d: %d runs x %d clients x %d requests (%d shapes): %.0f req/s, latency \
       p50 %.1fus p95 %.1fus max %.1fus; plan cache %d hits / %d misses\n"
      workers runs clients (repeats * shapes) shapes
      (float_of_int (runs * total) /. wall)
      (t.median /. 1e3) (t.p95 /. 1e3) (t.max /. 1e3) totals.hits totals.misses;
    (t, totals)
  in
  let one_latency, one = mix 1 in
  let two_latency, two = mix 2 in
  (* The pool must be invisible in every deterministic total. *)
  Report.check
    ({ two with workers = one.workers } = one)
    (Printf.sprintf "serve: worker count changed the totals: w1 %d/%d vs w2 %d/%d" one.hits
       one.misses two.hits two.misses);
  let cold, warm, sample_hits = run_warm_cold ~rounds:warm_rounds ~csv ~socket in
  Printf.printf
    "warm vs cold (fraction 0.2, %d rounds): cold p50 %.1fus, warm p50 %.1fus (%.2fx)\n"
    warm_rounds (cold.median /. 1e3) (warm.median /. 1e3) (cold.median /. warm.median);
  Report.
    [
      bench_row "mix"
        ~pinned:
          [
            pin_int "clients" clients;
            pin_int "requests" total;
            pin_int "shapes" shapes;
            pin_int "workers" one.workers;
            pin_int "plan_cache_hits" one.hits;
            pin_int "plan_cache_misses" one.misses;
            pin_float "hit_rate"
              (float_of_int one.hits /. float_of_int (Int.max 1 (one.hits + one.misses)));
            pin_int "requests_served" one.served;
            pin_int "errors" one.errors;
            pin_int "overloaded" one.overloaded;
            pin_int "w2_workers" two.workers;
            pin_int "w2_requests" total;
            pin_int "w2_plan_cache_hits" two.hits;
            pin_int "w2_plan_cache_misses" two.misses;
            pin_int "w2_errors" two.errors;
            pin_int "w2_overloaded" two.overloaded;
          ]
        ~checks:[ At_least_base ("hit_rate", 0.); Tail ("latency_ns", 0.25, 200_000.) ]
        ~timings:[ ("latency_ns", one_latency); ("w2_latency_ns", two_latency) ];
      bench_row "warm-cold"
        ~pinned:[ pin_int "rounds" warm_rounds; pin_int "sample_hits" sample_hits ]
        ~checks:[ At_most ("warm_ns", Field "cold_ns") ]
        ~timings:[ ("cold_ns", cold); ("warm_ns", warm) ];
    ]
