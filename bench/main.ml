(* Benchmark / experiment harness.

     dune exec bench/main.exe                    run every experiment + microbenches
     dune exec bench/main.exe -- t1 f3           run a subset
     dune exec bench/main.exe -- micro           microbenches only
     dune exec bench/main.exe -- micro --json    ... and write BENCH_micro.json
     dune exec bench/main.exe -- micro --quick   fast smoke mode (CI) + overhead guard
     dune exec bench/main.exe -- micro --metrics ... with work counters per kernel
     dune exec bench/main.exe -- io              pagefile real-I/O bench
     dune exec bench/main.exe -- io --json       ... and write BENCH_io.json
     dune exec bench/main.exe -- serve           serve daemon latency bench
     dune exec bench/main.exe -- serve --json    ... and write BENCH_serve.json
     dune exec bench/main.exe -- plans           optimizer strategy-selection bench
     dune exec bench/main.exe -- plans --json    ... and write BENCH_plans.json
     dune exec bench/main.exe -- stream          streaming-maintenance bench
     dune exec bench/main.exe -- stream --json   ... and write BENCH_stream.json

   Experiment ids and what they reproduce are indexed in DESIGN.md §4
   and EXPERIMENTS.md. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Hidden re-entry point: the overhead guard respawns itself in a
     fresh process when the measurement looks layout-biased. *)
  if args = [ "--overhead-child" ] then
    exit (if Micro.overhead_measure () < 0.03 then 0 else 1);
  let json = List.mem "--json" args in
  let quick = List.mem "--quick" args in
  let metrics = List.mem "--metrics" args in
  let requested =
    List.filter (fun a -> a <> "--json" && a <> "--quick" && a <> "--metrics") args
  in
  let known = List.map fst Experiments.all in
  let invalid =
    List.filter
      (fun id ->
        not (List.mem id ([ "micro"; "io"; "serve"; "plans"; "stream" ] @ known)))
      requested
  in
  if invalid <> [] then begin
    Printf.eprintf
      "unknown experiment(s): %s\nknown: %s micro io serve plans stream (flags: \
       --json --quick --metrics)\n"
      (String.concat " " invalid) (String.concat " " known);
    exit 2
  end;
  let run_all = requested = [] in
  let started = Unix.gettimeofday () in
  List.iter
    (fun (id, experiment) ->
      if run_all || List.mem id requested then begin
        let t0 = Unix.gettimeofday () in
        experiment ();
        Printf.printf "  [%s: %.1fs]\n%!" id (Unix.gettimeofday () -. t0)
      end)
    Experiments.all;
  (* Each bench returns its report's rows; --json writes them as
     BENCH_<bench>.json, recording the arguments that reproduce it. *)
  let flags =
    List.filter (fun flag -> List.mem flag args) [ "--quick"; "--json"; "--metrics" ]
  in
  List.iter
    (fun (bench, run) ->
      if run_all || List.mem bench requested then begin
        let rows = run () in
        if json then
          Report.write ~bench ~command:(String.concat " " (bench :: flags)) rows
      end)
    [
      ("micro", Micro.run ~quick ~metrics);
      ("io", Io.run);
      ("serve", Serve_bench.run ~quick);
      ("plans", Plans.run ~quick);
      ("stream", Stream_bench.run ~quick);
    ];
  Printf.printf "\ntotal harness time: %.1fs\n" (Unix.gettimeofday () -. started);
  if !Report.failed then exit 1
