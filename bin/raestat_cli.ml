(* raestat — command-line front end.

   Subcommands:
     generate   write a synthetic single-column CSV
     pack       pack a CSV into the binary paged format (.raf)
     exact      exact COUNT of a filter over a relation
     estimate   sampled COUNT of a filter over a relation, with a CI
     ingest     stream an insert/delete batch with maintained samples
     join       estimated (and optionally exact) equi-join size of two relations
     distinct   distinct-value estimates for a column
     sweep      relative error vs sampling fraction for a filter

   Every command that reads a relation accepts either a CSV file or a
   packed pagefile — a .raf, see raestat pack — and picks the format by
   extension.  With --pages M, estimate cluster-samples whole pages —
   over a pagefile only the sampled pages are read from disk.

   Filters use a tiny predicate language: "attr OP value" where OP is
   one of = != < <= > >=, e.g. --where "age <= 40". *)

open Cmdliner
module P = Relational.Predicate
module Expr = Relational.Expr
module Estimate = Stats.Estimate

(* --- filters ------------------------------------------------------------ *)

(* Filters go through Serve.Engine, so the serve daemon accepts exactly
   the filter language this CLI does: the predicate grammar of
   select[…]. *)

let predicate_conv =
  let parse s = Serve.Engine.parse_predicate s in
  let print ppf p = Format.fprintf ppf "%s" (P.to_string p) in
  Arg.conv (parse, print)

(* --- shared arguments ------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let csv_arg position name =
  Arg.(
    required
    & pos position (some file) None
    & info [] ~docv:name ~doc:(name ^ " relation (CSV, or packed .raf)"))

let where_arg =
  Arg.(
    required
    & opt (some predicate_conv) None
    & info [ "where"; "w" ] ~docv:"FILTER" ~doc:"Filter in the predicate grammar of select[…], e.g. \"age <= 40 and name = 'alice'\".")

let fraction_arg =
  Arg.(
    value & opt float 0.01
    & info [ "fraction"; "f" ] ~docv:"F" ~doc:"Sampling fraction in (0, 1].")

let level_arg =
  Arg.(value & opt float 0.95 & info [ "level" ] ~docv:"L" ~doc:"Confidence level.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ]
        ~docv:"D"
        ~doc:
          "OCaml domains for replicated estimation (0 = all cores).  Estimates are \
           bit-identical for any value: the seed fully determines the result.")

(* 0 means "use every core the runtime recommends". *)
let resolve_domains d = if d = 0 then Raestat.Parallel.auto () else d

let rng_of_seed seed = Sampling.Rng.create ~seed ()

(* Range guards for the numeric options.  The comparisons are written
   so NaN fails them too: downstream the sampling layer's checks use
   plain [<] / [>], which NaN slips through, surfacing as a misleading
   error (or, worse, a silently NaN result).  Routed through [Failure]
   into the one-line `raestat: error:` / exit-3 contract. *)

let check_fraction = Serve.Engine.check_fraction
let check_unit_open = Serve.Engine.check_unit_open

(* --- metrics ----------------------------------------------------------- *)

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Report work counters (tuples scanned, pages read, sample indices, hash \
           probes, RNG draws) and stage timers as JSON on stderr after the result.")

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Include the per-operator span tree in the metrics JSON (implies \
              $(b,--metrics)).")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the metrics JSON to $(docv) instead of stderr (implies \
              $(b,--metrics)).")

let metrics_term =
  let make metrics trace out = (metrics || trace || out <> None, trace, out) in
  Term.(const make $ metrics_flag $ trace_flag $ metrics_out_arg)

(* Run [f] with an enabled sink when any metrics option was given (a
   shared no-op otherwise — the recording calls cost one branch), then
   emit the JSON report. *)
let with_metrics (enabled, trace, out) f =
  if not enabled then f Obs.Metrics.noop
  else begin
    let m = Obs.Metrics.create () in
    let result = f m in
    let json = Obs.Metrics.to_json ~include_spans:trace m in
    (match out with
    | None -> Printf.eprintf "%s\n%!" json
    | Some path ->
      let oc = open_out path in
      output_string oc json;
      output_char oc '\n';
      close_out oc);
    result
  end

(* Relation loading dispatches on the extension: *.raf opens the binary
   pagefile and materializes it through the paged reader — real I/O the
   metrics sink sees — anything else is parsed as CSV (in-memory, no
   I/O charged).  Materialization respects RAESTAT_MEMORY_CAP; under a
   cap, cluster sampling (--pages) is the out-of-core path. *)

let is_pagefile = Serve.Engine.is_pagefile
let load_catalog = Serve.Engine.load_catalog

(* Page-granular view for cluster sampling: a pagefile is used directly
   (only sampled pages are fetched), a CSV is loaded and split into
   simulated pages. *)
let with_paged ?page_capacity path f =
  if is_pagefile path then begin
    let pf = Relational.Pagefile.openfile path in
    Fun.protect
      ~finally:(fun () -> Relational.Pagefile.close pf)
      (fun () -> f (Relational.Paged.of_pagefile pf))
  end
  else
    let page_capacity =
      Option.value page_capacity ~default:Relational.Pagefile.default_page_capacity
    in
    f (Relational.Paged.make ~page_capacity (Relational.Csv.load path))

(* NAME=PATH binding for the --rel option of query/sql/plan/explain. *)
let parse_binding = Serve.Engine.parse_binding

(* --- generate --------------------------------------------------------- *)

let dist_conv =
  (* _opt conversions so a malformed field is a one-line converter
     error, not an uncaught Failure("int_of_string") through cmdliner. *)
  let int_part what text k =
    match int_of_string_opt text with
    | Some n -> k n
    | None -> Error (`Msg (Printf.sprintf "%s %S is not an integer" what text))
  in
  let float_part what text k =
    match float_of_string_opt text with
    | Some f -> k f
    | None -> Error (`Msg (Printf.sprintf "%s %S is not a number" what text))
  in
  let parse s =
    match String.split_on_char ':' s with
    | [ "uniform"; lo; hi ] ->
      int_part "uniform bound" lo @@ fun lo ->
      int_part "uniform bound" hi @@ fun hi -> Ok (Workload.Dist.Uniform { lo; hi })
    | [ "zipf"; n; z ] ->
      int_part "zipf value count" n @@ fun n_values ->
      float_part "zipf skew" z @@ fun skew -> Ok (Workload.Dist.Zipf { n_values; skew })
    | [ "normal"; mean; sd ] ->
      float_part "normal mean" mean @@ fun mean ->
      float_part "normal stddev" sd @@ fun stddev ->
      Ok (Workload.Dist.Normal { mean; stddev })
    | [ "selfsim"; n; h ] ->
      int_part "selfsim value count" n @@ fun n_values ->
      float_part "selfsim h" h @@ fun h -> Ok (Workload.Dist.Self_similar { n_values; h })
    | [ "exp"; mean ] ->
      float_part "exp mean" mean @@ fun mean -> Ok (Workload.Dist.Exponential { mean })
    | [ "const"; c ] ->
      int_part "const value" c @@ fun c -> Ok (Workload.Dist.Constant c)
    | _ ->
      Error
        (`Msg
          "expected uniform:LO:HI | zipf:N:Z | normal:MEAN:SD | selfsim:N:H | exp:MEAN | const:C")
  in
  let print ppf d = Format.fprintf ppf "%s" (Workload.Dist.to_string d) in
  Arg.conv ~docv:"DIST" (parse, print)

let generate_cmd =
  let run seed n out column dist =
    let rng = rng_of_seed seed in
    let relation = Workload.Generator.int_relation rng ~n ~attribute:column dist in
    Relational.Csv.save out relation;
    Printf.printf "wrote %d tuples of %s to %s\n" n (Workload.Dist.to_string dist) out
  in
  let n_arg =
    Arg.(value & opt int 100_000 & info [ "n" ] ~docv:"N" ~doc:"Number of tuples.")
  in
  let out_arg =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output CSV.")
  in
  let column_arg =
    Arg.(value & opt string "a" & info [ "column"; "c" ] ~docv:"NAME" ~doc:"Column name.")
  in
  let dist_arg =
    Arg.(
      value
      & opt dist_conv (Workload.Dist.Uniform { lo = 0; hi = 999 })
      & info [ "dist"; "d" ] ~docv:"DIST" ~doc:"Value distribution.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic CSV relation")
    Term.(const run $ seed_arg $ n_arg $ out_arg $ column_arg $ dist_arg)

(* --- pack ------------------------------------------------------------- *)

let pack_cmd =
  let run src dst page_capacity =
    if page_capacity <= 0 then failwith "--page-capacity must be positive";
    (* Streams the CSV: memory stays bounded by one page, not the
       relation. *)
    let n = Relational.Pagefile.pack_csv ~page_capacity ~src ~dst () in
    let pf = Relational.Pagefile.openfile dst in
    Fun.protect ~finally:(fun () -> Relational.Pagefile.close pf) @@ fun () ->
    Printf.printf "packed %d tuples into %s: %d pages of up to %d rows, %d data bytes\n"
      n dst
      (Relational.Pagefile.page_count pf)
      (Relational.Pagefile.page_capacity pf)
      (Relational.Pagefile.data_bytes pf)
  in
  let src_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"CSV" ~doc:"Source CSV file.")
  in
  let dst_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"RAF" ~doc:"Destination pagefile (conventionally *.raf).")
  in
  let capacity_arg =
    Arg.(
      value
      & opt int Relational.Pagefile.default_page_capacity
      & info [ "page-capacity" ] ~docv:"ROWS" ~doc:"Tuples per page.")
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Pack a CSV into the binary paged format (.raf): fixed-capacity pages of \
          columnar segments with a page directory, read page-at-a-time by the \
          estimators")
    Term.(const run $ src_arg $ dst_arg $ capacity_arg)

(* --- exact ------------------------------------------------------------ *)

let exact_cmd =
  let run path predicate =
    let catalog = load_catalog [ ("r", path) ] in
    let result = Baselines.Exact.count catalog (Expr.select predicate (Expr.base "r")) in
    Printf.printf "exact COUNT: %d   (%.1f ms)\n" result.Baselines.Exact.count
      (1000. *. result.Baselines.Exact.seconds)
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact COUNT of a filter over a CSV")
    Term.(const run $ csv_arg 0 "DATA" $ where_arg)

(* --- estimate --------------------------------------------------------- *)

let estimate_cmd =
  let run seed path predicate fraction level pages metrics_opts =
    check_fraction fraction;
    Serve.Engine.check_level level;
    let rng = rng_of_seed seed in
    match pages with
    | Some m ->
      (* Cluster sampling: draw m whole pages.  Over a pagefile this is
         the out-of-core path — only the sampled pages are fetched.
         Rendered by Serve.Engine so a daemon "pages" request is
         byte-identical to this command. *)
      let result =
        with_metrics metrics_opts (fun metrics ->
            with_paged path (fun paged ->
                Serve.Engine.estimate_pages ~metrics rng ~relation:"r" ~m ~level paged
                  predicate))
      in
      print_string result.Serve.Engine.text
    | None ->
      (* Shared with the serve daemon: Serve.Engine renders the exact
         same text for the same seed, so daemon responses are
         byte-identical to this command. *)
      let result =
        with_metrics metrics_opts (fun metrics ->
            let catalog = load_catalog ~metrics [ ("r", path) ] in
            Serve.Engine.estimate ~metrics rng catalog ~relation:"r" ~fraction ~level
              predicate)
      in
      print_string result.Serve.Engine.text
  in
  let pages_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "pages"; "m" ] ~docv:"M"
          ~doc:
            "Cluster-sample $(docv) whole pages instead of row-level sampling.  \
             Over a packed (.raf) relation only the sampled pages are read from \
             disk, so this works under $(b,RAESTAT_MEMORY_CAP).")
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Sampled COUNT of a filter over a relation")
    Term.(const run $ seed_arg $ csv_arg 0 "DATA" $ where_arg $ fraction_arg $ level_arg
          $ pages_arg $ metrics_term)

(* --- ingest ----------------------------------------------------------- *)

(* Delete spec "3,7,10-20": comma-separated ids and inclusive ranges.
   Ids are the sequential tuple ids a stream issues (row order of the
   base relation, then insert order).  Ranges are clamped to the
   [issued] ids: no id past them can be live, so the clamp changes no
   output, and a range costs no more than the ids the stream has. *)
let parse_delete_spec ~issued spec =
  let part p =
    let p = String.trim p in
    match String.index_opt p '-' with
    | None -> (
      match int_of_string_opt p with
      | Some id -> [ id ]
      | None -> failwith (Printf.sprintf "--delete: %S is not a tuple id" p))
    | Some i -> (
      let lo = String.trim (String.sub p 0 i) in
      let hi = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi ->
        List.init (max 0 (min hi (issued - 1) - lo + 1)) (fun k -> lo + k)
      | _ -> failwith (Printf.sprintf "--delete: %S is not an id range LO-HI" p))
  in
  String.split_on_char ',' spec
  |> List.filter (fun p -> String.trim p <> "")
  |> List.concat_map part

(* One-shot streaming ingestion: convert the base relation into a
   maintained stream (same maintenance path the serve daemon's write
   ops use), apply one insert/delete batch, then answer --where from
   the maintained sample — Serve.Engine.estimate_stream renders it, so
   the estimate text is byte-identical to a served "estimate" against
   a daemon that processed the same writes with the same seed. *)
let ingest_cmd =
  let module SR = Raestat.Stream_relation in
  let run seed path inserts delete_spec capacity bernoulli window rescan predicate level
      metrics_opts =
    Serve.Engine.check_level level;
    with_metrics metrics_opts (fun metrics ->
        let base = Serve.Engine.load_relation ~metrics path in
        let stream =
          SR.create ~capacity ?bernoulli ?window ~metrics ~seed
            ~schema:(Relational.Relation.schema base) ()
        in
        ignore (SR.ingest stream ~inserts:(Relational.Relation.tuples base) ~deletes:[||]);
        let insert_tuples =
          match inserts with
          | None -> [||]
          | Some file ->
            let r = Relational.Csv.load file in
            if
              not
                (Relational.Schema.equal (Relational.Relation.schema r) (SR.schema stream))
            then
              failwith
                (Printf.sprintf "--inserts %s: schema does not match %s" file path);
            Relational.Relation.tuples r
        in
        let deletes =
          match delete_spec with
          | None -> [||]
          | Some spec ->
            let issued =
              Relational.Relation.cardinality base + Array.length insert_tuples
            in
            Array.of_list (parse_delete_spec ~issued spec)
        in
        let counts = SR.ingest stream ~inserts:insert_tuples ~deletes in
        Printf.printf "ingested %d, deleted %d (epoch %d, population %d, sample %d/%d)\n"
          counts.SR.inserted counts.SR.deleted (SR.epoch stream) (SR.population stream)
          (SR.sample_size stream) (SR.capacity stream);
        if rescan && SR.needs_rescan stream then begin
          SR.rescan stream;
          Printf.printf "rescan: rebuilt the backing sample from %d live tuples\n"
            (SR.population stream)
        end;
        match predicate with
        | None -> ()
        | Some predicate ->
          let result =
            Serve.Engine.estimate_stream ~metrics ~relation:"r" ~level stream predicate
          in
          print_string result.Serve.Engine.text)
  in
  let inserts_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "inserts"; "i" ] ~docv:"FILE"
          ~doc:"CSV of tuples to insert (must match the base schema).")
  in
  let delete_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "delete" ] ~docv:"SPEC"
          ~doc:"Tuple ids to delete: comma-separated ids and inclusive ranges, e.g. \
                \"3,7,10-20\".  Ids follow base row order, then insert order.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 1024
      & info [ "capacity" ] ~docv:"N" ~doc:"Backing reservoir capacity.")
  in
  let bernoulli_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "bernoulli" ] ~docv:"P" ~doc:"Also maintain a Bernoulli($(docv)) sample.")
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ] ~docv:"W"
          ~doc:"Also maintain a chain sample over the last $(docv) inserts.")
  in
  let rescan_flag =
    Arg.(
      value & flag
      & info [ "rescan" ]
          ~doc:"Rebuild the backing sample from the live population if deletions \
                eroded it below half capacity.")
  in
  let where_opt_arg =
    Arg.(
      value
      & opt (some predicate_conv) None
      & info [ "where"; "w" ] ~docv:"FILTER"
          ~doc:"Estimate the post-batch COUNT of $(docv) from the maintained sample.")
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Stream an insert/delete batch into a relation with maintained samples")
    Term.(const run $ seed_arg $ csv_arg 0 "DATA" $ inserts_arg $ delete_arg
          $ capacity_arg $ bernoulli_arg $ window_arg $ rescan_flag $ where_opt_arg
          $ level_arg $ metrics_term)

(* --- join ------------------------------------------------------------- *)

let join_cmd =
  let run seed left right on fraction check domains metrics_opts =
    check_fraction fraction;
    let rng = rng_of_seed seed in
    let left_attr, right_attr =
      match String.split_on_char '=' on with
      | [ a; b ] -> (String.trim a, String.trim b)
      | _ -> failwith "--on expects LEFT_ATTR=RIGHT_ATTR"
    in
    let catalog, est =
      with_metrics metrics_opts (fun metrics ->
          let catalog = load_catalog ~metrics [ ("l", left); ("r", right) ] in
          let est =
            Raestat.Count_estimator.equijoin ~groups:8 ~domains:(resolve_domains domains)
              ~metrics rng catalog ~left:"l" ~right:"r"
              ~on:[ (left_attr, right_attr) ] ~fraction
          in
          (catalog, est))
    in
    Printf.printf "estimated join size: %.0f (stderr %.0f)\n" est.Estimate.point
      (Estimate.stderr est);
    if check then begin
      let exact =
        Baselines.Exact.count catalog
          (Expr.equijoin [ (left_attr, right_attr) ] (Expr.base "l") (Expr.base "r"))
      in
      Printf.printf "exact join size:     %d   (%.1f ms)\n" exact.Baselines.Exact.count
        (1000. *. exact.Baselines.Exact.seconds);
      Printf.printf "relative error:      %.2f%%\n"
        (100. *. Estimate.relative_error ~truth:(float_of_int exact.Baselines.Exact.count) est)
    end
  in
  let on_arg =
    Arg.(
      required & opt (some string) None
      & info [ "on" ] ~docv:"A=B" ~doc:"Join condition LEFT_ATTR=RIGHT_ATTR.")
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ] ~doc:"Also compute the exact join size.")
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Estimate the equi-join size of two CSVs")
    Term.(const run $ seed_arg $ csv_arg 0 "LEFT" $ csv_arg 1 "RIGHT" $ on_arg $ fraction_arg
          $ check_arg $ domains_arg $ metrics_term)

(* --- distinct ---------------------------------------------------------- *)

let distinct_cmd =
  let run seed path column fraction =
    check_fraction fraction;
    let rng = rng_of_seed seed in
    let catalog = load_catalog [ ("r", path) ] in
    let big_n = Relational.Relation.cardinality (Relational.Catalog.find catalog "r") in
    let n = Sampling.Srs.size_of_fraction ~fraction big_n in
    Printf.printf "%-16s %12s %s\n" "method" "estimate" "status";
    List.iter
      (fun m ->
        let est =
          Raestat.Distinct.estimate rng catalog ~method_:m ~relation:"r"
            ~attributes:[ column ] ~n
        in
        if Raestat.Distinct.plausible ~big_n est then
          Printf.printf "%-16s %12.0f %s\n"
            (Raestat.Distinct.method_to_string m)
            est.Estimate.point
            (Estimate.status_to_string est.Estimate.status)
        else
          Printf.printf "%-16s %12s %s (numerically unstable at this fraction)\n"
            (Raestat.Distinct.method_to_string m)
            "-"
            (Estimate.status_to_string est.Estimate.status))
      Raestat.Distinct.all_methods;
    Printf.printf "%-16s %12d\n" "exact"
      (Raestat.Distinct.exact catalog ~relation:"r" ~attributes:[ column ])
  in
  let column_arg =
    Arg.(value & opt string "a" & info [ "column"; "c" ] ~docv:"NAME" ~doc:"Column name.")
  in
  Cmd.v
    (Cmd.info "distinct" ~doc:"Distinct-value estimates for a CSV column")
    Term.(const run $ seed_arg $ csv_arg 0 "DATA" $ column_arg $ fraction_arg)

(* Cost-based sampling-placement optimizer toggle, shared by query, sql
   and their explains.  RAESTAT_NO_OPTIMIZE=1 overrides it off. *)
let optimize_flag =
  Arg.(
    value & flag
    & info [ "optimize" ]
        ~doc:
          "Let the cost-based planner choose where the sampling operator goes \
           (candidates priced by predicted variance x cost; explain shows the \
           full table, schema raestat-explain/2 with --json).  \
           $(b,RAESTAT_NO_OPTIMIZE=1) disables it.")

(* --- query ------------------------------------------------------------- *)

let query_cmd =
  let run seed bindings text fraction groups check domains optimize metrics_opts =
    check_fraction fraction;
    let rng = rng_of_seed seed in
    let expr = Relational.Parser.parse_expr text in
    let catalog, result =
      with_metrics metrics_opts (fun metrics ->
          let catalog = load_catalog ~metrics (List.map parse_binding bindings) in
          let result =
            Serve.Engine.query ~metrics ~domains:(resolve_domains domains) ~optimize rng
              catalog ~fraction ~groups expr
          in
          (catalog, result))
    in
    print_string result.Serve.Engine.text;
    if check then begin
      let est = result.Serve.Engine.estimate in
      let exact = Baselines.Exact.count catalog expr in
      Printf.printf "exact COUNT:     %d (%.1f ms)\n" exact.Baselines.Exact.count
        (1000. *. exact.Baselines.Exact.seconds);
      Printf.printf "relative error:  %.2f%%\n"
        (100.
        *. Estimate.relative_error ~truth:(float_of_int exact.Baselines.Exact.count) est)
    end
  in
  let bindings_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "rel"; "r" ] ~docv:"NAME=PATH" ~doc:"Bind a relation name to a CSV file.")
  in
  let text_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"EXPR" ~doc:"Relational algebra expression (Parser syntax).")
  in
  let groups_arg =
    Arg.(value & opt int 5 & info [ "groups"; "g" ] ~docv:"G" ~doc:"Replicate groups.")
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ] ~doc:"Also evaluate exactly.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Estimate COUNT of an arbitrary relational algebra expression")
    Term.(const run $ seed_arg $ bindings_arg $ text_arg $ fraction_arg $ groups_arg
          $ check_arg $ domains_arg $ optimize_flag $ metrics_term)

(* --- sql --------------------------------------------------------------- *)

let sql_cmd =
  let run seed bindings text fraction groups check domains optimize metrics_opts =
    check_fraction fraction;
    let rng = rng_of_seed seed in
    let catalog, result =
      with_metrics metrics_opts (fun metrics ->
          let catalog = load_catalog ~metrics (List.map parse_binding bindings) in
          let result =
            Serve.Engine.sql ~metrics ~domains:(resolve_domains domains) ~optimize rng
              catalog ~fraction ~groups text
          in
          (catalog, result))
    in
    print_string result.Serve.Engine.text;
    if check then begin
      let exact = Baselines.Exact.count catalog result.Serve.Engine.expr in
      Printf.printf "exact COUNT:     %d (%.1f ms)\n" exact.Baselines.Exact.count
        (1000. *. exact.Baselines.Exact.seconds)
    end
  in
  let bindings_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "rel"; "r" ] ~docv:"NAME=PATH" ~doc:"Bind a relation name to a CSV file.")
  in
  let text_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"SQL query (SELECT subset; see Relational.Parser.parse_sql).")
  in
  let groups_arg =
    Arg.(value & opt int 5 & info [ "groups"; "g" ] ~docv:"G" ~doc:"Replicate groups.")
  in
  let check_arg = Arg.(value & flag & info [ "check" ] ~doc:"Also evaluate exactly.") in
  Cmd.v
    (Cmd.info "sql" ~doc:"Estimate the COUNT of a SQL query's result")
    Term.(const run $ seed_arg $ bindings_arg $ text_arg $ fraction_arg $ groups_arg
          $ check_arg $ domains_arg $ optimize_flag $ metrics_term)

(* --- quantile ---------------------------------------------------------- *)

let quantile_cmd =
  let run seed path column tau fraction level =
    check_fraction fraction;
    check_unit_open ~option:"--level" level;
    check_unit_open ~option:"--tau" tau;
    let rng = rng_of_seed seed in
    let catalog = load_catalog [ ("r", path) ] in
    let big_n = Relational.Relation.cardinality (Relational.Catalog.find catalog "r") in
    let n = Sampling.Srs.size_of_fraction ~fraction big_n in
    let result =
      Raestat.Quantile.estimate rng catalog ~relation:"r" ~attribute:column ~tau ~n ~level ()
    in
    Printf.printf "estimated %.0f%%-quantile of %s: %g\n" (100. *. tau) column
      result.Raestat.Quantile.estimate.Estimate.point;
    Printf.printf "%.0f%% order-statistic CI: [%g, %g] (ranks %d..%d of %d)\n"
      (100. *. level)
      result.Raestat.Quantile.interval.Stats.Confidence.lo
      result.Raestat.Quantile.interval.Stats.Confidence.hi
      result.Raestat.Quantile.lo_rank result.Raestat.Quantile.hi_rank n;
    Printf.printf "exact: %g\n"
      (Raestat.Quantile.exact catalog ~relation:"r" ~attribute:column ~tau)
  in
  let column_arg =
    Arg.(value & opt string "a" & info [ "column"; "c" ] ~docv:"NAME" ~doc:"Column name.")
  in
  let tau_arg =
    Arg.(value & opt float 0.5 & info [ "tau"; "t" ] ~docv:"T" ~doc:"Quantile in (0, 1).")
  in
  Cmd.v
    (Cmd.info "quantile" ~doc:"Sampled quantile of a CSV column with a distribution-free CI")
    Term.(const run $ seed_arg $ csv_arg 0 "DATA" $ column_arg $ tau_arg $ fraction_arg
          $ level_arg)

(* --- plan -------------------------------------------------------------- *)

let plan_cmd =
  let run seed bindings join_specs fraction =
    check_fraction fraction;
    let rng = rng_of_seed seed in
    let bindings = List.map parse_binding bindings in
    let catalog = load_catalog bindings in
    let inputs =
      List.map (fun (name, _) -> { Raestat.Planner.name; filter = None }) bindings
    in
    let joins =
      List.map
        (fun spec ->
          match String.split_on_char '=' spec with
          | [ a; b ] ->
            { Raestat.Planner.left_attr = String.trim a; right_attr = String.trim b }
          | _ -> failwith "--on expects A=B")
        join_specs
    in
    let plan = Raestat.Planner.plan rng catalog ~fraction ~inputs ~joins in
    Printf.printf "chosen order:   %s\n" (String.concat " ⋈ " plan.Raestat.Planner.order);
    Printf.printf "plan:           %s\n"
      (Relational.Parser.print_expr plan.Raestat.Planner.expr);
    Printf.printf "estimated cost: %.0f (fraction %.3f)\n" plan.Raestat.Planner.estimated_cost
      fraction;
    List.iter
      (fun (key, size) -> Printf.printf "  %-30s %12.0f\n" key size)
      plan.Raestat.Planner.estimates
  in
  let bindings_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "rel"; "r" ] ~docv:"NAME=PATH" ~doc:"Bind a relation name to a CSV file.")
  in
  let joins_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "on" ] ~docv:"A=B" ~doc:"Equality join predicate (repeatable).")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Pick a join order from sampled cardinality estimates")
    Term.(const run $ seed_arg $ bindings_arg $ joins_arg $ fraction_arg)

(* --- sweep ------------------------------------------------------------- *)

let sweep_cmd =
  let run seed path predicate reps =
    let rng = rng_of_seed seed in
    let catalog = load_catalog [ ("r", path) ] in
    let big_n = Relational.Relation.cardinality (Relational.Catalog.find catalog "r") in
    let truth =
      float_of_int
        (Relational.Physical.count_expr catalog (Expr.select predicate (Expr.base "r")))
    in
    Printf.printf "truth = %.0f over %d tuples; %d reps per fraction\n" truth big_n reps;
    Printf.printf "%10s %14s %14s\n" "fraction" "mean rel.err" "mean CI width";
    List.iter
      (fun fraction ->
        let n = Sampling.Srs.size_of_fraction ~fraction big_n in
        let errors = ref Stats.Summary.empty and widths = ref Stats.Summary.empty in
        for _ = 1 to reps do
          let est = Raestat.Count_estimator.selection rng catalog ~relation:"r" ~n predicate in
          errors := Stats.Summary.add !errors (Estimate.relative_error ~truth est);
          widths :=
            Stats.Summary.add !widths (Stats.Confidence.width (Estimate.ci ~level:0.95 est))
        done;
        Printf.printf "%10.3f %13.2f%% %14.0f\n" fraction
          (100. *. Stats.Summary.mean !errors)
          (Stats.Summary.mean !widths))
      [ 0.001; 0.005; 0.01; 0.05; 0.1; 0.2 ]
  in
  let reps_arg =
    Arg.(value & opt int 50 & info [ "reps" ] ~docv:"R" ~doc:"Replications per fraction.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Relative error vs sampling fraction for a filter")
    Term.(const run $ seed_arg $ csv_arg 0 "DATA" $ where_arg $ reps_arg)

(* --- fuzz --------------------------------------------------------------- *)

let fuzz_cmd =
  let run seed budget replicates replay out =
    if budget <= 0 then failwith "--budget must be positive";
    if replicates < 2 then
      failwith
        "--replicates must be at least 2: the unbiasedness oracle feeds df = \
         replicates - 1 to the Student-t quantile, and df = 0 has no quantile";
    let config = { Check.Fuzz.budget; seed; replicates } in
    let report (f : Check.Fuzz.failure) =
      Printf.printf "fuzz: FAILURE in oracle %s\n  %s\n  case:   %s\n  shrunk: %s\n  %s\n"
        f.Check.Fuzz.oracle f.Check.Fuzz.detail
        (Check.Gen.to_string f.Check.Fuzz.case)
        (Check.Gen.to_string f.Check.Fuzz.shrunk)
        f.Check.Fuzz.shrunk_detail;
      Out_channel.with_open_text out (fun oc ->
          Out_channel.output_string oc (Check.Fuzz.replay_file config f));
      Printf.printf "seed file written to %s; reproduce with: raestat fuzz --replay %s\n"
        out out
    in
    match replay with
    | Some path ->
      let content = In_channel.with_open_text path In_channel.input_all in
      (match Check.Fuzz.parse_replay content with
      | Error message -> failwith (Printf.sprintf "%s: %s" path message)
      | Ok header -> (
        match Check.Fuzz.replay header with
        | Check.Fuzz.Passed _ ->
          Printf.printf "replay: PASS — case %d (seed %d) no longer fails oracle %s\n"
            header.Check.Fuzz.rcase header.Check.Fuzz.rseed header.Check.Fuzz.roracle
        | Check.Fuzz.Found f ->
          report f;
          exit 1))
    | None -> (
      match Check.Fuzz.run ~log:prerr_endline config with
      | Check.Fuzz.Passed n ->
        Printf.printf "fuzz: %d cases, 0 failures (seed %d, replicates %d)\n" n seed
          replicates
      | Check.Fuzz.Found f ->
        report f;
        exit 1)
  in
  let budget_arg =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N" ~doc:"Number of random cases to check.")
  in
  let replicates_arg =
    Arg.(
      value & opt int 24
      & info [ "replicates" ] ~docv:"R"
          ~doc:"Replicates for the unbiasedness/coverage oracles (at least 2).")
  in
  let replay_arg =
    Arg.(
      value & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run the failure recorded in a raestat-fuzz/1 seed file.")
  in
  let out_arg =
    Arg.(
      value & opt string "fuzz-failure.txt"
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the seed file on failure.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing of the estimators: random relations and expressions \
          through the oracle battery (census, parity, rewrite, unbiasedness, \
          coverage, conservation)")
    Term.(const run $ seed_arg $ budget_arg $ replicates_arg $ replay_arg $ out_arg)

(* --- serve / client ----------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen/connect on.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N"
        ~doc:"Loopback TCP port to listen/connect on (0 picks an ephemeral port).")

let serve_cmd =
  let run bindings socket port plan_capacity queue_limit workers metrics_out =
    let bindings = List.map parse_binding bindings in
    let listen =
      match (socket, port) with
      | Some path, None -> Serve.Server.Unix_socket path
      | None, Some port -> Serve.Server.Tcp port
      | Some _, Some _ -> failwith "--socket and --port are mutually exclusive"
      | None, None -> failwith "one of --socket PATH or --port N is required"
    in
    if plan_capacity <= 0 then failwith "--plan-cache must be positive";
    if queue_limit < 0 then failwith "--queue-limit must be >= 0";
    if workers < 0 then failwith "--workers must be >= 0";
    let workers = if workers = 0 then Raestat.Parallel.auto () else workers in
    let config =
      { Serve.Server.listen; bindings; plan_capacity; queue_limit; workers }
    in
    let on_stop =
      Option.map
        (fun path snapshot ->
          let oc = open_out path in
          output_string oc (Obs.Metrics.snapshot_to_json snapshot);
          output_char oc '\n';
          close_out oc)
        metrics_out
    in
    let stats =
      Serve.Server.run
        ~on_ready:(fun addr ->
          let where =
            match addr with
            | Unix.ADDR_UNIX path -> Printf.sprintf "unix:%s" path
            | Unix.ADDR_INET (_, port) -> Printf.sprintf "tcp:127.0.0.1:%d" port
          in
          (* Flushed so wrappers can wait for the ready line. *)
          Printf.printf "raestat serve: listening on %s (%d relations)\n%!" where
            (List.length bindings))
        ?on_stop config
    in
    Printf.printf "raestat serve: stopped after %d requests (%d errors, %d overloaded)\n"
      stats.Serve.Server.requests stats.Serve.Server.errors
      stats.Serve.Server.overloaded
  in
  let bindings_arg =
    Arg.(
      non_empty & opt_all string []
      & info [ "rel"; "r" ] ~docv:"NAME=PATH"
          ~doc:"Bind a relation name to a CSV or packed .raf file (repeatable).")
  in
  let plan_capacity_arg =
    Arg.(
      value & opt int 64
      & info [ "plan-cache" ] ~docv:"N" ~doc:"Prepared-plan cache capacity (entries).")
  in
  let queue_limit_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Max requests waiting or running before new ones are rejected with \
             {\"error\": \"overloaded\"}.")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains executing requests (0, the default, means one per \
             available core).  Responses are independent of this setting.")
  in
  let serve_metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "On shutdown, write the lifetime metrics snapshot (merged over all \
             workers) to $(docv) as JSON.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running estimation daemon: newline-delimited JSON requests over a Unix \
          or loopback TCP socket, catalog loaded once and kept warm, compiled plans \
          cached per query shape, requests executed on a pool of worker domains")
    Term.(const run $ bindings_arg $ socket_arg $ port_arg $ plan_capacity_arg
          $ queue_limit_arg $ workers_arg $ serve_metrics_out_arg)

let client_cmd =
  let run socket port text_mode requests =
    let addr =
      match (socket, port) with
      | Some path, None -> Unix.ADDR_UNIX path
      | None, Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      | Some _, Some _ -> failwith "--socket and --port are mutually exclusive"
      | None, None -> failwith "one of --socket PATH or --port N is required"
    in
    (* Retry the connect briefly: scripted clients routinely race the
       daemon's bind (ECONNREFUSED / ENOENT for a not-yet-created Unix
       socket path).  Fresh socket per attempt — a failed connect
       leaves the fd in an undefined state. *)
    let rec connect_with_retry attempts =
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () -> fd
      | exception Unix.Unix_error ((ECONNREFUSED | ENOENT | ECONNRESET), _, _)
        when attempts > 1 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.02;
        connect_with_retry (attempts - 1)
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    in
    let fd = connect_with_retry 100 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    (* Channels over the fd handle partial writes and line framing; the
       fd is closed once, above — not via the channels. *)
    let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
    let requests =
      match requests with [] -> In_channel.input_lines stdin | _ -> requests
    in
    List.iter
      (fun request ->
        output_string oc request;
        output_char oc '\n';
        flush oc;
        match In_channel.input_line ic with
        | None -> failwith "server closed the connection"
        | Some response ->
          if not text_mode then print_endline response
          else
            (* --text unwraps result.text verbatim (for byte-parity
               checks against the one-shot commands) and routes server
               errors into the raestat: error: / exit-3 contract. *)
            let json =
              match Serve.Json.parse response with
              | Ok v -> v
              | Error message -> failwith ("bad response JSON: " ^ message)
            in
            (match Serve.Json.member "ok" json with
            | Some (Serve.Json.Bool true) -> (
              match Serve.Json.member "result" json with
              | Some result -> (
                match Serve.Json.member "text" result with
                | Some (Serve.Json.Str text) -> print_string text
                | _ -> print_endline response)
              | None -> print_endline response)
            | _ ->
              let message =
                match Serve.Json.member "error" json with
                | Some (Serve.Json.Str m) -> m
                | _ -> "malformed server response"
              in
              failwith message))
      requests
  in
  let text_flag =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:
            "Print each response's result.text verbatim instead of the raw JSON \
             line; server errors become one-line errors with exit code 3.")
  in
  let requests_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "JSON request lines to send in order (read from stdin when none are \
             given).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send newline-delimited JSON requests to a running raestat serve daemon")
    Term.(const run $ socket_arg $ port_arg $ text_flag $ requests_arg)

(* --- explain ------------------------------------------------------------ *)

(* Each sub-command builds the estimation plan exactly as the matching
   estimator command would — same relation aliases, same sample sizes,
   same replicate-group defaults — and prints it without running it. *)

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the plan as JSON (schema raestat-explain/1).")

let explain_estimate_cmd =
  let run path predicate fraction json =
    let catalog = load_catalog [ ("r", path) ] in
    print_string
      (Serve.Engine.plan_text ~json
         (Serve.Engine.explain_selection catalog ~relation:"r" ~fraction predicate))
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Explain the plan behind $(b,raestat estimate)")
    Term.(const run $ csv_arg 0 "DATA" $ where_arg $ fraction_arg $ json_flag)

let explain_join_cmd =
  let run left right on fraction json =
    check_fraction fraction;
    let catalog = load_catalog [ ("l", left); ("r", right) ] in
    let left_attr, right_attr =
      match String.split_on_char '=' on with
      | [ a; b ] -> (String.trim a, String.trim b)
      | _ -> failwith "--on expects LEFT_ATTR=RIGHT_ATTR"
    in
    print_string
      (Serve.Engine.plan_text ~json
         (Raestat.Estplan.equijoin_plan catalog ~left:"l" ~right:"r"
            ~on:[ (left_attr, right_attr) ] ~fraction ~groups:8))
  in
  let on_arg =
    Arg.(
      required & opt (some string) None
      & info [ "on" ] ~docv:"A=B" ~doc:"Join condition LEFT_ATTR=RIGHT_ATTR.")
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Explain the plan behind $(b,raestat join)")
    Term.(const run $ csv_arg 0 "LEFT" $ csv_arg 1 "RIGHT" $ on_arg $ fraction_arg
          $ json_flag)

let explain_bindings_arg =
  Arg.(
    non_empty & opt_all string []
    & info [ "rel"; "r" ] ~docv:"NAME=PATH" ~doc:"Bind a relation name to a CSV file.")

let explain_groups_arg =
  Arg.(value & opt int 5 & info [ "groups"; "g" ] ~docv:"G" ~doc:"Replicate groups.")

let explain_query_cmd =
  let run bindings text fraction groups optimize json =
    let catalog = load_catalog (List.map parse_binding bindings) in
    let expr = Relational.Parser.parse_expr text in
    print_string (Serve.Engine.explain_text ~optimize ~json catalog ~fraction ~groups expr)
  in
  let text_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"EXPR" ~doc:"Relational algebra expression (Parser syntax).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Explain the plan behind $(b,raestat query)")
    Term.(const run $ explain_bindings_arg $ text_arg $ fraction_arg $ explain_groups_arg
          $ optimize_flag $ json_flag)

let explain_sql_cmd =
  let run bindings text fraction groups optimize json =
    let catalog = load_catalog (List.map parse_binding bindings) in
    let expr = Serve.Engine.sql_expr catalog text in
    print_string (Serve.Engine.explain_text ~optimize ~json catalog ~fraction ~groups expr)
  in
  let text_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"SQL" ~doc:"SQL query (SELECT subset; see Relational.Parser.parse_sql).")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Explain the plan behind $(b,raestat sql)")
    Term.(const run $ explain_bindings_arg $ text_arg $ fraction_arg $ explain_groups_arg
          $ optimize_flag $ json_flag)

let explain_cmd =
  Cmd.group
    (Cmd.info "explain"
       ~doc:"Print the compiled estimation plan (tree or JSON) without running it")
    [ explain_estimate_cmd; explain_join_cmd; explain_query_cmd; explain_sql_cmd ]

let () =
  let info =
    Cmd.info "raestat" ~version:"1.0.0"
      ~doc:"Sampling-based COUNT estimators for relational algebra expressions"
  in
  let group =
    Cmd.group info [ generate_cmd; pack_cmd; exact_cmd; estimate_cmd; ingest_cmd;
                     join_cmd; distinct_cmd; query_cmd; sql_cmd; quantile_cmd;
                     plan_cmd; sweep_cmd; fuzz_cmd; explain_cmd;
                     serve_cmd; client_cmd ]
  in
  (* [~catch:false] so domain errors reach us instead of cmdliner's
     backtrace printer: a missing relation, a malformed CSV or a SQL
     parse error is a usage problem, not a crash.  Exit code 3 keeps
     them distinct from cmdliner's own 124/125. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
    Printf.eprintf "raestat: error: %s\n" msg;
    exit 3
  | exception Unix.Unix_error (err, fn, arg) ->
    (* serve/client socket failures (connection refused, missing
       socket path, …) are usage problems under the same contract. *)
    Printf.eprintf "raestat: error: %s: %s%s\n" fn (Unix.error_message err)
      (if arg = "" then "" else Printf.sprintf " (%s)" arg);
    exit 3
