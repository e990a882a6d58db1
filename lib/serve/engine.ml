module P = Relational.Predicate
module Expr = Relational.Expr
module Estimate = Stats.Estimate
module Metrics = Obs.Metrics

(* --- input parsing and loading --------------------------------------- *)

let parse_predicate text =
  match Relational.Parser.parse_predicate text with
  | predicate -> Ok predicate
  | exception Failure message -> Error (`Msg message)

let predicate_of_string text =
  match parse_predicate text with
  | Ok predicate -> predicate
  | Error (`Msg message) -> failwith message

let parse_binding spec =
  match String.index_opt spec '=' with
  | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  | None -> failwith (Printf.sprintf "--rel expects NAME=PATH, got %S" spec)

let is_pagefile path = Filename.check_suffix path ".raf"

let load_relation ?metrics path =
  if is_pagefile path then begin
    let pf = Relational.Pagefile.openfile path in
    Fun.protect
      ~finally:(fun () -> Relational.Pagefile.close pf)
      (fun () -> Relational.Pagefile.to_relation ?metrics pf)
  end
  else Relational.Csv.load path

let load_catalog ?metrics bindings =
  Relational.Catalog.of_list
    (List.map (fun (name, path) -> (name, load_relation ?metrics path)) bindings)

(* --- validation ------------------------------------------------------- *)

(* The comparisons are written so NaN fails them too: downstream checks
   use plain [<] / [>], which NaN slips through. *)

let check_fraction fraction =
  if not (fraction > 0. && fraction <= 1.) then
    failwith (Printf.sprintf "--fraction %g outside (0, 1]" fraction)

let check_unit_open ~option value =
  if not (value > 0. && value < 1.) then
    failwith (Printf.sprintf "%s %g outside (0, 1)" option value)

(* A normal interval reads the quantile at (1 + level) / 2, which
   rounds to 1 for a level within an ulp or so of 1. *)
let check_level level =
  check_unit_open ~option:"--level" level;
  if not ((1. +. level) /. 2. < 1.) then
    failwith (Printf.sprintf "--level %.17g too close to 1: (1 + level) / 2 rounds to 1" level)

let max_groups = 10_000

(* The lower bound's message is the one Count_estimator.estimate
   raises, so the CLI's error contract is unchanged by routing through
   the plan cache.  The upper bound stops a request before it sizes
   its replicate arrays. *)
let check_groups groups =
  if groups < 1 then invalid_arg "Count_estimator.estimate: groups must be >= 1";
  if groups > max_groups then
    invalid_arg (Printf.sprintf "groups %d above the maximum %d" groups max_groups)

(* --- plan-cache keys -------------------------------------------------- *)

let selection_key ~relation ~n predicate =
  Printf.sprintf "selection|%s|n=%d|%s" relation n (P.to_string predicate)

(* The optimizer setting is part of the key: an optimized plan and the
   historical root-sampling plan for the same expression are different
   executables, and a cache hit across the two settings would silently
   serve the wrong one.  The optimizer version rides along so bumping
   the cost model invalidates old optimized entries on upgrade. *)
let expr_key ~fraction ~groups ~optimize expr =
  Printf.sprintf "expr|f=%.17g|g=%d|opt=%s|%s" fraction groups
    (if optimize then Printf.sprintf "v%d" Raestat.Planner.optimizer_version else "off")
    (Relational.Parser.print_expr expr)

(* [prefix] namespaces server-side keys by catalog generation: a plan
   compiled against a pre-reload catalog must not be published under a
   post-reload key even if its compile outlives the reload. *)
let plan_for ~metrics ~prefix plans key compile =
  match plans with
  | Some cache -> Plan_cache.find_or_compile ~metrics cache (prefix ^ key) compile
  | None -> compile ()

(* --- estimation ------------------------------------------------------- *)

type result = {
  text : string;
  estimate : Stats.Estimate.t;
  expr : Relational.Expr.t;
}

let estimate ?(metrics = Metrics.noop) ?plans ?(plan_prefix = "") ?index_source rng
    catalog ~relation ~fraction ~level predicate =
  check_fraction fraction;
  check_level level;
  let base = Relational.Catalog.find catalog relation in
  Expr.check_selection (Relational.Relation.schema base) predicate;
  let big_n = Relational.Relation.cardinality base in
  let n = Sampling.Srs.size_of_fraction ~fraction big_n in
  let plan =
    plan_for ~metrics ~prefix:plan_prefix plans
      (selection_key ~relation ~n predicate)
      (fun () -> Raestat.Estplan.selection_plan catalog ~relation ~n predicate)
  in
  let est =
    Metrics.with_span metrics (Printf.sprintf "selection %s" relation) (fun () ->
        Raestat.Estplan.run ~metrics ?index_source rng catalog plan)
  in
  let buffer = Buffer.create 128 in
  Printf.bprintf buffer "estimated COUNT: %.0f\n" est.Estimate.point;
  Printf.bprintf buffer "sampled %d of %d tuples (%.2f%%)\n" n big_n
    (* An empty relation is a census of nothing — 100%, not 0/0. *)
    (if big_n = 0 then 100. else 100. *. float_of_int n /. float_of_int big_n);
  if Estimate.has_variance est then begin
    let ci = Estimate.ci ~level est in
    Printf.bprintf buffer "%.0f%% CI: [%.0f, %.0f]\n" (100. *. level)
      ci.Stats.Confidence.lo ci.Stats.Confidence.hi
  end;
  {
    text = Buffer.contents buffer;
    estimate = est;
    expr = Expr.select predicate (Expr.base relation);
  }

(* Filter COUNT answered from a maintained stream's backing sample:
   never rescans the live store, so freshness is free.  One render path
   shared by the daemon's stream-aware "estimate" and the one-shot
   [raestat ingest --where], so the two stay byte-identical. *)
let estimate_stream ?(metrics = Metrics.noop) ~relation ~level stream predicate =
  check_level level;
  let module SR = Raestat.Stream_relation in
  Expr.check_selection (SR.schema stream) predicate;
  let est =
    Metrics.with_span metrics
      (Printf.sprintf "stream-selection %s" relation)
      (fun () -> SR.estimate_count stream predicate)
  in
  let n = SR.sample_size stream and population = SR.population stream in
  let buffer = Buffer.create 128 in
  Printf.bprintf buffer "estimated COUNT: %.0f\n" est.Estimate.point;
  Printf.bprintf buffer "sampled %d of %d tuples (%.2f%%), maintained at epoch %d\n" n
    population
    (if population = 0 then 100. else 100. *. float_of_int n /. float_of_int population)
    (SR.epoch stream);
  if Estimate.has_variance est then begin
    let ci = Estimate.ci ~level est in
    Printf.bprintf buffer "%.0f%% CI: [%.0f, %.0f]\n" (100. *. level)
      ci.Stats.Confidence.lo ci.Stats.Confidence.hi
  end;
  if SR.needs_rescan stream then
    Buffer.add_string buffer "note: sample eroded by deletions; rescan recommended\n";
  {
    text = Buffer.contents buffer;
    estimate = est;
    expr = Expr.select predicate (Expr.base relation);
  }

(* Cluster sampling over whole pages ([raestat estimate --pages] and
   the daemon's "pages" request field): one render path so daemon
   responses stay byte-identical to the one-shot CLI.  Over a pagefile
   only the sampled pages are fetched — real I/O on [metrics]. *)
let estimate_pages ?(metrics = Metrics.noop) rng ~relation ~m ~level paged predicate =
  check_level level;
  Expr.check_selection (Relational.Paged.schema paged) predicate;
  let result = Raestat.Cluster_estimator.count ~metrics rng ~m paged predicate in
  let est = result.Raestat.Cluster_estimator.estimate in
  let buffer = Buffer.create 128 in
  Printf.bprintf buffer "estimated COUNT: %.0f\n" est.Estimate.point;
  Printf.bprintf buffer "sampled %d of %d pages (%d tuples)\n" m
    (Relational.Paged.page_count paged)
    result.Raestat.Cluster_estimator.tuples_read;
  if Estimate.has_variance est then begin
    let ci = Estimate.ci ~level est in
    Printf.bprintf buffer "%.0f%% CI: [%.0f, %.0f]\n" (100. *. level)
      ci.Stats.Confidence.lo ci.Stats.Confidence.hi
  end;
  {
    text = Buffer.contents buffer;
    estimate = est;
    expr = Expr.select predicate (Expr.base relation);
  }

(* Shared body of query and sql: cached (or fresh) compile, run inside
   the span Count_estimator.estimate would open, CLI-identical text. *)
let run_expr ~metrics ~plans ~plan_prefix ~domains ~optimize rng catalog ~fraction
    ~groups expr =
  check_fraction fraction;
  check_groups groups;
  (* The kill switch folds into the effective setting, so a disabled
     optimizer shares cache entries with plain requests — they compile
     the identical plan. *)
  let optimize = optimize && Raestat.Planner.optimize_enabled () in
  let printed = Relational.Parser.print_expr expr in
  let plan =
    plan_for ~metrics ~prefix:plan_prefix plans
      (expr_key ~fraction ~groups ~optimize expr)
      (fun () ->
        (* Validate before planning: the planner's statistics read the
           attributes directly.  Inside the compile, so a cache hit does
           not repeat it. *)
        ignore (Expr.schema_of catalog expr);
        if optimize then
          (Raestat.Planner.choose_sampling ~metrics ~groups catalog ~fraction expr)
            .Raestat.Planner.chosen
        else Raestat.Estplan.compile ~groups catalog ~fraction expr)
  in
  let est =
    Metrics.with_span metrics
      (Printf.sprintf "estimate %s" printed)
      (fun () -> Raestat.Estplan.run ?domains ~metrics rng catalog plan)
  in
  let buffer = Buffer.create 128 in
  Printf.bprintf buffer "estimated COUNT: %.0f (%s, %d tuples read)\n" est.Estimate.point
    (Estimate.status_to_string est.Estimate.status)
    est.Estimate.sample_size;
  if Estimate.has_variance est then begin
    let ci = Estimate.ci ~level:0.95 est in
    Printf.bprintf buffer "95%% CI: [%.0f, %.0f]\n" ci.Stats.Confidence.lo
      ci.Stats.Confidence.hi
  end;
  (printed, est, Buffer.contents buffer)

let query ?(metrics = Metrics.noop) ?plans ?(plan_prefix = "") ?domains
    ?(optimize = false) rng catalog ~fraction ~groups expr =
  let printed, est, body =
    run_expr ~metrics ~plans ~plan_prefix ~domains ~optimize rng catalog ~fraction
      ~groups expr
  in
  { text = Printf.sprintf "expression: %s\n%s" printed body; estimate = est; expr }

let sql_expr catalog text =
  (* The optimizer turns FROM a, b WHERE a.x = b.y and JOIN ... ON
     equalities into equi-joins. *)
  let expr = Relational.Optimizer.optimize catalog (Relational.Parser.parse_sql text) in
  (* SELECT COUNT( * ) asks for a cardinality: estimate the inner
     expression's COUNT rather than the 1-row aggregate result. *)
  Option.value (Relational.Parser.count_star_target expr) ~default:expr

let sql ?(metrics = Metrics.noop) ?plans ?(plan_prefix = "") ?domains ?(optimize = false)
    rng catalog ~fraction ~groups text =
  let expr = sql_expr catalog text in
  let printed, est, body =
    run_expr ~metrics ~plans ~plan_prefix ~domains ~optimize rng catalog ~fraction
      ~groups expr
  in
  { text = Printf.sprintf "algebra: %s\n%s" printed body; estimate = est; expr }

(* --- explain ---------------------------------------------------------- *)

let explain_selection catalog ~relation ~fraction predicate =
  check_fraction fraction;
  let base = Relational.Catalog.find catalog relation in
  Expr.check_selection (Relational.Relation.schema base) predicate;
  let big_n = Relational.Relation.cardinality base in
  let n = Sampling.Srs.size_of_fraction ~fraction big_n in
  Raestat.Estplan.selection_plan catalog ~relation ~n predicate

let explain_expr catalog ~fraction ~groups expr =
  check_fraction fraction;
  check_groups groups;
  ignore (Expr.schema_of catalog expr);
  Raestat.Estplan.compile ~groups catalog ~fraction expr

(* Explains always compile fresh (never cached), so the candidate table
   reflects the current catalog. *)
let explain_expr_optimized ?(metrics = Metrics.noop) catalog ~fraction ~groups expr =
  check_fraction fraction;
  check_groups groups;
  ignore (Expr.schema_of catalog expr);
  Raestat.Planner.choose_sampling ~metrics ~groups catalog ~fraction expr

(* The text renderings end with a newline; the JSON documents gain one. *)
let render ~json to_json to_text x = if json then to_json x ^ "\n" else to_text x

let plan_text ~json plan = render ~json Raestat.Estplan.to_json Raestat.Estplan.render plan

let explain_text ~optimize ~json catalog ~fraction ~groups expr =
  if optimize && Raestat.Planner.optimize_enabled () then
    render ~json Raestat.Planner.choice_to_json Raestat.Planner.render_choice
      (explain_expr_optimized catalog ~fraction ~groups expr)
  else plan_text ~json (explain_expr catalog ~fraction ~groups expr)
