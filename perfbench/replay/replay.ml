(* Traced in-process replay of a request sequence the daemon answered.

   The replay loads the same bindings the daemon loaded and answers the
   same request lines, in the same order, by calling the public
   functions Serve.Server calls: Json.parse, the predicate / algebra /
   SQL parsers, Plan_cache.find_or_compile over Estplan.selection_plan,
   Estplan.compile or Planner.choose_sampling, Estplan.run or the
   cluster / stream / write paths, and Json.to_string.  The sequence is
   replayed twice from a fresh load each time: once with spans off (only
   each request's total time is taken) and once with a span around each
   of those calls.

   Fidelity: every rendered reply must equal the daemon's reply byte for
   byte, and the replay's lifetime counters are written out for the
   caller to compare with the daemon's [metrics] reply.

   Usage:
     replay.exe --requests FILE --responses FILE --out FILE
                [--exact-budget SECONDS] --rel NAME=PATH ...

   The daemon options this mirrors are fixed: --workers 1 (one plan-cache
   shard) and --plan-cache 64. *)

module Json = Serve.Json
module Metrics = Obs.Metrics
module Engine = Serve.Engine
module Warm = Serve.Warm
module Plan_cache = Serve.Plan_cache
module SR = Raestat.Stream_relation
module Estplan = Raestat.Estplan
module Estimate = Stats.Estimate

let plan_capacity = 64

(* --- spans ------------------------------------------------------------ *)

(* Spans are opened and closed with explicit [enter]/[leave] calls rather
   than by wrapping closures: the clock is read before anything the span
   itself allocates and after everything it allocates, so a collection
   triggered by tracing (or by the code between two spans, which
   allocates nothing) is charged to a span and never to the gaps. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for the request's root span *)
  mutable start_ns : int;
  mutable end_ns : int;
  start_words : int;
  mutable words : int;  (* words allocated during the span, children included *)
  derived : bool;  (* from an Obs.Metrics timer, not a call boundary *)
}

type tracer = {
  mutable on : bool;
  mutable next : int;
  mutable stack : span list;
  mutable spans : span list;  (* this request's, most recent first *)
}

let tracer = { on = false; next = 0; stack = []; spans = [] }

let off =
  {
    id = -1;
    name = "";
    parent = -1;
    start_ns = 0;
    end_ns = 0;
    start_words = 0;
    words = 0;
    derived = false;
  }

let enter name =
  if not tracer.on then off
  else begin
    let start_ns = now_ns () in
    let start_words = alloc_words () in
    let id = tracer.next in
    tracer.next <- id + 1;
    let parent = match tracer.stack with p :: _ -> p.id | [] -> -1 in
    let s =
      { id; name; parent; start_ns; end_ns = start_ns; start_words; words = 0; derived = false }
    in
    tracer.stack <- s :: tracer.stack;
    tracer.spans <- s :: tracer.spans;
    s
  end

let leave s =
  if s != off then begin
    s.words <- alloc_words () - s.start_words;
    s.end_ns <- now_ns ();
    match tracer.stack with _ :: rest -> tracer.stack <- rest | [] -> ()
  end

(* Estplan's replicate loop times its draw and eval steps into the
   request's metrics sink; those totals become child spans of the open
   span (they have a duration but no call boundary here, so they carry
   no allocation count). *)
let derived_spans metrics ~start_ns =
  match tracer.stack with
  | parent :: _ when tracer.on ->
    List.iter
      (fun (label, seconds) ->
        let name =
          match label with
          | "draw" -> Some "sampling.draw"
          | "eval" -> Some "relational.eval"
          | _ -> None
        in
        Option.iter
          (fun name ->
            let id = tracer.next in
            tracer.next <- id + 1;
            let end_ns = start_ns + int_of_float (seconds *. 1e9) in
            tracer.spans <-
              {
                id;
                name;
                parent = parent.id;
                start_ns;
                end_ns;
                start_words = 0;
                words = 0;
                derived = true;
              }
              :: tracer.spans)
          name)
      (Metrics.snapshot metrics).Metrics.timers
  | _ -> ()

(* Per-request facts the layer metrics need beyond counters: the
   sampling budget of a read (f x leaf rows x groups, or n for a direct
   selection), stream snapshots rebuilt, and the stream's fill ratio at
   a stream estimate. *)
type facts = {
  mutable budget : float;
  mutable rebuilds : int;
  mutable fill_ratio : float option;
}

let facts = { budget = 0.; rebuilds = 0; fill_ratio = None }

(* --- the request path, as Serve.Server runs it ------------------------ *)

type state = {
  warm : Warm.t;
  plans : Plan_cache.t;
  lifetime : Metrics.t;
}

let load bindings =
  let loader = Metrics.create () in
  let warm = Warm.load ~metrics:loader bindings in
  let lifetime = Metrics.create () in
  Metrics.absorb lifetime loader;
  { warm; plans = Plan_cache.create ~capacity:plan_capacity ~shards:1 (); lifetime }

let require_string request name =
  match Json.string_field request name with
  | Some s -> s
  | None -> failwith (Printf.sprintf "request field %S is required" name)

let bool_field ~default request name =
  match Json.member name request with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> failwith (Printf.sprintf "request field %S must be a boolean" name)

let stream_status stream =
  [
    ("epoch", Json.Int (SR.epoch stream));
    ("population", Json.Int (SR.population stream));
    ("sample_size", Json.Int (SR.sample_size stream));
    ("needs_rescan", Json.Bool (SR.needs_rescan stream));
  ]

let tuple_of_json schema json =
  match json with
  | Json.Obj _ ->
    Relational.Schema.attributes schema
    |> List.map (fun (attr : Relational.Schema.attribute) ->
           match (attr.ty, Json.member attr.name json) with
           | Relational.Value.Tint, Some (Json.Int i) -> Relational.Value.Int i
           | Relational.Value.Tfloat, Some (Json.Float f) -> Relational.Value.Float f
           | Relational.Value.Tfloat, Some (Json.Int i) ->
             Relational.Value.Float (float_of_int i)
           | Relational.Value.Tstr, Some (Json.Str s) -> Relational.Value.Str s
           | Relational.Value.Tbool, Some (Json.Bool b) -> Relational.Value.Bool b
           | _ -> failwith (Printf.sprintf "replay: unsupported tuple field %S" attr.name))
    |> Relational.Tuple.make
  | _ -> failwith "tuple must be a JSON object"

let json_list request name =
  match Json.member name request with
  | None | Some Json.Null -> []
  | Some (Json.List l) -> l
  | Some _ -> failwith (Printf.sprintf "request field %S must be an array" name)

(* Server.dispatch_stream_write.  Writes name a relation bound in the
   catalog, so the stream's schema is the bound relation's; the replay
   does not infer schemas. *)
let stream_write st metrics request op =
  let s = enter "serve.json_parse" in
  let relation = Option.get (Json.string_field ~default:"r" request "relation") in
  let tuples =
    match op with
    | `Ingest -> json_list request "insert"
    | `Insert -> (
      match Json.member "tuple" request with
      | Some t -> [ t ]
      | None -> failwith "request field \"tuple\" is required")
    | `Delete | `Rescan -> []
  in
  let deletes =
    match op with
    | `Ingest ->
      Array.of_list
        (List.map
           (function Json.Int id -> id | _ -> failwith "bad delete id")
           (json_list request "delete"))
    | `Delete -> (
      match Json.int_field request "id" with
      | Some id -> [| id |]
      | None -> failwith "request field \"id\" is required")
    | `Insert | `Rescan -> [||]
  in
  let seed = Option.get (Json.int_field ~default:42 request "seed") in
  let capacity = Option.get (Json.int_field ~default:1024 request "capacity") in
  let bernoulli = Json.float_field request "bernoulli" in
  let window = Json.int_field request "window" in
  if not (Relational.Catalog.mem (Warm.catalog st.warm) relation) then
    failwith "replay: writes must name a bound relation";
  leave s;
  let s = enter "core.maintain" in
  if op <> `Rescan then
    Metrics.add_snapshot metrics
      (snd
         (Warm.ensure_stream st.warm ~relation ~seed ~capacity ?bernoulli ?window
            ~schema:None ()));
  let fields, delta =
    Warm.with_stream st.warm relation (fun stream ->
        let decode () =
          let s = enter "serve.json_parse" in
          let tuples = Array.of_list (List.map (tuple_of_json (SR.schema stream)) tuples) in
          leave s;
          tuples
        in
        match op with
        | `Insert ->
          let id = SR.insert stream (decode ()).(0) in
          ("id", Json.Int id) :: stream_status stream
        | `Delete -> ("deleted", Json.Bool (SR.delete stream deletes.(0))) :: stream_status stream
        | `Ingest ->
          let inserts = decode () in
          let counts = SR.ingest stream ~inserts ~deletes in
          ("first_id", Json.Int counts.SR.first_id)
          :: ("inserted", Json.Int counts.SR.inserted)
          :: ("deleted", Json.Int counts.SR.deleted)
          :: stream_status stream
        | `Rescan ->
          SR.rescan stream;
          stream_status stream)
  in
  Metrics.add_snapshot metrics delta;
  let result = Json.Obj fields in
  leave s;
  result

(* Server.stream_overlay: the static catalog while nothing has been
   written, else a copy with every stream rebound to its snapshot. *)
let stream_overlay st metrics =
  let s = enter "core.snapshot" in
  let prefix = "g0|" in
  let overlay =
    match Warm.stream_infos st.warm with
    | [] -> (Warm.catalog st.warm, prefix)
    | infos ->
      let catalog = Relational.Catalog.copy (Warm.catalog st.warm) in
      let buffer = Buffer.create 64 in
      Buffer.add_string buffer prefix;
      List.iter
        (fun (info : Warm.stream_info) ->
          let (snap, epoch), delta =
            Warm.with_stream st.warm info.stream_name (fun stream ->
                (SR.snapshot stream, SR.epoch stream))
          in
          Metrics.add_snapshot metrics delta;
          if delta.Metrics.tuples_scanned > 0 then facts.rebuilds <- facts.rebuilds + 1;
          Relational.Catalog.set catalog info.stream_name snap;
          Printf.bprintf buffer "%s@e%d|" info.stream_name epoch)
        infos;
      (catalog, Buffer.contents buffer)
  in
  leave s;
  overlay

(* Estplan.run, in a span named for the stage its self time belongs to:
   for a direct selection the kernel count over the sampled rows
   (relational.eval; the draw is a child span), for a replicated
   scale-up the replicate tally (core.tally; draw and eval are children
   derived from Estplan's timers). *)
let run_plan ?warm ~seed ~label metrics rng catalog plan =
  let s =
    enter
      (match plan.Estplan.strategy with
      | Estplan.Direct_selection -> "relational.eval"
      | _ -> "core.tally")
  in
  let index_source =
    Option.map
      (fun (warm, relation) ~n ~universe draw ->
        Warm.sample_indices warm ~relation ~seed ~n ~universe (fun () ->
            let s = enter "sampling.draw" in
            let indices = draw () in
            leave s;
            indices))
      warm
  in
  let label = label () in
  let start_ns = if tracer.on then now_ns () else 0 in
  let est =
    Metrics.with_span metrics label (fun () ->
        Estplan.run ~metrics ?index_source rng catalog plan)
  in
  derived_spans metrics ~start_ns;
  leave s;
  est

(* Engine.estimate, call by call. *)
let selection st metrics rng ~seed ~relation ~fraction ~level predicate =
  let s = enter "serve.plan_cache" in
  let catalog = Warm.catalog st.warm in
  Engine.check_fraction fraction;
  Engine.check_unit_open ~option:"--level" level;
  let big_n = Relational.Relation.cardinality (Relational.Catalog.find catalog relation) in
  let n = Sampling.Srs.size_of_fraction ~fraction big_n in
  let plan =
    Plan_cache.find_or_compile ~metrics st.plans
      ("g0|" ^ Engine.selection_key ~relation ~n predicate)
      (fun () ->
        let s = enter "core.compile" in
        let plan = Estplan.selection_plan catalog ~relation ~n predicate in
        leave s;
        plan)
  in
  facts.budget <- float_of_int n;
  let warm = (st.warm, relation) in
  let label () = Printf.sprintf "selection %s" relation in
  leave s;
  let est = run_plan ~warm ~seed ~label metrics rng catalog plan in
  let s = enter "serve.json_render" in
  let ci = Estimate.ci ~level est in
  let buffer = Buffer.create 128 in
  Printf.bprintf buffer "estimated COUNT: %.0f\n" est.Estimate.point;
  Printf.bprintf buffer "sampled %d of %d tuples (%.2f%%)\n" n big_n
    (if big_n = 0 then 100. else 100. *. float_of_int n /. float_of_int big_n);
  Printf.bprintf buffer "%.0f%% CI: [%.0f, %.0f]\n" (100. *. level) ci.Stats.Confidence.lo
    ci.Stats.Confidence.hi;
  let result =
    Json.Obj
      [ ("text", Json.Str (Buffer.contents buffer)); ("point", Json.Float est.Estimate.point) ]
  in
  leave s;
  result
(* Engine.run_expr, call by call. *)
let expression st metrics rng ~seed ~fraction ~groups ~optimize ~header expr =
  let catalog, prefix = stream_overlay st metrics in
  let s = enter "serve.plan_cache" in
  let optimize = optimize && Raestat.Planner.optimize_enabled () in
  Engine.check_fraction fraction;
  Engine.check_groups groups;
  let printed = Relational.Parser.print_expr expr in
  let plan =
    Plan_cache.find_or_compile ~metrics st.plans
      (prefix ^ Engine.expr_key ~fraction ~groups ~optimize expr)
      (fun () ->
        if optimize then begin
          let s = enter "core.planner" in
          let choice = Raestat.Planner.choose_sampling ~metrics ~groups catalog ~fraction expr in
          leave s;
          choice.Raestat.Planner.chosen
        end
        else begin
          let s = enter "core.compile" in
          let plan = Estplan.compile ~groups catalog ~fraction expr in
          leave s;
          plan
        end)
  in
  facts.budget <-
    fraction *. float_of_int groups
    *. float_of_int
         (List.fold_left
            (fun acc name ->
              acc + Relational.Relation.cardinality (Relational.Catalog.find catalog name))
            0 (Relational.Expr.leaves expr));
  let label () = Printf.sprintf "estimate %s" printed in
  leave s;
  let est = run_plan ~seed ~label metrics rng catalog plan in
  let s = enter "serve.json_render" in
  let buffer = Buffer.create 128 in
  Printf.bprintf buffer "%s: %s\n" header printed;
  Printf.bprintf buffer "estimated COUNT: %.0f (%s, %d tuples read)\n" est.Estimate.point
    (Estimate.status_to_string est.Estimate.status)
    est.Estimate.sample_size;
  if Estimate.has_variance est then begin
    let ci = Estimate.ci ~level:0.95 est in
    Printf.bprintf buffer "95%% CI: [%.0f, %.0f]\n" ci.Stats.Confidence.lo
      ci.Stats.Confidence.hi
  end;
  let result =
    Json.Obj
      [ ("text", Json.Str (Buffer.contents buffer)); ("point", Json.Float est.Estimate.point) ]
  in
  leave s;
  result

(* Server.dispatch_estimation. *)
let estimation st metrics request op =
  let s = enter "serve.json_parse" in
  let seed = Option.get (Json.int_field ~default:42 request "seed") in
  let fraction = Option.get (Json.float_field ~default:0.01 request "fraction") in
  let rng = Sampling.Rng.create ~seed () in
  match op with
  | `Estimate -> (
    let relation = Option.get (Json.string_field ~default:"r" request "relation") in
    let level = Option.get (Json.float_field ~default:0.95 request "level") in
    let where = require_string request "where" in
    let pages = Json.int_field request "pages" in
    let streamed = Warm.has_stream st.warm relation in
    leave s;
    let s = enter "relational.parse" in
    let predicate = Engine.predicate_of_string where in
    leave s;
    if streamed then begin
      if pages <> None then failwith "replay: page sampling of a stream";
      let s = enter "core.stream_estimate" in
      let (r, status), delta =
        Warm.with_stream st.warm relation (fun stream ->
            facts.fill_ratio <- Some (SR.fill_ratio stream);
            ( Engine.estimate_stream ~metrics ~relation ~level stream predicate,
              stream_status stream ))
      in
      Metrics.add_snapshot metrics delta;
      leave s;
      let s = enter "serve.json_render" in
      let result =
        Json.Obj
          (("text", Json.Str r.Engine.text)
          :: ("point", Json.Float r.Engine.estimate.Estimate.point)
          :: status)
      in
      leave s;
      result
    end
    else
      match pages with
      | Some m ->
        let s = enter "core.cluster" in
        Engine.check_fraction fraction;
        let r =
          Warm.with_paged st.warm relation (fun paged ->
              Engine.estimate_pages ~metrics rng ~relation ~m ~level paged predicate)
        in
        leave s;
        let s = enter "serve.json_render" in
        let result =
          Json.Obj
            [
              ("text", Json.Str r.Engine.text);
              ("point", Json.Float r.Engine.estimate.Estimate.point);
            ]
        in
        leave s;
        result
      | None -> selection st metrics rng ~seed ~relation ~fraction ~level predicate)
  | (`Query | `Sql) as op ->
    let groups = Option.get (Json.int_field ~default:5 request "groups") in
    let optimize = bool_field ~default:false request "optimize" in
    let source = require_string request (if op = `Query then "expr" else "query") in
    leave s;
    let s = enter "relational.parse" in
    let expr =
      if op = `Query then Relational.Parser.parse_expr source
      else Engine.sql_expr (Warm.catalog st.warm) source
    in
    leave s;
    let header = if op = `Query then "expression" else "algebra" in
    expression st metrics rng ~seed ~fraction ~groups ~optimize ~header expr

let dispatch st metrics request op =
  match op with
  | "ping" ->
    let s = enter "serve.json_render" in
    let result = Json.Obj [ ("pong", Json.Bool true) ] in
    leave s;
    result
  | "estimate" -> estimation st metrics request `Estimate
  | "query" -> estimation st metrics request `Query
  | "sql" -> estimation st metrics request `Sql
  | "insert" -> stream_write st metrics request `Insert
  | "delete" -> stream_write st metrics request `Delete
  | "ingest" -> stream_write st metrics request `Ingest
  | "rescan" -> stream_write st metrics request `Rescan
  | other -> failwith (Printf.sprintf "replay: unsupported op %S" other)

let render_ok id result =
  let s = enter "serve.json_render" in
  let line =
    Json.to_string (Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ])
  in
  leave s;
  line

let render_error id message =
  let s = enter "serve.json_render" in
  let line =
    Json.to_string
      (Json.Obj [ ("id", id); ("ok", Json.Bool false); ("error", Json.Str message) ])
  in
  leave s;
  line

(* Server.handle_request: one line in, one line out, never raises.  The
   root span is trimmed to its children's extent, from the start of
   Json.parse to the end of Json.to_string: the request's own work, not
   the tracer's bookkeeping around it. *)
let handle st metrics line =
  tracer.stack <- [];
  let root = enter "serve.request" in
  let s = enter "serve.json_parse" in
  let parsed = Json.parse line in
  let id, op =
    match parsed with
    | Ok request ->
      ( Option.value (Json.member "id" request) ~default:Json.Null,
        try Ok (require_string request "op") with Failure message -> Error message )
    | Error message -> (Json.Null, Error message)
  in
  leave s;
  let reply =
    match (parsed, op) with
    | Error message, _ -> render_error id ("bad request JSON: " ^ message)
    | Ok (Json.Obj _ as request), Ok op -> (
      match dispatch st metrics request op with
      | result -> render_ok id result
      | exception (Failure message | Invalid_argument message | Sys_error message) ->
        render_error id message
      | exception Not_found -> render_error id "not found")
    | Ok (Json.Obj _), Error message -> render_error id message
    | Ok _, _ -> render_error id "request must be a JSON object"
  in
  leave root;
  if root != off then begin
    let top = List.filter (fun s -> s.parent = root.id) tracer.spans in
    root.start_ns <- List.fold_left (fun t s -> min t s.start_ns) root.end_ns top;
    root.end_ns <- List.fold_left (fun t s -> max t s.end_ns) root.start_ns top
  end;
  reply

(* --- one pass over the sequence ---------------------------------------- *)

let counters (s : Metrics.snapshot) =
  [
    ("tuples_scanned", s.tuples_scanned);
    ("pages_read", s.pages_read);
    ("bytes_read", s.bytes_read);
    ("io_batches", s.io_batches);
    ("page_cache_hits", s.page_cache_hits);
    ("sample_indices", s.sample_indices);
    ("hash_probe_hits", s.hash_probe_hits);
    ("hash_probe_misses", s.hash_probe_misses);
    ("rng_draws", s.rng_draws);
    ("plan_cache_hits", s.plan_cache_hits);
    ("plan_cache_misses", s.plan_cache_misses);
    ("plan_cache_evictions", s.plan_cache_evictions);
    ("plans_considered", s.plans_considered);
    ("maintenance_ops", s.maintenance_ops);
  ]

let ints pairs = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) pairs)

let span_json s =
  Json.List
    [
      Json.Int s.id;
      Json.Str s.name;
      Json.Int s.parent;
      Json.Int s.start_ns;
      Json.Int s.end_ns;
      Json.Int s.words;
      Json.Bool s.derived;
    ]

type pass = {
  root_ns : int array;
  mismatches : int;
  records : Json.t list;  (* per request, traced pass only *)
  totals : Json.t;
  gc : Json.t;
}

let replay ~traced bindings requests responses =
  let st = load bindings in
  let n = Array.length requests in
  let root_ns = Array.make n 0 in
  let mismatches = ref 0 in
  let records = ref [] in
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  let majors0 = majors () in
  tracer.on <- traced;
  Array.iteri
    (fun i line ->
      let metrics = Metrics.create () in
      tracer.next <- 0;
      tracer.spans <- [];
      facts.budget <- 0.;
      facts.rebuilds <- 0;
      facts.fill_ratio <- None;
      let warm_before = Warm.sample_stats st.warm in
      let before = majors () in
      let t0 = now_ns () in
      let reply = handle st metrics line in
      root_ns.(i) <- now_ns () - t0;
      let major = majors () - before in
      let warm_after = Warm.sample_stats st.warm in
      Metrics.absorb st.lifetime metrics;
      if reply <> responses.(i) then begin
        if !mismatches < 3 then
          Printf.eprintf "replay: reply %d differs\n  daemon: %s\n  replay: %s\n%!" i
            responses.(i) reply;
        incr mismatches
      end;
      if traced then
        records :=
          Json.Obj
            [
              ("spans", Json.List (List.rev_map span_json tracer.spans));
              ("counters", ints (counters (Metrics.snapshot metrics)));
              ("major_collections", Json.Int major);
              ("warm_hits", Json.Int (warm_after.Warm.hits - warm_before.Warm.hits));
              ("warm_misses", Json.Int (warm_after.Warm.misses - warm_before.Warm.misses));
              ("budget", Json.Float facts.budget);
              ("rebuilds", Json.Int facts.rebuilds);
              ( "fill_ratio",
                match facts.fill_ratio with Some r -> Json.Float r | None -> Json.Null );
            ]
          :: !records)
    requests;
  tracer.on <- false;
  let samples = Warm.sample_stats st.warm in
  let totals =
    Json.Obj
      [
        ("counters", ints (counters (Metrics.snapshot st.lifetime)));
        ( "plan_cache",
          ints
            [
              ("hits", Plan_cache.hits st.plans);
              ("misses", Plan_cache.misses st.plans);
              ("evictions", Plan_cache.evictions st.plans);
            ] );
        ( "warm_samples",
          ints
            [
              ("sample_hits", samples.Warm.hits);
              ("sample_misses", samples.Warm.misses);
              ("sample_evictions", samples.Warm.evictions);
            ] );
      ]
  in
  let stat = Gc.quick_stat () in
  let gc =
    Json.Obj
      [
        ("major_collections", Json.Int (stat.Gc.major_collections - majors0));
        ("heap_words", Json.Int stat.Gc.heap_words);
        ("top_heap_words", Json.Int stat.Gc.top_heap_words);
      ]
  in
  Warm.release st.warm;
  { root_ns; mismatches = !mismatches; records = List.rev !records; totals; gc }

(* --- load timing and exact counts --------------------------------------- *)

(* relational.load_s / relational.warm_view_s: the two steps Warm.load
   takes per binding, timed apart. *)
let time_load bindings =
  List.fold_left
    (fun (load_s, view_s) (_, path) ->
      let t0 = now_ns () in
      let relation = Engine.load_relation path in
      let t1 = now_ns () in
      Relational.Relation.warm_view relation;
      let t2 = now_ns () in
      (load_s +. (float_of_int (t1 - t0) /. 1e9), view_s +. (float_of_int (t2 - t1) /. 1e9)))
    (0., 0.) bindings

(* Baselines.Exact once per distinct read expression over the static
   catalog, until the time budget is spent: an independent check of the
   exact counts the benchmark scores the daemon against. *)
let exact_counts bindings requests ~budget_s =
  let catalog = Engine.load_catalog bindings in
  let seen = Hashtbl.create 256 in
  let deadline = now_ns () + int_of_float (budget_s *. 1e9) in
  let out = ref [] in
  let exception Stop in
  (try
     Array.iteri
       (fun i line ->
         if now_ns () > deadline then raise Stop;
         match Json.parse line with
         | Ok request -> (
           let expr =
             match Json.string_field request "op" with
             | Some "estimate" -> (
               match Json.string_field request "where" with
               | Some where ->
                 let relation = Option.get (Json.string_field ~default:"r" request "relation") in
                 Some
                   (Relational.Expr.select (Engine.predicate_of_string where)
                      (Relational.Expr.base relation))
               | None -> None)
             | Some "query" ->
               Option.map Relational.Parser.parse_expr (Json.string_field request "expr")
             | Some "sql" -> Option.map (Engine.sql_expr catalog) (Json.string_field request "query")
             | _ -> None
           in
           match expr with
           | None -> ()
           | Some expr ->
             let key = Relational.Parser.print_expr expr in
             let count =
               match Hashtbl.find_opt seen key with
               | Some c -> c
               | None ->
                 let c = (Baselines.Exact.count catalog expr).Baselines.Exact.count in
                 Hashtbl.replace seen key c;
                 c
             in
             out := Json.List [ Json.Int i; Json.Int count ] :: !out)
         | Error _ -> ())
       requests
   with Stop -> ());
  Json.List (List.rev !out)

(* --- main -------------------------------------------------------------- *)

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

let () =
  let requests = ref "" and responses = ref "" and out = ref "" in
  let bindings = ref [] and exact_budget = ref 0. in
  Arg.parse
    [
      ("--requests", Arg.Set_string requests, "FILE request lines, in send order");
      ("--responses", Arg.Set_string responses, "FILE the daemon's reply lines");
      ("--out", Arg.Set_string out, "FILE where the replay report is written");
      ( "--rel",
        Arg.String (fun spec -> bindings := Engine.parse_binding spec :: !bindings),
        "NAME=PATH a binding, as given to raestat serve" );
      ( "--exact-budget",
        Arg.Set_float exact_budget,
        "SECONDS time spent on Baselines.Exact cross-checks of a sequence without writes \
         (default 0)" );
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "replay.exe --requests FILE --responses FILE --out FILE --rel NAME=PATH ...";
  if !requests = "" || !responses = "" || !out = "" || !bindings = [] then begin
    prerr_endline "replay: --requests, --responses, --out and --rel are required";
    exit 2
  end;
  let bindings = List.rev !bindings in
  let requests = read_lines !requests and responses = read_lines !responses in
  if Array.length requests <> Array.length responses then begin
    prerr_endline "replay: request and response counts differ";
    exit 2
  end;
  let load_s, warm_view_s = time_load bindings in
  (* Each pass starts from a compacted heap, so neither pays for the
     garbage of what ran before it. *)
  Gc.compact ();
  let plain = replay ~traced:false bindings requests responses in
  Gc.compact ();
  let traced = replay ~traced:true bindings requests responses in
  let exact =
    if !exact_budget > 0. then exact_counts bindings requests ~budget_s:!exact_budget
    else Json.List []
  in
  let report =
    Json.Obj
      [
        ("load_s", Json.Float load_s);
        ("warm_view_s", Json.Float warm_view_s);
        ("plain_root_ns", Json.List (Array.to_list (Array.map (fun t -> Json.Int t) plain.root_ns)));
        ("traced_root_ns", Json.List (Array.to_list (Array.map (fun t -> Json.Int t) traced.root_ns)));
        ("mismatches", Json.Int (plain.mismatches + traced.mismatches));
        ("plain_totals", plain.totals);
        ("traced_totals", traced.totals);
        ("gc", traced.gc);
        ("requests", Json.List traced.records);
        ("exact", exact);
      ]
  in
  let oc = open_out_bin !out in
  output_string oc (Json.to_string report);
  output_char oc '\n';
  close_out oc
