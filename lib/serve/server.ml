module Metrics = Obs.Metrics

type listen = Unix_socket of string | Tcp of int

type config = {
  listen : listen;
  bindings : (string * string) list;
  plan_capacity : int;
  queue_limit : int;
  workers : int;
}

type stats = { requests : int; errors : int; overloaded : int }

(* The catalog and every per-relation warm structure are swapped
   atomically as one value on reload.  In-flight requests retain the
   view they started with (refcounted — see Warm), so a reload never
   closes pagefiles or invalidates caches under a running request. *)
type view = { generation : int; warm : Warm.t }

(* Each worker domain owns a metrics sink; request metrics are absorbed
   into the executing worker's sink without cross-worker contention.
   The sink lock serializes absorb against snapshot (the lifetime
   report merges live sinks), not worker against worker. *)
type worker_slot = { sink : Metrics.t; sink_lock : Mutex.t }

type pool_status = Idle | Running of worker_slot Pool.t | Stopped

type state = {
  config : config;
  plan_cache : Plan_cache.t;
  base_slot : worker_slot;  (* loader/reload metrics + direct handle_line callers *)
  slots : worker_slot array;  (* one per worker domain *)
  mutable view : view;
  view_lock : Mutex.t;
  reload_lock : Mutex.t;  (* serializes reloads (not requests) *)
  admission_lock : Mutex.t;  (* guards pending *)
  mutable pending : int;
  request_count : int Atomic.t;
  error_count : int Atomic.t;
  overload_count : int Atomic.t;
  stop_requested : bool Atomic.t;
  pool_lock : Mutex.t;
  mutable pool : pool_status;
  mutable destroyed : bool;
}

let fresh_slot () = { sink = Metrics.create (); sink_lock = Mutex.create () }

let create_state config =
  if config.queue_limit < 0 then
    invalid_arg "Server.create_state: queue_limit must be >= 0";
  if config.workers < 1 then invalid_arg "Server.create_state: workers must be >= 1";
  let base_slot = fresh_slot () in
  let loader = Metrics.create () in
  let warm = Warm.load ~metrics:loader config.bindings in
  Metrics.absorb base_slot.sink loader;
  {
    config;
    plan_cache =
      Plan_cache.create ~capacity:config.plan_capacity
        ~shards:(min config.workers 8) ();
    base_slot;
    slots = Array.init config.workers (fun _ -> fresh_slot ());
    view = { generation = 0; warm };
    view_lock = Mutex.create ();
    reload_lock = Mutex.create ();
    admission_lock = Mutex.create ();
    pending = 0;
    request_count = Atomic.make 0;
    error_count = Atomic.make 0;
    overload_count = Atomic.make 0;
    stop_requested = Atomic.make false;
    pool_lock = Mutex.create ();
    pool = Idle;
    destroyed = false;
  }

(* Worker domains spawn on the first pooled request, not in
   create_state: embedders and tests that only call handle_line never
   pay for (or have to join) idle domains. *)
let get_pool state =
  Mutex.lock state.pool_lock;
  let pool =
    match state.pool with
    | Running pool -> pool
    | Idle ->
      let pool = Pool.create ~workers:state.config.workers (fun i -> state.slots.(i)) in
      state.pool <- Running pool;
      pool
    | Stopped ->
      Mutex.unlock state.pool_lock;
      invalid_arg "Server.execute: state destroyed"
  in
  Mutex.unlock state.pool_lock;
  pool

let destroy_state state =
  (Mutex.lock state.pool_lock;
   let pool = state.pool in
   state.pool <- Stopped;
   Mutex.unlock state.pool_lock;
   match pool with Running pool -> Pool.shutdown pool | Idle | Stopped -> ());
  Mutex.lock state.view_lock;
  let owner_drop = if state.destroyed then None else Some state.view in
  state.destroyed <- true;
  Mutex.unlock state.view_lock;
  match owner_drop with Some v -> Warm.release v.warm | None -> ()

let stats state =
  {
    requests = Atomic.get state.request_count;
    errors = Atomic.get state.error_count;
    overloaded = Atomic.get state.overload_count;
  }

let stopping state = Atomic.get state.stop_requested
let plans state = state.plan_cache

let current_view state =
  Mutex.lock state.view_lock;
  let view = state.view in
  Warm.retain view.warm;
  Mutex.unlock state.view_lock;
  view

let slot_snapshot slot =
  Mutex.lock slot.sink_lock;
  let snap = Metrics.snapshot slot.sink in
  Mutex.unlock slot.sink_lock;
  snap

let absorb_into slot metrics =
  Mutex.lock slot.sink_lock;
  Metrics.absorb slot.sink metrics;
  Mutex.unlock slot.sink_lock

(* Merged metrics over the base sink and every worker sink: the totals
   the [metrics] op reports and [run] passes to [on_stop].  Base sink
   first, then worker sinks in index order: a fixed merge order, and
   integer counters commute anyway — the lifetime totals are
   independent of which worker served which request. *)
let lifetime_snapshot state =
  Array.fold_left
    (fun acc slot -> Metrics.merge acc (slot_snapshot slot))
    (slot_snapshot state.base_slot)
    state.slots

(* --- request dispatch ------------------------------------------------- *)

let require_string request name =
  match Json.string_field request name with
  | Some s -> s
  | None -> failwith (Printf.sprintf "request field %S is required" name)

let bool_field ~default request name =
  match Json.member name request with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> failwith (Printf.sprintf "request field %S must be a boolean" name)

let counters_json s =
  Json.Obj (List.map (fun (name, value) -> (name, Json.Int value)) (Metrics.counters s))

(* --- streaming writes: JSON tuples and stream plumbing ---------------- *)

module SR = Raestat.Stream_relation

let value_ty_of_json name = function
  | Json.Int _ -> Relational.Value.Tint
  | Json.Float _ -> Relational.Value.Tfloat
  | Json.Str _ -> Relational.Value.Tstr
  | Json.Bool _ -> Relational.Value.Tbool
  | _ ->
    failwith (Printf.sprintf "tuple field %S must be a number, string or boolean" name)

(* Schema inference for a relation first seen on a write: sorted field
   names (so the inferred schema is independent of JSON field order),
   types from the first tuple's values. *)
let infer_schema tuple_json =
  match tuple_json with
  | Json.Obj [] -> failwith "cannot infer a schema from an empty tuple"
  | Json.Obj fields ->
    fields
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, v) -> (name, value_ty_of_json name v))
    |> Relational.Schema.of_list
  | _ -> failwith "tuple must be a JSON object"

let tuple_of_json schema json =
  match json with
  | Json.Obj _ ->
    Relational.Schema.attributes schema
    |> List.map (fun (attr : Relational.Schema.attribute) ->
           match Json.member attr.name json with
           | None | Some Json.Null ->
             failwith (Printf.sprintf "tuple is missing field %S" attr.name)
           | Some v -> (
             match (attr.ty, v) with
             | Relational.Value.Tint, Json.Int i -> Relational.Value.Int i
             | Relational.Value.Tfloat, Json.Float f -> Relational.Value.Float f
             | Relational.Value.Tfloat, Json.Int i ->
               Relational.Value.Float (float_of_int i)
             | Relational.Value.Tstr, Json.Str s -> Relational.Value.Str s
             | Relational.Value.Tbool, Json.Bool b -> Relational.Value.Bool b
             | ty, _ ->
               failwith
                 (Printf.sprintf "tuple field %S must have type %s" attr.name
                    (Relational.Value.ty_to_string ty))))
    |> Relational.Tuple.make
  | _ -> failwith "tuple must be a JSON object"

(* Stream parameters bind at first touch (Warm.ensure_stream);
   [first_tuple] feeds schema inference only when the name is neither
   bound nor already streamed. *)
let ensure_stream view request ~relation ~first_tuple =
  let seed = Option.get (Json.int_field ~default:42 request "seed") in
  let capacity = Option.get (Json.int_field ~default:1024 request "capacity") in
  let bernoulli = Json.float_field request "bernoulli" in
  let window = Json.int_field request "window" in
  let schema =
    if
      Warm.has_stream view.warm relation
      || Relational.Catalog.mem (Warm.catalog view.warm) relation
    then None
    else Option.map infer_schema first_tuple
  in
  let _created, conversion_delta =
    Warm.ensure_stream view.warm ~relation ~seed ~capacity ?bernoulli ?window ~schema ()
  in
  conversion_delta

let stream_status stream =
  [
    ("epoch", Json.Int (SR.epoch stream));
    ("population", Json.Int (SR.population stream));
    ("sample_size", Json.Int (SR.sample_size stream));
    ("needs_rescan", Json.Bool (SR.needs_rescan stream));
  ]

(* All four write/maintenance ops answer with the stream's post-op
   status; maintenance work (and its conversion prefix on first touch)
   is attributed to this request's sink via the with_stream delta. *)
let dispatch_stream_write slot view request op =
  let relation = Option.get (Json.string_field ~default:"r" request "relation") in
  let metrics = Metrics.create () in
  let member_or name msg =
    match Json.member name request with
    | Some v -> v
    | None -> failwith msg
  in
  let fields, delta =
    match op with
    | `Insert ->
      let tuple_json = member_or "tuple" "request field \"tuple\" is required" in
      Metrics.add_snapshot metrics
        (ensure_stream view request ~relation ~first_tuple:(Some tuple_json));
      Warm.with_stream view.warm relation (fun stream ->
          let id = SR.insert stream (tuple_of_json (SR.schema stream) tuple_json) in
          ("id", Json.Int id) :: stream_status stream)
    | `Delete ->
      let id =
        match Json.int_field request "id" with
        | Some id -> id
        | None -> failwith "request field \"id\" is required"
      in
      Metrics.add_snapshot metrics (ensure_stream view request ~relation ~first_tuple:None);
      Warm.with_stream view.warm relation (fun stream ->
          let deleted = SR.delete stream id in
          ("deleted", Json.Bool deleted) :: stream_status stream)
    | `Ingest ->
      let tuples_json =
        match Json.member "insert" request with
        | None | Some Json.Null -> []
        | Some (Json.List l) -> l
        | Some _ -> failwith "request field \"insert\" must be an array of tuples"
      in
      let delete_ids =
        match Json.member "delete" request with
        | None | Some Json.Null -> []
        | Some (Json.List l) ->
          List.map
            (function
              | Json.Int id -> id
              | _ -> failwith "request field \"delete\" must be an array of ids")
            l
        | Some _ -> failwith "request field \"delete\" must be an array of ids"
      in
      let first_tuple = match tuples_json with t :: _ -> Some t | [] -> None in
      Metrics.add_snapshot metrics (ensure_stream view request ~relation ~first_tuple);
      Warm.with_stream view.warm relation (fun stream ->
          let schema = SR.schema stream in
          let inserts = Array.of_list (List.map (tuple_of_json schema) tuples_json) in
          let counts = SR.ingest stream ~inserts ~deletes:(Array.of_list delete_ids) in
          ("first_id", Json.Int counts.SR.first_id)
          :: ("inserted", Json.Int counts.SR.inserted)
          :: ("deleted", Json.Int counts.SR.deleted)
          :: stream_status stream)
    | `Rescan ->
      (* No auto-conversion: rescanning a never-written relation is a
         client error, not an implicit stream creation. *)
      Warm.with_stream view.warm relation (fun stream ->
          SR.rescan stream;
          stream_status stream)
  in
  Metrics.add_snapshot metrics delta;
  absorb_into slot metrics;
  Json.Obj fields

(* Catalog the expression ops read: the static catalog when nothing has
   been written (zero copies, zero overhead), otherwise a per-request
   overlay where every streamed name is rebound to its epoch-memoized
   snapshot.  The plan prefix carries each stream's epoch, so cached
   plans compiled against older stream contents can never serve newer
   requests — same mechanism as the reload generation. *)
let stream_overlay view metrics =
  let prefix = Printf.sprintf "g%d|" view.generation in
  match Warm.stream_infos view.warm with
  | [] -> (Warm.catalog view.warm, prefix)
  | infos ->
    let catalog = Relational.Catalog.copy (Warm.catalog view.warm) in
    let buffer = Buffer.create 64 in
    Buffer.add_string buffer prefix;
    List.iter
      (fun info ->
        let name = info.Warm.stream_name in
        let (snap, epoch), delta =
          Warm.with_stream view.warm name (fun stream ->
              (SR.snapshot stream, SR.epoch stream))
        in
        Metrics.add_snapshot metrics delta;
        Relational.Catalog.set catalog name snap;
        Printf.bprintf buffer "%s@e%d|" name epoch)
      infos;
    (catalog, Buffer.contents buffer)

(* The estimation ops share their defaults with the one-shot CLI
   (seed 42, fraction 0.01, level 0.95, groups 5): same request, same
   bytes out of either front end.  Results are a function of the
   request fields and the catalog generation only — not of the worker
   that ran it, the arrival order, or the caches' contents — which is
   what makes --workers N invisible in the responses. *)
let dispatch_estimation state slot view request op =
  let seed = Option.get (Json.int_field ~default:42 request "seed") in
  let fraction = Option.get (Json.float_field ~default:0.01 request "fraction") in
  let rng = Sampling.Rng.create ~seed () in
  let metrics = Metrics.create () in
  let result, extra =
    match op with
    | `Estimate -> (
      let relation = Option.get (Json.string_field ~default:"r" request "relation") in
      let level = Option.get (Json.float_field ~default:0.95 request "level") in
      let predicate = Engine.predicate_of_string (require_string request "where") in
      if Warm.has_stream view.warm relation then begin
        (* Fresh-under-writes path: answered from the maintained
           backing sample, never from a base-table rescan.  Reads draw
           nothing, so the bytes are a pure function of stream state. *)
        (match Json.int_field request "pages" with
        | Some _ ->
          failwith
            (Printf.sprintf
               "relation %S is a maintained stream; page sampling needs a static \
                pagefile binding"
               relation)
        | None -> ());
        let result, delta =
          Warm.with_stream view.warm relation (fun stream ->
              ( Engine.estimate_stream ~metrics ~relation ~level stream predicate,
                stream_status stream ))
        in
        Metrics.add_snapshot metrics delta;
        result
      end
      else
        match Json.int_field request "pages" with
        | Some m ->
          (* Page-level cluster sampling over the retained paged view:
             for .raf bindings the page cache is warm across requests. *)
          Engine.check_fraction fraction;
          ( Warm.with_paged view.warm relation (fun paged ->
                Engine.estimate_pages ~metrics rng ~relation ~m ~level paged predicate),
            [] )
        | None ->
          let catalog = Warm.catalog view.warm in
          let plan_prefix = Printf.sprintf "g%d|" view.generation in
          let index_source = Warm.index_source view.warm ~relation ~seed in
          ( Engine.estimate ~metrics ~plans:state.plan_cache ~plan_prefix ~index_source
              rng catalog ~relation ~fraction ~level predicate,
            [] ))
    | `Query ->
      let groups = Option.get (Json.int_field ~default:5 request "groups") in
      let optimize = bool_field ~default:false request "optimize" in
      let expr = Relational.Parser.parse_expr (require_string request "expr") in
      let catalog, plan_prefix = stream_overlay view metrics in
      ( Engine.query ~metrics ~plans:state.plan_cache ~plan_prefix ~optimize rng catalog
          ~fraction ~groups expr,
        [] )
    | `Sql ->
      let groups = Option.get (Json.int_field ~default:5 request "groups") in
      let optimize = bool_field ~default:false request "optimize" in
      let catalog, plan_prefix = stream_overlay view metrics in
      ( Engine.sql ~metrics ~plans:state.plan_cache ~plan_prefix ~optimize rng catalog
          ~fraction ~groups (require_string request "query"),
        [] )
  in
  absorb_into slot metrics;
  Json.Obj
    (("text", Json.Str result.Engine.text)
    :: ("point", Json.Float result.Engine.estimate.Stats.Estimate.point)
    :: extra)

let dispatch_explain view request =
  let fraction = Option.get (Json.float_field ~default:0.01 request "fraction") in
  let json = bool_field ~default:false request "json" in
  let catalog = Warm.catalog view.warm in
  (* "optimize": true explains the planner's decision (candidate table,
     raestat-explain/2) for query/sql targets; the kill switch forces
     the plain plan tree, byte-identical to a request without it. *)
  let optimize = bool_field ~default:false request "optimize" in
  let explain expr =
    let groups = Option.get (Json.int_field ~default:5 request "groups") in
    Engine.explain_text ~optimize ~json catalog ~fraction ~groups expr
  in
  let text =
    match require_string request "target" with
    | "estimate" ->
      let relation = Option.get (Json.string_field ~default:"r" request "relation") in
      let predicate = Engine.predicate_of_string (require_string request "where") in
      Engine.plan_text ~json (Engine.explain_selection catalog ~relation ~fraction predicate)
    | "query" -> explain (Relational.Parser.parse_expr (require_string request "expr"))
    | "sql" -> explain (Engine.sql_expr catalog (require_string request "query"))
    | other -> failwith (Printf.sprintf "unknown explain target %S" other)
  in
  Json.Obj [ ("text", Json.Str text) ]

let dispatch_metrics state view =
  let s = lifetime_snapshot state in
  let samples = Warm.sample_stats view.warm in
  Json.Obj
    [
      ("schema", Json.Str "raestat-serve/1");
      ("requests", Json.Int (Atomic.get state.request_count));
      ("errors", Json.Int (Atomic.get state.error_count));
      ("overloaded", Json.Int (Atomic.get state.overload_count));
      ("generation", Json.Int view.generation);
      ("workers", Json.Int state.config.workers);
      ("available_cores", Json.Int (Domain.recommended_domain_count ()));
      ( "plan_cache",
        Json.Obj
          [
            ("size", Json.Int (Plan_cache.size state.plan_cache));
            ("capacity", Json.Int (Plan_cache.capacity state.plan_cache));
            ("hits", Json.Int (Plan_cache.hits state.plan_cache));
            ("misses", Json.Int (Plan_cache.misses state.plan_cache));
            ("evictions", Json.Int (Plan_cache.evictions state.plan_cache));
          ] );
      ( "warm_samples",
        Json.Obj
          [
            ("size", Json.Int samples.Warm.size);
            ("capacity", Json.Int samples.Warm.capacity);
            ("sample_hits", Json.Int samples.Warm.hits);
            ("sample_misses", Json.Int samples.Warm.misses);
            ("sample_evictions", Json.Int samples.Warm.evictions);
          ] );
      ( "streams",
        Json.List
          (List.map
             (fun (i : Warm.stream_info) ->
               Json.Obj
                 [
                   ("relation", Json.Str i.stream_name);
                   ("epoch", Json.Int i.stream_epoch);
                   ("population", Json.Int i.stream_population);
                   ("sample_size", Json.Int i.stream_sample_size);
                   ("fill_ratio", Json.Float i.stream_fill_ratio);
                   ("needs_rescan", Json.Bool i.stream_needs_rescan);
                 ])
             (Warm.stream_infos view.warm)) );
      ("counters", counters_json s);
    ]

let dispatch_reload state slot =
  (* Serialized against other reloads only; requests keep running on
     the view they retained.  The new view is published before the old
     plan entries are cleared — a request that raced the swap and
     compiled against the old catalog publishes under a "g<old>|" key,
     unreachable by post-reload requests. *)
  Mutex.lock state.reload_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock state.reload_lock)
    (fun () ->
      let loader = Metrics.create () in
      let warm = Warm.load ~metrics:loader state.config.bindings in
      absorb_into slot loader;
      Mutex.lock state.view_lock;
      let old = state.view in
      let generation = old.generation + 1 in
      state.view <- { generation; warm };
      Mutex.unlock state.view_lock;
      (* Cached plans bake in sample sizes derived from the old
         cardinalities: all invalid now. *)
      Plan_cache.clear state.plan_cache;
      Warm.release old.warm;
      Json.Obj [ ("generation", Json.Int generation) ])

let dispatch state slot view request =
  match require_string request "op" with
  | "ping" -> Json.Obj [ ("pong", Json.Bool true) ]
  | "estimate" -> dispatch_estimation state slot view request `Estimate
  | "query" -> dispatch_estimation state slot view request `Query
  | "sql" -> dispatch_estimation state slot view request `Sql
  | "explain" -> dispatch_explain view request
  | "insert" -> dispatch_stream_write slot view request `Insert
  | "delete" -> dispatch_stream_write slot view request `Delete
  | "ingest" -> dispatch_stream_write slot view request `Ingest
  | "rescan" -> dispatch_stream_write slot view request `Rescan
  | "metrics" -> dispatch_metrics state view
  | "reload" -> dispatch_reload state slot
  | "shutdown" ->
    Atomic.set state.stop_requested true;
    Json.Obj [ ("stopping", Json.Bool true) ]
  | other -> failwith (Printf.sprintf "unknown op %S" other)

(* Every exception a request raises, in the JSON parser or in its
   dispatch (a [Stack_overflow] from a deeply nested expression, say),
   becomes its error reply: the connection stays open and the error is
   counted. *)
let handle_request slot state line =
  Atomic.incr state.request_count;
  let id = ref Json.Null in
  let outcome =
    try
      match Json.parse line with
      | Error message -> Error ("bad request JSON: " ^ message)
      | Ok (Json.Obj _ as request) ->
        (match Json.member "id" request with Some v -> id := v | None -> ());
        let view = current_view state in
        Fun.protect
          ~finally:(fun () -> Warm.release view.warm)
          (fun () -> Ok (dispatch state slot view request))
      | Ok _ -> Error "request must be a JSON object"
    with
    | Failure message | Invalid_argument message | Sys_error message -> Error message
    | Not_found -> Error "not found"
    | e -> Error (Printexc.to_string e)
  in
  match outcome with
  | Ok result ->
    Json.to_string
      (Json.Obj [ ("id", !id); ("ok", Json.Bool true); ("result", result) ])
  | Error message ->
    Atomic.incr state.error_count;
    Json.to_string
      (Json.Obj [ ("id", !id); ("ok", Json.Bool false); ("error", Json.Str message) ])

let handle_line state line = handle_request state.base_slot state line

(* --- admission -------------------------------------------------------- *)

(* Precomputed: the reject path must not parse or allocate much. *)
let overloaded_response =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Null); ("ok", Json.Bool false); ("error", Json.Str "overloaded") ])

let execute state line =
  let admitted =
    Mutex.lock state.admission_lock;
    let ok = state.pending < state.config.queue_limit in
    if ok then state.pending <- state.pending + 1
    else Atomic.incr state.overload_count;
    Mutex.unlock state.admission_lock;
    ok
  in
  if not admitted then overloaded_response
  else
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock state.admission_lock;
        state.pending <- state.pending - 1;
        Mutex.unlock state.admission_lock)
      (fun () ->
        (* Estimation compute runs on the worker domains, never on the
           connection thread: concurrency is bounded by --workers, and
           each request's metrics land on its worker's own sink. *)
        let pool = get_pool state in
        Pool.run pool (fun slot -> handle_request slot state line))

(* --- connection layer ------------------------------------------------- *)

let max_line_bytes = 1 lsl 20

let oversized_response =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Null);
         ("ok", Json.Bool false);
         ( "error",
           Json.Str (Printf.sprintf "request line exceeds %d bytes" max_line_bytes) );
       ])

let rec write_all fd text off =
  let len = String.length text in
  if off < len then
    match Unix.write_substring fd text off (len - off) with
    | n -> write_all fd text (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd text off

(* A connection's fd is closed exactly once, under [lock]: the reader
   thread closes it when the peer goes away, and shutdown nudges
   still-blocked readers with [Unix.shutdown] — never a close, so a
   racing accept can't be handed a recycled descriptor we then stomp. *)
type conn = { fd : Unix.file_descr; mutable conn_closed : bool }

let close_conn lock conn =
  Mutex.lock lock;
  if not conn.conn_closed then begin
    conn.conn_closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.unlock lock

let nudge_conn lock conn =
  Mutex.lock lock;
  (if not conn.conn_closed then
     try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Mutex.unlock lock

let serve_connection state lock conn =
  let fd = conn.fd in
  let reader = Buffer.create 1024 in
  let chunk = Bytes.create 8192 in
  let alive = ref true in
  let respond line =
    match write_all fd (line ^ "\n") 0 with
    | () -> true
    | exception Unix.Unix_error (_, _, _) -> false
  in
  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  (* Answer every complete line buffered so far; false closes the
     connection (write failure, or an oversized line whose tail we
     could not frame). *)
  let rec drain () =
    let data = Buffer.contents reader in
    match String.index_opt data '\n' with
    | None ->
      if String.length data > max_line_bytes then begin
        ignore (respond oversized_response);
        false
      end
      else true
    | Some i ->
      let line = strip_cr (String.sub data 0 i) in
      Buffer.clear reader;
      Buffer.add_substring reader data (i + 1) (String.length data - i - 1);
      if String.trim line = "" then drain ()
      else if respond (execute state line) then drain ()
      else false
  in
  (try
     while !alive do
       if not (drain ()) then alive := false
       else
         match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> alive := false
         | n -> Buffer.add_subbytes reader chunk 0 n
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | exception Unix.Unix_error (_, _, _) -> alive := false
     done
   with _ -> ());
  close_conn lock conn

(* --- listener --------------------------------------------------------- *)

let bind_listener listen =
  match listen with
  | Unix_socket path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.bind sock (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e);
    (sock, fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp port ->
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt sock Unix.SO_REUSEADDR true;
       Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
     with e ->
       (try Unix.close sock with Unix.Unix_error _ -> ());
       raise e);
    (sock, fun () -> ())

let run ?(handle_signals = true) ?(on_ready = fun _ -> ()) ?on_stop config =
  let state = create_state config in
  let sock, cleanup = bind_listener config.listen in
  Unix.listen sock 64;
  (* Client hangups must surface as EPIPE on that connection's write,
     not kill the daemon. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  if handle_signals then begin
    let stop _ = Atomic.set state.stop_requested true in
    ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop));
    ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop))
  end;
  on_ready (Unix.getsockname sock);
  let conn_lock = Mutex.create () in
  let conns = ref [] in
  (* The select timeout bounds how long a stop request can go unseen:
     signal handlers only set a flag, so the loop must wake up to read
     it even when no client ever connects. *)
  while not (Atomic.get state.stop_requested) do
    match Unix.select [ sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept sock with
      | fd, _ ->
        let conn = { fd; conn_closed = false } in
        let thread = Thread.create (fun () -> serve_connection state conn_lock conn) () in
        Mutex.lock conn_lock;
        (* Prune finished connections so a long-lived daemon's list
           stays proportional to the live connection count. *)
        conns := (conn, thread) :: List.filter (fun (c, _) -> not c.conn_closed) !conns;
        Mutex.unlock conn_lock
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _) ->
        ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  cleanup ();
  let remaining =
    Mutex.lock conn_lock;
    let live = !conns in
    Mutex.unlock conn_lock;
    live
  in
  List.iter (fun (conn, _) -> nudge_conn conn_lock conn) remaining;
  (* In-flight requests finish on the worker pool while their
     connection threads drain; the pool is shut down only after every
     connection thread has been joined. *)
  List.iter (fun (_, thread) -> Thread.join thread) remaining;
  let snapshot = lifetime_snapshot state in
  (match on_stop with Some f -> f snapshot | None -> ());
  destroy_state state;
  stats state
