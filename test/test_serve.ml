(* The serve daemon's request core: JSON wire values, the prepared-plan
   LRU, and the socket-free protocol layer ([Server.handle_line] /
   [Server.execute]).  The contract under test is byte-parity with the
   one-shot CLI — both front ends render through [Serve.Engine], so a
   daemon response's [text] field must equal what [Engine] returns for
   the same arguments and seed — plus the plan cache's hit/miss/LRU
   semantics and the overload fast-reject path. *)

open Helpers
module Json = Serve.Json
module Plan_cache = Serve.Plan_cache
module Server = Serve.Server
module Engine = Serve.Engine
module P = Predicate

(* --- Json -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let text =
    {|{"op": "estimate", "id": 7, "fraction": 0.25, "deep": {"flag": true},
       "tags": ["a", -3, null], "where": "a <= 40"}|}
  in
  match Json.parse text with
  | Error message -> Alcotest.failf "parse failed: %s" message
  | Ok v ->
    Alcotest.(check (option string))
      "string field" (Some "estimate")
      (Json.string_field v "op");
    Alcotest.(check (option int)) "int field" (Some 7) (Json.int_field v "id");
    Alcotest.(check (option (float 1e-12)))
      "float field" (Some 0.25)
      (Json.float_field v "fraction");
    Alcotest.(check (option int))
      "defaulted int" (Some 42)
      (Json.int_field ~default:42 v "seed");
    Alcotest.(check bool) "missing member" true (Json.member "nope" v = None);
    (match Json.member "tags" v with
    | Some (Json.List [ Json.Str "a"; Json.Int (-3); Json.Null ]) -> ()
    | _ -> Alcotest.fail "list member shape");
    (* print → parse is the identity on the wire representation *)
    let printed = Json.to_string v in
    Alcotest.(check bool)
      "reparse equals" true
      (Json.parse printed = Ok v && not (String.contains printed '\n'))

let test_json_numbers () =
  (* ints stay ints (seeds must round-trip exactly), floats stay floats *)
  Alcotest.(check bool) "int literal" true (Json.parse "42" = Ok (Json.Int 42));
  Alcotest.(check bool)
    "exponent is float" true
    (Json.parse "1e2" = Ok (Json.Float 100.));
  Alcotest.(check bool)
    "negative int" true
    (Json.parse "-7" = Ok (Json.Int (-7)));
  (* integral floats are accepted where an int is expected *)
  let v = Result.get_ok (Json.parse {|{"seed": 9.0, "bad": 9.5}|}) in
  Alcotest.(check (option int)) "integral float as int" (Some 9) (Json.int_field v "seed");
  Alcotest.(check bool)
    "non-integral rejected" true
    (try
       ignore (Json.int_field v "bad");
       false
     with Failure _ -> true);
  (* non-finite floats render as null: the wire never carries nan/inf *)
  Alcotest.(check string) "nan prints null" "null" (Json.to_string (Json.Float Float.nan));
  (* a float prints in its shortest round-trip form of 15 to 17 digits *)
  Alcotest.(check string) "0.975 prints short" "0.975" (Json.to_string (Json.Float 0.975));
  Alcotest.(check string) "0.1 + 0.2 needs 17 digits" "0.30000000000000004"
    (Json.to_string (Json.Float (0.1 +. 0.2)))

(* Every finite float, drawn as a random bit pattern or by QCheck's
   float generator, reads back from its rendering as the same float. *)
let prop_json_float_roundtrip =
  qcheck_case ~count:2000 "json floats round-trip"
    QCheck.(oneof [ map Int64.float_of_bits int64; float ])
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Float.equal (float_of_string (Json.to_string (Json.Float f))) f)

let test_json_errors () =
  let fails text =
    match Json.parse text with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "truncated object" true (fails {|{"a": 1|});
  Alcotest.(check bool) "trailing garbage" true (fails "1 2");
  Alcotest.(check bool) "bare word" true (fails "estimate");
  Alcotest.(check bool) "unterminated string" true (fails {|"abc|});
  (* escapes survive a print → parse cycle *)
  let s = Json.Str "a\"b\\c\nd\te\x01" in
  Alcotest.(check bool) "escape roundtrip" true (Json.parse (Json.to_string s) = Ok s);
  (* type mismatch on an accessor is a Failure, not a silent default *)
  let v = Result.get_ok (Json.parse {|{"op": 3}|}) in
  Alcotest.(check bool)
    "string_field type error" true
    (try
       ignore (Json.string_field ~default:"x" v "op");
       false
     with Failure _ -> true)

(* --- Plan_cache --------------------------------------------------------- *)

(* The cache stores whatever the compile thunk returns; a tiny selection
   plan over an in-memory relation is enough. *)
let tiny_catalog () = Catalog.of_list [ ("r", int_relation (List.init 50 Fun.id)) ]

let tiny_plan =
  let catalog = tiny_catalog () in
  fun () ->
    Engine.explain_selection catalog ~relation:"r" ~fraction:0.1
      (P.lt (P.attr "a") (P.vint 10))

let test_cache_counters () =
  let cache = Plan_cache.create ~capacity:4 () in
  let compiles = ref 0 in
  let compile () =
    incr compiles;
    tiny_plan ()
  in
  let metrics = Obs.Metrics.create () in
  ignore (Plan_cache.find_or_compile ~metrics cache "k1" compile);
  ignore (Plan_cache.find_or_compile ~metrics cache "k1" compile);
  ignore (Plan_cache.find_or_compile ~metrics cache "k2" compile);
  Alcotest.(check int) "compiled once per key" 2 !compiles;
  Alcotest.(check int) "hits" 1 (Plan_cache.hits cache);
  Alcotest.(check int) "misses" 2 (Plan_cache.misses cache);
  let s = Obs.Metrics.snapshot metrics in
  Alcotest.(check int) "metrics hits" 1 s.Obs.Metrics.plan_cache_hits;
  Alcotest.(check int) "metrics misses" 2 s.Obs.Metrics.plan_cache_misses;
  (* the same compiled plan comes back on a hit *)
  let a = Plan_cache.find_or_compile cache "k3" compile in
  let b = Plan_cache.find_or_compile cache "k3" compile in
  Alcotest.(check bool) "hit returns cached plan" true (a == b)

let test_cache_lru () =
  let cache = Plan_cache.create ~capacity:3 () in
  let put k = ignore (Plan_cache.find_or_compile cache k tiny_plan) in
  put "a";
  put "b";
  put "c";
  Alcotest.(check (list string)) "mru order" [ "c"; "b"; "a" ] (Plan_cache.keys cache);
  (* a lookup promotes to most recently used *)
  put "a";
  Alcotest.(check (list string)) "promoted" [ "a"; "c"; "b" ] (Plan_cache.keys cache);
  (* beyond capacity the least recently used entry ("b") is evicted *)
  put "d";
  Alcotest.(check (list string)) "evicted lru" [ "d"; "a"; "c" ] (Plan_cache.keys cache);
  Alcotest.(check int) "size capped" 3 (Plan_cache.size cache);
  (* the evicted key recompiles: miss, not hit *)
  let misses = Plan_cache.misses cache in
  put "b";
  Alcotest.(check int) "evicted key is a miss" (misses + 1) (Plan_cache.misses cache)

let test_cache_clear () =
  let cache = Plan_cache.create ~capacity:2 () in
  ignore (Plan_cache.find_or_compile cache "a" tiny_plan);
  ignore (Plan_cache.find_or_compile cache "a" tiny_plan);
  Plan_cache.clear cache;
  Alcotest.(check int) "empty" 0 (Plan_cache.size cache);
  Alcotest.(check (list string)) "no keys" [] (Plan_cache.keys cache);
  (* lifetime counters survive invalidation (the metrics op reports them) *)
  Alcotest.(check int) "hits survive clear" 1 (Plan_cache.hits cache);
  Alcotest.(check int) "misses survive clear" 1 (Plan_cache.misses cache);
  Alcotest.(check bool)
    "zero capacity rejected" true
    (try
       ignore (Plan_cache.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

(* --- Server protocol (socket-free) -------------------------------------- *)

(* A small CSV on disk: the server loads its catalog from file bindings
   exactly like the daemon does. *)
let with_server ?(plan_capacity = 8) ?(queue_limit = 16) ?(workers = 1) f =
  let path = Filename.temp_file "raestat-serve" ".csv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "a:int\n";
      for i = 0 to 199 do
        Printf.fprintf oc "%d\n" (i mod 100)
      done;
      close_out oc;
      let state =
        Server.create_state
          {
            Server.listen = Server.Unix_socket "/unused";
            bindings = [ ("r", path) ];
            plan_capacity;
            queue_limit;
            workers;
          }
      in
      Fun.protect ~finally:(fun () -> Server.destroy_state state) (fun () -> f state))

(* Parse a response line and return (id, ok, result-or-error). *)
let response line =
  match Json.parse line with
  | Error message -> Alcotest.failf "unparseable response %S: %s" line message
  | Ok v ->
    let id = Option.get (Json.member "id" v) in
    let ok =
      match Json.member "ok" v with
      | Some (Json.Bool b) -> b
      | _ -> Alcotest.failf "response %S has no ok field" line
    in
    let payload = Json.member (if ok then "result" else "error") v in
    (id, ok, Option.get payload)

let result_text line =
  match response line with
  | _, true, payload -> (
    match Json.string_field payload "text" with
    | Some text -> text
    | None -> Alcotest.failf "response %S has no text" line)
  | _, false, Json.Str message -> Alcotest.failf "request failed: %s" message
  | _ -> Alcotest.failf "bad response %S" line

let error_message line =
  match response line with
  | _, false, Json.Str message -> message
  | _ -> Alcotest.failf "expected an error response, got %S" line

let test_server_ping_and_ids () =
  with_server @@ fun state ->
  (match response (Server.handle_line state {|{"op": "ping", "id": 9}|}) with
  | Json.Int 9, true, Json.Obj [ ("pong", Json.Bool true) ] -> ()
  | _ -> Alcotest.fail "ping response shape");
  (* absent id echoes as null; string ids echo as strings *)
  (match response (Server.handle_line state {|{"op": "ping"}|}) with
  | Json.Null, true, _ -> ()
  | _ -> Alcotest.fail "missing id echoes null");
  match response (Server.handle_line state {|{"op": "nope", "id": "x"}|}) with
  | Json.Str "x", false, Json.Str message ->
    Alcotest.(check string) "unknown op" {|unknown op "nope"|} message
  | _ -> Alcotest.fail "error response shape"

(* The same tuples the server loads from its CSV binding, rebuilt
   in memory: estimation depends only on values, order and the seed. *)
let mirror_catalog () =
  Catalog.of_list [ ("r", int_relation (List.init 200 (fun i -> i mod 100))) ]

(* The core contract: [text] out of the daemon is the byte-for-byte
   one-shot CLI output, because both call the same Engine function. *)
let test_server_estimate_parity () =
  with_server @@ fun state ->
  let line =
    Server.handle_line state
      {|{"op": "estimate", "where": "a < 30", "fraction": 0.2, "seed": 42}|}
  in
  let expected =
    (Engine.estimate
       (Sampling.Rng.create ~seed:42 ())
       (mirror_catalog ()) ~relation:"r" ~fraction:0.2 ~level:0.95
       (Engine.predicate_of_string "a < 30"))
      .Engine.text
  in
  Alcotest.(check string) "estimate text parity" expected (result_text line);
  (* defaults match the CLI: omitting seed/fraction/level changes nothing
     vs passing 42 / 0.01 / 0.95 explicitly *)
  let implicit = Server.handle_line state {|{"op": "estimate", "where": "a < 30"}|} in
  let explicit =
    Server.handle_line state
      {|{"op": "estimate", "where": "a < 30", "seed": 42, "fraction": 0.01,
         "level": 0.95, "relation": "r"}|}
  in
  Alcotest.(check string)
    "defaults are the CLI defaults" (result_text implicit) (result_text explicit)

let test_server_query_sql_share_plans () =
  with_server @@ fun state ->
  let q =
    {|{"op": "query", "expr": "select[a < 30](r)", "fraction": 0.2, "groups": 5}|}
  in
  let s =
    {|{"op": "sql", "query": "SELECT COUNT(*) FROM r WHERE a < 30", "fraction": 0.2, "groups": 5}|}
  in
  let qt = result_text (Server.handle_line state q) in
  Alcotest.(check int) "first compile is a miss" 1 (Plan_cache.misses (Server.plans state));
  let st = result_text (Server.handle_line state s) in
  (* SQL normalizes to the same algebra, so it hits the query's plan *)
  Alcotest.(check int) "sql reuses query plan" 1 (Plan_cache.hits (Server.plans state));
  Alcotest.(check int) "no second compile" 1 (Plan_cache.misses (Server.plans state));
  (* same seed, same plan shape → identical estimates behind the prefix
     lines ("expression: ..." vs "algebra: ...") *)
  let tail text =
    match String.index_opt text '\n' with
    | Some i -> String.sub text (i + 1) (String.length text - i - 1)
    | None -> text
  in
  Alcotest.(check string) "cached rerun identical" (tail qt) (tail st);
  (* re-running the cached plan with the same seed stays bit-identical *)
  Alcotest.(check string) "cache is deterministic" qt
    (result_text (Server.handle_line state q))

let test_server_optimize_keys_cache () =
  with_server @@ fun state ->
  let plain =
    {|{"op": "query", "expr": "select[a < 30](r)", "fraction": 0.2, "groups": 5}|}
  in
  let optimized =
    {|{"op": "query", "expr": "select[a < 30](r)", "fraction": 0.2, "groups": 5, "optimize": true}|}
  in
  let pt = result_text (Server.handle_line state plain) in
  let ot = result_text (Server.handle_line state optimized) in
  if not (Raestat.Planner.optimize_enabled ()) then begin
    (* Kill switch thrown process-wide: the effective setting folds to
       off, so the optimized request shares the plain entry (they
       compile the identical plan) and answers with the same bytes. *)
    Alcotest.(check int) "one shared compile" 1 (Plan_cache.misses (Server.plans state));
    Alcotest.(check int) "optimized request hits the plain entry" 1
      (Plan_cache.hits (Server.plans state));
    Alcotest.(check string) "kill switch preserves bytes" pt ot
  end
  else begin
  (* The optimizer setting is part of the plan-cache key: two compiles,
     never a cross-setting hit. *)
  Alcotest.(check int) "two misses" 2 (Plan_cache.misses (Server.plans state));
  Alcotest.(check int) "no cross-setting hits" 0 (Plan_cache.hits (Server.plans state));
  ignore (result_text (Server.handle_line state optimized));
  Alcotest.(check int) "optimized rerun hits its own entry" 1
    (Plan_cache.hits (Server.plans state));
  (* On a single-leaf selection every placement ties, the tie falls back
     to root sampling, and the optimized response is byte-identical. *)
  Alcotest.(check string) "tie preserves historical bytes" pt ot;
  Alcotest.(check bool) "keys differ by setting" true
    (Engine.expr_key ~fraction:0.2 ~groups:5 ~optimize:true (Expr.base "r")
    <> Engine.expr_key ~fraction:0.2 ~groups:5 ~optimize:false (Expr.base "r"));
  (* Served optimized explain renders the planner's decision with the
     same bytes the engine (and hence the CLI) produces. *)
  let explained =
    result_text
      (Server.handle_line state
         {|{"op": "explain", "target": "query", "expr": "select[a < 30](r)", "fraction": 0.2, "groups": 5, "optimize": true}|})
  in
  Alcotest.(check string) "optimized explain parity"
    (Raestat.Planner.render_choice
       (Engine.explain_expr_optimized (mirror_catalog ()) ~fraction:0.2 ~groups:5
          (Relational.Parser.parse_expr "select[a < 30](r)")))
    explained
  end

let test_server_explain () =
  with_server @@ fun state ->
  let line =
    Server.handle_line state
      {|{"op": "explain", "target": "estimate", "where": "a < 30", "fraction": 0.2}|}
  in
  let expected =
    Raestat.Estplan.render
      (Engine.explain_selection (mirror_catalog ()) ~relation:"r" ~fraction:0.2
         (Engine.predicate_of_string "a < 30"))
  in
  Alcotest.(check string) "explain text parity" expected (result_text line);
  (* json form is the plan's JSON document plus the CLI's newline *)
  let json_line =
    Server.handle_line state
      {|{"op": "explain", "target": "estimate", "where": "a < 30",
         "fraction": 0.2, "json": true}|}
  in
  let text = result_text json_line in
  Alcotest.(check bool) "json explain ends in newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  Alcotest.(check bool) "json explain parses" true
    (match Json.parse (String.trim text) with Ok _ -> true | Error _ -> false);
  (* explain never populates the plan cache: it compiles fresh, as the
     one-shot CLI does *)
  Alcotest.(check int) "explain bypasses cache" 0 (Plan_cache.size (Server.plans state))

let test_server_metrics_and_reload () =
  with_server @@ fun state ->
  ignore (Server.handle_line state {|{"op": "estimate", "where": "a < 30"}|});
  ignore (Server.handle_line state {|{"op": "estimate", "where": "a < 30"}|});
  ignore (Server.handle_line state {|{"op": "bogus"}|});
  let metrics () =
    match response (Server.handle_line state {|{"op": "metrics"}|}) with
    | _, true, payload -> payload
    | _ -> Alcotest.fail "metrics failed"
  in
  let m = metrics () in
  Alcotest.(check (option string))
    "schema" (Some "raestat-serve/1") (Json.string_field m "schema");
  (* 2 estimates + 1 bogus + this metrics call *)
  Alcotest.(check (option int)) "requests" (Some 4) (Json.int_field m "requests");
  Alcotest.(check (option int)) "errors" (Some 1) (Json.int_field m "errors");
  Alcotest.(check (option int)) "generation" (Some 0) (Json.int_field m "generation");
  let cache = Option.get (Json.member "plan_cache" m) in
  Alcotest.(check (option int)) "cache hits" (Some 1) (Json.int_field cache "hits");
  Alcotest.(check (option int)) "cache misses" (Some 1) (Json.int_field cache "misses");
  Alcotest.(check (option int)) "cache size" (Some 1) (Json.int_field cache "size");
  (* per-request sinks were absorbed into the lifetime snapshot *)
  let counters = Option.get (Json.member "counters" m) in
  (match Json.int_field counters "tuples_scanned" with
  | Some n when n > 0 -> ()
  | _ -> Alcotest.fail "lifetime counters absorb per-request work");
  Alcotest.(check (option int))
    "counters mirror cache hits" (Some 1)
    (Json.int_field counters "plan_cache_hits");
  (* reload re-reads the catalog, clears the plans, bumps the generation *)
  (match response (Server.handle_line state {|{"op": "reload"}|}) with
  | _, true, payload ->
    Alcotest.(check (option int)) "reload generation" (Some 1)
      (Json.int_field payload "generation")
  | _ -> Alcotest.fail "reload failed");
  Alcotest.(check int) "cache invalidated" 0 (Plan_cache.size (Server.plans state));
  let m2 = metrics () in
  Alcotest.(check (option int)) "generation bumped" (Some 1) (Json.int_field m2 "generation");
  (* lifetime hit/miss totals survive the invalidation *)
  let cache2 = Option.get (Json.member "plan_cache" m2) in
  Alcotest.(check (option int)) "hits survive reload" (Some 1)
    (Json.int_field cache2 "hits")

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_server_errors () =
  with_server @@ fun state ->
  let check_error name fragment line =
    let message = error_message (Server.handle_line state line) in
    if not (contains message fragment) then
      Alcotest.failf "%s: %S does not mention %S" name message fragment
  in
  check_error "bad json" "bad request JSON" {|{"op": |};
  check_error "non-object" "must be a JSON object" {|[1, 2]|};
  check_error "missing op" {|"op" is required|} {|{"id": 1}|};
  check_error "missing where" {|"where" is required|} {|{"op": "estimate"}|};
  check_error "bad fraction type" {|"fraction" must be a number|}
    {|{"op": "estimate", "where": "a < 30", "fraction": "lots"}|};
  check_error "fraction range" "outside (0, 1]"
    {|{"op": "estimate", "where": "a < 30", "fraction": 2.0}|};
  check_error "bad predicate" "expected a comparison operator"
    {|{"op": "estimate", "where": "just words"}|};
  check_error "unknown relation" {|unknown relation "ghost"|}
    {|{"op": "estimate", "relation": "ghost", "where": "a < 30"}|};
  check_error "unknown explain target" "unknown explain target"
    {|{"op": "explain", "target": "mystery"}|};
  (* a join of two bare base relations names its missing attribute,
     as the same join with a selected leaf always did *)
  check_error "unknown join attribute"
    {|Expr.schema_of: join attribute "zz" missing on the left|}
    {|{"op": "query", "expr": "r join[zz = a] r", "fraction": 0.5}|};
  (* an estimate's filter is checked against the relation's schema
     before anything runs, and names its attribute like query does *)
  check_error "unknown filter attribute"
    {|Expr.schema_of: unknown attribute "zz" in selection|}
    {|{"op": "estimate", "where": "zz <= 3"}|};
  (* the optimizer and the explain paths validate the expression first:
     an unknown attribute is the same one-line schema error, not a
     Not_found from the planner's statistics or a plan over a missing
     column *)
  List.iter
    (fun (name, line) ->
      check_error name {|Expr.schema_of: unknown attribute "zz" in selection|} line)
    [
      ( "unknown attribute, optimized query",
        {|{"op": "query", "expr": "select[zz <= 3](r)", "fraction": 0.5, "optimize": true}|} );
      ( "unknown attribute, explain estimate",
        {|{"op": "explain", "target": "estimate", "relation": "r", "where": "zz <= 3"}|} );
      ( "unknown attribute, optimized explain query",
        {|{"op": "explain", "target": "query", "expr": "select[zz <= 3](r)", "optimize": true}|} );
    ];
  (* error responses count as answered requests, and none of them killed
     the state: a good request still works afterwards *)
  match response (Server.handle_line state {|{"op": "ping"}|}) with
  | _, true, _ -> ()
  | _ -> Alcotest.fail "state survives bad requests"

let test_server_overload_and_shutdown () =
  (* queue_limit 0 admits nothing: the fast reject answers without
     parsing, and only the overload counter moves *)
  with_server ~queue_limit:0 @@ fun state ->
  let reply = Server.execute state {|{"op": "ping"}|} in
  (match response reply with
  | Json.Null, false, Json.Str "overloaded" -> ()
  | _ -> Alcotest.failf "expected overloaded, got %S" reply);
  let s = Server.stats state in
  Alcotest.(check int) "overloaded counted" 1 s.Server.overloaded;
  Alcotest.(check int) "not a request" 0 s.Server.requests;
  Alcotest.(check int) "not an error" 0 s.Server.errors;
  (* with room in the queue the same line goes through *)
  with_server ~queue_limit:1 @@ fun state ->
  (match response (Server.execute state {|{"op": "ping"}|}) with
  | _, true, _ -> ()
  | _ -> Alcotest.fail "admitted request served");
  Alcotest.(check int) "served" 1 (Server.stats state).Server.requests;
  (* shutdown flips the stop flag the accept loop polls *)
  Alcotest.(check bool) "not stopping" false (Server.stopping state);
  (match response (Server.handle_line state {|{"op": "shutdown"}|}) with
  | _, true, Json.Obj [ ("stopping", Json.Bool true) ] -> ()
  | _ -> Alcotest.fail "shutdown response");
  Alcotest.(check bool) "stopping" true (Server.stopping state);
  (* config validation *)
  Alcotest.(check bool)
    "negative queue limit rejected" true
    (try
       ignore
         (Server.create_state
            {
              Server.listen = Server.Tcp 0;
              bindings = [];
              plan_capacity = 4;
              queue_limit = -1;
              workers = 1;
            });
       false
     with Invalid_argument _ -> true)

(* --- concurrency: plan cache, warm caches, reload --------------------- *)

(* Hammer the cache from several domains over a key space larger than
   the capacity.  The invariants that must survive any interleaving:
   every lookup is exactly one hit or one miss, a miss corresponds to
   exactly one compile (single-flight), the resident set never exceeds
   capacity, and every compiled entry is either still resident or was
   counted as an eviction. *)
let test_cache_concurrent_hammer () =
  let cache = Plan_cache.create ~capacity:4 ~shards:2 () in
  let compiles = Atomic.make 0 in
  let catalog = tiny_catalog () in
  let compile_for key () =
    Atomic.incr compiles;
    ignore key;
    Engine.explain_selection catalog ~relation:"r" ~fraction:0.1
      (P.lt (P.attr "a") (P.vint 10))
  in
  let domains = 4 and rounds = 200 and keyspace = 8 in
  let worker d =
    Domain.spawn (fun () ->
        for i = 0 to rounds - 1 do
          let key = Printf.sprintf "k%d" ((i + d) mod keyspace) in
          ignore (Plan_cache.find_or_compile cache key (compile_for key))
        done)
  in
  Array.iter Domain.join (Array.init domains worker);
  let hits = Plan_cache.hits cache and misses = Plan_cache.misses cache in
  Alcotest.(check int) "every lookup hit or missed" (domains * rounds) (hits + misses);
  Alcotest.(check int) "miss = compile (single-flight)" (Atomic.get compiles) misses;
  Alcotest.(check bool) "size within capacity" true (Plan_cache.size cache <= 4);
  Alcotest.(check int)
    "compiled entries resident or evicted" misses
    (Plan_cache.size cache + Plan_cache.evictions cache)

(* Two domains racing on one cold key: the second must wait for the
   first's compile, not start its own. *)
let test_cache_single_flight () =
  let cache = Plan_cache.create ~capacity:4 () in
  let compiles = Atomic.make 0 in
  let slow_compile () =
    Atomic.incr compiles;
    Unix.sleepf 0.05;
    tiny_plan ()
  in
  let results =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () -> Plan_cache.find_or_compile cache "shared" slow_compile))
    |> Array.map Domain.join
  in
  Alcotest.(check int) "one compile for a shared cold key" 1 (Atomic.get compiles);
  Alcotest.(check bool) "both got the same plan" true (results.(0) == results.(1));
  Alcotest.(check int) "one miss" 1 (Plan_cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Plan_cache.hits cache)

(* A failing compile must not poison the key: waiters retry, and the
   next lookup compiles fresh. *)
let test_cache_failed_compile () =
  let cache = Plan_cache.create ~capacity:4 () in
  (try
     ignore
       (Plan_cache.find_or_compile cache "k" (fun () -> failwith "compile exploded"));
     Alcotest.fail "exception should propagate"
   with Failure _ -> ());
  Alcotest.(check int) "failed compile not resident" 0 (Plan_cache.size cache);
  ignore (Plan_cache.find_or_compile cache "k" tiny_plan);
  Alcotest.(check int) "key usable after failure" 1 (Plan_cache.size cache)

(* Eviction counters: both the cache's own total and the per-request
   metrics sink see LRU pressure. *)
let test_cache_eviction_metrics () =
  let cache = Plan_cache.create ~capacity:2 () in
  let metrics = Obs.Metrics.create () in
  ignore (Plan_cache.find_or_compile ~metrics cache "a" tiny_plan);
  ignore (Plan_cache.find_or_compile ~metrics cache "b" tiny_plan);
  ignore (Plan_cache.find_or_compile ~metrics cache "c" tiny_plan);
  Alcotest.(check int) "cache eviction total" 1 (Plan_cache.evictions cache);
  let s = Obs.Metrics.snapshot metrics in
  Alcotest.(check int) "sink eviction counter" 1 s.Obs.Metrics.plan_cache_evictions;
  (* invalidation is not eviction *)
  Plan_cache.clear cache;
  Alcotest.(check int) "clear does not evict" 1 (Plan_cache.evictions cache)

let test_warm_sample_cache () =
  let path = Filename.temp_file "raestat-warm" ".csv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out path in
  output_string oc "a:int\n";
  for i = 0 to 99 do
    Printf.fprintf oc "%d\n" i
  done;
  close_out oc;
  let warm = Serve.Warm.load ~sample_capacity:2 [ ("r", path) ] in
  Fun.protect ~finally:(fun () -> Serve.Warm.release warm)
  @@ fun () ->
  let draw_count = ref 0 in
  let draw seed () =
    incr draw_count;
    let rng = Sampling.Rng.create ~seed () in
    Sampling.Srs.indices_without_replacement rng ~n:10 ~universe:100
  in
  let a =
    Serve.Warm.sample_indices warm ~relation:"r" ~seed:1 ~n:10 ~universe:100 (draw 1)
  in
  let b =
    Serve.Warm.sample_indices warm ~relation:"r" ~seed:1 ~n:10 ~universe:100 (draw 1)
  in
  Alcotest.(check bool) "hit returns the cached array" true (a == b);
  Alcotest.(check int) "one draw for two same-key requests" 1 !draw_count;
  (* a different seed (or n, or universe) is a different key *)
  let c =
    Serve.Warm.sample_indices warm ~relation:"r" ~seed:2 ~n:10 ~universe:100 (draw 2)
  in
  Alcotest.(check bool) "distinct key drew fresh" true (not (a == c));
  (* capacity 2: a third key evicts the LRU (seed 1) *)
  ignore
    (Serve.Warm.sample_indices warm ~relation:"r" ~seed:3 ~n:10 ~universe:100 (draw 3));
  let stats = Serve.Warm.sample_stats warm in
  Alcotest.(check int) "sample hits" 1 stats.Serve.Warm.hits;
  Alcotest.(check int) "sample misses" 3 stats.Serve.Warm.misses;
  Alcotest.(check int) "sample evictions" 1 stats.Serve.Warm.evictions;
  Alcotest.(check int) "resident sets" 2 stats.Serve.Warm.size;
  (* the evicted key re-draws the identical index set: cache contents
     never change response bytes *)
  let a' =
    Serve.Warm.sample_indices warm ~relation:"r" ~seed:1 ~n:10 ~universe:100 (draw 1)
  in
  Alcotest.(check bool) "re-drawn set identical" true (a = a')

(* Domains hammering one warm key: whatever the interleaving, every
   caller gets the same index content and the counters add up. *)
let test_warm_sample_concurrent () =
  let path = Filename.temp_file "raestat-warm" ".csv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out path in
  output_string oc "a:int\n";
  for i = 0 to 99 do
    Printf.fprintf oc "%d\n" i
  done;
  close_out oc;
  let warm = Serve.Warm.load ~sample_capacity:8 [ ("r", path) ] in
  Fun.protect ~finally:(fun () -> Serve.Warm.release warm)
  @@ fun () ->
  let domains = 4 and rounds = 50 in
  let results =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            Array.init rounds (fun i ->
                let seed = (i + d) mod 4 in
                let draw () =
                  let rng = Sampling.Rng.create ~seed () in
                  Sampling.Srs.indices_without_replacement rng ~n:5 ~universe:100
                in
                ( seed,
                  Serve.Warm.sample_indices warm ~relation:"r" ~seed ~n:5 ~universe:100
                    draw ))))
    |> Array.map Domain.join
  in
  let reference = Hashtbl.create 4 in
  Array.iter
    (Array.iter (fun (seed, indices) ->
         match Hashtbl.find_opt reference seed with
         | None -> Hashtbl.replace reference seed indices
         | Some expected ->
           if indices <> expected then
             Alcotest.failf "seed %d produced differing index sets" seed))
    results;
  let stats = Serve.Warm.sample_stats warm in
  Alcotest.(check int)
    "every call hit or missed" (domains * rounds)
    (stats.Serve.Warm.hits + stats.Serve.Warm.misses);
  Alcotest.(check int) "no evictions under capacity" 0 stats.Serve.Warm.evictions

(* Reload while requests are in flight: every request must complete
   with ok:true on a coherent view (old or new — both are valid for an
   unchanged file), and the generation must advance once per reload. *)
let test_server_reload_during_inflight () =
  with_server ~workers:2 ~queue_limit:64 @@ fun state ->
  let request = {|{"op": "estimate", "where": "a < 30", "fraction": 0.2, "seed": 7}|} in
  let expected = result_text (Server.handle_line state request) in
  let failures = Atomic.make 0 in
  let clients =
    Array.init 4 (fun _ ->
        Thread.create
          (fun () ->
            for _ = 1 to 10 do
              let line = Server.execute state request in
              match response line with
              | _, true, payload ->
                if Json.string_field payload "text" <> Some expected then
                  Atomic.incr failures
              | _, false, _ -> Atomic.incr failures
            done)
          ())
  in
  for _ = 1 to 5 do
    match response (Server.handle_line state {|{"op": "reload"}|}) with
    | _, true, _ -> Thread.yield ()
    | _ -> Alcotest.fail "reload failed mid-flight"
  done;
  Array.iter Thread.join clients;
  Alcotest.(check int) "all in-flight requests stayed correct" 0 (Atomic.get failures);
  match response (Server.handle_line state {|{"op": "metrics"}|}) with
  | _, true, m ->
    Alcotest.(check (option int)) "five reloads" (Some 5) (Json.int_field m "generation")
  | _ -> Alcotest.fail "metrics after reloads"

(* --- streaming writes --------------------------------------------------- *)

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let result_field line name =
  match response line with
  | _, true, payload -> Option.get (Json.member name payload)
  | _, false, Json.Str message -> Alcotest.failf "request failed: %s" message
  | _ -> Alcotest.failf "bad response %S" line

let point_of line =
  match result_field line "point" with
  | Json.Float p -> p
  | Json.Int p -> float_of_int p
  | _ -> Alcotest.failf "response %S has a non-numeric point" line

(* A served filter reads the grammar of [select[…]]: a conjunction at
   fraction 1 is a census and answers the exact count. *)
let test_server_filter_grammar () =
  with_server @@ fun state ->
  let where = "a < 30 and a >= 10" in
  let line =
    Server.handle_line state
      (Printf.sprintf {|{"op": "estimate", "where": %S, "fraction": 1.0}|} where)
  in
  let exact =
    Eval.count (mirror_catalog ())
      (Expr.select (Relational.Parser.parse_predicate where) (Expr.base "r"))
  in
  Alcotest.(check int) "exact count" 40 exact;
  Alcotest.(check (float 0.)) "census estimate" (float_of_int exact) (point_of line)

let test_server_stream_writes () =
  with_server @@ fun state ->
  (* Unbound relation: schema inferred from the first tuple. *)
  let line =
    Server.handle_line state {|{"op": "insert", "relation": "s", "tuple": {"a": 7}}|}
  in
  Alcotest.(check bool) "first id" true (result_field line "id" = Json.Int 0);
  Alcotest.(check bool) "population" true (result_field line "population" = Json.Int 1);
  Alcotest.(check bool) "epoch" true (result_field line "epoch" = Json.Int 1);
  let line = Server.handle_line state {|{"op": "delete", "relation": "s", "id": 0}|} in
  Alcotest.(check bool) "deleted" true (result_field line "deleted" = Json.Bool true);
  (* The reply reports the status after the delete: one fewer live
     tuple, one more epoch. *)
  Alcotest.(check bool) "population after delete" true
    (result_field line "population" = Json.Int 0);
  Alcotest.(check bool) "epoch after delete" true (result_field line "epoch" = Json.Int 2);
  let line = Server.handle_line state {|{"op": "delete", "relation": "s", "id": 0}|} in
  Alcotest.(check bool)
    "dead delete is a no-op" true
    (result_field line "deleted" = Json.Bool false);
  let line =
    Server.handle_line state
      {|{"op": "ingest", "relation": "s",
         "insert": [{"a": 1}, {"a": 2}, {"a": 3}], "delete": [1]}|}
  in
  Alcotest.(check bool) "batch first id" true (result_field line "first_id" = Json.Int 1);
  Alcotest.(check bool) "batch inserted" true (result_field line "inserted" = Json.Int 3);
  Alcotest.(check bool) "batch deleted" true (result_field line "deleted" = Json.Int 1);
  Alcotest.(check bool)
    "batch population" true
    (result_field line "population" = Json.Int 2);
  (* Writes to a name that is neither bound nor inferable are errors,
     through the standard JSON error contract. *)
  let message =
    error_message
      (Server.handle_line state {|{"op": "delete", "relation": "nope", "id": 0}|})
  in
  Alcotest.(check bool) "unbound delete mentions binding" true (contains "not bound" message);
  let message =
    error_message (Server.handle_line state {|{"op": "rescan", "relation": "never"}|})
  in
  Alcotest.(check bool)
    "rescan needs an existing stream" true
    (contains "no maintained stream" message)

(* The capacity bounds the backing sample without sizing it: the
   sample's arrays grow with the tuples it holds, so a capacity of
   max_int answers like any other. *)
let test_server_stream_capacity_bound () =
  with_server @@ fun state ->
  let line =
    Server.handle_line state
      {|{"op": "ingest", "relation": "z", "capacity": 4611686018427387903,
         "insert": [{"a": 1}]}|}
  in
  Alcotest.(check bool) "sample_size" true (result_field line "sample_size" = Json.Int 1);
  Alcotest.(check bool) "population" true (result_field line "population" = Json.Int 1)

let test_server_stream_estimate_fresh () =
  with_server @@ fun state ->
  (* The first write converts the bound CSV relation (200 tuples,
     a = i mod 100) into a maintained stream; ids continue after it. *)
  let line =
    Server.handle_line state
      {|{"op": "ingest", "relation": "r", "insert": [{"a": 0}, {"a": 5}, {"a": 10}]}|}
  in
  Alcotest.(check bool)
    "ids continue after conversion" true
    (result_field line "first_id" = Json.Int 200);
  Alcotest.(check bool) "population" true (result_field line "population" = Json.Int 203);
  (* Default capacity 1024 >= population: the maintained sample is a
     census, so the served estimate is exact — and already reflects the
     batch that just landed: staleness 0 epochs, no rescan, no base
     rescan cost. *)
  let line = Server.handle_line state {|{"op": "estimate", "where": "a < 30"}|} in
  check_float "fresh exact count" 63. (point_of line);
  (* Epoch 1 was the conversion of the bound relation, epoch 2 this
     batch. *)
  Alcotest.(check bool) "epoch surfaced" true (result_field line "epoch" = Json.Int 2);
  Alcotest.(check bool)
    "no rescan needed" true
    (result_field line "needs_rescan" = Json.Bool false);
  Alcotest.(check bool)
    "maintained render" true
    (contains "maintained at epoch 2" (result_text line));
  (* The next batch is visible to the very next estimate. *)
  ignore
    (Server.handle_line state {|{"op": "ingest", "relation": "r", "insert": [{"a": 1}]}|});
  let line = Server.handle_line state {|{"op": "estimate", "where": "a < 30"}|} in
  check_float "still fresh" 64. (point_of line);
  (* Page sampling has no maintained analogue: explicit error. *)
  let message =
    error_message
      (Server.handle_line state {|{"op": "estimate", "where": "a < 30", "pages": 2}|})
  in
  Alcotest.(check bool) "pages on a stream errors" true (contains "maintained stream" message);
  (* An unknown filter attribute is named, as for a static relation. *)
  let message =
    error_message (Server.handle_line state {|{"op": "estimate", "where": "zz <= 3"}|})
  in
  Alcotest.(check string)
    "unknown attribute on a stream" {|Expr.schema_of: unknown attribute "zz" in selection|}
    message

let test_server_stream_query_overlay () =
  with_server @@ fun state ->
  let q = {|{"op": "query", "expr": "select[a < 30](r)", "fraction": 1.0, "groups": 1}|} in
  let before = result_text (Server.handle_line state q) in
  Alcotest.(check bool)
    "census before writes" true
    (contains "estimated COUNT: 60 " before);
  ignore
    (Server.handle_line state
       {|{"op": "ingest", "relation": "r",
          "insert": [{"a": 0}, {"a": 0}, {"a": 0}, {"a": 0}, {"a": 0}]}|});
  (* Same request line again: the cached pre-write plan must not be
     served — the plan key carries the stream epoch. *)
  let after = result_text (Server.handle_line state q) in
  Alcotest.(check bool) "overlay sees the batch" true (contains "estimated COUNT: 65 " after);
  let sql_text =
    result_text
      (Server.handle_line state
         {|{"op": "sql", "query": "SELECT COUNT(*) FROM r WHERE a < 30",
            "fraction": 1.0, "groups": 1}|})
  in
  Alcotest.(check bool) "sql sees the stream" true (contains "estimated COUNT: 65 " sql_text)

let test_server_stream_rescan () =
  with_server @@ fun state ->
  (* Creation-only batch with a small capacity bound at first touch:
     the conversion samples 20 of the 200 bound tuples. *)
  let line =
    Server.handle_line state
      {|{"op": "ingest", "relation": "r", "capacity": 20, "insert": [], "delete": []}|}
  in
  Alcotest.(check bool) "no-op batch" true (result_field line "first_id" = Json.Int (-1));
  Alcotest.(check bool) "converted" true (result_field line "population" = Json.Int 200);
  Alcotest.(check bool) "sampled" true (result_field line "sample_size" = Json.Int 20);
  (* Delete 199 of 200: the sample erodes to at most one survivor. *)
  let deletes = String.concat ", " (List.init 199 string_of_int) in
  let line =
    Server.handle_line state
      (Printf.sprintf {|{"op": "ingest", "relation": "r", "delete": [%s]}|} deletes)
  in
  Alcotest.(check bool) "eroded" true (result_field line "needs_rescan" = Json.Bool true);
  (* The metrics op surfaces the per-stream gauge and the maintenance
     counter. *)
  let line_m = Server.handle_line state {|{"op": "metrics"}|} in
  (match result_field line_m "streams" with
  | Json.List [ Json.Obj fields ] ->
    Alcotest.(check bool)
      "metrics needs_rescan" true
      (List.assoc "needs_rescan" fields = Json.Bool true);
    Alcotest.(check bool)
      "metrics population" true
      (List.assoc "population" fields = Json.Int 1)
  | _ -> Alcotest.fail "streams shape");
  (match result_field line_m "counters" with
  | Json.Obj counters -> (
    match List.assoc "maintenance_ops" counters with
    | Json.Int n -> Alcotest.(check bool) "maintenance counted" true (n >= 399)
    | _ -> Alcotest.fail "maintenance_ops shape")
  | _ -> Alcotest.fail "counters shape");
  (* Explicit rescan rebuilds the sample from the one live tuple. *)
  let line = Server.handle_line state {|{"op": "rescan", "relation": "r"}|} in
  Alcotest.(check bool) "restored" true (result_field line "needs_rescan" = Json.Bool false);
  Alcotest.(check bool)
    "sample = population" true
    (result_field line "sample_size" = Json.Int 1);
  (* The lone survivor is tuple 199, a = 99. *)
  let line = Server.handle_line state {|{"op": "estimate", "where": "a < 30"}|} in
  check_float "exact after rescan" 0. (point_of line)

(* Byte-level worker invariance for the streaming path: all randomness
   is drawn at write time in request order, so a 4-domain pool returns
   the same bytes as a single worker — including sampled (non-census)
   estimates over the maintained sample. *)
let test_server_stream_worker_invariance () =
  let script state =
    [
      {|{"op": "ingest", "relation": "r", "capacity": 50, "insert": [{"a": 3}, {"a": 7}]}|};
      {|{"op": "estimate", "where": "a < 30"}|};
      {|{"op": "insert", "relation": "r", "tuple": {"a": 12}}|};
      {|{"op": "estimate", "where": "a < 30"}|};
      {|{"op": "query", "expr": "select[a < 30](r)", "fraction": 0.5, "groups": 2}|};
      {|{"op": "delete", "relation": "r", "id": 0}|};
      {|{"op": "estimate", "where": "a < 30"}|};
    ]
    |> List.map (Server.execute state)
    |> String.concat "\n"
  in
  let one = with_server ~workers:1 @@ script in
  let four = with_server ~workers:4 @@ script in
  Alcotest.(check string) "streamed responses: 1 worker = 4 workers" one four

(* The determinism contract at the unit level: the same request line
   executed on pooled worker domains returns the same bytes as the
   embedder's single-threaded handle_line. *)
let test_server_worker_count_invariance () =
  let on_one_worker =
    with_server ~workers:1 @@ fun state ->
    result_text
      (Server.execute state {|{"op": "estimate", "where": "a < 30", "fraction": 0.2}|})
  in
  let on_four_workers =
    with_server ~workers:4 @@ fun state ->
    result_text
      (Server.execute state {|{"op": "estimate", "where": "a < 30", "fraction": 0.2}|})
  in
  let inline =
    with_server @@ fun state ->
    result_text
      (Server.handle_line state {|{"op": "estimate", "where": "a < 30", "fraction": 0.2}|})
  in
  Alcotest.(check string) "1 worker = 4 workers" on_one_worker on_four_workers;
  Alcotest.(check string) "pooled = inline" on_one_worker inline

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json numbers" `Quick test_json_numbers;
    prop_json_float_roundtrip;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "plan cache counters" `Quick test_cache_counters;
    Alcotest.test_case "plan cache lru" `Quick test_cache_lru;
    Alcotest.test_case "plan cache clear" `Quick test_cache_clear;
    Alcotest.test_case "ping and request ids" `Quick test_server_ping_and_ids;
    Alcotest.test_case "estimate parity" `Quick test_server_estimate_parity;
    Alcotest.test_case "filter grammar" `Quick test_server_filter_grammar;
    Alcotest.test_case "query and sql share plans" `Quick test_server_query_sql_share_plans;
    Alcotest.test_case "optimizer setting keys the plan cache" `Quick
      test_server_optimize_keys_cache;
    Alcotest.test_case "explain" `Quick test_server_explain;
    Alcotest.test_case "metrics and reload" `Quick test_server_metrics_and_reload;
    Alcotest.test_case "error contract" `Quick test_server_errors;
    Alcotest.test_case "overload and shutdown" `Quick test_server_overload_and_shutdown;
    Alcotest.test_case "plan cache concurrent hammer" `Quick test_cache_concurrent_hammer;
    Alcotest.test_case "plan cache single flight" `Quick test_cache_single_flight;
    Alcotest.test_case "plan cache failed compile" `Quick test_cache_failed_compile;
    Alcotest.test_case "plan cache eviction metrics" `Quick test_cache_eviction_metrics;
    Alcotest.test_case "warm sample cache" `Quick test_warm_sample_cache;
    Alcotest.test_case "warm sample cache concurrent" `Quick test_warm_sample_concurrent;
    Alcotest.test_case "reload during in-flight requests" `Quick
      test_server_reload_during_inflight;
    Alcotest.test_case "stream writes" `Quick test_server_stream_writes;
    Alcotest.test_case "stream capacity bounds without allocating" `Quick
      test_server_stream_capacity_bound;
    Alcotest.test_case "stream estimate is fresh" `Quick test_server_stream_estimate_fresh;
    Alcotest.test_case "stream query overlay" `Quick test_server_stream_query_overlay;
    Alcotest.test_case "stream rescan" `Quick test_server_stream_rescan;
    Alcotest.test_case "stream worker invariance" `Quick
      test_server_stream_worker_invariance;
    Alcotest.test_case "worker count invariance" `Quick
      test_server_worker_count_invariance;
  ]
