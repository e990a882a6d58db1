(** Shared request engine for the one-shot CLI and the serve daemon.

    Both front ends answer `estimate`/`query`/`sql`/`explain` by
    calling the functions here, so the rendered text is byte-identical
    by construction: the serve conformance suite compares daemon
    responses against one-shot CLI output with [cmp].

    The functions accept an optional {!Plan_cache.t}.  With a cache,
    Expr → {!Raestat.Estplan} compilation is skipped for repeated query
    shapes (the daemon's prepared-plan cache); without one, every call
    compiles fresh (the one-shot CLI).  Results are identical either
    way — a cached plan re-run draws from the same RNG stream, and a
    run writes nothing into the (immutable) plan. *)

(** {1 Input parsing and loading} *)

(** A filter in the predicate grammar of [select[…]] and SQL [WHERE]
    ({!Relational.Parser.parse_predicate}): comparisons joined by [and],
    [or] and [not], strings in quotes ([name = 'alice']), bare words
    as attribute names. *)
val parse_predicate : string -> (Relational.Predicate.t, [ `Msg of string ]) result

(** Like {!parse_predicate} but raising [Failure] (serve error path). *)
val predicate_of_string : string -> Relational.Predicate.t

(** ["NAME=PATH"] → [(name, path)]. @raise Failure otherwise. *)
val parse_binding : string -> string * string

val is_pagefile : string -> bool

(** Load one relation, dispatching on extension: [*.raf] through the
    paged reader (real I/O, charged to [metrics]), anything else as
    in-memory CSV. *)
val load_relation : ?metrics:Obs.Metrics.t -> string -> Relational.Relation.t

val load_catalog :
  ?metrics:Obs.Metrics.t -> (string * string) list -> Relational.Catalog.t

(** {1 Validation}

    Same messages as the historical CLI guards; both route into the
    [raestat: error:] / exit-3 contract there and into JSON error
    responses in the daemon. *)

val check_fraction : float -> unit
val check_unit_open : option:string -> float -> unit

(** The [--level] of a normal interval: inside (0, 1), and far enough
    below 1 that [(1 + level) / 2], where the interval reads the normal
    quantile, does not round to 1 (so [0.9999999999999999] is refused).
    [estimate], stream estimates and page estimates check it first. *)
val check_level : float -> unit

(** Rejects [groups] below 1 or above 10,000, the most replicate groups
    a [query], [sql] or explain accepts. *)
val check_groups : int -> unit

(** {1 Plan-cache keys}

    Normalized strings: the canonical {!Relational.Parser.print_expr}
    rendering (or the predicate's [to_string]) plus every compile
    parameter that shapes the plan.  Two spellings of the same
    expression — including a SQL query and its algebra translation —
    share a key. *)

val selection_key : relation:string -> n:int -> Relational.Predicate.t -> string

(** [optimize] is the {e effective} optimizer setting (request flag
    folded with the kill switch) and is part of the key, together with
    {!Raestat.Planner.optimizer_version} when on: optimized and
    root-sampling plans for the same expression never share a cache
    entry, and bumping the cost model retires stale optimized plans. *)
val expr_key :
  fraction:float -> groups:int -> optimize:bool -> Relational.Expr.t -> string

(** {1 Estimation}

    Each function returns the exact text the one-shot CLI prints
    (trailing newline included) plus the estimate and the effective
    expression for follow-up work ([--check], structured fields). *)

type result = {
  text : string;
  estimate : Stats.Estimate.t;
  expr : Relational.Expr.t;  (** effective expression (post SQL rewrite) *)
}

(** Row-level sampled COUNT of a filter ([raestat estimate] without
    [--pages]).  [plan_prefix] (default [""]) namespaces the plan-cache
    key — the daemon prefixes the catalog generation so plans compiled
    against a pre-reload catalog never serve post-reload requests.
    [index_source] (daemon warm cache) may substitute the SRSWOR index
    draw; see {!Raestat.Estplan.index_source} — results are
    bit-identical either way.
    @raise Failure before anything runs when the filter reads an
    attribute the relation lacks, with {!Relational.Expr.schema_of}'s
    message (as [query] and [sql] report it). *)
val estimate :
  ?metrics:Obs.Metrics.t ->
  ?plans:Plan_cache.t ->
  ?plan_prefix:string ->
  ?index_source:Raestat.Estplan.index_source ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  relation:string ->
  fraction:float ->
  level:float ->
  Relational.Predicate.t ->
  result

(** Filter COUNT answered from a maintained stream's backing sample —
    the fresh-under-writes path: never rescans the live store, reports
    the stream's epoch in the sampled-line, and appends a rescan note
    when deletions have eroded the sample.  Reads draw no randomness,
    so the text is a pure function of stream state.  Shared by the
    daemon's stream-aware ["estimate"] and [raestat ingest --where].
    Contract of {!Raestat.Stream_relation.estimate_count} (exact 0 on
    an empty population, [Failure] once the sample is exhausted but
    tuples remain — callers surface the rescan instruction).  An
    unknown filter attribute fails first, as in {!estimate}. *)
val estimate_stream :
  ?metrics:Obs.Metrics.t ->
  relation:string ->
  level:float ->
  Raestat.Stream_relation.t ->
  Relational.Predicate.t ->
  result

(** Page-level (cluster-sampled) COUNT of a filter ([raestat estimate
    --pages M] and the daemon's ["pages"] field): draw [m] whole pages
    from the paged view, expand by M/m.  [relation] only names the
    base in the returned [expr].  Never plan-cached — there is no
    compile step to save.  An unknown filter attribute fails first, as
    in {!estimate}. *)
val estimate_pages :
  ?metrics:Obs.Metrics.t ->
  Sampling.Rng.t ->
  relation:string ->
  m:int ->
  level:float ->
  Relational.Paged.t ->
  Relational.Predicate.t ->
  result

(** COUNT of a relational algebra expression ([raestat query]).
    [optimize] (default [false]) routes the compile through the
    cost-based sampling planner ({!Raestat.Planner.choose_sampling});
    the [RAESTAT_NO_OPTIMIZE] kill switch forces it back off, sharing
    cache entries with plain requests. *)
val query :
  ?metrics:Obs.Metrics.t ->
  ?plans:Plan_cache.t ->
  ?plan_prefix:string ->
  ?domains:int ->
  ?optimize:bool ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  fraction:float ->
  groups:int ->
  Relational.Expr.t ->
  result

(** COUNT of a SQL query's result ([raestat sql]): parse, optimize,
    rewrite [SELECT COUNT( * )] to its inner expression, estimate.
    [optimize] as in {!query}. *)
val sql :
  ?metrics:Obs.Metrics.t ->
  ?plans:Plan_cache.t ->
  ?plan_prefix:string ->
  ?domains:int ->
  ?optimize:bool ->
  Sampling.Rng.t ->
  Relational.Catalog.t ->
  fraction:float ->
  groups:int ->
  string ->
  result

(** {1 Explain}

    Fresh compiles (never cached), so daemon explain prints what the
    one-shot CLI compiles from the current catalog, byte for byte, and
    leaves the cache's hit and miss counters alone. *)

val explain_selection :
  Relational.Catalog.t ->
  relation:string ->
  fraction:float ->
  Relational.Predicate.t ->
  Raestat.Estplan.t

(** The optimizer's decision for an expression: every candidate with
    predicted variance/cost and the winner's executable plan
    ({!Raestat.Planner.render_choice} / [choice_to_json] render it).
    Fresh (never cached) like the other explains. *)
val explain_expr_optimized :
  ?metrics:Obs.Metrics.t ->
  Relational.Catalog.t ->
  fraction:float ->
  groups:int ->
  Relational.Expr.t ->
  Raestat.Planner.choice

(** What [raestat explain query|sql] prints and the daemon's [explain]
    op returns for an expression, byte for byte: with [optimize] the
    planner's choice ({!explain_expr_optimized}; [raestat-explain/2]
    with [json]), otherwise the tree ({!plan_text}) of the plan
    {!Raestat.Estplan.compile} builds.  The kill switch
    {!Raestat.Planner.optimize_enabled} forces the plan tree.  The text
    ends with a newline in both forms. *)
val explain_text :
  optimize:bool ->
  json:bool ->
  Relational.Catalog.t ->
  fraction:float ->
  groups:int ->
  Relational.Expr.t ->
  string

(** A plan's tree ({!Raestat.Estplan.render}, or [raestat-explain/1]
    with [json]), ending with a newline as {!explain_text} does: how
    both front ends print the plans of [explain estimate] and the CLI's
    [explain join]. *)
val plan_text : json:bool -> Raestat.Estplan.t -> string

(** SQL → effective algebra expression (optimized, COUNT( * ) rewritten). *)
val sql_expr : Relational.Catalog.t -> string -> Relational.Expr.t
