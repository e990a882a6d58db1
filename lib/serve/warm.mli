(** Warm per-relation estimation state for the serve daemon.

    One value of this type is built per catalog load (startup and each
    [reload]); it packages, per bound relation:

    - the in-memory relation (via {!catalog}) with its {e columnar
      view created at load time} ({!Relational.Relation.warm_view}).
      Creating it encodes nothing; it makes the relation's samples
      read in place on its columns, each encoded once, on first touch,
      instead of encoding their own rows per request;
    - a retained {e paged view} — for [.raf] bindings the pagefile
      stays open for this state's lifetime, so the reader's clock page
      cache persists across ["pages"] requests (repeat page-sampled
      estimates are served from memory, visible as [page_cache_hits]
      instead of [pages_read]);
    - a bounded LRU {e backing-sample cache}: SRSWOR index sets keyed
      by [relation × mode × n × universe × seed].  The draw is a pure
      function of that key, so a cached set is byte-for-byte the set
      the request would have drawn — serving it changes no response
      bits, only skips the draw work (and its [rng_draws] /
      [sample_indices] accounting, consistent with the real-work
      metrics discipline).

    {2 Invalidation and lifetime}

    There is no in-place invalidation: a [reload] builds a {e new}
    warm state, so every cache here is generation-scoped by
    construction.  Lifetime is refcounted — {!load} returns the owner
    reference, each in-flight request {!retain}s the state it reads
    and {!release}s it when done; the pagefiles close when the last
    reference drops, so a reload never yanks pages from under an
    in-flight page-sampled estimate.

    All operations are thread- and domain-safe. *)

type t

type sample_stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;  (** cached index sets *)
  capacity : int;
}

(** Load every binding (same dispatch as {!Engine.load_relation}:
    [.raf] through the paged reader — kept open — anything else as
    CSV) and force the columnar views.  [sample_capacity] (default
    128) bounds the backing-sample LRU; 0 disables it.  The returned
    state holds the owner reference.
    @raise Invalid_argument when [sample_capacity < 0].
    @raise Sys_error / [Failure] as the underlying loaders do. *)
val load :
  ?metrics:Obs.Metrics.t ->
  ?sample_capacity:int ->
  ?page_capacity:int ->
  (string * string) list ->
  t

val catalog : t -> Relational.Catalog.t

(** Take / drop a reference.  {!release} of the last reference closes
    the retained pagefiles. *)
val retain : t -> unit

val release : t -> unit

(** Cached (or freshly drawn and published) SRSWOR index set; [draw]
    runs outside the cache lock on a miss.  The returned array is
    shared read-only state — callers must not mutate it. *)
val sample_indices :
  t ->
  relation:string ->
  seed:int ->
  n:int ->
  universe:int ->
  (unit -> int array) ->
  int array

(** {!sample_indices} curried into the shape {!Raestat.Estplan.run}
    accepts. *)
val index_source : t -> relation:string -> seed:int -> Raestat.Estplan.index_source

val sample_stats : t -> sample_stats

(** Run [f] on the relation's retained paged view, holding its I/O
    lock (the paged reader shares decode buffers; page-sampled
    requests for one relation serialize, different relations don't).
    @raise Failure (["unknown relation"]) for an unbound name. *)
val with_paged : t -> string -> (Relational.Paged.t -> 'a) -> 'a

(** {2 Maintained streams}

    Relations that have been written to ([insert] / [delete] /
    [ingest]) are backed by a {!Raestat.Stream_relation}: the live
    population plus its maintained samples, serialized by a
    per-stream mutex.  All randomness is drawn at write time in
    operation order, so served reads are worker-count-invariant.
    Streams are scoped to this warm state — a [reload] starts from
    the (re)loaded static bindings with no streams. *)

type stream_info = {
  stream_name : string;
  stream_epoch : int;
  stream_population : int;
  stream_sample_size : int;
  stream_fill_ratio : float;
  stream_needs_rescan : bool;
}

(** Has this relation been converted to a maintained stream? *)
val has_stream : t -> string -> bool

(** Find-or-create the stream for [relation] (single-flight under the
    table lock); [true] when this call created it.  A name bound in
    the static catalog converts by ingesting its tuples in relation
    order — deterministic, so every worker layout converges on the
    same stream state.  An unbound name requires [schema].
    Creation parameters ([seed], [capacity], [bernoulli], [window])
    bind at first touch; later calls reuse the existing stream.
    Returns whether this call created the stream, plus the
    maintenance-counter delta of the conversion (zero for an existing
    stream) for attribution to the creating request.
    @raise Failure when the name is unbound and [schema] is [None]. *)
val ensure_stream :
  t ->
  relation:string ->
  seed:int ->
  capacity:int ->
  ?bernoulli:float ->
  ?window:int ->
  schema:Relational.Schema.t option ->
  unit ->
  bool * Obs.Metrics.snapshot

(** Run [f] on the named stream under its lock; returns [f]'s result
    plus the maintenance-counter delta it produced (snapshot/diff of
    the stream's own sink) for attribution to the calling request via
    {!Obs.Metrics.add_snapshot}.
    @raise Failure when no stream exists for the name. *)
val with_stream :
  t -> string -> (Raestat.Stream_relation.t -> 'a) -> 'a * Obs.Metrics.snapshot

(** Per-stream status rows, sorted by name. *)
val stream_infos : t -> stream_info list
