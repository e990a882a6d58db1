(** raestat serve: a long-running estimation daemon.

    Speaks newline-delimited JSON over a Unix-domain or loopback TCP
    socket.  One request object per line, one response object per line:

    {v
    → {"op": "estimate", "id": 1, "relation": "r", "where": "a <= 40",
       "fraction": 0.02, "level": 0.95, "seed": 42}
    ← {"id": 1, "ok": true, "result": {"text": "estimated COUNT: ...", "point": ...}}
    v}

    Ops: [ping], [estimate], [query], [sql], [explain], [insert],
    [delete], [ingest], [rescan], [metrics], [reload], [shutdown].
    Missing numeric fields default to the CLI defaults (seed 42,
    fraction 0.01, level 0.95, groups 5), and the [text] result field
    is byte-identical to the one-shot CLI's stdout for the same
    arguments and seed — both front ends render through {!Engine}.  An
    [estimate] request with a ["pages"] integer field runs page-level
    cluster sampling over the relation's retained paged view (the
    served analogue of [--pages M]).

    {2 Streaming writes}

    The write ops mutate a {e maintained stream}
    ({!Raestat.Stream_relation}) for the named relation, created on
    first write: a name bound in the catalog converts by ingesting its
    tuples (in relation order), an unbound name infers its schema from
    the first inserted tuple (sorted field names).  Stream parameters
    ([seed], [capacity], [bernoulli], [window]) bind at first touch.

    - [insert] [{relation, tuple}] → [{id, epoch, population, ...}]
    - [delete] [{relation, id}] → [{deleted, epoch, ...}]
    - [ingest] [{relation, insert: [tuple...], delete: [id...]}] —
      batched: one epoch bump, ids assigned in array order
    - [rescan] [{relation}] — rebuild the eroded backing sample from
      the live population (the only write op that scans base data)

    An [estimate] for a streamed relation is answered from its
    maintained backing sample — fresh at the stream's current epoch,
    with {e no} base-table rescan — and the response carries [epoch],
    [population], [sample_size] and [needs_rescan] alongside
    [text]/[point].  [query]/[sql] see streamed relations through a
    per-request catalog overlay of their epoch-memoized snapshots
    (cached plans are keyed by stream epochs, so they never go stale).
    The [metrics] op reports per-stream status rows under ["streams"],
    including [needs_rescan].  Writes serialize per stream and draw
    all randomness at write time, so responses stay worker-count
    invariant; [reload] drops streams with the rest of the warm
    state.

    {2 Concurrency and determinism}

    One thread per connection; estimation runs on a pool of [workers]
    worker domains ({!Pool}) over an immutable shared view of the
    catalog.  The determinism contract: a response is a function of the
    request fields (seed included) and the catalog generation only —
    independent of [workers], of arrival order, and of which worker
    served it.  Each request gets a fresh RNG seeded from its [seed]
    field; warm caches only ever substitute values that are pure
    functions of their keys ({!Warm}); per-worker metrics sinks absorb
    integer counters, which commute, so the lifetime snapshot is
    schedule-independent too (float timings are not pinned).

    Admission is a bounded queue: beyond [queue_limit]
    waiting-or-running requests, new ones are rejected immediately with
    [{"ok": false, "error": "overloaded"}] without parsing.

    {2 Plan cache and warm state}

    Compiled estimation plans are cached per query shape
    ({!Engine.selection_key} / {!Engine.expr_key}) in a sharded,
    single-flight LRU ({!Plan_cache}); hits skip Expr →
    {!Raestat.Estplan} compilation and concurrent same-shape misses
    compile once.  Cache keys are prefixed with the catalog generation,
    so plans compiled against a pre-reload catalog never serve
    post-reload requests.  [reload] builds a fresh {!Warm.t} (columnar
    views forced, pagefiles reopened, empty sample cache), swaps it in,
    and clears the plan cache; in-flight requests keep the view they
    retained until they finish. *)

type listen =
  | Unix_socket of string  (** path; unlinked before bind and after close *)
  | Tcp of int  (** loopback port; 0 picks an ephemeral port *)

type config = {
  listen : listen;
  bindings : (string * string) list;  (** relation name → CSV/.raf path *)
  plan_capacity : int;  (** prepared-plan cache entries (> 0) *)
  queue_limit : int;
      (** max requests waiting or running before fast reject (>= 0;
          0 rejects everything — useful for testing the reject path) *)
  workers : int;  (** worker domains executing requests (>= 1) *)
}

(** Totals over the server's lifetime, returned by {!run} and exposed
    by the [metrics] op. *)
type stats = {
  requests : int;  (** lines answered (errors included, overloads excluded) *)
  errors : int;
  overloaded : int;  (** fast rejects *)
}

(** {1 Request core (socket-free, for tests and embedding)} *)

type state

(** Load the catalog (forcing warm state — see {!Warm.load}) and build
    an idle server state.  Worker domains are spawned lazily on the
    first {!execute}, so a state used only through {!handle_line}
    never starts any.
    @raise Invalid_argument on a bad
    [plan_capacity]/[queue_limit]/[workers].
    @raise Sys_error when a bound file cannot be read. *)
val create_state : config -> state

(** Shut the worker pool down (draining queued requests) and drop the
    state's own reference to the current warm view, closing retained
    pagefiles once in-flight readers finish.  Idempotent.  {!run}
    calls this on exit; direct users of {!create_state} should call it
    when done. *)
val destroy_state : state -> unit

(** [handle_line state line] parses and answers one request line on
    the calling thread (no admission control, no worker pool — its
    metrics land on the embedder's base sink).  Always returns a
    one-line JSON response, never raises. *)
val handle_line : state -> string -> string

(** [execute state line] is {!handle_line} behind admission control,
    dispatched onto a worker domain — what connection threads call. *)
val execute : state -> string -> string

val stats : state -> stats

(** True once a [shutdown] request (or signal) was seen. *)
val stopping : state -> bool

(** The plan cache (for tests: size/hits/misses/evictions assertions). *)
val plans : state -> Plan_cache.t

(** {1 The daemon} *)

(** [run config] listens, serves until [shutdown]/SIGINT/SIGTERM, then
    closes the listener, wakes blocked connection threads, joins them,
    shuts the worker pool down and releases the warm state.  [on_ready]
    is called with the bound address once the socket is listening (for
    ephemeral-port discovery and ready lines).  [on_stop] is called
    with the lifetime metrics snapshot after the last request finishes,
    before the state is destroyed ([--metrics-out]).  [handle_signals]
    (default true) installs SIGINT/SIGTERM handlers that request a
    clean stop; pass false when embedding the server in a host process
    (e.g. the bench harness).  SIGPIPE is always ignored — client
    hangups surface as write errors on that connection only. *)
val run :
  ?handle_signals:bool ->
  ?on_ready:(Unix.sockaddr -> unit) ->
  ?on_stop:(Obs.Metrics.snapshot -> unit) ->
  config ->
  stats
