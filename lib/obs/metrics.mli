(** Pipeline observability: monotonic counters, per-operator timers and
    a lightweight span tree for the sampling/estimation hot paths.

    The module is self-contained (stdlib + [Unix.gettimeofday] only) so
    every layer of the system can depend on it.  A sink is either
    {e enabled} (a fresh value from {!create}) or the shared {!noop},
    whose recording functions return immediately — instrumented code
    threads an optional [?metrics] argument defaulting to {!noop}, so
    the disabled path costs one branch per record call.

    {2 Determinism contract}

    Counters are integers combined by addition, so any fixed set of
    per-replicate sinks merges to the same totals in any order: an
    estimator that gives each replicate its own {!child} sink and
    {!absorb}s them after the parallel join reports identical counter
    totals on [--domains 1] and [--domains N].  Timers and spans are
    wall-clock and are {e not} part of the contract — compare them with
    {!counters_equal}, which ignores both. *)

type t

(** Counter totals plus accumulated per-label timers (sorted by
    label).  Timers are in seconds. *)
type snapshot = {
  tuples_scanned : int;     (** base-relation tuples materialized or examined *)
  pages_read : int;
      (** pages actually fetched from disk by the pagefile reader.  This
          is {e real} I/O: fully in-memory runs report 0, and a page
          served by the reader's cache counts under [page_cache_hits]
          instead. *)
  bytes_read : int;         (** bytes fetched from disk (pagefile reader) *)
  io_batches : int;         (** read syscalls issued (coalesced page runs) *)
  page_cache_hits : int;    (** page requests served by the reader's cache *)
  sample_indices : int;     (** sample indices generated by the SRS kernels *)
  hash_probe_hits : int;    (** equi-join hash probes that found a bucket *)
  hash_probe_misses : int;  (** equi-join hash probes that found nothing *)
  rng_draws : int;          (** raw 64-bit PRNG draws consumed *)
  plan_cache_hits : int;
      (** estimation plans served from a prepared-plan cache without
          recompiling (the serve daemon's cache; 0 for one-shot runs) *)
  plan_cache_misses : int;  (** plan-cache lookups that had to compile *)
  plan_cache_evictions : int;
      (** prepared plans dropped by LRU pressure (capacity reached);
          reload invalidation does not count — cleared entries were not
          evicted by sizing *)
  plans_considered : int;
      (** candidate sampling placements enumerated and costed by the
          sampling-algebra planner ({!Raestat.Planner}); 0 when
          optimization is off *)
  maintenance_ops : int;
      (** sample-maintenance operations applied by the streaming path:
          each insert/delete absorbed by a maintained reservoir,
          Bernoulli or window sample counts once, as does each tuple
          rebuilt by an explicit rescan.  0 for static relations *)
  timers : (string * float) list;
}

(** Completed span tree node: children appear in completion order. *)
type span = {
  name : string;
  seconds : float;
  children : span list;
}

(** The shared disabled sink: every recording call is a no-op. *)
val noop : t

(** A fresh enabled sink with all counters at zero. *)
val create : unit -> t

val enabled : t -> bool

(** [child t] is a fresh enabled sink when [t] is enabled, {!noop}
    otherwise.  Hand one to each parallel replicate, then {!absorb}
    them in replicate order. *)
val child : t -> t

(** [absorb dst src] adds [src]'s counters and timers into [dst]
    (spans of [src] are discarded: replicate interiors overlap in wall
    time and have no meaningful tree position).  No-op when [dst] is
    disabled. *)
val absorb : t -> t -> unit

(** [add_snapshot dst s] adds a snapshot's counters and timers into a
    live sink — the bridge for structures that own their own sink (a
    maintained stream's maintenance accounting) whose {e deltas} are
    attributed to the requests that caused them: snapshot around the
    operation, {!diff}, then [add_snapshot] the difference.  No-op when
    [dst] is disabled. *)
val add_snapshot : t -> snapshot -> unit

(** {1 Recording} *)

val add_tuples : t -> int -> unit
val add_pages : t -> int -> unit
val add_bytes_read : t -> int -> unit
val add_io_batches : t -> int -> unit
val add_page_cache_hits : t -> int -> unit
val add_indices : t -> int -> unit
val probe_hit : t -> unit
val probe_miss : t -> unit

(** [add_probes t ~hits ~misses] records a batch of join probes at
    once: the same totals as [hits] {!probe_hit}s and [misses]
    {!probe_miss}es, for a probe loop that tallies them in locals. *)
val add_probes : t -> hits:int -> misses:int -> unit
val add_rng_draws : t -> int -> unit
val plan_cache_hit : t -> unit
val plan_cache_miss : t -> unit
val plan_cache_eviction : t -> unit
val add_plans_considered : t -> int -> unit
val add_maintenance_ops : t -> int -> unit

(** [time t label f] runs [f ()], adding its wall-clock duration to the
    accumulated timer for [label].  Exception-safe; just [f ()] when
    disabled. *)
val time : t -> string -> (unit -> 'a) -> 'a

(** [with_span t name f] runs [f ()] inside a new span: spans opened
    during [f] become children.  Exception-safe; just [f ()] when
    disabled. *)
val with_span : t -> string -> (unit -> 'a) -> 'a

(** Completed top-level spans, in completion order. *)
val spans : t -> span list

(** {1 Snapshots} *)

val snapshot : t -> snapshot

(** [diff later earlier] subtracts counter-wise and timer-wise: what
    happened between two snapshots of the same sink. *)
val diff : snapshot -> snapshot -> snapshot

(** Counter-wise and timer-wise sum (deterministic for counters:
    integer addition commutes). *)
val merge : snapshot -> snapshot -> snapshot

val zero : snapshot

(** The fourteen counters by name, in the order every report prints
    them (the counters object of {!snapshot_to_json} and of the serve
    daemon's [metrics] reply). *)
val counters : snapshot -> (string * int) list

(** Equality of the fourteen counters only — wall-clock timers excluded.
    This is the relation the [--domains] determinism contract
    guarantees. *)
val counters_equal : snapshot -> snapshot -> bool

(** {1 JSON}

    Schema ["raestat-metrics/1"]: an object with a ["counters"] object
    (the fourteen counter fields, emitted on a single line so text tools
    can compare runs), a ["timers"] array of [{label, seconds}] and — when
    [include_spans] (default false) — a ["spans"] array of
    [{name, seconds, children}] trees. *)

val snapshot_to_json : snapshot -> string

val to_json : ?include_spans:bool -> t -> string

(** [escape s] is [s] ready to sit inside a quoted JSON string: a
    backslash goes before each double quote and each backslash, and
    every other byte below 0x20 is written as a [\u00XX] escape.  The
    one escaper of the hand-rendered JSON reports (metrics, explain,
    planner, bench). *)
val escape : string -> string
