(** Multicore replicate engine.

    A small [Domain]-based fork/join layer for the replicated
    estimators: chunked [map]/[init] over OCaml 5 domains with a
    graceful serial fallback when [domains <= 1] (or when the input is
    too small to be worth splitting).

    {2 Reproducibility contract}

    {!replicate_init} derives one child generator per replicate from
    the caller's {!Sampling.Rng.t} via [Rng.split], {e serially and in
    replicate order}, before any domain is spawned.  Replicate [i]
    therefore sees the same stream — and the parent generator advances
    by the same [g] draws — whatever the domain count.  Same seed +
    same [groups] gives bit-identical points and variances on
    [domains:1] and [domains:N]. *)

(** Number of domains worth using on this machine
    ([Domain.recommended_domain_count]).  Always at least 1. *)
val auto : unit -> int

(** [map ~domains f xs] — [Array.map f xs], computed in [domains]
    contiguous chunks on separate domains.  [f] must be safe to run
    concurrently with itself on distinct elements.  Exceptions raised
    by [f] are re-raised in the caller.  Serial when [domains <= 1] or
    [Array.length xs <= 1]. *)
val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

(** [init ~domains n f] — [Array.init n f] with the same chunking and
    the same caveats as {!map}.  [f] receives indices in [0, n). *)
val init : ?domains:int -> int -> (int -> 'a) -> 'a array

(** [chunked_init ~domains n f] — like {!init} but [f start len]
    produces one whole chunk as an array ([start] is the chunk's first
    index, [len] its length); chunks are concatenated in index order.
    Lets workers reuse per-chunk scratch buffers. *)
val chunked_init : ?domains:int -> int -> (int -> int -> 'a array) -> 'a array

(** [replicate_init ~domains rng n f] — [f child i] for each replicate
    [i] in [0, n), where [child] is the [i]-th [Rng.split] of [rng]
    (split serially before spawning; see the reproducibility
    contract).  The workhorse behind every replicated estimator. *)
val replicate_init :
  ?domains:int -> Sampling.Rng.t -> int -> (Sampling.Rng.t -> int -> 'a) -> 'a array
