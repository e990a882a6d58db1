(** A bounded pool of large int arrays, so that the arrays a replicate
    makes and drops (a draw's bitset and row ids, a join's key table and
    selection vector) are reused by the next replicate or request
    instead of being allocated on the major heap each time.

    [take n] is [Array.make n 0]: a fresh array, or one of exactly
    [n] elements that the pool held, zeroed.  Exact length keeps every
    [Array.length] reader's meaning, and the lengths repeat: a
    universe's bitset, a leaf's sample size and a join's key range are
    the same for every replicate of an estimate.

    Ownership: the array [take] returns belongs to its caller alone.
    The caller may hand it back with [free] once nothing will read or
    write it again; after [free] it belongs to the pool, which may give
    it to the next taker.  An array never freed is an ordinary array
    the GC reclaims, so a holder that keeps an array, or an exception
    between [take] and [free], costs only the reuse.  Freeing an array
    that is still read, or freeing it twice, hands one array to two
    holders.

    Only arrays longer than {!min_words} and at most {!max_words} are
    pooled, in {!slots} slots: shorter arrays are cheap minor-heap
    allocations, and the cap bounds what the pool retains.  Every other
    length passes through [take] and [free] untouched.

    The slots are atomics shared by every domain and thread: a taker
    claims a slot's array with one [Atomic.compare_and_set], so no two
    takers get the same array, whether they run on two domains or on
    two systhreads of one domain. *)

(** [256], OCaml's [Max_young_wosize]: an array of at most this many
    words is allocated on the minor heap, which costs about a pointer
    bump, so it bypasses the pool. *)
val min_words : int

(** [65536] (2{^16}) words, 512 KiB: the longest array pooled.  The
    arrays of a served join run from 2,000 to 10,000 words. *)
val max_words : int

(** [8]: the number of arrays the pool holds at most.  A chain of two
    joins has up to five pooled arrays in flight in one replicate (a
    draw's bitset while its row ids fill, the ids and the selection
    vector probing a key table); eight leaves room for the lengths of
    the other request shapes a daemon serves.  With {!max_words}, the
    pool retains at most 4 MiB. *)
val slots : int

(** [take n] is an array of exactly [n] zeros that no one else holds.
    @raise Invalid_argument if [n < 0], as [Array.make]. *)
val take : int -> int array

(** [free a] hands [a] to the pool; the caller must not use it again.
    When every slot is taken, it replaces the array of one slot, in
    turn, so the pool follows the lengths in use. *)
val free : int array -> unit

(** The words the pool holds now: at most [slots * max_words]. *)
val retained : unit -> int
