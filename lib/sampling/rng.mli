(** Deterministic pseudo-random number generator.

    xoshiro256++ seeded through SplitMix64 — self-contained so every
    experiment in the repository is reproducible bit-for-bit regardless
    of the OCaml stdlib's generator.  Not cryptographic.

    The four state words are kept unboxed (one 32-byte buffer), so the
    integer draws ({!int}, {!bool}, the index samplers built on them)
    allocate nothing; {!float} boxes only its result. *)

type t

(** [create ~seed ()] builds a generator.  Equal seeds give equal
    streams. *)
val create : seed:int -> unit -> t

(** Independent copy: advancing one does not affect the other (the
    draw counter is copied too). *)
val copy : t -> t

(** Number of raw 64-bit draws this generator has produced since it was
    created (or copied).  Children from {!split} start at 0.  Seed and
    stream position fully determine the count, so it is identical on
    every run and every domain layout — the metrics layer reports
    deltas of this counter as the "RNG draws" cost. *)
val draws : t -> int

(** Derive a statistically independent generator from this one
    (consumes one draw from the parent).  Use to give each replication
    of an experiment its own stream. *)
val split : t -> t

(** Raw 64 uniformly random bits. *)
val bits64 : t -> int64

(** [int t bound] is uniform on [0, bound), to within 2{^-61} in any
    probability, by rejection on the low 62 bits of a draw.  One
    hardware division per call: a draw at or under
    [max_int - bound + 1] is accepted without computing the rejection
    limit, which only draws among the top [bound - 1] values need.
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [int_run t out ~bound k] writes [out.(i) = int t (bound + i)] for
    [i = 0 .. k - 1], in order, from exactly the raw draws (and the
    {!draws} count) those [k] calls would use, so it can replace them
    without moving the stream.  The generator stays in registers for
    the whole run, where each {!int} call loads and stores it.
    @raise Invalid_argument if [bound <= 0], [k] is outside
    [0, Array.length out], or [bound + k - 1] overflows. *)
val int_run : t -> int array -> bound:int -> int -> unit

(** Uniform float in [0, 1) with 53 bits of precision. *)
val float : t -> float

(** Uniform float in [0, 1) strictly above 0 (safe for [log]). *)
val positive_float : t -> float

val bool : t -> bool

(** Standard normal deviate (Box–Muller, polar form). *)
val gaussian : t -> float

(** In-place Fisher–Yates shuffle. *)
val shuffle_in_place : t -> 'a array -> unit

(** Uniformly random element.
    @raise Invalid_argument on an empty array. *)
val choose : t -> 'a array -> 'a
