(** In-memory relations: a schema plus a bag (multiset) of tuples.

    Relations are immutable once built.  Classical relational algebra
    treats relations as sets; this representation keeps duplicates (bag
    semantics) because the estimators need to reason about raw tuple
    counts, and exposes {!distinct} / {!is_set} for set-semantics
    operators. *)

type t

(** [make schema tuples] checks every tuple against the schema (arity and
    per-position type; [Null] is accepted at any type).
    @raise Invalid_argument on mismatch. *)
val make : Schema.t -> Tuple.t list -> t

(** Unchecked fast path used by generators and operators that construct
    well-typed tuples by construction. *)
val of_array : Schema.t -> Tuple.t array -> t

(** [masked schema base mask ~live] is the bag of rows [base.(k)] at
    the set bits [k] of [mask], in increasing [k], sharing [base]'s
    tuples.  [live] must be the number of set bits: {!cardinality}
    answers from it, so building the relation and asking its size read
    neither [mask] nor [base].  The first read of a tuple, a {!sample}
    or the {!columnar} view resolves the mask to row ids, in one
    {!Column.Bitset.positions} pass sized by [live], and from then on
    the relation is {!sample} of [base] at those ids.  Neither [mask]
    nor [base] below the mask's length may be mutated afterwards: a
    stream snapshot passes a copy of its store's mask over the store's
    row array.
    @raise Invalid_argument if [mask] is longer than [base], and on
    that first read if [live] is not the number of set bits. *)
val masked : Schema.t -> Tuple.t array -> Column.Bitset.t -> live:int -> t

val schema : t -> Schema.t

val cardinality : t -> int

val is_empty : t -> bool

val tuples : t -> Tuple.t array

val tuple : t -> int -> Tuple.t

val iter : (Tuple.t -> unit) -> t -> unit

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val filter : (Tuple.t -> bool) -> t -> t

val map : Schema.t -> (Tuple.t -> Tuple.t) -> t -> t

(** Number of tuples satisfying the predicate. *)
val count : (Tuple.t -> bool) -> t -> int

(** [sample r ids] is the bag of rows [ids] of [r], in that order (ids
    may repeat), sharing [r]'s tuples.  The array of them is gathered
    on the first read of a tuple, so a sample that only kernels read
    never builds it.  Sampling builds no columnar view: when [r]
    already has one (see {!warm_view}), {!source} hands columnar
    readers [r] and [ids], and they read [r]'s columns at those ids in
    place.  A sample asked for its own {!columnar} view encodes its
    tuples, like any relation.  A sample of a sample composes the row
    ids: it gathers from the first base at [a.(b.(i))] without building
    the inner sample's tuples, so a draw from a sample reads only the
    rows it drew, and its source is the first base.  A sample of a
    {!masked} relation (a stream snapshot) first resolves the mask to
    row ids, once, and then composes them the same way.
    @raise Invalid_argument if an id is out of range. *)
val sample : t -> int array -> t

(** Where a columnar reader finds the rows of [r]: [(base, Some ids)]
    when [r] is a {!sample} at row ids [ids] (composed through samples
    of samples) of a relation [base] that had a columnar view when it
    was sampled, so that row [k] of [r] is row [ids.(k)] of [base];
    [(r, None)] for every other relation. *)
val source : t -> t * int array option

(** The relation's columnar view (see {!Column}), built lazily and
    memoized; repeated calls return the same view, and its per-column
    encodings are shared by every kernel consumer. *)
val columnar : t -> Column.t

(** Cardinality at and above which the selection kernels engage: below
    it, compiling a predicate and encoding columns costs more than the
    per-row win.  It governs {!count_pred}, {!filter_pred}, {!warm_view}
    and {!Physical}'s selections over its leaves, judged for a sample
    read in place on its base (see {!source}); {!Physical}'s join
    counts read key columns at any size. *)
val kernel_threshold : int

(** Create the columnar view now, iff the relation is at or above
    {!kernel_threshold}; otherwise a no-op.  Creating a view encodes no
    column.  It marks the relation as a long-lived base worth encoding
    once: from then on its {!sample}s are read in place on its columns
    (see {!source}) instead of encoding their own tuples.  Long-lived
    catalogs (the serve daemon's) call this at load time; a relation rebuilt
    often (a stream snapshot) should not: warming a {!masked} relation
    resolves its mask and gathers every tuple, which is the cost a
    snapshot that no query reads is built to avoid. *)
val warm_view : t -> unit

(** [count_pred p r] counts tuples satisfying the predicate, through
    the compiled columnar kernel ({!Kernel.count}) when [r] is at or
    above {!kernel_threshold} and through [Predicate.compile] below it.
    Results are identical either way.
    @raise Not_found if [p] mentions an unknown attribute. *)
val count_pred : Predicate.t -> t -> int

(** Selection counterpart of {!count_pred}: keeps tuples satisfying the
    predicate, preserving order. *)
val filter_pred : Predicate.t -> t -> t

(** Duplicate elimination (set semantics), keeping first occurrences in
    order. *)
val distinct : t -> t

(** Whether the relation contains no duplicate tuples. *)
val is_set : t -> bool

(** Column values at the given attribute, in tuple order.  Served from
    the memoized columnar view when one has been built (in which case
    repeated calls share one array — treat it as read-only); otherwise
    a fresh array is allocated.
    @raise Not_found if the attribute is absent. *)
val column : t -> string -> Value.t array

(** [iter_column_int r name f] applies [f] to every value of an
    all-integer, null-free column without allocating; returns [false]
    (without calling [f]) when the column has nulls or is not stored as
    ints.
    @raise Not_found if the attribute is absent. *)
val iter_column_int : t -> string -> (int -> unit) -> bool

(** Float counterpart of {!iter_column_int}. *)
val iter_column_float : t -> string -> (float -> unit) -> bool

(** Append two relations with equal schemas (bag union).
    @raise Invalid_argument if schemas differ. *)
val append : t -> t -> t

val empty : Schema.t -> t

val pp : Format.formatter -> t -> unit

(** First [n] tuples rendered one per line, for debugging. *)
val to_string : ?limit:int -> t -> string
