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

(** The relation's columnar view (see {!Column}), built lazily and
    memoized; repeated calls return the same view, and its per-column
    encodings are shared by every kernel consumer. *)
val columnar : t -> Column.t

(** Cardinality at and above which the kernels engage: below it,
    compiling a predicate and encoding columns costs more than the
    per-row win.  The one engagement rule of every kernel consumer
    ({!count_pred}, {!filter_pred}, {!warm_view}, {!Physical}). *)
val kernel_threshold : int

(** Eagerly build and memoize the columnar view, iff the kernels would
    use it (the relation is at or above {!kernel_threshold}); otherwise
    a no-op.  Long-lived catalogs call this at load time so no request
    pays the first-touch encode. *)
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
