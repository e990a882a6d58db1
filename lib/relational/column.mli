(** Columnar storage: a relation re-encoded as per-attribute unboxed
    arrays so hot kernels (selection counts, join key extraction) can
    scan at memory bandwidth instead of paying a boxed-variant dispatch
    per attribute access.

    Encoding, per declared attribute type:
    - [Tint]   → [int array] plus an optional null bitset;
    - [Tfloat] → a float64 {!Bigarray.Array1} plus an optional null bitset;
    - [Tbool]  → a value bitset plus an optional null bitset;
    - [Tstr]   → dictionary codes ([int array], [-1] = NULL) with the
      decode array and an encode hashtable.  An encoded column numbers
      its strings in first-occurrence order; a {!gather}ed column shares
      its base's dictionary, so its codes follow the base's order and
      the dictionary may hold strings no gathered row carries;
    - [Tnull], or any column containing a value whose constructor does
      not match the declared type (possible via the unchecked
      [Relation.of_array]) → [Generic], the boxed [Value.t array].

    Columns are encoded lazily: building a view costs O(arity), and
    each column is encoded on first touch, so a join pays only for its
    key columns and a predicate only for the attributes it mentions.
    The per-column memoization is the only mutation and it is
    idempotent, so a racing encode under domains is benign. *)

(** Packed bitsets, [Sys.int_size] bits per word. *)
module Bitset : sig
  type t

  (** [create n] holds [n] clear bits. *)
  val create : int -> t

  val length : t -> int
  val set : t -> int -> unit
  val clear : t -> int -> unit
  val get : t -> int -> bool

  (** Number of set bits. *)
  val count : t -> int

  (** [resize t n] is a fresh bitset of length [n] holding [t]'s bits
      below [min n (length t)], the rest clear: a prefix copy when [n]
      is shorter, a grown copy when it is longer.  O(n / Sys.int_size). *)
  val resize : t -> int -> t

  (** The positions of the set bits, in increasing order.  One pass
      that skips empty words and reads each word once: a word with at
      most 16 set bits peels them off lowest first, a denser one is
      walked up to its highest set bit without a branch per bit. *)
  val positions : t -> int array
end

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type col =
  | Ints of { data : int array; nulls : Bitset.t option }
  | Floats of { data : floats; nulls : Bitset.t option }
  | Bools of { data : Bitset.t; nulls : Bitset.t option }
  | Dict of {
      codes : int array;  (** [-1] encodes NULL. *)
      dict : string array;  (** code → string, first-occurrence order. *)
      lookup : (string, int) Hashtbl.t;  (** string → code. *)
      has_null : bool;
    }
  | Generic of Value.t array

type t

val schema : t -> Schema.t

(** Number of rows. *)
val length : t -> int

(** Column [j], by schema position; encodes it on first touch. *)
val col : t -> int -> col

(** Wrap a row-major tuple array.  O(arity): no column is encoded until
    touched.  The array must not be mutated afterwards (relations are
    immutable once built). *)
val of_tuples : Schema.t -> Tuple.t array -> t

(** [gather base ids] is the view of the rows [ids] of [base], in that
    order (ids may repeat).  O(arity): each column is gathered on first
    touch from [base]'s column (encoding that once, memoized in [base])
    in the same representation, so it decodes to the same values as
    [of_tuples] over the gathered tuples — except that a column the base
    had to store as [Generic] stays [Generic].
    @raise Invalid_argument if an id is out of range. *)
val gather : t -> int array -> t

(** Decode back to row-major form; [of_tuples s ts |> to_tuples]
    rebuilds tuples equal to [ts]. *)
val to_tuples : t -> Tuple.t array

(** [value t i j] is the boxed value at row [i], column [j]. *)
val value : t -> int -> int -> Value.t

(** Boxed view of column [j], memoized — repeated calls return the same
    array, so callers must not mutate it. *)
val values : t -> int -> Value.t array

(** [iter_int t j f] applies [f] to every element of column [j] without
    allocating, provided the column is stored as null-free ints; returns
    [false] (without calling [f]) otherwise. *)
val iter_int : t -> int -> (int -> unit) -> bool

(** Float counterpart of {!iter_int} for null-free float64 columns. *)
val iter_float : t -> int -> (float -> unit) -> bool
