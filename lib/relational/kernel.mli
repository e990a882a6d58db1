(** Compiled predicate kernels and equijoin key codes over columnar
    views.

    The contract with the row path is exact agreement: [compile view p]
    decides every row like [Predicate.compile (Column.schema view) p]
    (including Null-comparison-is-false, cross-type rank ordering and
    [Not_found] on unknown attributes), and equal join codes match key
    pairs exactly when [Tuple.equal] would (Null keys match Null keys).
    Nothing here records metrics: the joins built on the codes
    ({!Physical}) account their probes. *)

(** [compile view p] lowers [p] into a row-index predicate, for callers
    that test one row at a time.  Single Attr-vs-Const comparisons over
    int/float/dictionary/bool columns read the typed column (dictionary
    constants are decided once per dictionary entry); everything else
    falls back to a generic closure over boxed column views with
    identical semantics.
    @raise Not_found if [p] mentions an unknown attribute. *)
val compile : Column.t -> Predicate.t -> int -> bool

(** {1 Scan kernels}

    The entry points below decide a predicate over a run of rows, every
    row of the view or, given [ids], the rows at those ids in that
    order (a sample read in place on its base's view), and agree with
    {!compile} on every row (the contract above).  An
    Attr-vs-Const comparison, in either operand order, over a column of
    - null-free ints or ints with a null bitset (against an int
      constant, or a string/bool constant whose verdict is the same for
      every non-null row),
    - floats (against an int or float constant, with [compile]'s NaN
      rule), or
    - dictionary codes (through a verdict per dictionary entry, Null
      failing)
    is a typed loop that adds each row's verdict, [Bool.to_int] of one
    comparison on the column's data, instead of calling a closure and
    branching on the outcome.  Nulls fail every comparison, so a column
    with a null bitset first drops its null rows in a loop over the
    bitset, and the comparison loop then reads no null bit.  [And] (and
    [Between], lowered to two comparisons as {!compile} lowers it)
    applies its kernels in sequence, the second over the rows the first
    keeps.  Every other predicate is decided by the {!compile}d closure
    inside the same entry points. *)

(** Number of rows satisfying the predicate; among [ids], each
    occurrence of a repeated id counts once. *)
val count : ?ids:int array -> Column.t -> Predicate.t -> int

(** Row ids satisfying the predicate, in row order (the order of [ids]
    when given): a selection vector, sized exactly (the rows are
    counted, then filled in — each row id is written unconditionally
    and the cursor advances by the row's verdict). *)
val filter_indices : ?ids:int array -> Column.t -> Predicate.t -> int array

(** Open-addressing table from int keys to positive ints: the key →
    group and key → multiplicity tables of the joins
    ({!Physical.count_expr}) and the planner's join statistics.  A slot
    [s] is empty while [vals.(s) = 0]; the caller stores [keys.(s)] and
    a positive [vals.(s)] itself. *)
module Int_table : sig
  type t = {
    shift : int;
    keys : int array;
    vals : int array;
  }

  (** A table with at least [2n] slots (at least 16), so it never fills
      with [n] keys. *)
  val create : int -> t

  (** The slot holding key [k], or the empty slot where it would go. *)
  val slot : t -> int -> int
end

(** A key column's join codes, by row id of its view: [Raw data] reads
    row [i]'s code as [data.(i)], and [Remapped (codes, remap)] as
    [remap.(codes.(i) + 1)]. *)
type codes =
  | Raw of int array
  | Remapped of int array * int array

(** [join_codes l jl r jr] is [Some (kl, kr)] when both key columns
    admit a shared int code space in which code equality coincides with
    [Value.equal] of the key values: null-free int columns (their raw
    values, the column's own array) and dictionary pairs (the left
    column's codes read through a remap into the right dictionary, so
    no code array is copied; [-1] = Null on both sides, [-2] = absent
    from the right).  [None] for every other pair of columns: the join
    codes its keys through a {!Key_dict} instead. *)
val join_codes : Column.t -> int -> Column.t -> int -> (codes * codes) option

(** Dense int codes for join key tuples that {!join_codes} cannot code:
    float, bool and generic columns, nullable ints, mixed types, several
    attribute pairs, or a key read from several relations.  Keys are
    equal under [Tuple.equal] and [Tuple.hash], as in {!Eval}: Null
    matches Null, and [Int 1] matches [Float 1.0].  The build side
    numbers its keys with {!Key_dict.code}; the probe side looks them up
    with {!Key_dict.find}. *)
module Key_dict : sig
  type t

  val create : unit -> t

  (** The key's code, numbering a key not seen before with the next
      code: [0], [1], … in order of first sight. *)
  val code : t -> Tuple.t -> int

  (** The key's code, or [-1] (a code {!code} never gives) when it is
      absent. *)
  val find : t -> Tuple.t -> int
end
