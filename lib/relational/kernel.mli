(** Compiled predicate kernels and equijoin key codes over columnar
    views.

    The contract with the row path is exact agreement: [compile view p]
    decides every row like [Predicate.compile (Column.schema view) p]
    (including Null-comparison-is-false, cross-type rank ordering and
    [Not_found] on unknown attributes), and equal join codes match key
    pairs exactly when [Tuple.equal] would (Null keys match Null keys).
    Nothing here records metrics: the joins built on the codes and the
    key tables ({!Physical}) account their probes. *)

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

(** [selection ?ids view p] is [Some (out, k)] when the rows read (the
    view's rows, or [ids]) are at most {!Scratch.max_words}: the row ids
    satisfying the predicate, in row order (the order of [ids] when
    given), are the first [k] of [out], a buffer as long as the rows
    read, from {!Scratch.take}.  One pass fills it, with no counting
    pass: each row id is written unconditionally at the cursor, which
    advances by the row's verdict.  [out] belongs to the caller, who
    hands it back with {!Scratch.free} once done with it (a join's
    probe side, after its probe); a conjunction's intermediate
    selections go back before [selection] returns.  [None] for more
    rows, which {!filter_indices} selects. *)
val selection : ?ids:int array -> Column.t -> Predicate.t -> (int array * int) option

(** Row ids satisfying the predicate, in row order (the order of [ids]
    when given), sized exactly: {!selection}'s passing ids, copied out
    of its buffer (which goes back to {!Scratch}) unless every row
    passes; more rows than {!Scratch.max_words} are counted first and
    filled into an exact array.  The result belongs to the caller. *)
val filter_indices : ?ids:int array -> Column.t -> Predicate.t -> int array

(** {1 Equijoin keys}

    An equijoin codes its keys as ints, one per row, so that equal codes
    match exactly the key pairs [Tuple.equal] matches, and counts them in
    a {!Key_table}: the joins of {!Physical.count_expr} and
    {!Physical.eval} and the planner's join moments build and probe the
    same table. *)

(** A key column's join codes, by row id of its view: [Raw data] reads
    row [i]'s code as [data.(i)], and [Remapped (codes, remap)] as
    [remap.(codes.(i) + 1)]. *)
type codes =
  | Raw of int array
  | Remapped of int array * int array

(** Both sides' codes, and a range [[lo, hi]] that holds every code
    either side can produce. *)
type coded = {
  left : codes;
  right : codes;
  lo : int;
  hi : int;
}

(** [join_codes l jl r jr] codes the key columns [jl] of [l] and [jr] of
    [r] when both admit a shared int code space in which code equality
    coincides with [Value.equal] of the key values:
    - null-free int columns: their raw values, the columns' own arrays,
      within the union of the two columns' ranges (recorded as each
      column is encoded, {!Column.col});
    - dictionary pairs: the left column's codes read through a remap
      into the right dictionary, so no code array is copied ([-1] = Null
      on both sides, [-2] = absent from the right), within
      [[-2, |right dictionary| - 1]].

    [None] for every other pair of columns: the join codes its keys
    through a {!Key_dict} instead. *)
val join_codes : Column.t -> int -> Column.t -> int -> coded option

(** Int join codes to positive ints, [0] meaning absent: the key → group
    and key → multiplicity tables of the joins, and the per-key counts
    of the planner's join moments.

    Density rule: a table for codes in [[lo, hi]] built from [rows]
    rows is an int array indexed by [code - lo] when
    [hi - lo + 1 <= max 4096 (8 × rows)], at most 32 KB or about what an
    open-addressing table of [rows] keys takes; any wider range (or one
    whose span overflows an int) is an open-addressing table of at least
    [2 × rows] slots.  Either way a code's value lives in a {e slot}, an
    index into {!vals}.

    Every code the table sees must lie in [[lo, hi]]: the dense table
    indexes with no range check.  The ranges of {!join_codes} hold every
    code of either side's column, and a {!Key_dict}'s codes lie in
    [[-1, D - 1]] once its build side has numbered its [D] keys.

    A table's arrays, and the {!histogram}s it counts, come from
    {!Scratch.take}: whoever creates a table (the joins of
    {!Physical}, the planner's join moments) hands it back with {!free}
    when its loops end. *)
module Key_table : sig
  type t

  val create : lo:int -> hi:int -> rows:int -> t

  (** [free t] hands [t]'s arrays back to {!Scratch}: its creator must
      not use [t], or the {!vals} read from it, again. *)
  val free : t -> unit

  (** The value of each slot, [0] while the slot is empty; the caller
      stores a positive value in the slot of a code it {!add}s. *)
  val vals : t -> int array

  (** The slot of code [k]: the one {!add} claimed for it, or for a code
      never added a slot whose value is [0]. *)
  val slot : t -> int -> int

  (** The slot of code [k], claimed for it. *)
  val add : t -> int -> int

  (** {2 Loops over a vector of rows}

      Each reads the code of row [rows.(p)] (row [p] when [rows] is
      [None]) for [p] below [n], inline, in order.  The rows are row ids
      of the codes' view. *)

  (** [count t codes rows n] adds 1 to the value of each row's code. *)
  val count : t -> codes -> int array option -> int -> unit

  (** The number of rows whose code falls in each slot, by slot, in an
      array from {!Scratch.take} that belongs to the caller. *)
  val histogram : t -> codes -> int array option -> int -> int array

  (** [(hits, total)]: the rows whose code has a positive value, and the
      sum of the values over all rows. *)
  val probe_count : t -> codes -> int array option -> int -> int * int

  (** [probe_iter t codes rows n f] calls [f i v] for each row [i], in
      order, whose code has the value [v > 0]. *)
  val probe_iter : t -> codes -> int array option -> int -> (int -> int -> unit) -> unit
end

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

  (** The number of keys numbered, [D]: the codes given are
      [0 … D - 1]. *)
  val length : t -> int
end
