(** Compiled predicate kernels and equijoin key codes over columnar
    views.

    The contract with the row path is exact agreement: [compile view p]
    decides every row like [Predicate.compile (Column.schema view) p]
    (including Null-comparison-is-false, cross-type rank ordering and
    [Not_found] on unknown attributes), and equal join codes match key
    pairs exactly when [Tuple.equal] would (Null keys match Null keys).
    Nothing here records metrics: the joins built on the codes
    ({!Physical}) account their probes. *)

(** [compile view p] lowers [p] into a row-index predicate.  Single
    Attr-vs-Const comparisons over int/float/dictionary/bool columns
    become branch-free typed scans (dictionary constants are decided
    once per dictionary entry); everything else falls back to a generic
    closure over boxed column views with identical semantics.
    @raise Not_found if [p] mentions an unknown attribute. *)
val compile : Column.t -> Predicate.t -> int -> bool

(** Number of rows satisfying the predicate. *)
val count : Column.t -> Predicate.t -> int

(** Number of rows among [indices] satisfying the predicate (sampled
    selection scans). *)
val count_indices : Column.t -> Predicate.t -> int array -> int

(** Row indices satisfying the predicate, ascending. *)
val filter_indices : Column.t -> Predicate.t -> int array

(** [join_codes l jl r jr] is [Some (kl, kr)] when both key columns
    admit a shared int code space in which code equality coincides with
    [Value.equal] of the key values: null-free int columns (raw values)
    and dictionary pairs (left codes remapped into the right dictionary;
    [-1] = Null on both sides, [-2] = absent from the right).  [None]
    means the caller must take the row path. *)
val join_codes : Column.t -> int -> Column.t -> int -> (int array * int array) option
