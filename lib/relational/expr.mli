(** Relational algebra expressions.

    Bag semantics for [Select], [Project], [Product] and the joins (the
    operators the PODS'88 unbiased estimators cover); set semantics for
    [Distinct], [Union], [Inter] and [Diff] (their operands are
    deduplicated before the operation, as in classical relational
    algebra). *)

(** Aggregate functions for {!Aggregate}.  [Count] counts tuples;
    the attribute-based aggregates skip [Null]s ([Sum] of no non-null
    values is 0, [Avg]/[Min]/[Max] of none is [Null]). *)
type agg =
  | Count
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

type t =
  | Base of string
      (** A named relation resolved through a {!Catalog.t}. *)
  | Select of Predicate.t * t
  | Project of string list * t
      (** Projection {e without} duplicate elimination (bag). *)
  | Distinct of t
      (** Duplicate elimination; [Distinct (Project ...)] is classical
          relational projection. *)
  | Product of t * t
  | Equijoin of (string * string) list * t * t
      (** [Equijoin [(a1, b1); ...] l r] joins on [l.a1 = r.b1 and ...].
          The result schema is the concatenation of both sides. *)
  | Theta_join of Predicate.t * t * t
      (** General θ-join; the predicate is compiled against the
          concatenated schema. *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Rename of (string * string) list * t
  | Aggregate of string list * (agg * string) list * t
      (** [Aggregate (group_by, [(f, output_name); ...], e)] — γ: one
          result tuple per distinct combination of the [group_by]
          attributes, carrying those attributes followed by the named
          aggregate outputs.  With an empty [group_by], one tuple for a
          non-empty input and zero tuples for an empty one. *)

(** Convenience constructors mirroring the variants. *)

val base : string -> t
val select : Predicate.t -> t -> t
val project : string list -> t -> t
val project_distinct : string list -> t -> t
val distinct : t -> t
val product : t -> t -> t
val equijoin : (string * string) list -> t -> t -> t
val theta_join : Predicate.t -> t -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val rename : (string * string) list -> t -> t

val aggregate : by:string list -> (agg * string) list -> t -> t

(** [group_count ~by e] — the common γ_count: per-group tuple counts in
    an output attribute ["count"]. *)
val group_count : by:string list -> t -> t

(** [schema_of catalog e] infers the result schema.
    @raise Failure on unbound base relations, unknown attributes, or
    union-incompatible operands. *)
val schema_of : Catalog.t -> t -> Schema.t

(** [check_selection schema p] is the check {!schema_of} makes of a
    selection over [schema]: every attribute [p] reads must exist.
    @raise Failure naming the first unknown attribute, with the message
    {!schema_of} gives. *)
val check_selection : Schema.t -> Predicate.t -> unit

(** Base-relation names in left-to-right leaf order, {e with}
    multiplicity (a relation joined with itself appears twice). *)
val leaves : t -> string list

(** [map_bases f e] rewrites every [Base name] leaf to [f i name] where
    [i] is the 0-based left-to-right occurrence index. *)
val map_bases : (int -> string -> t) -> t -> t

(** Whether the expression contains any duplicate-eliminating operator
    ([Distinct], [Union], [Inter], [Diff]). *)
val has_dedup : t -> bool

(** Whether some base relation occurs more than once. *)
val has_repeated_leaf : t -> bool

(** Number of operator nodes (size of the AST). *)
val size : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
