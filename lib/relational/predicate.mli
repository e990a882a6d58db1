(** Predicate language for selections and θ-joins.

    Predicates are built unresolved (referring to attributes by name) and
    compiled against a schema into a closure.  Arithmetic is evaluated in
    floating point; comparisons on strings are lexicographic.  Any
    comparison or arithmetic involving [Null] is false / propagates
    [Null] (SQL-like three-valued logic collapsed to false at the
    predicate level). *)

type term =
  | Attr of string           (** attribute by name *)
  | Const of Value.t
  | Add of term * term
  | Sub of term * term
  | Mul of term * term
  | Div of term * term

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * term * term
  | Between of term * Value.t * Value.t  (** inclusive on both ends *)
  | In of term * Value.t list
  | And of t * t
  | Or of t * t
  | Not of t

(** Convenience constructors. *)

val attr : string -> term
val const : Value.t -> term
val vint : int -> term
val vfloat : float -> term
val vstr : string -> term

val eq : term -> term -> t
val neq : term -> term -> t
val lt : term -> term -> t
val le : term -> term -> t
val gt : term -> term -> t
val ge : term -> term -> t
val between : term -> Value.t -> Value.t -> t
val in_ : term -> Value.t list -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val not_ : t -> t

(** Attribute names mentioned by the predicate, without duplicates. *)
val attributes : t -> string list

(** [map_attributes f p] renames every attribute [a] of [p] to [f a]. *)
val map_attributes : (string -> string) -> t -> t

(** [compile schema p] resolves attribute names to positions and returns
    an evaluator.  A comparison of an attribute with a constant, either
    way round, reads the attribute where it lies and allocates nothing
    per tuple (an int attribute against an int constant compares
    unboxed); it decides exactly like the general path, which wraps
    each term's value in an option to propagate [Null].
    @raise Not_found if the predicate mentions an unknown attribute. *)
val compile : Schema.t -> t -> Tuple.t -> bool

(** [cmp_holds cmp c] decides [cmp] from the sign of a three-way
    comparison result [c]. *)
val cmp_holds : cmp -> int -> bool

(** [flip cmp] swaps the operands' sides:
    [cmp_holds cmp (compare k v) = cmp_holds (flip cmp) (compare v k)],
    so a constant-versus-attribute comparison can be decided as
    attribute-versus-constant. *)
val flip : cmp -> cmp

(** Evaluate directly (compiling on the fly); convenient in tests. *)
val eval : Schema.t -> t -> Tuple.t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string
