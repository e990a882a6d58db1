(** Random estimation cases for the differential fuzz harness.

    A case is a fully deterministic function of [(master, id)]: the
    relation shapes, the tuple values, the expression and the sampling
    fraction are all derived from one seeded {!Sampling.Rng} stream, so
    a failure replays from just those two integers (plus the oracle
    name) — no tuple data needs to be serialized. *)

type spec = {
  rname : string;
  card : int;
  columns : (string * Workload.Dist.t) list;
}

(** How the case's relations are built: [Bag] relations feed the
    scale-up family (selection / projection / product / θ-join /
    equi-join shapes);
    [Set_pair] builds the duplicate-free operands the set-operator
    estimators require (via {!Workload.Generator.set_pair}, attribute
    ["k"], relations ["s0"]/["s1"]). *)
type body =
  | Bag of spec list
  | Set_pair of { left : int; right : int; overlap : int }

type case = {
  id : int;
  seed : int;  (** derived from [(master, id)]; drives all draws *)
  body : body;
  expr : Relational.Expr.t;
  fraction : float;
}

(** [case ~master ~id] — the [id]-th case of the stream seeded by
    [master].  Cardinalities include 0 occasionally (empty relations
    are legal inputs); the product of all cardinalities is capped so
    the exact oracles stay cheap. *)
val case : master:int -> id:int -> case

(** Bind the case's relations (freshly generated, deterministic in the
    case) into a new catalog.  In odd-numbered cases every relation's
    columnar view is forced, so samples drawn from it are read in place
    on the base's columns instead of as relations of their own. *)
val materialize : case -> Relational.Catalog.t

(** One-line human description: id, seed, expression, fraction,
    relation shapes. *)
val to_string : case -> string
