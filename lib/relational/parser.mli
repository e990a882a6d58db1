(** Textual syntax for relational algebra expressions and predicates,
    and the SQL subset that reads into the same expressions.

    Expression grammar (keywords case-insensitive; [..] mark operator
    arguments):

    {v
    e ::= name                         base relation
        | select[p](e)                 σ
        | pi[a, b](e)                  bag projection
        | pidist[a, b](e)              projection with dedup
        | distinct(e)                  δ
        | rho[a -> b, ...](e)          rename
        | e cross e                    ×
        | e join[a = b, ...] e         equi-join
        | e theta[p] e                 θ-join
        | e union e | e inter e | e minus e
        | (e)
    v}

    [cross]/[join]/[theta] bind tighter than [union]/[inter]/[minus];
    all binary operators are left-associative.

    Predicate grammar:

    {v
    p ::= t cmp t | t between v and v | t in (v, v, ...)
        | p and p | p or p | not p | true | false | (p)
    t ::= attr | v | t + t | t - t | t * t | t / t
    v ::= 123 | 1.5 | 'text' | true | false | null
    cmp ::= = | != | <> | < | <= | > | >=
    v}

    [and] binds tighter than [or]; arithmetic has the usual precedence.
    Attribute names may contain letters, digits, [_], [.] and [#]. *)

(** @raise Failure with a position-annotated message on syntax errors:
    ["Parser: <message> at offset <n> (line <l>) in <text>"]. *)
val parse_expr : string -> Expr.t

(** @raise Failure on syntax errors, in the format of {!parse_expr}. *)
val parse_predicate : string -> Predicate.t

(** Translate a SQL query to algebra.  It reads the same tokens as
    {!parse_expr}, and its WHERE and ON conditions are predicates of the
    grammar above.

    Supported shape (keywords case-insensitive):

    {v
    SELECT   * | [DISTINCT] item, ...
    FROM     rel (, rel)* | rel (JOIN rel ON cond)*
    [WHERE   predicate]
    [GROUP BY attr, ...]
    v}

    - select items: attribute names and aggregates
      [COUNT( * ) | SUM(a) | AVG(a) | MIN(a) | MAX(a)], each with an
      optional [AS name] (by default [count], [sum_a], [avg_a], ...);
    - comma-separated FROM lists become products; each [JOIN ... ON]
      becomes a θ-join, which {!Optimizer.optimize} turns into an
      equi-join when the condition is a conjunction of equalities
      between the two sides;
    - with GROUP BY, plain select items must be group-by attributes;
      without aggregates, [SELECT DISTINCT]/[GROUP BY] become
      duplicate-eliminating projections.

    Not supported (rejected with [Failure]): subqueries, ORDER BY,
    HAVING, LIMIT, table aliases, and expression select items.

    @raise Failure on unsupported or malformed SQL.  Every error,
    from the tokenizer, a clause or a condition, names the whole query
    and the offset in it: ["Sql: <message> at offset <n> (line <l>) in
    <query>"]. *)
val parse_sql : string -> Expr.t

(** For a global [SELECT COUNT( * ) ...] query (an ungrouped
    count-only aggregate at the top), the expression whose {e
    cardinality} the user is asking about — the right target for the
    COUNT estimators.  [None] for any other query shape. *)
val count_star_target : Expr.t -> Expr.t option

(** Canonical, re-parseable rendering (inverse of {!parse_expr} up to
    whitespace): [parse_expr (print_expr e)] is structurally equal to
    [e]. *)
val print_expr : Expr.t -> string

val print_predicate : Predicate.t -> string
