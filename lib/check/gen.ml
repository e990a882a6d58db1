(* Case generation.  Two families:

   - bag cases: 1–3 relations with per-relation attribute names
     ("a0"/"b0" for r0, "a1"/"b1" for r1, ...) so products and joins
     concatenate without name clashes and predicates above them stay
     unambiguous; the expression is a random tree of selections, bag
     projections, [Distinct], products, θ-joins (an attribute [<=] an
     attribute across the two sides) and equi-joins on one or two
     attribute pairs in which each relation appears once — plus an
     occasional self-join, whose
     clashing schemas {!Relational.Schema.concat} qualifies and which
     therefore carries no predicate above it;
   - set cases: one duplicate-free {!Workload.Generator.set_pair}
     under Union / Inter / Diff.

   Everything is drawn from one stream seeded by [(master, id)]. *)

module Expr = Relational.Expr
module P = Relational.Predicate
module Value = Relational.Value
module Catalog = Relational.Catalog
module Rng = Sampling.Rng
module Dist = Workload.Dist

type spec = {
  rname : string;
  card : int;
  columns : (string * Dist.t) list;
}

type body =
  | Bag of spec list
  | Set_pair of { left : int; right : int; overlap : int }

type case = {
  id : int;
  seed : int;
  body : body;
  expr : Expr.t;
  fraction : float;
}

(* Cap on the product of all cardinalities: the census oracle
   evaluates the expression exactly, and a three-way product
   materializes up to this many tuples. *)
let max_volume = 50_000

let gen_dist rng =
  let domain = 2 + Rng.int rng 23 in
  match Rng.int rng 5 with
  | 0 -> Dist.Constant (Rng.int rng domain)
  | 1 | 2 -> Dist.Uniform { lo = 0; hi = domain - 1 }
  | 3 -> Dist.Zipf { n_values = domain; skew = 0.3 +. (0.15 *. float_of_int (Rng.int rng 8)) }
  | _ -> Dist.Self_similar { n_values = domain; h = 0.6 +. (0.05 *. float_of_int (Rng.int rng 7)) }

let gen_specs rng =
  let n_rels = 1 + Rng.int rng 3 in
  let specs =
    List.init n_rels (fun i ->
        let card = if Rng.int rng 10 = 0 then 0 else 1 + Rng.int rng 120 in
        let n_cols = 1 + Rng.int rng 2 in
        let columns =
          List.init n_cols (fun j ->
              (Printf.sprintf "%c%d" (Char.chr (Char.code 'a' + j)) i, gen_dist rng))
        in
        { rname = Printf.sprintf "r%d" i; card; columns })
  in
  let rec cap specs =
    let volume = List.fold_left (fun acc s -> acc * max 1 s.card) 1 specs in
    if volume <= max_volume then specs
    else
      let largest =
        List.fold_left (fun m s -> if s.card > m.card then s else m) (List.hd specs) specs
      in
      cap
        (List.map
           (fun s -> if s.rname = largest.rname then { s with card = s.card / 2 } else s)
           specs)
  in
  cap specs

(* --------------------------------------------------------- predicates *)

let gen_comparison rng attrs =
  let a = List.nth attrs (Rng.int rng (List.length attrs)) in
  let v = Rng.int rng 25 in
  match Rng.int rng 7 with
  | 0 -> P.eq (P.attr a) (P.vint v)
  | 1 -> P.neq (P.attr a) (P.vint v)
  | 2 -> P.lt (P.attr a) (P.vint v)
  | 3 -> P.le (P.attr a) (P.vint v)
  | 4 -> P.gt (P.attr a) (P.vint v)
  | 5 -> P.ge (P.attr a) (P.vint v)
  | _ ->
    let lo = Rng.int rng 20 in
    P.between (P.attr a) (Value.Int lo) (Value.Int (lo + Rng.int rng 10))

let rec gen_predicate rng attrs depth =
  if depth <= 0 || Rng.int rng 2 = 0 then gen_comparison rng attrs
  else
    match Rng.int rng 3 with
    | 0 -> P.( &&& ) (gen_predicate rng attrs (depth - 1)) (gen_predicate rng attrs (depth - 1))
    | 1 -> P.( ||| ) (gen_predicate rng attrs (depth - 1)) (gen_predicate rng attrs (depth - 1))
    | _ -> P.not_ (gen_predicate rng attrs (depth - 1))

(* -------------------------------------------------------- expressions *)

(* Random nonempty subset, preserving order. *)
let gen_subset rng attrs =
  let chosen = List.filter (fun _ -> Rng.int rng 2 = 0) attrs in
  if chosen = [] then [ List.nth attrs (Rng.int rng (List.length attrs)) ] else chosen

(* 0–2 unary wrappers over [e]; returns the expression and the
   attributes its schema still exposes. *)
let wrap_unary rng attrs e =
  let rec go layers e attrs =
    if layers = 0 then (e, attrs)
    else
      match Rng.int rng 5 with
      | 0 | 1 -> go (layers - 1) (Expr.Select (gen_predicate rng attrs 2, e)) attrs
      | 2 -> go (layers - 1) (Expr.Distinct e) attrs
      | 3 when List.length attrs > 1 ->
        let keep = gen_subset rng attrs in
        go (layers - 1) (Expr.Project (keep, e)) keep
      | _ -> go (layers - 1) (Expr.Select (gen_predicate rng attrs 1, e)) attrs
  in
  go (Rng.int rng 3) e attrs

(* A random tree in which each relation of [specs] appears exactly
   once; attribute names are disjoint across relations, so joins and
   products never clash and any exposed attribute is fair game for a
   predicate above. *)
let rec gen_tree rng specs =
  match specs with
  | [] -> invalid_arg "Gen.gen_tree: no relations"
  | [ s ] -> wrap_unary rng (List.map fst s.columns) (Expr.Base s.rname)
  | _ ->
    let k = 1 + Rng.int rng (List.length specs - 1) in
    let left = List.filteri (fun i _ -> i < k) specs in
    let right = List.filteri (fun i _ -> i >= k) specs in
    let le, lattrs = gen_tree rng left in
    let re, rattrs = gen_tree rng right in
    let pair () =
      ( List.nth lattrs (Rng.int rng (List.length lattrs)),
        List.nth rattrs (Rng.int rng (List.length rattrs)) )
    in
    let e =
      match Rng.int rng 6 with
      | 0 | 1 -> Expr.Product (le, re)
      | 2 ->
        let la, ra = pair () in
        Expr.Theta_join (P.le (P.attr la) (P.attr ra), le, re)
      | 3 ->
        let first = pair () in
        Expr.Equijoin ([ first; pair () ], le, re)
      | _ -> Expr.Equijoin ([ pair () ], le, re)
    in
    let attrs = lattrs @ rattrs in
    if Rng.int rng 3 = 0 then (Expr.Select (gen_predicate rng attrs 1, e), attrs)
    else (e, attrs)

let gen_bag rng =
  let specs = gen_specs rng in
  let expr =
    match specs with
    | [ s ] when Rng.int rng 6 = 0 ->
      (* Self-join: the same leaf twice, each occurrence sampled
         independently.  Schema.concat qualifies the clashing names, so
         no predicate goes above. *)
      let a = fst (List.hd s.columns) in
      if Rng.int rng 2 = 0 then Expr.Product (Expr.Base s.rname, Expr.Base s.rname)
      else Expr.Equijoin ([ (a, a) ], Expr.Base s.rname, Expr.Base s.rname)
    | _ -> fst (gen_tree rng specs)
  in
  (Bag specs, expr)

let gen_set rng =
  let left = 1 + Rng.int rng 100 and right = 1 + Rng.int rng 100 in
  let overlap = Rng.int rng (1 + min left right) in
  let l = Expr.Base "s0" and r = Expr.Base "s1" in
  let e =
    match Rng.int rng 3 with
    | 0 -> Expr.Union (l, r)
    | 1 -> Expr.Inter (l, r)
    | _ -> Expr.Diff (l, r)
  in
  let e =
    match Rng.int rng 4 with
    | 0 -> Expr.Distinct e
    | 1 -> Expr.Select (gen_comparison rng [ "k" ], e)
    | _ -> e
  in
  (Set_pair { left; right; overlap }, e)

let fractions = [| 0.5; 0.3; 0.15; 0.05 |]

let case ~master ~id =
  let seed = (master * 1_000_003) + id in
  let rng = Rng.create ~seed () in
  let body, expr = if Rng.int rng 4 = 0 then gen_set rng else gen_bag rng in
  { id; seed; body; expr; fraction = fractions.(Rng.int rng (Array.length fractions)) }

(* ----------------------------------------------------- materialization *)

let materialize case =
  let catalog = Catalog.create () in
  (match case.body with
  | Bag specs ->
    List.iteri
      (fun i s ->
        let rng = Rng.create ~seed:(case.seed + (7919 * (i + 1))) () in
        Catalog.add catalog s.rname (Workload.Generator.relation rng ~n:s.card s.columns))
      specs
  | Set_pair { left; right; overlap } ->
    let rng = Rng.create ~seed:(case.seed + 104_729) () in
    let l, r =
      Workload.Generator.set_pair rng ~card_left:left ~card_right:right ~overlap
        ~attribute:"k"
    in
    Catalog.add catalog "s0" l;
    Catalog.add catalog "s1" r);
  (* Fuzz relations sit below the kernel threshold, where [warm_view]
     does nothing.  Forcing the views of every other case makes the
     scale-up oracles read samples both ways: in place on the base's
     columns here, as relations of their own otherwise.  No draw is
     consumed, so the case stream is unchanged. *)
  if case.id mod 2 = 1 then
    List.iter
      (fun name -> ignore (Relational.Relation.columnar (Catalog.find catalog name)))
      (Catalog.names catalog);
  catalog

let body_to_string = function
  | Bag specs ->
    String.concat "; "
      (List.map
         (fun s ->
           Printf.sprintf "%s(%d rows: %s)" s.rname s.card
             (String.concat ", "
                (List.map (fun (c, d) -> c ^ " ~ " ^ Dist.to_string d) s.columns)))
         specs)
  | Set_pair { left; right; overlap } ->
    Printf.sprintf "s0(%d rows), s1(%d rows), overlap %d" left right overlap

let to_string case =
  Printf.sprintf "case %d (seed %d): %s | fraction %g | %s" case.id case.seed
    (Expr.to_string case.expr) case.fraction (body_to_string case.body)
