module Tuple_hash = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

module Key_table = Kernel.Key_table
module Key_dict = Kernel.Key_dict

(* --- plans on row ids ------------------------------------------------- *)

(* Every expression compiles to a [plan] over the leaves of a [shape]:
   rows are row ids of the leaves, and no tuple is built unless one is
   read.  A sample of a relation with a columnar view is read in place:
   its leaf is that base, and its scan reads the base's rows at the
   drawn ids ([Relation.source]).  [pos] maps each schema position to
   its leaf and that leaf's column.  A blocking operator (duplicate
   elimination, the set operations, aggregation) streams its input's
   tuples once and its result becomes a new leaf. *)
type shape = {
  schema : Schema.t;
  leaves : Relation.t array;
  pos : (int * int) array;
}

type plan =
  | Scan_rows of int * int array option
      (** every row of a leaf, in order: its [n] rows, or the [n] rows
          at the ids of a sample read in place *)
  | Select_rows of Column.t * int array option * Predicate.t
      (** the rows of a leaf at or above the kernel threshold (among the
          ids, if any) that pass, in order: a selection vector from the
          scan kernels *)
  | Filter_rows of plan * int * (int -> bool)  (** keep rows whose [leaf] row passes *)
  | Test_rows of plan * shape * (Tuple.t -> bool)
      (** keep rows whose tuple, gathered in [shape], passes *)
  | Join_rows of side * side  (** the left side probes, the right builds *)
  | Product_rows of product

and side = {
  plan : plan;
  key : key;
}

and key =
  | Codes of { leaf : int; codes : Kernel.codes; lo : int; hi : int }
      (** a leaf, the key codes by row id of that leaf, and the range
          [[lo, hi]] of both sides' codes ({!Kernel.join_codes}) *)
  | Tuples of Key_dict.t * Relation.t array * (int * int) array
      (** the join's dictionary, and the leaves and the leaf and column of
          each key attribute *)

and product = {
  left : plan;
  right : plan;
  lshape : shape;
  rshape : shape;
  whole : shape;
  test : Predicate.t option;  (** over [whole]'s schema: θ and multi-leaf selections *)
}

let leaf_shape r =
  let schema = Relation.schema r in
  let base, ids = Relation.source r in
  ({ schema; leaves = [| base |]; pos = Array.init (Schema.arity schema) (fun j -> (0, j)) },
   Scan_rows (Relation.cardinality r, ids))

let concat_shape sl sr =
  let offset = Array.length sl.leaves in
  {
    schema = Schema.concat sl.schema sr.schema;
    leaves = Array.append sl.leaves sr.leaves;
    pos = Array.append sl.pos (Array.map (fun (k, j) -> (k + offset, j)) sr.pos);
  }

(* A plan's rows as a stream of row handles.  [rows] says what a handle
   is; [bound] bounds the number of rows. *)
type stream = {
  iter : (int -> unit) -> unit;
  rows : rows;
  bound : int;
}

and rows =
  | Leaf  (** the plan has one leaf, and a handle is its row id *)
  | Ids of int array array  (** a handle indexes one id array per leaf *)
  | Pair of pair
      (** a product: a handle is the left handle × the right's number of
          rows + an index into [handles], the right's handles in order *)

and pair = {
  l : stream;
  r : stream;
  handles : int array;
  lw : int;  (** the left's number of leaves *)
}

let rec pair_row_id p leaf t =
  let n = Array.length p.handles in
  if leaf < p.lw then row_id_in p.l leaf (t / n)
  else row_id_in p.r (leaf - p.lw) p.handles.(t mod n)

and row_id_in s leaf t =
  match s.rows with Leaf -> t | Ids ids -> ids.(leaf).(t) | Pair p -> pair_row_id p leaf t

(* The row id of [leaf] at handle [t]: inlined, so the one- and
   multi-leaf cases cost a match and no call. *)
let[@inline] row_id s leaf t =
  match s.rows with Leaf -> t | Ids ids -> ids.(leaf).(t) | Pair p -> pair_row_id p leaf t

let rec width s = match s.rows with Leaf -> 1 | Ids ids -> Array.length ids | Pair p -> p.lw + width p.r

(* The values at the given leaves' columns of handle [t]. *)
let gather leaves pos s t =
  let out = Array.make (Array.length pos) Value.Null in
  for q = 0 to Array.length pos - 1 do
    let leaf, j = pos.(q) in
    out.(q) <- Tuple.get (Relation.tuple leaves.(leaf) (row_id s leaf t)) j
  done;
  out

(* The tuple at a handle, in [shape]: a one-leaf shape that keeps its
   leaf's columns in order reads the leaf's own tuple. *)
let gatherer shape =
  let leaf0 = shape.leaves.(0) in
  if
    Array.length shape.leaves = 1
    && shape.pos = Array.init (Schema.arity (Relation.schema leaf0)) (fun j -> (0, j))
  then fun s t -> Relation.tuple leaf0 (row_id s 0 t)
  else gather shape.leaves shape.pos

(* The key code of a join side's row: its leaf's code for a key of one
   int or dictionary column per side, else the code of its key tuple in
   the join's dictionary, numbered on the build side and [-1], a code no
   build row has, on the probe side when the build side lacks the key. *)
let[@inline] key_code ~build s key t =
  match key with
  | Codes { leaf; codes = Kernel.Raw codes; _ } -> codes.(row_id s leaf t)
  | Codes { leaf; codes = Kernel.Remapped (codes, remap); _ } ->
    remap.(codes.(row_id s leaf t) + 1)
  | Tuples (dict, leaves, at) ->
    let k = gather leaves at s t in
    if build then Key_dict.code dict k else Key_dict.find dict k

(* A growable int array. *)
type ints = {
  mutable data : int array;
  mutable used : int;
}

let ints () = { data = Array.make 64 0; used = 0 }

let push b x =
  if b.used = Array.length b.data then begin
    let grown = Array.make (2 * b.used) 0 in
    Array.blit b.data 0 grown 0 b.used;
    b.data <- grown
  end;
  b.data.(b.used) <- x;
  b.used <- b.used + 1

(* A join's key table, once its build side has coded its [rows] rows:
   a dictionary's [D] keys have the codes [0 .. D-1], and a probe key it
   lacks [-1]. *)
let key_table key rows =
  let lo, hi =
    match key with
    | Codes { lo; hi; _ } -> (lo, hi)
    | Tuples (dict, _, _) -> (-1, Key_dict.length dict - 1)
  in
  Key_table.create ~lo ~hi ~rows

(* Handles in stream order, in an array sized by the stream's bound. *)
let handles s =
  let out = Array.make s.bound 0 and k = ref 0 in
  s.iter (fun t ->
      out.(!k) <- t;
      incr k);
  if !k = s.bound then out else Array.sub out 0 !k

let vector_stream (rows, n) =
  let iter =
    match rows with
    | None ->
      fun f ->
        for i = 0 to n - 1 do
          f i
        done
    | Some ids -> fun f -> Array.iter f ids
  in
  { iter; rows = Leaf; bound = n }

(* A join side whose probes run the key table's loops over a vector:
   one leaf read through a vector, keyed by its int or dictionary
   codes, as the row ids [rows] (the rows [0 .. n-1] when [None]) and
   their number [n], with the buffer the probe hands back to [Scratch]
   when it ends.  A scan's vector is its leaf's own ids.  A selection
   over a sample probes from the front of a buffer from
   [Kernel.selection], and one over more rows than the pool keeps (a
   census of a large base) probes an exact vector.  Products, filters
   and joins under a join, and keys coded through the join's
   dictionary, probe row by row. *)
let probe_vector side =
  match side.key, side.plan with
  | Codes { codes; _ }, Scan_rows (n, ids) -> Some (codes, (ids, n), None)
  | Codes { codes; _ }, Select_rows (view, ids, p) -> (
    match Kernel.selection ?ids view p with
    | Some (out, n) -> Some (codes, (Some out, n), Some out)
    | None ->
      let ids = Kernel.filter_indices ?ids view p in
      Some (codes, (Some ids, Array.length ids), None))
  | Codes _, (Filter_rows _ | Test_rows _ | Join_rows _ | Product_rows _) | Tuples _, _ -> None

let rec stream metrics = function
  | Scan_rows (n, ids) -> vector_stream (ids, n)
  | Select_rows (view, ids, p) ->
    let ids = Kernel.filter_indices ?ids view p in
    vector_stream (Some ids, Array.length ids)
  | Filter_rows (plan, leaf, keep) ->
    let s = stream metrics plan in
    { s with iter = (fun f -> s.iter (fun t -> if keep (row_id s leaf t) then f t)) }
  | Test_rows (plan, shape, keep) ->
    let s = stream metrics plan in
    let gather = gatherer shape in
    { s with iter = (fun f -> s.iter (fun t -> if keep (gather s t) then f t)) }
  | Join_rows (l, r) ->
    let ids = join_rows metrics l r in
    let n = Array.length ids.(0) in
    {
      iter =
        (fun f ->
          for t = 0 to n - 1 do
            f t
          done);
      rows = Ids ids;
      bound = n;
    }
  | Product_rows p -> (
    let pair = pair_of metrics p in
    let n = Array.length pair.handles in
    match p.test with
    | None ->
      {
        iter =
          (fun f ->
            pair.l.iter (fun lh ->
                let base = lh * n in
                for i = 0 to n - 1 do
                  f (base + i)
                done));
        rows = Pair pair;
        bound = pair.l.bound * n;
      }
    | Some test ->
      (* The passing pairs are kept, so a join over them sizes its
         tables by the rows that pass. *)
      let kept = ints () in
      test_pairs p pair test (push kept);
      let kept = Array.sub kept.data 0 kept.used in
      { iter = (fun f -> Array.iter f kept); rows = Pair pair; bound = Array.length kept })

(* Both sides of a product stream once: the left as it comes, the right
   into its handles. *)
and pair_of metrics p =
  let l = stream metrics p.left in
  let r = stream metrics p.right in
  { l; r; handles = handles r; lw = width l }

(* The pairs of a product whose concatenated tuple passes [test], left
   major.  Each side's tuples are gathered once: the right's up front,
   each left one before its run of pairs. *)
and test_pairs p pair test emit =
  let keep = Predicate.compile p.whole.schema test in
  let gather_l = gatherer p.lshape and gather_r = gatherer p.rshape in
  let rt = Array.map (gather_r pair.r) pair.handles in
  let n = Array.length rt in
  if n > 0 then
    pair.l.iter (fun lh ->
        let tl = gather_l pair.l lh in
        let base = lh * n in
        for i = 0 to n - 1 do
          if keep (Tuple.concat tl (Array.unsafe_get rt i)) then emit (base + i)
        done)

(* An inner join emits the row ids of its pairs, left-major and in build
   order within a left row, like [Eval.hash_equijoin]'s output.  The
   right rows are grouped by key code; the left rows are probed once
   each, keeping the hits and their groups, and the output is filled
   from those. *)
and join_rows metrics l r =
  let rs = stream metrics r.plan in
  let built = Array.make rs.bound 0 and row_group = Array.make rs.bound 0 in
  let m = ref 0 in
  rs.iter (fun u ->
      built.(!m) <- u;
      row_group.(!m) <- key_code ~build:true rs r.key u;
      incr m);
  let table = key_table r.key !m in
  let vals = Key_table.vals table and groups = ref 0 in
  (* Each key code gives way to its group, numbered in order of first
     sight. *)
  for p = 0 to !m - 1 do
    let s = Key_table.add table row_group.(p) in
    if vals.(s) = 0 then begin
      incr groups;
      vals.(s) <- !groups
    end;
    row_group.(p) <- vals.(s) - 1
  done;
  (* [members] lists the right rows group by group, in row order. *)
  let starts = Array.make (!groups + 1) 0 in
  for p = 0 to !m - 1 do
    let g = row_group.(p) in
    starts.(g + 1) <- starts.(g + 1) + 1
  done;
  for g = 1 to !groups do
    starts.(g) <- starts.(g) + starts.(g - 1)
  done;
  let members = Array.make !m 0 and fill = Array.sub starts 0 !groups in
  for p = 0 to !m - 1 do
    let g = row_group.(p) in
    members.(fill.(g)) <- built.(p);
    fill.(g) <- fill.(g) + 1
  done;
  (* [hits] holds each matched left row and its group, in turn. *)
  let hits = ints () in
  let hit t v =
    push hits t;
    push hits (v - 1)
  in
  let ls, probes =
    match probe_vector l with
    | Some (codes, (rows, n), buffer) ->
      Key_table.probe_iter table codes rows n hit;
      Option.iter Scratch.free buffer;
      (* The hits hold the leaf's row ids, and the fill below reads no
         more than that: the stream is never iterated. *)
      ({ iter = ignore; rows = Leaf; bound = n }, n)
    | None ->
      let ls = stream metrics l.plan and probes = ref 0 in
      ls.iter (fun t ->
          incr probes;
          let v = vals.(Key_table.slot table (key_code ~build:false ls l.key t)) in
          if v > 0 then hit t v);
      (ls, !probes)
  in
  Key_table.free table;
  let matched = hits.used / 2 in
  Obs.Metrics.add_probes metrics ~hits:matched ~misses:(probes - matched);
  let total = ref 0 in
  for h = 0 to matched - 1 do
    let g = hits.data.((2 * h) + 1) in
    total := !total + starts.(g + 1) - starts.(g)
  done;
  let lw = width ls and rw = width rs in
  let out = Array.init (lw + rw) (fun _ -> Array.make !total 0) in
  let k = ref 0 in
  for h = 0 to matched - 1 do
    let t = hits.data.(2 * h) and g = hits.data.((2 * h) + 1) in
    for p = starts.(g) to starts.(g + 1) - 1 do
      let u = members.(p) in
      for a = 0 to lw - 1 do
        out.(a).(!k) <- row_id ls a t
      done;
      for b = 0 to rw - 1 do
        out.(lw + b).(!k) <- row_id rs b u
      done;
      incr k
    done
  done;
  out

(* The root join counts from a key → multiplicity table on the right
   rows, with no pair built; its hits and misses are added to [metrics]
   once. *)
let join_count metrics l r =
  let rs = stream metrics r.plan in
  let built = Array.make rs.bound 0 and m = ref 0 in
  rs.iter (fun u ->
      built.(!m) <- key_code ~build:true rs r.key u;
      incr m);
  let table = key_table r.key !m in
  Key_table.count table (Kernel.Raw built) None !m;
  let probes, hits, total =
    match probe_vector l with
    | Some (codes, (rows, n), buffer) ->
      let hits, total = Key_table.probe_count table codes rows n in
      Option.iter Scratch.free buffer;
      (n, hits, total)
    | None ->
      let ls = stream metrics l.plan and vals = Key_table.vals table in
      let probes = ref 0 and hits = ref 0 and total = ref 0 in
      ls.iter (fun t ->
          let n = vals.(Key_table.slot table (key_code ~build:false ls l.key t)) in
          incr probes;
          hits := !hits + Bool.to_int (n > 0);
          total := !total + n);
      (!probes, !hits, !total)
  in
  Key_table.free table;
  Obs.Metrics.add_probes metrics ~hits ~misses:(probes - hits);
  total

(* The tuples of a plan's rows, in stream order. *)
let tuples metrics shape plan =
  let s = stream metrics plan in
  let gather = gatherer shape in
  let out = Array.make s.bound [||] and k = ref 0 in
  s.iter (fun t ->
      out.(!k) <- gather s t;
      incr k);
  if !k = s.bound then out else Array.sub out 0 !k

(* --- compiling expressions -------------------------------------------- *)

(* A selection over a leaf keeps [Relation.count_pred]'s rule, judged
   on the leaf, which for a sample read in place is its base: the scan
   kernels at and above the kernel threshold, the row predicate below
   it.  Over the leaf's scan or its selection vector it narrows the
   vector (stacked selections conjoin, and [Kernel] runs a
   conjunction's kernels in sequence); over a join or a filter it tests
   the leaf's row through the compiled kernel; over a product it goes
   to the side that holds the leaf, which keeps the product's order. *)
let rec select_rows relation leaf p plan =
  let above = Relation.cardinality relation >= Relation.kernel_threshold in
  match plan with
  | Scan_rows (_, ids) when above -> Select_rows (Relation.columnar relation, ids, p)
  | Select_rows (view, ids, q) -> Select_rows (view, ids, Predicate.And (q, p))
  | Product_rows prod ->
    let lw = Array.length prod.lshape.leaves in
    if leaf < lw then Product_rows { prod with left = select_rows relation leaf p prod.left }
    else Product_rows { prod with right = select_rows relation (leaf - lw) p prod.right }
  | Scan_rows _ | Filter_rows _ | Test_rows _ | Join_rows _ ->
    let keep =
      if above then Kernel.compile (Relation.columnar relation) p
      else
        let keep = Predicate.compile (Relation.schema relation) p in
        fun i -> keep (Relation.tuple relation i)
    in
    Filter_rows (plan, leaf, keep)

(* A blocking operator's result, as a new leaf. *)
let distinct_leaf schema tuples = leaf_shape (Relation.distinct (Relation.of_array schema tuples))

let rec compile_rows metrics catalog expr =
  match expr with
  | Expr.Base name -> leaf_shape (Catalog.find catalog name)
  | Expr.Select (p, e) -> (
    let shape, plan = compile_rows metrics catalog e in
    let resolve name = shape.pos.(Schema.index_of shape.schema name) in
    let leaves =
      List.sort_uniq Int.compare (List.map (fun a -> fst (resolve a)) (Predicate.attributes p))
    in
    match leaves, plan with
    | ([] | [ _ ]), _ ->
      let leaf = match leaves with [ leaf ] -> leaf | _ -> 0 in
      let relation = shape.leaves.(leaf) in
      let local name =
        (Schema.attribute (Relation.schema relation) (snd (resolve name))).Schema.name
      in
      (shape, select_rows relation leaf (Predicate.map_attributes local p) plan)
    | _ :: _ :: _, Product_rows prod ->
      (* Tested inside the product's loop, under the product's names. *)
      let whole name =
        let at = resolve name in
        let rec find q = if prod.whole.pos.(q) = at then q else find (q + 1) in
        (Schema.attribute prod.whole.schema (find 0)).Schema.name
      in
      let p = Predicate.map_attributes whole p in
      let test = match prod.test with None -> p | Some q -> Predicate.And (q, p) in
      (shape, Product_rows { prod with test = Some test })
    | _ :: _ :: _, _ -> (shape, Test_rows (plan, shape, Predicate.compile shape.schema p)))
  | Expr.Equijoin (pairs, l, r) ->
    let sl, pl = compile_rows metrics catalog l in
    let sr, pr = compile_rows metrics catalog r in
    let at shape name = shape.pos.(Schema.index_of shape.schema name) in
    let codes =
      match pairs with
      | [ (a, b) ] ->
        let kl, jl = at sl a and kr, jr = at sr b in
        let view shape k = Relation.columnar shape.leaves.(k) in
        Option.map
          (fun { Kernel.left; right; lo; hi } ->
            (Codes { leaf = kl; codes = left; lo; hi }, Codes { leaf = kr; codes = right; lo; hi }))
          (Kernel.join_codes (view sl kl) jl (view sr kr) jr)
      | _ -> None
    in
    let kl, kr =
      match codes with
      | Some keys -> keys
      | None ->
        let dict = Key_dict.create () in
        let key shape names = Tuples (dict, shape.leaves, Array.of_list (List.map (at shape) names)) in
        (key sl (List.map fst pairs), key sr (List.map snd pairs))
    in
    (concat_shape sl sr, Join_rows ({ plan = pl; key = kl }, { plan = pr; key = kr }))
  | Expr.Product (l, r) -> product metrics catalog None l r
  | Expr.Theta_join (p, l, r) -> product metrics catalog (Some p) l r
  | Expr.Rename (pairs, e) ->
    let shape, plan = compile_rows metrics catalog e in
    ({ shape with schema = Schema.rename shape.schema pairs }, plan)
  | Expr.Project (names, e) ->
    let shape, plan = compile_rows metrics catalog e in
    let pos = List.map (fun name -> shape.pos.(Schema.index_of shape.schema name)) names in
    let schema = Schema.project shape.schema names in
    ({ shape with schema; pos = Array.of_list pos }, plan)
  | Expr.Distinct e ->
    let shape, input = input_tuples metrics catalog e in
    distinct_leaf shape.schema input
  | Expr.Union (l, r) ->
    (* The right operand takes the left schema: operands are
       union-compatible, names may differ. *)
    let shape, left = input_tuples metrics catalog l in
    let _, right = input_tuples metrics catalog r in
    distinct_leaf shape.schema (Array.append left right)
  | Expr.Inter (l, r) -> semi metrics catalog ~keep:true l r
  | Expr.Diff (l, r) -> semi metrics catalog ~keep:false l r
  | Expr.Aggregate (by, specs, e) ->
    let shape, input = input_tuples metrics catalog e in
    let rows = Aggregate_impl.run ~input_schema:shape.schema ~by ~specs (Array.to_seq input) in
    leaf_shape (Relation.of_array (Expr.schema_of catalog expr) (Array.of_list rows))

and product metrics catalog test l r =
  let sl, pl = compile_rows metrics catalog l in
  let sr, pr = compile_rows metrics catalog r in
  let whole = concat_shape sl sr in
  (whole, Product_rows { left = pl; right = pr; lshape = sl; rshape = sr; whole; test })

(* The distinct left tuples whose membership in the right bag is
   [keep]. *)
and semi metrics catalog ~keep l r =
  let shape, left = input_tuples metrics catalog l in
  let _, right = input_tuples metrics catalog r in
  let members = Tuple_hash.create (max 16 (Array.length right)) in
  Array.iter (fun t -> Tuple_hash.replace members t ()) right;
  let kept = Seq.filter (fun t -> Tuple_hash.mem members t = keep) (Array.to_seq left) in
  distinct_leaf shape.schema (Array.of_seq kept)

and input_tuples metrics catalog e =
  let shape, plan = compile_rows metrics catalog e in
  (shape, tuples metrics shape plan)

let rec count_plan metrics = function
  | Scan_rows (n, _) -> n
  | Select_rows (view, ids, p) -> Kernel.count ?ids view p
  | Join_rows (l, r) -> join_count metrics l r
  | Product_rows { left; right; test = None; _ } ->
    let n = count_plan metrics left in
    n * count_plan metrics right
  | Product_rows ({ test = Some test; _ } as p) ->
    let n = ref 0 in
    test_pairs p (pair_of metrics p) test (fun _ -> incr n);
    !n
  | (Filter_rows _ | Test_rows _) as plan ->
    let n = ref 0 in
    (stream metrics plan).iter (fun _ -> incr n);
    !n

let count_expr ?(metrics = Obs.Metrics.noop) catalog expr =
  ignore (Expr.schema_of catalog expr);
  count_plan metrics (snd (compile_rows metrics catalog expr))

let eval ?(metrics = Obs.Metrics.noop) catalog expr =
  ignore (Expr.schema_of catalog expr);
  let shape, plan = compile_rows metrics catalog expr in
  Relation.of_array shape.schema (tuples metrics shape plan)
