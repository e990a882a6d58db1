module Tuple_hash = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

type cursor = {
  schema : Schema.t;
  next : unit -> Tuple.t option;
  reset : unit -> unit;
}

let schema c = c.schema

let next c = c.next ()

let reset c = c.reset ()

let scan relation =
  let position = ref 0 in
  {
    schema = Relation.schema relation;
    next =
      (fun () ->
        if !position >= Relation.cardinality relation then None
        else begin
          let tuple = Relation.tuple relation !position in
          incr position;
          Some tuple
        end);
    reset = (fun () -> position := 0);
  }

let filter keep input =
  let rec pull () =
    match input.next () with
    | Some tuple when keep tuple -> Some tuple
    | Some _ -> pull ()
    | None -> None
  in
  { schema = input.schema; next = pull; reset = input.reset }

let project schema indices input =
  {
    schema;
    next = (fun () -> Option.map (fun t -> Tuple.project t indices) (input.next ()));
    reset = input.reset;
  }

let nested_product ?(keep = fun _ -> true) schema left right =
  let current_left = ref None in
  let rec pull () =
    match !current_left with
    | None -> (
      match left.next () with
      | None -> None
      | Some tl ->
        current_left := Some tl;
        right.reset ();
        pull ())
    | Some tl -> (
      match right.next () with
      | None ->
        current_left := None;
        pull ()
      | Some tr ->
        let combined = Tuple.concat tl tr in
        if keep combined then Some combined else pull ())
  in
  {
    schema;
    next = pull;
    reset =
      (fun () ->
        current_left := None;
        left.reset ();
        right.reset ());
  }

let hash_join ?(metrics = Obs.Metrics.noop) schema ~left_key ~right_key left right =
  (* Blocking build side; [table = None] marks "not built yet" so reset
     can force a rebuild. *)
  let table = ref None in
  let pending = ref [] in
  let build () =
    let t = Tuple_hash.create 256 in
    let rec consume () =
      match right.next () with
      | None -> ()
      | Some tr ->
        let key = Tuple.project tr right_key in
        let bucket = try Tuple_hash.find t key with Not_found -> [] in
        Tuple_hash.replace t key (tr :: bucket);
        consume ()
    in
    consume ();
    (* Buckets accumulate reversed; restore build order. *)
    Tuple_hash.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) t;
    table := Some t
  in
  let rec pull () =
    if !table = None then build ();
    match !pending with
    | tuple :: rest ->
      pending := rest;
      Some tuple
    | [] -> (
      match left.next () with
      | None -> None
      | Some tl -> (
        let t = Option.get !table in
        let key = Tuple.project tl left_key in
        match Tuple_hash.find_opt t key with
        | Some bucket ->
          Obs.Metrics.probe_hit metrics;
          pending := List.map (fun tr -> Tuple.concat tl tr) bucket;
          pull ()
        | None ->
          Obs.Metrics.probe_miss metrics;
          pull ()))
  in
  {
    schema;
    next = pull;
    reset =
      (fun () ->
        pending := [];
        table := None;
        left.reset ();
        right.reset ());
  }

let dedup input =
  let seen = ref (Tuple_hash.create 256) in
  let rec pull () =
    match input.next () with
    | None -> None
    | Some tuple ->
      if Tuple_hash.mem !seen tuple then pull ()
      else begin
        Tuple_hash.add !seen tuple ();
        Some tuple
      end
  in
  {
    schema = input.schema;
    next = pull;
    reset =
      (fun () ->
        seen := Tuple_hash.create 256;
        input.reset ());
  }

let sort compare input =
  let sorted = ref None in
  let position = ref 0 in
  let build () =
    input.reset ();
    let out = ref [] in
    let rec drain () =
      match input.next () with
      | Some tuple ->
        out := tuple :: !out;
        drain ()
      | None -> ()
    in
    drain ();
    let tuples = Array.of_list !out in
    Array.sort compare tuples;
    sorted := Some tuples;
    position := 0
  in
  {
    schema = input.schema;
    next =
      (fun () ->
        if !sorted = None then build ();
        match !sorted with
        | Some tuples when !position < Array.length tuples ->
          let tuple = tuples.(!position) in
          incr position;
          Some tuple
        | Some _ | None -> None);
    reset =
      (fun () ->
        sorted := None;
        position := 0);
  }

let key_compare key t1 t2 = Tuple.compare (Tuple.project t1 key) (Tuple.project t2 key)

let sort_by key input = sort (key_compare key) input

let merge_join schema ~left_key ~right_key left right =
  let left_sorted = sort_by left_key left in
  let right_sorted = sort_by right_key right in
  (* State: the current left tuple, and the buffered right group
     (tuples sharing one key) being replayed against it. *)
  let current_left = ref None in
  let group = ref [||] in
  let group_key = ref None in
  let group_pos = ref 0 in
  let right_pending = ref None in
  let next_right () =
    match !right_pending with
    | Some tuple ->
      right_pending := None;
      Some tuple
    | None -> right_sorted.next ()
  in
  (* Load the right group whose key is [key]; skip smaller keys.
     Returns true when such a group exists. *)
  let load_group key =
    let already_loaded =
      match !group_key with Some k -> Tuple.equal k key | None -> false
    in
    if already_loaded then true
    else begin
      let rec skip () =
        match next_right () with
        | None -> None
        | Some tuple ->
          let k = Tuple.project tuple right_key in
          let c = Tuple.compare k key in
          if c < 0 then skip () else Some (tuple, k, c)
      in
      match skip () with
      | None -> false
      | Some (tuple, k, c) when c = 0 ->
        (* Collect the whole equal-key run. *)
        let members = ref [ tuple ] in
        let rec collect () =
          match next_right () with
          | Some t when Tuple.equal (Tuple.project t right_key) k ->
            members := t :: !members;
            collect ()
          | Some t -> right_pending := Some t
          | None -> ()
        in
        collect ();
        group := Array.of_list (List.rev !members);
        group_key := Some key;
        group_pos := 0;
        true
      | Some (tuple, k, _) ->
        (* Right ran past: remember the tuple, report no group.  Keep
           the overshoot group loaded so later left keys can match. *)
        right_pending := Some tuple;
        ignore k;
        false
    end
  in
  let rec pull () =
    match !current_left with
    | None -> (
      match left_sorted.next () with
      | None -> None
      | Some tl ->
        current_left := Some tl;
        group_pos := 0;
        pull ())
    | Some tl ->
      let key = Tuple.project tl left_key in
      if load_group key then
        if !group_pos < Array.length !group then begin
          let tr = (!group).(!group_pos) in
          incr group_pos;
          Some (Tuple.concat tl tr)
        end
        else begin
          current_left := None;
          pull ()
        end
      else begin
        current_left := None;
        pull ()
      end
  in
  {
    schema;
    next = pull;
    reset =
      (fun () ->
        current_left := None;
        group := [||];
        group_key := None;
        group_pos := 0;
        right_pending := None;
        left_sorted.reset ();
        right_sorted.reset ());
  }

let materialize_set input =
  let table = Tuple_hash.create 256 in
  input.reset ();
  let rec consume () =
    match input.next () with
    | None -> ()
    | Some tuple ->
      Tuple_hash.replace table tuple ();
      consume ()
  in
  consume ();
  table

let union left right =
  (* Dedup'd left, then right tuples not already seen on the left. *)
  let deduped_left = dedup left in
  let deduped_right = dedup right in
  let left_done = ref false in
  let seen_left = ref (Tuple_hash.create 256) in
  let rec pull () =
    if not !left_done then
      match deduped_left.next () with
      | Some tuple ->
        Tuple_hash.replace !seen_left tuple ();
        Some tuple
      | None ->
        left_done := true;
        pull ()
    else
      match deduped_right.next () with
      | Some tuple -> if Tuple_hash.mem !seen_left tuple then pull () else Some tuple
      | None -> None
  in
  {
    schema = left.schema;
    next = pull;
    reset =
      (fun () ->
        left_done := false;
        seen_left := Tuple_hash.create 256;
        deduped_left.reset ();
        deduped_right.reset ());
  }

let semi ~negate left right =
  let table = ref None in
  let deduped_left = dedup left in
  let rec pull () =
    if !table = None then table := Some (materialize_set right);
    match deduped_left.next () with
    | None -> None
    | Some tuple ->
      let present = Tuple_hash.mem (Option.get !table) tuple in
      if present <> negate then Some tuple else pull ()
  in
  {
    schema = left.schema;
    next = pull;
    reset =
      (fun () ->
        table := None;
        deduped_left.reset ())
  }

let inter left right = semi ~negate:false left right

let diff left right = semi ~negate:true left right

(* Blocking hash aggregate: drains the input at first pull. *)
let aggregate schema ~input_schema ~by ~specs input =
  let rows = ref None in
  let drain () =
    input.reset ();
    let produce () = input.next () in
    let seq = Seq.of_dispenser produce in
    rows := Some (ref (Aggregate_impl.run ~input_schema ~by ~specs seq))
  in
  let pull () =
    if !rows = None then drain ();
    match !rows with
    | Some pending -> (
      match !pending with
      | tuple :: rest ->
        pending := rest;
        Some tuple
      | [] -> None)
    | None -> None
  in
  { schema; next = pull; reset = (fun () -> rows := None) }

(* Streaming selection over a base relation through a compiled kernel
   predicate: identical tuples in identical order to scan-then-filter,
   but each pull tests unboxed column data instead of a boxed tuple. *)
let kernel_filter relation p =
  let pred = Kernel.compile (Relation.columnar relation) p in
  let n = Relation.cardinality relation in
  let position = ref 0 in
  let rec pull () =
    if !position >= n then None
    else begin
      let i = !position in
      incr position;
      if pred i then Some (Relation.tuple relation i) else pull ()
    end
  in
  { schema = Relation.schema relation; next = pull; reset = (fun () -> position := 0) }

(* Streaming columnar hash join over two base relations: the build side
   is an int-code → row-index table.  [None] when the key columns admit
   no int code space (see Kernel.join_codes).  Output order and
   per-probe hit/miss accounting match [hash_join] exactly. *)
let kernel_hash_join ?(metrics = Obs.Metrics.noop) schema l jl r jr =
  match Kernel.join_codes (Relation.columnar l) jl (Relation.columnar r) jr with
  | None -> None
  | Some (kl, kr) ->
    let lt = Relation.tuples l and rt = Relation.tuples r in
    let table = ref None in
    let pending = ref [] in
    let position = ref 0 in
    let build () =
      let t = Hashtbl.create (max 16 (Array.length kr)) in
      Array.iteri
        (fun i k ->
          let bucket = try Hashtbl.find t k with Not_found -> [] in
          Hashtbl.replace t k (i :: bucket))
        kr;
      (* Buckets accumulate reversed; restore build order. *)
      Hashtbl.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) t;
      table := Some t
    in
    let rec pull () =
      if !table = None then build ();
      match !pending with
      | tuple :: rest ->
        pending := rest;
        Some tuple
      | [] ->
        if !position >= Array.length kl then None
        else begin
          let li = !position in
          incr position;
          match Hashtbl.find_opt (Option.get !table) (Array.unsafe_get kl li) with
          | Some bucket ->
            Obs.Metrics.probe_hit metrics;
            pending :=
              List.map
                (fun ri -> Tuple.concat lt.(li) (Array.unsafe_get rt ri))
                bucket;
            pull ()
          | None ->
            Obs.Metrics.probe_miss metrics;
            pull ()
        end
    in
    Some
      {
        schema;
        next = pull;
        reset =
          (fun () ->
            pending := [];
            position := 0;
            table := None);
      }

let rec of_expr ?(metrics = Obs.Metrics.noop) catalog expr =
  let of_expr catalog expr = of_expr ~metrics catalog expr in
  let out_schema = Expr.schema_of catalog expr in
  match expr with
  | Expr.Base name -> scan (Catalog.find catalog name)
  | Expr.Select (p, Expr.Base name)
    when Relation.cardinality (Catalog.find catalog name) >= Relation.kernel_threshold ->
    kernel_filter (Catalog.find catalog name) p
  | Expr.Select (p, e) ->
    let input = of_expr catalog e in
    filter (Predicate.compile input.schema p) input
  | Expr.Project (names, e) ->
    let input = of_expr catalog e in
    let indices =
      Array.of_list (List.map (fun name -> Schema.index_of input.schema name) names)
    in
    project out_schema indices input
  | Expr.Distinct e -> dedup (of_expr catalog e)
  | Expr.Product (l, r) -> nested_product out_schema (of_expr catalog l) (of_expr catalog r)
  | Expr.Equijoin (pairs, l, r) ->
    let row_join () =
      let left = of_expr catalog l and right = of_expr catalog r in
      let left_key =
        Array.of_list (List.map (fun (a, _) -> Schema.index_of left.schema a) pairs)
      in
      let right_key =
        Array.of_list (List.map (fun (_, b) -> Schema.index_of right.schema b) pairs)
      in
      hash_join ~metrics out_schema ~left_key ~right_key left right
    in
    (match pairs, l, r with
    | [ (a, b) ], Expr.Base ln, Expr.Base rn ->
      let rl = Catalog.find catalog ln and rr = Catalog.find catalog rn in
      let jl = Schema.index_of (Relation.schema rl) a in
      let jr = Schema.index_of (Relation.schema rr) b in
      (match kernel_hash_join ~metrics out_schema rl jl rr jr with
      | Some cursor -> cursor
      | None -> row_join ())
    | _ -> row_join ())
  | Expr.Theta_join (p, l, r) ->
    let keep = Predicate.compile out_schema p in
    nested_product ~keep out_schema (of_expr catalog l) (of_expr catalog r)
  | Expr.Union (l, r) -> union (of_expr catalog l) (of_expr catalog r)
  | Expr.Inter (l, r) -> inter (of_expr catalog l) (of_expr catalog r)
  | Expr.Diff (l, r) -> diff (of_expr catalog l) (of_expr catalog r)
  | Expr.Rename (_, e) ->
    let input = of_expr catalog e in
    { input with schema = out_schema }
  | Expr.Aggregate (by, specs, e) ->
    let input = of_expr catalog e in
    aggregate out_schema ~input_schema:input.schema ~by ~specs input

let run cursor =
  cursor.reset ();
  let out = ref [] in
  let rec drain () =
    match cursor.next () with
    | Some tuple ->
      out := tuple :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Relation.of_array cursor.schema (Array.of_list (List.rev !out))

let count cursor =
  cursor.reset ();
  let rec drain acc =
    match cursor.next () with Some _ -> drain (acc + 1) | None -> acc
  in
  drain 0

(* --- counting on row ids --------------------------------------------- *)

(* An SPJ tree of base relations, single-leaf selections, single-pair
   equijoins on int-codeable keys, renames and bag projections is
   counted without building a tuple.  Rows are row ids: a one-leaf
   subtree streams its leaf's row ids through its selections, and an
   inner join emits the row ids of its pairs, one int array per leaf.  A
   selection tests the row of its one leaf, and a join matches the key
   codes read at those ids ({!Kernel.join_codes}).  Every join probes
   once per left row, hit or miss, as [hash_join] does, so the probe
   counters agree with the cursor engine's.  Any other node declines
   before anything is evaluated, and the whole expression goes to the
   cursor engine. *)

exception Decline

module Int_table = Kernel.Int_table

(* Subtrees compile to a [plan] over the leaves of a [shape]; [pos]
   maps each schema position to its leaf and that leaf's column. *)
type shape = {
  schema : Schema.t;
  leaves : Relation.t array;
  pos : (int * int) array;
}

type plan =
  | Scan_rows of int  (** every row of a leaf, in order *)
  | Select_rows of Column.t * Predicate.t
      (** the rows of a leaf at or above the kernel threshold that pass,
          in order: a selection vector from the scan kernels *)
  | Filter_rows of plan * int * (int -> bool)  (** keep rows whose [leaf] row passes *)
  | Join_rows of side * side

and side = {
  plan : plan;
  leaf : int;
  codes : int array;  (** key code by row id of [leaf] *)
}

(* A selection over a leaf keeps [Relation.count_pred]'s rule: the scan
   kernels at and above the kernel threshold, the row predicate below
   it.  Over the leaf's full scan or its selection vector it narrows
   the vector (stacked selections conjoin, and [Kernel] runs a
   conjunction's kernels in sequence); over a join it tests the leaf's
   row through the compiled kernel. *)
let select_rows relation leaf p plan =
  let above = Relation.cardinality relation >= Relation.kernel_threshold in
  match plan with
  | Scan_rows _ when above -> Select_rows (Relation.columnar relation, p)
  | Select_rows (view, q) -> Select_rows (view, Predicate.And (q, p))
  | Scan_rows _ | Filter_rows _ | Join_rows _ ->
    let keep =
      if above then Kernel.compile (Relation.columnar relation) p
      else
        let keep = Predicate.compile (Relation.schema relation) p in
        fun i -> keep (Relation.tuple relation i)
    in
    Filter_rows (plan, leaf, keep)

let rec compile_rows catalog expr =
  match expr with
  | Expr.Base name ->
    let r = Catalog.find catalog name in
    let schema = Relation.schema r in
    let pos = Array.init (Schema.arity schema) (fun j -> (0, j)) in
    ({ schema; leaves = [| r |]; pos }, Scan_rows (Relation.cardinality r))
  | Expr.Select (p, e) ->
    let shape, plan = compile_rows catalog e in
    let resolve name = shape.pos.(Schema.index_of shape.schema name) in
    let leaves = List.map (fun a -> fst (resolve a)) (Predicate.attributes p) in
    let leaf =
      match List.sort_uniq Int.compare leaves with
      | [] -> 0
      | [ leaf ] -> leaf
      | _ :: _ :: _ -> raise Decline
    in
    let relation = shape.leaves.(leaf) in
    let local name =
      (Schema.attribute (Relation.schema relation) (snd (resolve name))).Schema.name
    in
    (shape, select_rows relation leaf (Predicate.map_attributes local p) plan)
  | Expr.Equijoin ([ (a, b) ], l, r) ->
    let sl, pl = compile_rows catalog l and sr, pr = compile_rows catalog r in
    let kl, jl = sl.pos.(Schema.index_of sl.schema a) in
    let kr, jr = sr.pos.(Schema.index_of sr.schema b) in
    let view shape k = Relation.columnar shape.leaves.(k) in
    (match Kernel.join_codes (view sl kl) jl (view sr kr) jr with
    | None -> raise Decline
    | Some (cl, cr) ->
      let offset = Array.length sl.leaves in
      ( {
          schema = Schema.concat sl.schema sr.schema;
          leaves = Array.append sl.leaves sr.leaves;
          pos = Array.append sl.pos (Array.map (fun (k, j) -> (k + offset, j)) sr.pos);
        },
        Join_rows
          ({ plan = pl; leaf = kl; codes = cl }, { plan = pr; leaf = kr; codes = cr }) ))
  | Expr.Rename (pairs, e) ->
    let shape, plan = compile_rows catalog e in
    ({ shape with schema = Schema.rename shape.schema pairs }, plan)
  | Expr.Project (names, e) ->
    let shape, plan = compile_rows catalog e in
    let pos = List.map (fun name -> shape.pos.(Schema.index_of shape.schema name)) names in
    let schema = Schema.project shape.schema names in
    ({ shape with schema; pos = Array.of_list pos }, plan)
  | Expr.Equijoin _ | Expr.Distinct _ | Expr.Product _ | Expr.Theta_join _
  | Expr.Union _ | Expr.Inter _ | Expr.Diff _ | Expr.Aggregate _ ->
    raise Decline

(* A plan's rows as a stream of row handles.  With [ids = None] the plan
   has one leaf and a handle is that leaf's row id, so selections and
   joins read their columns with nothing materialized; otherwise a
   handle indexes [ids], one id array per leaf.  [bound] bounds the
   number of rows. *)
type stream = {
  iter : (int -> unit) -> unit;
  ids : int array array option;
  bound : int;
}

let row_id s leaf t = match s.ids with None -> t | Some ids -> ids.(leaf).(t)

let width s = match s.ids with None -> 1 | Some ids -> Array.length ids

let rec stream metrics = function
  | Scan_rows n ->
    {
      iter =
        (fun f ->
          for i = 0 to n - 1 do
            f i
          done);
      ids = None;
      bound = n;
    }
  | Select_rows (view, p) ->
    let ids = Kernel.filter_indices view p in
    { iter = (fun f -> Array.iter f ids); ids = None; bound = Array.length ids }
  | Filter_rows (plan, leaf, keep) ->
    let s = stream metrics plan in
    { s with iter = (fun f -> s.iter (fun t -> if keep (row_id s leaf t) then f t)) }
  | Join_rows (l, r) ->
    let ids = join_rows metrics l r in
    let n = Array.length ids.(0) in
    {
      iter =
        (fun f ->
          for t = 0 to n - 1 do
            f t
          done);
      ids = Some ids;
      bound = n;
    }

(* An inner join emits the row ids of its pairs, left-major and in build
   order within a left row, like [hash_join]'s output.  The right rows
   are grouped by key code; the left rows are streamed once to probe
   (once per left row), keeping the hits and their groups, and the
   output is filled from those. *)
and join_rows metrics l r =
  let rs = stream metrics r.plan and ls = stream metrics l.plan in
  let table = Int_table.create rs.bound in
  let rows = Array.make rs.bound 0 and row_group = Array.make rs.bound 0 in
  let m = ref 0 and groups = ref 0 in
  rs.iter (fun u ->
      let k = r.codes.(row_id rs r.leaf u) in
      let s = Int_table.slot table k in
      if table.vals.(s) = 0 then begin
        table.keys.(s) <- k;
        incr groups;
        table.vals.(s) <- !groups
      end;
      rows.(!m) <- u;
      row_group.(!m) <- table.vals.(s) - 1;
      incr m);
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
    members.(fill.(g)) <- rows.(p);
    fill.(g) <- fill.(g) + 1
  done;
  (* [hits] holds each matched left row and its group, in turn. *)
  let hits = ref (Array.make 64 0) and used = ref 0 and total = ref 0 and probes = ref 0 in
  let push x =
    if !used = Array.length !hits then begin
      let grown = Array.make (2 * !used) 0 in
      Array.blit !hits 0 grown 0 !used;
      hits := grown
    end;
    !hits.(!used) <- x;
    incr used
  in
  ls.iter (fun t ->
      incr probes;
      let g = table.vals.(Int_table.slot table l.codes.(row_id ls l.leaf t)) - 1 in
      if g >= 0 then begin
        push t;
        push g;
        total := !total + starts.(g + 1) - starts.(g)
      end);
  Obs.Metrics.add_probes metrics ~hits:(!used / 2) ~misses:(!probes - (!used / 2));
  let lw = width ls and rw = width rs in
  let out = Array.init (lw + rw) (fun _ -> Array.make !total 0) in
  let k = ref 0 in
  for h = 0 to (!used / 2) - 1 do
    let t = !hits.(2 * h) and g = !hits.((2 * h) + 1) in
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
  let table = Int_table.create rs.bound in
  rs.iter (fun u ->
      let k = r.codes.(row_id rs r.leaf u) in
      let s = Int_table.slot table k in
      table.keys.(s) <- k;
      table.vals.(s) <- table.vals.(s) + 1);
  let ls = stream metrics l.plan in
  let probes = ref 0 and hits = ref 0 and total = ref 0 in
  ls.iter (fun t ->
      let n = table.vals.(Int_table.slot table l.codes.(row_id ls l.leaf t)) in
      incr probes;
      hits := !hits + Bool.to_int (n > 0);
      total := !total + n);
  Obs.Metrics.add_probes metrics ~hits:!hits ~misses:(!probes - !hits);
  !total

let count_plan metrics = function
  | Scan_rows n -> n
  | Select_rows (view, p) -> Kernel.count view p
  | Join_rows (l, r) -> join_count metrics l r
  | Filter_rows _ as plan ->
    let n = ref 0 in
    (stream metrics plan).iter (fun _ -> incr n);
    !n

let count_expr ?(metrics = Obs.Metrics.noop) catalog expr =
  ignore (Expr.schema_of catalog expr);
  match compile_rows catalog expr with
  | _, plan -> count_plan metrics plan
  | exception Decline -> count (of_expr ~metrics catalog expr)
