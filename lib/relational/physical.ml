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

(* Counting fast paths that materialize nothing: a selection over a
   base relation is {!Relation.count_pred} (the kernel count at and
   above the kernel threshold, the row count below it), and a bare
   two-leaf equijoin probes the code-space table (same per-probe
   hit/miss accounting as the streaming join above).  Everything else
   drains the cursor. *)
let count_expr ?metrics catalog expr =
  let fast_count () =
    match expr with
    | Expr.Select (p, Expr.Base name) ->
      (* Raise the cursor path's schema errors, not the kernel's. *)
      ignore (Expr.schema_of catalog expr);
      Some (Relation.count_pred p (Catalog.find catalog name))
    | Expr.Equijoin ([ (a, b) ], Expr.Base ln, Expr.Base rn) ->
      let l = Catalog.find catalog ln and r = Catalog.find catalog rn in
      let jl = Schema.index_of (Relation.schema l) a in
      let jr = Schema.index_of (Relation.schema r) b in
      Kernel.equijoin_count ?metrics (Relation.columnar l) jl (Relation.columnar r) jr
    | _ -> None
  in
  match fast_count () with
  | Some n -> n
  | None -> count (of_expr ?metrics catalog expr)
