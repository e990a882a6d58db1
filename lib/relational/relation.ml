type t = {
  schema : Schema.t;
  tuples : Tuple.t array;
  (* Lazily-built columnar view.  The memoizing store is idempotent
     (Column.of_tuples is deterministic and O(arity)), so a racing
     build under domains is benign. *)
  mutable view : Column.t option;
}

let mk schema tuples = { schema; tuples; view = None }

let type_ok ty value =
  match value with
  | Value.Null -> true
  | _ -> Value.type_of value = ty

let check_tuple schema tuple =
  if Tuple.arity tuple <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation.make: tuple %s has arity %d, schema %s expects %d"
         (Tuple.to_string tuple) (Tuple.arity tuple) (Schema.to_string schema)
         (Schema.arity schema));
  Array.iteri
    (fun i v ->
      let attr = Schema.attribute schema i in
      if not (type_ok attr.Schema.ty v) then
        invalid_arg
          (Printf.sprintf "Relation.make: value %s not of type %s (attribute %s)"
             (Value.to_string v) (Value.ty_to_string attr.Schema.ty) attr.Schema.name))
    tuple

let make schema tuples =
  List.iter (check_tuple schema) tuples;
  mk schema (Array.of_list tuples)

let of_array schema tuples = mk schema tuples

let schema r = r.schema

let cardinality r = Array.length r.tuples

let is_empty r = cardinality r = 0

let tuples r = r.tuples

let tuple r i = r.tuples.(i)

let columnar r =
  match r.view with
  | Some view -> view
  | None ->
    let view = Column.of_tuples r.schema r.tuples in
    r.view <- Some view;
    view

let iter f r = Array.iter f r.tuples

let fold f init r = Array.fold_left f init r.tuples

let filter p r = mk r.schema (Array.of_seq (Seq.filter p (Array.to_seq r.tuples)))

let map schema f r = mk schema (Array.map f r.tuples)

let count p r =
  Array.fold_left (fun acc t -> if p t then acc + 1 else acc) 0 r.tuples

(* Columnar kernels engage at this size and above: below it the
   compile + column-encode overhead eats the per-row win. *)
let kernel_threshold = 1024

let use_kernel r = cardinality r >= kernel_threshold

(* Force the columnar view now iff the kernels would build it lazily on
   first use: long-lived catalogs (the serve daemon) pay the encode at
   load time instead of on the first request that touches the
   relation.  A no-op below the kernel threshold — building a view no
   kernel will read would be pure waste. *)
let warm_view r = if use_kernel r then ignore (columnar r)

let count_pred p r =
  if use_kernel r then Kernel.count (columnar r) p
  else count (Predicate.compile r.schema p) r

let filter_pred p r =
  if use_kernel r then
    let indices = Kernel.filter_indices (columnar r) p in
    mk r.schema (Array.map (fun i -> Array.unsafe_get r.tuples i) indices)
  else filter (Predicate.compile r.schema p) r

module Tuple_hash = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let distinct r =
  let seen = Tuple_hash.create (max 16 (cardinality r)) in
  let keep = ref [] in
  Array.iter
    (fun t ->
      if not (Tuple_hash.mem seen t) then begin
        Tuple_hash.add seen t ();
        keep := t :: !keep
      end)
    r.tuples;
  mk r.schema (Array.of_list (List.rev !keep))

let is_set r =
  let seen = Tuple_hash.create (max 16 (cardinality r)) in
  let rec loop i =
    if i >= cardinality r then true
    else if Tuple_hash.mem seen r.tuples.(i) then false
    else begin
      Tuple_hash.add seen r.tuples.(i) ();
      loop (i + 1)
    end
  in
  loop 0

let column r name =
  let i = Schema.index_of r.schema name in
  match r.view with
  | Some view -> Column.values view i
  | None -> Array.map (fun t -> Tuple.get t i) r.tuples

let iter_column_int r name f =
  Column.iter_int (columnar r) (Schema.index_of r.schema name) f

let iter_column_float r name f =
  Column.iter_float (columnar r) (Schema.index_of r.schema name) f

let append r1 r2 =
  if not (Schema.equal r1.schema r2.schema) then
    invalid_arg "Relation.append: schemas differ";
  mk r1.schema (Array.append r1.tuples r2.tuples)

let empty schema = mk schema [||]

let to_string ?(limit = 20) r =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Schema.to_string r.schema);
  Buffer.add_string buffer (Printf.sprintf " [%d tuples]\n" (cardinality r));
  let shown = min limit (cardinality r) in
  for i = 0 to shown - 1 do
    Buffer.add_string buffer ("  " ^ Tuple.to_string r.tuples.(i) ^ "\n")
  done;
  if shown < cardinality r then Buffer.add_string buffer "  ...\n";
  Buffer.contents buffer

let pp ppf r = Format.pp_print_string ppf (to_string r)
