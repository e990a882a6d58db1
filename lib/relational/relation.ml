(* A sample's tuples are gathered from its base on first read: columnar
   consumers read its base in place and never need them.  A masked
   relation resolves its mask to a gather first.  One field holds each
   form, so a racing resolve or gather under domains is benign. *)
type rows =
  | Tuples of Tuple.t array
  | Gather of Tuple.t array * int array
  | Masked of Tuple.t array * Column.Bitset.t * int  (** base, mask, set bits *)

type t = {
  schema : Schema.t;
  mutable rows : rows;
  (* Lazily-built columnar view.  The memoizing store is idempotent
     (Column.of_tuples is deterministic and O(arity)), so a racing
     build under domains is benign. *)
  mutable view : Column.t option;
  (* A sample of a relation with a view: that relation and the row ids,
     which columnar readers scan in place (see [source]). *)
  over : (t * int array) option;
}

let mk schema tuples = { schema; rows = Tuples tuples; view = None; over = None }

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

let masked schema base mask ~live =
  if Column.Bitset.length mask > Array.length base then
    invalid_arg "Relation.masked: mask longer than the rows";
  { schema; rows = Masked (base, mask, live); view = None; over = None }

let schema r = r.schema

let cardinality r =
  match r.rows with
  | Tuples tuples -> Array.length tuples
  | Gather (_, ids) -> Array.length ids
  | Masked (_, _, live) -> live

let is_empty r = cardinality r = 0

(* Replace a masked form by the gather at its set bits.  Resolution is
   deterministic, so two domains racing to resolve store equal gathers
   and either store is harmless, as with the gather → tuples store. *)
let unmask r base mask live =
  match Column.Bitset.positions ~count:live mask with
  | ids -> r.rows <- Gather (base, ids)
  | exception Invalid_argument _ -> invalid_arg "Relation.masked: live is not the mask's count"

let rec tuples r =
  match r.rows with
  | Tuples tuples -> tuples
  | Gather (base, ids) ->
    let tuples = Array.map (fun i -> Array.unsafe_get base i) ids in
    r.rows <- Tuples tuples;
    tuples
  | Masked (base, mask, live) ->
    unmask r base mask live;
    tuples r

let tuple r i = (tuples r).(i)

let columnar r =
  match r.view with
  | Some view -> view
  | None ->
    let view = Column.of_tuples r.schema (tuples r) in
    r.view <- Some view;
    view

(* A sample of a gather view gathers from the same base at composed
   row ids, leaving the view's own tuples unbuilt. *)
let rec gather_rows r ids =
  match r.rows with
  | Tuples base -> Gather (base, ids)
  | Gather (base, inner) -> Gather (base, Array.map (fun i -> Array.unsafe_get inner i) ids)
  | Masked (base, mask, live) ->
    unmask r base mask live;
    gather_rows r ids

let sample r ids =
  let n = cardinality r in
  for k = 0 to Array.length ids - 1 do
    let i = Array.unsafe_get ids k in
    if i < 0 || i >= n then invalid_arg "Relation.sample: row id out of range"
  done;
  let over =
    match r.over, r.view with
    | Some (base, inner), _ -> Some (base, Array.map (fun i -> Array.unsafe_get inner i) ids)
    | None, Some _ -> Some (r, ids)
    | None, None -> None
  in
  let rows =
    match over with Some (base, ids) -> Gather (tuples base, ids) | None -> gather_rows r ids
  in
  { schema = r.schema; rows; view = None; over }

let source r = match r.over with Some (base, ids) -> (base, Some ids) | None -> (r, None)

let iter f r = Array.iter f (tuples r)

let fold f init r = Array.fold_left f init (tuples r)

let filter p r = mk r.schema (Array.of_seq (Seq.filter p (Array.to_seq (tuples r))))

let map schema f r = mk schema (Array.map f (tuples r))

let count p r =
  Array.fold_left (fun acc t -> if p t then acc + 1 else acc) 0 (tuples r)

(* Columnar kernels engage at this size and above: below it the
   compile + column-encode overhead eats the per-row win. *)
let kernel_threshold = 1024

let use_kernel r = cardinality r >= kernel_threshold

(* Create the columnar view now iff the kernels would build it lazily
   on first use.  Creating it encodes nothing; what it buys is that
   samples of the relation are read in place through it.  A no-op
   below the kernel threshold. *)
let warm_view r = if use_kernel r then ignore (columnar r)

let count_pred p r =
  if use_kernel r then Kernel.count (columnar r) p
  else count (Predicate.compile r.schema p) r

let filter_pred p r =
  if use_kernel r then
    let indices = Kernel.filter_indices (columnar r) p in
    let tuples = tuples r in
    mk r.schema (Array.map (fun i -> Array.unsafe_get tuples i) indices)
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
    (tuples r);
  mk r.schema (Array.of_list (List.rev !keep))

let is_set r =
  let tuples = tuples r in
  let seen = Tuple_hash.create (max 16 (Array.length tuples)) in
  let rec loop i =
    if i >= Array.length tuples then true
    else if Tuple_hash.mem seen tuples.(i) then false
    else begin
      Tuple_hash.add seen tuples.(i) ();
      loop (i + 1)
    end
  in
  loop 0

let column r name =
  let i = Schema.index_of r.schema name in
  match r.view with
  | Some view -> Column.values view i
  | None -> Array.map (fun t -> Tuple.get t i) (tuples r)

let iter_column_int r name f =
  Column.iter_int (columnar r) (Schema.index_of r.schema name) f

let iter_column_float r name f =
  Column.iter_float (columnar r) (Schema.index_of r.schema name) f

let append r1 r2 =
  if not (Schema.equal r1.schema r2.schema) then
    invalid_arg "Relation.append: schemas differ";
  mk r1.schema (Array.append (tuples r1) (tuples r2))

let empty schema = mk schema [||]

let to_string ?(limit = 20) r =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (Schema.to_string r.schema);
  Buffer.add_string buffer (Printf.sprintf " [%d tuples]\n" (cardinality r));
  let shown = min limit (cardinality r) in
  for i = 0 to shown - 1 do
    Buffer.add_string buffer ("  " ^ Tuple.to_string (tuple r i) ^ "\n")
  done;
  if shown < cardinality r then Buffer.add_string buffer "  ...\n";
  Buffer.contents buffer

let pp ppf r = Format.pp_print_string ppf (to_string r)
