(* Columnar relation storage: per-attribute unboxed arrays built lazily
   from a row-major tuple array.  See column.mli for the encoding
   contract. *)

module Bitset = struct
  type t = { length : int; words : int array }

  let bits = Sys.int_size

  let create length = { length; words = Scratch.take ((length + bits - 1) / bits) }

  let free t = Scratch.free t.words

  let length t = t.length

  let set t i = t.words.(i / bits) <- t.words.(i / bits) lor (1 lsl (i mod bits))

  let clear t i = t.words.(i / bits) <- t.words.(i / bits) land lnot (1 lsl (i mod bits))

  let[@inline] get t i = (Array.unsafe_get t.words (i / bits) lsr (i mod bits)) land 1 = 1

  let[@inline] test_and_set t i =
    let w = i / bits and m = 1 lsl (i mod bits) in
    let x = t.words.(w) in
    Array.unsafe_set t.words w (x lor m);
    x land m <> 0

  (* Branch-free: each step sums adjacent fields into fields twice as
     wide, and the multiply gathers the byte sums into the top byte,
     which has room for any count up to [bits]. *)
  let[@inline] popcount w =
    let w = w - ((w lsr 1) land 0x5555_5555_5555_5555) in
    let w = (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333) in
    let w = (w + (w lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
    (w * 0x0101_0101_0101_0101) lsr 56

  let count t =
    let c = ref 0 in
    for w = 0 to Array.length t.words - 1 do
      c := !c + popcount (Array.unsafe_get t.words w)
    done;
    !c

  (* Bits past [length] stay clear, so a copy that shortens masks its
     last word. *)
  let resize t length =
    let words = Array.make ((length + bits - 1) / bits) 0 in
    let n = Array.length words in
    Array.blit t.words 0 words 0 (min n (Array.length t.words));
    if length < t.length && length mod bits > 0 then
      words.(n - 1) <- words.(n - 1) land ((1 lsl (length mod bits)) - 1);
    { length; words }

  (* Empty words are skipped, and each word is read once.  A sparse
     word (at most 16 set bits) peels off its lowest set bit,
     [low = w land (-w)], one position per step, at index
     [popcount (low - 1)]; for bit 62, the sign bit, [low] is [min_int]
     and [low - 1] is [max_int].  A denser word is walked up to its
     highest set bit without a branch per bit: every position is
     written at the cursor, and the cursor moves past it only when its
     bit is set.  While bits remain in the word, at least one set
     position is still to come, so the cursor stays below the number of
     set bits read so far.  A word whose bits would pass [count] is
     refused before any of them is written. *)
  let positions ~count t =
    let out = Scratch.take count and j = ref 0 in
    let words = t.words in
    let wrong () = invalid_arg "Bitset.positions: count is not the number of set bits" in
    for w = 0 to Array.length words - 1 do
      let x = Array.unsafe_get words w in
      if x <> 0 then begin
        let c = popcount x in
        if !j + c > count then wrong ();
        let word = ref x and k = ref (w * bits) in
        if c <= 16 then
          while !word <> 0 do
            let low = !word land (- !word) in
            Array.unsafe_set out !j (!k + popcount (low - 1));
            incr j;
            word := !word lxor low
          done
        else
          while !word <> 0 do
            Array.unsafe_set out !j !k;
            j := !j + (!word land 1);
            word := !word lsr 1;
            incr k
          done
      end
    done;
    if !j <> count then wrong ();
    out
end

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type col =
  | Ints of { data : int array; nulls : Bitset.t option; lo : int; hi : int }
  | Floats of { data : floats; nulls : Bitset.t option }
  | Bools of { data : Bitset.t; nulls : Bitset.t option }
  | Dict of {
      codes : int array;
      dict : string array;
      lookup : (string, int) Hashtbl.t;
      has_null : bool;
    }
  | Generic of Value.t array

type t = {
  schema : Schema.t;
  length : int;
  rows : Tuple.t array;
  (* Both caches are memoized per column on first touch.  Under domains
     two racers may encode the same column; the encodes are
     deterministic and the pointer store is atomic, so the race is
     benign (equal values, last write wins). *)
  cols : col option array;
  boxed : Value.t array option array;
}

let schema t = t.schema

let length t = t.length

let is_null nulls i = match nulls with None -> false | Some ns -> Bitset.get ns i

(* --- encoding -------------------------------------------------------- *)

(* Each encoder walks the column once; a value whose constructor does
   not match the declared type (possible through the unchecked
   [Relation.of_array]) aborts the typed encoding and the column falls
   back to [Generic]. *)

exception Fallback

(* Lazily-created null bitmap: most columns have none. *)
let mark_null nulls n i =
  let ns =
    match !nulls with
    | Some ns -> ns
    | None ->
      let ns = Bitset.create n in
      nulls := Some ns;
      ns
  in
  Bitset.set ns i

let encode_ints tuples j n =
  let data = Array.make n 0 in
  let nulls = ref None and lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    match Array.unsafe_get (Array.unsafe_get tuples i) j with
    | Value.Int v ->
      data.(i) <- v;
      if v < !lo then lo := v;
      if v > !hi then hi := v
    | Value.Null -> mark_null nulls n i
    | Value.Bool _ | Value.Float _ | Value.Str _ -> raise Fallback
  done;
  Ints { data; nulls = !nulls; lo = !lo; hi = !hi }

let encode_floats tuples j n =
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  let nulls = ref None in
  for i = 0 to n - 1 do
    match Array.unsafe_get (Array.unsafe_get tuples i) j with
    | Value.Float v -> Bigarray.Array1.unsafe_set data i v
    | Value.Null ->
      Bigarray.Array1.unsafe_set data i 0.;
      mark_null nulls n i
    | Value.Bool _ | Value.Int _ | Value.Str _ -> raise Fallback
  done;
  Floats { data; nulls = !nulls }

let encode_bools tuples j n =
  let data = Bitset.create n in
  let nulls = ref None in
  for i = 0 to n - 1 do
    match Array.unsafe_get (Array.unsafe_get tuples i) j with
    | Value.Bool true -> Bitset.set data i
    | Value.Bool false -> ()
    | Value.Null -> mark_null nulls n i
    | Value.Int _ | Value.Float _ | Value.Str _ -> raise Fallback
  done;
  Bools { data; nulls = !nulls }

let encode_dict tuples j n =
  let codes = Array.make n (-1) in
  let lookup = Hashtbl.create 64 in
  let dict_rev = ref [] in
  let next = ref 0 in
  let has_null = ref false in
  for i = 0 to n - 1 do
    match Array.unsafe_get (Array.unsafe_get tuples i) j with
    | Value.Str s ->
      let code =
        match Hashtbl.find_opt lookup s with
        | Some code -> code
        | None ->
          let code = !next in
          incr next;
          Hashtbl.add lookup s code;
          dict_rev := s :: !dict_rev;
          code
      in
      codes.(i) <- code
    | Value.Null -> has_null := true
    | Value.Bool _ | Value.Int _ | Value.Float _ -> raise Fallback
  done;
  let dict = Array.make !next "" in
  List.iteri (fun k s -> dict.(!next - 1 - k) <- s) !dict_rev;
  Dict { codes; dict; lookup; has_null = !has_null }

let encode_generic tuples j n = Generic (Array.init n (fun i -> tuples.(i).(j)))

let encode_col tuples j n ty =
  try
    match ty with
    | Value.Tint -> encode_ints tuples j n
    | Value.Tfloat -> encode_floats tuples j n
    | Value.Tbool -> encode_bools tuples j n
    | Value.Tstr -> encode_dict tuples j n
    | Value.Tnull -> encode_generic tuples j n
  with Fallback -> encode_generic tuples j n

let of_tuples schema rows =
  let arity = Schema.arity schema in
  {
    schema;
    length = Array.length rows;
    rows;
    cols = Array.make arity None;
    boxed = Array.make arity None;
  }

let col t j =
  match t.cols.(j) with
  | Some c -> c
  | None ->
    let c = encode_col t.rows j t.length (Schema.attribute t.schema j).Schema.ty in
    t.cols.(j) <- Some c;
    c

(* --- decoding -------------------------------------------------------- *)

let value t i j =
  match col t j with
  | Ints { data; nulls; _ } ->
    if is_null nulls i then Value.Null else Value.Int (Array.unsafe_get data i)
  | Floats { data; nulls } ->
    if is_null nulls i then Value.Null else Value.Float (Bigarray.Array1.unsafe_get data i)
  | Bools { data; nulls } ->
    if is_null nulls i then Value.Null else Value.Bool (Bitset.get data i)
  | Dict { codes; dict; _ } ->
    let code = Array.unsafe_get codes i in
    if code < 0 then Value.Null else Value.Str (Array.unsafe_get dict code)
  | Generic values -> Array.unsafe_get values i

let values t j =
  match t.boxed.(j) with
  | Some vs -> vs
  | None ->
    let vs =
      match col t j with
      | Generic vs -> vs
      | _ -> Array.init t.length (fun i -> value t i j)
    in
    t.boxed.(j) <- Some vs;
    vs

let to_tuples t =
  let arity = Schema.arity t.schema in
  Array.init t.length (fun i -> Array.init arity (fun j -> value t i j))

let iter_int t j f =
  match col t j with
  | Ints { data; nulls = None; _ } ->
    Array.iter f data;
    true
  | Ints _ | Floats _ | Bools _ | Dict _ | Generic _ -> false

let iter_float t j f =
  match col t j with
  | Floats { data; nulls = None } ->
    for i = 0 to t.length - 1 do
      f (Bigarray.Array1.unsafe_get data i)
    done;
    true
  | Ints _ | Floats _ | Bools _ | Dict _ | Generic _ -> false
