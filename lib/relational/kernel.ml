(* Compiled predicate / join kernels over columnar views.

   Everything here must decide exactly like the row path: [compile view
   p] and the scan kernels agree with [Predicate.compile (Column.schema
   view) p] on every row, and the join code spaces agree with
   [Tuple.equal] on key tuples (so Null keys match Null keys and
   dictionary codes match exactly the string equalities).  The property
   tests in test/test_columnar.ml pin this contract. *)

let cmp_holds = Predicate.cmp_holds

(* Generic term evaluation over boxed column views — mirrors
   [Predicate.compile_term] (None = Null). *)
let rec term_eval view = function
  | Predicate.Attr name ->
    let j = Schema.index_of (Column.schema view) name in
    let vs = Column.values view j in
    fun i -> (match Array.unsafe_get vs i with Value.Null -> None | v -> Some v)
  | Predicate.Const Value.Null -> fun _ -> None
  | Predicate.Const v -> fun _ -> Some v
  | Predicate.Add (t1, t2) -> arith view ( +. ) t1 t2
  | Predicate.Sub (t1, t2) -> arith view ( -. ) t1 t2
  | Predicate.Mul (t1, t2) -> arith view ( *. ) t1 t2
  | Predicate.Div (t1, t2) -> arith view ( /. ) t1 t2

and arith view op t1 t2 =
  let f1 = term_eval view t1 and f2 = term_eval view t2 in
  fun i ->
    match f1 i, f2 i with
    | Some v1, Some v2 -> Some (Value.Float (op (Value.to_float v1) (Value.to_float v2)))
    | None, _ | _, None -> None

(* [Between (t, lo, hi)] is lo <= v && v <= hi under Value.compare, as
   comparisons.  Null bounds collapse (Null is below every value): a
   Null [hi] passes nothing, which is [None]. *)
let between t lo hi =
  match (lo : Value.t), (hi : Value.t) with
  | _, Value.Null -> None
  | Value.Null, hi -> Some (Predicate.Cmp (Predicate.Le, t, Predicate.Const hi))
  | lo, hi ->
    Some
      (Predicate.And
         ( Predicate.Cmp (Predicate.Ge, t, Predicate.Const lo),
           Predicate.Cmp (Predicate.Le, t, Predicate.Const hi) ))

(* --- scan kernels ------------------------------------------------------ *)

(* A selection decided over a run of rows adds each row's verdict, 0 or
   1, instead of branching on it.  The verdict of a typed Attr-vs-Const
   comparison is one comparison on the column's data, negated when
   [flip] (0 or 1, xored in) is 1, so each column type needs only the
   comparisons that are not negations of another.  A column's nulls
   fail every such comparison: they are dropped by a [Not_null] pass
   first, so the comparison loops never read a null bit.  Any other
   predicate is [Row_test], its compiled closure called once per row.
   [compile] turns the same scans into row predicates, so both decide
   an Attr-vs-Const comparison from one case table. *)
type float_op =
  | Feq  (** [v = c] *)
  | Fgt  (** [v > c] *)
  | Fge  (** [v >= c] *)
  | Fnum  (** [v = v]: not NaN *)
  | Fnone  (** false *)

type scan =
  | Int_range of { data : int array; lo : int; span : int; flip : int }
  | Float_cmp of { data : Column.floats; op : float_op; c : float; flip : int }
  | Code_pass of { codes : int array; pass : int array  (** by code + 1; Null = 0 *) }
  | Not_null of Column.Bitset.t  (** the null bitset *)
  | Row_test of (int -> bool)

(* [lo <= v <= hi] in one comparison: [v - lo] read as unsigned is at
   most [hi - lo] exactly when [v] lies in the range, and flipping the
   sign bit turns that unsigned order into the signed one. *)
let int_range data ~lo ~hi ~flip =
  Int_range { data; lo; span = (hi - lo) lxor min_int; flip }

(* [cmp_holds cmp (Int.compare v c)] as a range, or its negation. *)
let int_scan data (cmp : Predicate.cmp) c =
  match cmp with
  | Eq -> int_range data ~lo:c ~hi:c ~flip:0
  | Neq -> int_range data ~lo:c ~hi:c ~flip:1
  | Le -> int_range data ~lo:min_int ~hi:c ~flip:0
  | Gt -> int_range data ~lo:min_int ~hi:c ~flip:1
  | Ge -> int_range data ~lo:c ~hi:max_int ~flip:0
  | Lt -> int_range data ~lo:c ~hi:max_int ~flip:1

(* [cmp_holds cmp (Float.compare v c)] as an op and a flip.
   Float.compare is a total order with NaN equal to itself and below
   every other float: Lt and Le, which NaN rows pass, are the negations
   of Ge and Gt, which they fail. *)
let float_op (cmp : Predicate.cmp) c =
  if Float.is_nan c then
    match cmp with
    | Eq | Le -> (Fnum, 1)
    | Neq | Gt -> (Fnum, 0)
    | Lt -> (Fnone, 0)
    | Ge -> (Fnone, 1)
  else
    match cmp with
    | Eq -> (Feq, 0)
    | Neq -> (Feq, 1)
    | Gt -> (Fgt, 0)
    | Le -> (Fgt, 1)
    | Ge -> (Fge, 0)
    | Lt -> (Fge, 1)

let float_scan data cmp c =
  let op, flip = float_op cmp c in
  Float_cmp { data; op; c; flip }

(* A cross-type comparison passes every non-null row or none. *)
let every_int data holds =
  int_range data ~lo:min_int ~hi:max_int ~flip:(1 - Bool.to_int holds)

let every_float data holds = Float_cmp { data; op = Fnone; c = 0.; flip = Bool.to_int holds }

let code_scan codes dict verdict =
  let pass = Array.make (Array.length dict + 1) 0 in
  Array.iteri (fun code entry -> pass.(code + 1) <- Bool.to_int (verdict entry)) dict;
  Code_pass { codes; pass }

let[@inline] int_verdict data lo span flip i =
  Bool.to_int ((Array.unsafe_get data i - lo) lxor min_int <= span) lxor flip

let[@inline] float_hit op c (v : float) =
  match op with
  | Feq -> Bool.to_int (v = c)
  | Fgt -> Bool.to_int (v > c)
  | Fge -> Bool.to_int (v >= c)
  | Fnum -> Bool.to_int (v = v)
  | Fnone -> 0

let[@inline] float_verdict (data : Column.floats) op c flip i =
  float_hit op c (Bigarray.Array1.unsafe_get data i) lxor flip

let[@inline] code_verdict codes pass i = Array.unsafe_get pass (Array.unsafe_get codes i + 1)

let[@inline] null_verdict nulls i = 1 - Bool.to_int (Column.Bitset.get nulls i)

(* Attr-vs-Const over column [j]: its scan, and the null bitset whose
   rows fail it and are dropped first.  The comparisons with no typed
   loop (an int column against a float constant, bools, the Generic
   fallback, a Null constant) are [Row_test] closures. *)
let attr_const_scan view j cmp k =
  match Column.col view j, (k : Value.t) with
  | _, Value.Null -> (Row_test (fun _ -> false), None)
  | Column.Ints { data; nulls; _ }, Value.Int c -> (int_scan data cmp c, nulls)
  | Column.Ints { data; nulls; _ }, Value.Float c ->
    let op, flip = float_op cmp c in
    (Row_test (fun i -> float_hit op c (float_of_int (Array.unsafe_get data i)) lxor flip = 1), nulls)
  | Column.Ints { data; nulls; _ }, Value.Str _ ->
    (* rank Int < rank Str: the verdict is the same for every non-null
       row. *)
    (every_int data (cmp_holds cmp (-1)), nulls)
  | Column.Ints { data; nulls; _ }, Value.Bool _ -> (every_int data (cmp_holds cmp 1), nulls)
  | Column.Floats { data; nulls }, Value.Int c -> (float_scan data cmp (float_of_int c), nulls)
  | Column.Floats { data; nulls }, Value.Float c -> (float_scan data cmp c, nulls)
  | Column.Floats { data; nulls }, Value.Str _ -> (every_float data (cmp_holds cmp (-1)), nulls)
  | Column.Floats { data; nulls }, Value.Bool _ -> (every_float data (cmp_holds cmp 1), nulls)
  | Column.Dict { codes; dict; _ }, Value.Str s ->
    (* The verdict per dictionary entry: the scan then reads one int per
       row regardless of string lengths. *)
    (code_scan codes dict (fun entry -> cmp_holds cmp (String.compare entry s)), None)
  | Column.Dict { codes; dict; _ }, (Value.Int _ | Value.Float _ | Value.Bool _) ->
    (* rank Str > every other non-null rank. *)
    (code_scan codes dict (fun _ -> cmp_holds cmp 1), None)
  | Column.Bools { data; nulls }, Value.Bool b ->
    let pass_false = cmp_holds cmp (Bool.compare false b) in
    let pass_true = cmp_holds cmp (Bool.compare true b) in
    (Row_test (fun i -> if Column.Bitset.get data i then pass_true else pass_false), nulls)
  | Column.Bools { nulls; _ }, (Value.Int _ | Value.Float _ | Value.Str _) ->
    let holds = cmp_holds cmp (-1) in
    (Row_test (fun _ -> holds), nulls)
  | Column.Generic vs, k ->
    ( Row_test
        (fun i ->
          match Array.unsafe_get vs i with
          | Value.Null -> false
          | v -> cmp_holds cmp (Value.compare v k)),
      None )

(* A scan as a row predicate, for the row-at-a-time callers. *)
let row_predicate (scan, nulls) =
  let pass =
    match scan with
    | Int_range { data; lo; span; flip } -> fun i -> int_verdict data lo span flip i = 1
    | Float_cmp { data; op; c; flip } -> fun i -> float_verdict data op c flip i = 1
    | Code_pass { codes; pass } -> fun i -> code_verdict codes pass i = 1
    | Not_null nulls -> fun i -> null_verdict nulls i = 1
    | Row_test test -> test
  in
  match nulls with
  | None -> pass
  | Some ns -> fun i -> (not (Column.Bitset.get ns i)) && pass i

let rec compile view (p : Predicate.t) =
  match p with
  | Predicate.True -> fun _ -> true
  | Predicate.False -> fun _ -> false
  | Predicate.Cmp (cmp, Predicate.Attr name, Predicate.Const k) ->
    row_predicate (attr_const_scan view (Schema.index_of (Column.schema view) name) cmp k)
  | Predicate.Cmp (cmp, Predicate.Const k, Predicate.Attr name) ->
    row_predicate
      (attr_const_scan view (Schema.index_of (Column.schema view) name) (Predicate.flip cmp) k)
  | Predicate.Cmp (cmp, t1, t2) ->
    let f1 = term_eval view t1 and f2 = term_eval view t2 in
    fun i ->
      (match f1 i, f2 i with
      | Some v1, Some v2 -> cmp_holds cmp (Value.compare v1 v2)
      | None, _ | _, None -> false)
  | Predicate.Between (t, lo, hi) -> (
    match between t lo hi with
    | Some p -> compile view p
    | None ->
      (* The term must still be resolved so unknown attributes raise
         like the row path. *)
      let _resolved = term_eval view t in
      fun _ -> false)
  | Predicate.In (t, []) ->
    let _resolved = term_eval view t in
    fun _ -> false
  | Predicate.In (t, vs) ->
    compile view
      (List.fold_left
         (fun acc v -> Predicate.Or (acc, Predicate.Cmp (Predicate.Eq, t, Predicate.Const v)))
         (Predicate.Cmp (Predicate.Eq, t, Predicate.Const (List.hd vs)))
         (List.tl vs))
  | Predicate.And (p1, p2) ->
    let f1 = compile view p1 and f2 = compile view p2 in
    fun i -> f1 i && f2 i
  | Predicate.Or (p1, p2) ->
    let f1 = compile view p1 and f2 = compile view p2 in
    fun i -> f1 i || f2 i
  | Predicate.Not p ->
    let f = compile view p in
    fun i -> not (f i)

let scan_of view (p : Predicate.t) =
  match p with
  | Predicate.Cmp (cmp, Predicate.Attr name, Predicate.Const k) ->
    attr_const_scan view (Schema.index_of (Column.schema view) name) cmp k
  | Predicate.Cmp (cmp, Predicate.Const k, Predicate.Attr name) ->
    attr_const_scan view (Schema.index_of (Column.schema view) name) (Predicate.flip cmp) k
  | _ -> (Row_test (compile view p), None)

(* Each scan runs one loop to count and one to fill, over the first [n]
   rows of [rows]: [None] for the rows [0 .. n-1] of the view, [Some
   ids] for the rows [ids].  A fill writes every row id at the cursor,
   which advances by the row's verdict, until the rows run out or [out]
   is full, so the passing rows come out at the front of [out].  The
   only branches per row test values that never change in a loop (the
   row source, a float operator) and the two bounds. *)

let[@inline] row rows p = match rows with None -> p | Some ids -> Array.unsafe_get ids p

let scan_count scan (rows, n) =
  let hits = ref 0 in
  (match scan with
  | Int_range { data; lo; span; flip } ->
    for p = 0 to n - 1 do
      hits := !hits + int_verdict data lo span flip (row rows p)
    done
  | Float_cmp { data; op; c; flip } ->
    for p = 0 to n - 1 do
      hits := !hits + float_verdict data op c flip (row rows p)
    done
  | Code_pass { codes; pass } ->
    for p = 0 to n - 1 do
      hits := !hits + code_verdict codes pass (row rows p)
    done
  | Not_null nulls ->
    for p = 0 to n - 1 do
      hits := !hits + null_verdict nulls (row rows p)
    done
  | Row_test test ->
    for p = 0 to n - 1 do
      hits := !hits + Bool.to_int (test (row rows p))
    done);
  !hits

(* The number of rows written.  The cursor never passes the row being
   read, and a write happens only below [Array.length out]. *)
let scan_fill scan (rows, n) out =
  let m = Array.length out in
  let k = ref 0 and p = ref 0 in
  (match scan with
  | Int_range { data; lo; span; flip } ->
    while !p < n && !k < m do
      let i = row rows !p in
      Array.unsafe_set out !k i;
      k := !k + int_verdict data lo span flip i;
      incr p
    done
  | Float_cmp { data; op; c; flip } ->
    while !p < n && !k < m do
      let i = row rows !p in
      Array.unsafe_set out !k i;
      k := !k + float_verdict data op c flip i;
      incr p
    done
  | Code_pass { codes; pass } ->
    while !p < n && !k < m do
      let i = row rows !p in
      Array.unsafe_set out !k i;
      k := !k + code_verdict codes pass i;
      incr p
    done
  | Not_null nulls ->
    while !p < n && !k < m do
      let i = row rows !p in
      Array.unsafe_set out !k i;
      k := !k + null_verdict nulls i;
      incr p
    done
  | Row_test test ->
    while !p < n && !k < m do
      let i = row rows !p in
      Array.unsafe_set out !k i;
      k := !k + Bool.to_int (test i);
      incr p
    done);
  !k

(* The rows that pass [scan], at the front of a buffer, and their
   number.  Rows the pool can hold fill a buffer of [n] ids from
   [Scratch] in one pass, with no counting pass; more rows (a census of
   a large base) are counted first and fill an exact array.  Only the
   pooled buffers go back, so the pool sees no length that depends on
   the data. *)
let pooled (_, n) = n <= Scratch.max_words

let select_scan scan rows =
  let out = if pooled rows then Scratch.take (snd rows) else Array.make (scan_count scan rows) 0 in
  (out, scan_fill scan rows out)

let give_back rows out = if pooled rows then Scratch.free out

(* [p] with a [Between] lowered as [compile] lowers it. *)
let lowered (p : Predicate.t) =
  match p with
  | Predicate.Between (t, lo, hi) -> Option.value (between t lo hi) ~default:p
  | p -> p

(* A predicate's scans in the order they run, the first and the rest:
   a conjunction's in sequence, and a column's null drop before its
   comparison loop. *)
let rec scans view p =
  match lowered p with
  | Predicate.And (p1, p2) ->
    let first, rest = scans view p1 in
    let second, last = scans view p2 in
    (first, rest @ (second :: last))
  | p -> (
    match scan_of view p with
    | scan, None -> (scan, [])
    | scan, Some nulls -> (Not_null nulls, [ scan ]))

(* The first scan selects into a buffer, and each later one keeps its
   rows among those in place: its cursor never passes the row it
   reads. *)
let select_scans rows (first, rest) =
  List.fold_left
    (fun (out, k) scan -> (out, scan_fill scan (Some out, k) out))
    (select_scan first rows) rest

let select_rows view p rows = select_scans rows (scans view p)

(* One scan counts; several select, and count what the last keeps. *)
let count_rows view p rows =
  match scans view p with
  | scan, [] -> scan_count scan rows
  | scans ->
    let out, k = select_scans rows scans in
    give_back rows out;
    k

let rows view ids = match ids with None -> (None, Column.length view) | Some a -> (ids, Array.length a)

let count ?ids view p = count_rows view p (rows view ids)

let selection ?ids view p =
  let rows = rows view ids in
  if pooled rows then Some (select_rows view p rows) else None

let filter_indices ?ids view p =
  let rows = rows view ids in
  let out, k = select_rows view p rows in
  if k = Array.length out then out
  else begin
    let indices = Array.sub out 0 k in
    give_back rows out;
    indices
  end

(* --- equijoin key tables ------------------------------------------------ *)

(* Open addressing from int keys to positive ints, for key ranges too
   wide to index directly: a slot [s] is empty while [vals.(s) = 0]. *)
module Int_table = struct
  type t = {
    shift : int;
    keys : int array;
    vals : int array;
  }

  (* At least [2n] slots (at least 16), so it never fills with [n]
     keys. *)
  let create n =
    let bits = ref 4 in
    while 1 lsl !bits < 2 * n do
      incr bits
    done;
    let size = 1 lsl !bits in
    { shift = Sys.int_size - !bits; keys = Scratch.take size; vals = Scratch.take size }

  (* The slot holding key [k], or the empty slot where it would go. *)
  let slot t k =
    let mask = Array.length t.vals - 1 in
    let s = ref ((k * 0x4F1BBCDCBFA53E0B) lsr t.shift) in
    while
      Array.unsafe_get t.vals !s <> 0 && Array.unsafe_get t.keys !s <> k
    do
      s := (!s + 1) land mask
    done;
    !s
end

type codes =
  | Raw of int array
  | Remapped of int array * int array

(* Row [i]'s code.  [i] is a row id of the key column's view, and a
   dictionary code [c] is at least [-1], so neither read is out of
   bounds. *)
let[@inline] code_at codes i =
  match codes with
  | Raw data -> Array.unsafe_get data i
  | Remapped (codes, remap) -> Array.unsafe_get remap (Array.unsafe_get codes i + 1)

module Key_table = struct
  type t =
    | Dense of { lo : int; vals : int array }  (** code [k] at [k - lo] *)
    | Hashed of Int_table.t

  (* [hi - lo] wraps below 0 when the span passes [max_int], and an
     empty range ([hi < lo]) takes the open-addressing table, which
     holds any code. *)
  let create ~lo ~hi ~rows =
    let span = hi - lo in
    if hi >= lo && span >= 0 && span < Int.max 4096 (8 * rows) then
      Dense { lo; vals = Scratch.take (span + 1) }
    else Hashed (Int_table.create rows)

  let free = function
    | Dense { vals; _ } -> Scratch.free vals
    | Hashed h ->
      Scratch.free h.keys;
      Scratch.free h.vals

  let vals = function Dense { vals; _ } -> vals | Hashed h -> h.vals

  let[@inline] slot t k = match t with Dense { lo; _ } -> k - lo | Hashed h -> Int_table.slot h k

  let[@inline] add t k =
    match t with
    | Dense { lo; _ } -> k - lo
    | Hashed h ->
      let s = Int_table.slot h k in
      Array.unsafe_set h.keys s k;
      s

  (* The loops below read row [row rows p]'s code inline and index a
     dense table with no range check: every code lies in the range the
     table was made for.  The counting loops keep the bounds check on
     the slot they write, so a code outside the range raises rather than
     writes outside the array; the probes read without it. *)

  let count t codes rows n =
    let vals = vals t in
    for p = 0 to n - 1 do
      let s = add t (code_at codes (row rows p)) in
      vals.(s) <- vals.(s) + 1
    done

  (* One loop per table kind pays here, where the planner's histograms
     run over every passing row of a base, and not in the probes below
     (THEORY.md section 16). *)
  let histogram t codes rows n =
    let out = Scratch.take (Array.length (vals t)) in
    (match t with
    | Dense { lo; _ } ->
      for p = 0 to n - 1 do
        let s = code_at codes (row rows p) - lo in
        out.(s) <- out.(s) + 1
      done
    | Hashed h ->
      for p = 0 to n - 1 do
        let s = Int_table.slot h (code_at codes (row rows p)) in
        out.(s) <- out.(s) + 1
      done);
    out

  let probe_iter t codes rows n f =
    let vals = vals t in
    for p = 0 to n - 1 do
      let i = row rows p in
      let v = Array.unsafe_get vals (slot t (code_at codes i)) in
      if v > 0 then f i v
    done

  (* Branch-free: whether a probe hits depends on the data, and a branch
     on it mispredicts at middling hit rates (THEORY.md section 16). *)
  let probe_count t codes rows n =
    let vals = vals t and hits = ref 0 and total = ref 0 in
    for p = 0 to n - 1 do
      let v = Array.unsafe_get vals (slot t (code_at codes (row rows p))) in
      hits := !hits + Bool.to_int (v > 0);
      total := !total + v
    done;
    (!hits, !total)
end

(* --- equijoin key codes ---------------------------------------------- *)

module Key_dict = struct
  module H = Hashtbl.Make (struct
    type t = Tuple.t

    let equal = Tuple.equal
    let hash = Tuple.hash
  end)

  type t = int H.t

  let create () = H.create 16

  let code t key =
    match H.find_opt t key with
    | Some c -> c
    | None ->
      let c = H.length t in
      H.add t key c;
      c

  let find t key = match H.find_opt t key with Some c -> c | None -> -1

  let length = H.length
end

type coded = {
  left : codes;
  right : codes;
  lo : int;
  hi : int;
}

let join_codes l jl r jr =
  match Column.col l jl, Column.col r jr with
  | ( Column.Ints { data = dl; nulls = None; lo = ll; hi = hl },
      Column.Ints { data = dr; nulls = None; lo = lr; hi = hr } ) ->
    (* Raw ints are their own codes, within the two columns' ranges.  A
       null on either side has no int sentinel available, so those keys
       take the dictionary. *)
    Some { left = Raw dl; right = Raw dr; lo = Int.min ll lr; hi = Int.max hl hr }
  | ( Column.Dict { codes = lcodes; dict = ldict; _ },
      Column.Dict { codes = rcodes; dict = rdict; lookup = rlookup; _ } ) ->
    (* Left codes read through a remap into the right dictionary, by
       code + 1: -1 (Null) maps to -1, so Null keys match Null keys
       exactly as Tuple.equal does; strings absent from the right get
       -2, which never appears in right codes.  The left code array is
       not mapped: a join over a few rows of a large base reads only
       those rows' codes. *)
    let remap = Array.make (Array.length ldict + 1) (-1) in
    Array.iteri
      (fun c s ->
        remap.(c + 1) <- (match Hashtbl.find_opt rlookup s with Some c -> c | None -> -2))
      ldict;
    Some
      { left = Remapped (lcodes, remap); right = Raw rcodes; lo = -2; hi = Array.length rdict - 1 }
  | (Column.Ints _ | Column.Floats _ | Column.Bools _ | Column.Dict _ | Column.Generic _), _
    ->
    None
