(* Compiled predicate / join kernels over columnar views.

   Every closure produced here must decide exactly like the row path:
   [compile view p] agrees with [Predicate.compile (Column.schema view) p]
   on every row, and the join code spaces agree with [Tuple.equal] on
   key tuples (so Null keys match Null keys and dictionary codes match
   exactly the string equalities).  The property tests in
   test/test_columnar.ml pin this contract. *)

let cmp_holds = Predicate.cmp_holds

(* Tests [cmp_holds cmp (Float.compare v c)].  Float.compare is a total
   order with NaN equal to itself and below every other float, so the
   primitive comparisons need a NaN patch on the Lt/Le side. *)
let float_test cmp c =
  if Float.is_nan c then
    match (cmp : Predicate.cmp) with
    | Eq | Le -> Float.is_nan
    | Neq | Gt -> fun v -> not (Float.is_nan v)
    | Lt -> fun _ -> false
    | Ge -> fun _ -> true
  else
    match (cmp : Predicate.cmp) with
    | Eq -> fun v -> v = c
    | Neq -> fun v -> v <> c
    | Lt -> fun v -> v < c || Float.is_nan v
    | Le -> fun v -> v <= c || Float.is_nan v
    | Gt -> fun v -> v > c
    | Ge -> fun v -> v >= c

let guard_nulls nulls base =
  match nulls with
  | None -> base
  | Some ns -> fun i -> (not (Column.Bitset.get ns i)) && base i

(* Attr-vs-Const over one typed column.  [k] is non-Null here. *)
let compile_attr_const view j cmp k =
  match Column.col view j, (k : Value.t) with
  | _, Value.Null -> fun _ -> false
  | Column.Ints { data; nulls }, Value.Int c ->
    let test = Predicate.int_test cmp c in
    guard_nulls nulls (fun i -> test (Array.unsafe_get data i))
  | Column.Ints { data; nulls }, Value.Float c ->
    let test = float_test cmp c in
    guard_nulls nulls (fun i -> test (float_of_int (Array.unsafe_get data i)))
  | Column.Ints { data = _; nulls }, Value.Str _ ->
    (* rank Int < rank Str: the comparison is a compile-time constant
       that applies to every non-null row. *)
    if cmp_holds cmp (-1) then guard_nulls nulls (fun _ -> true) else fun _ -> false
  | Column.Ints { data = _; nulls }, Value.Bool _ ->
    if cmp_holds cmp 1 then guard_nulls nulls (fun _ -> true) else fun _ -> false
  | Column.Floats { data; nulls }, Value.Int c ->
    let test = float_test cmp (float_of_int c) in
    guard_nulls nulls (fun i -> test (Bigarray.Array1.unsafe_get data i))
  | Column.Floats { data; nulls }, Value.Float c ->
    let test = float_test cmp c in
    guard_nulls nulls (fun i -> test (Bigarray.Array1.unsafe_get data i))
  | Column.Floats { data = _; nulls }, Value.Str _ ->
    if cmp_holds cmp (-1) then guard_nulls nulls (fun _ -> true) else fun _ -> false
  | Column.Floats { data = _; nulls }, Value.Bool _ ->
    if cmp_holds cmp 1 then guard_nulls nulls (fun _ -> true) else fun _ -> false
  | Column.Dict { codes; dict; _ }, Value.Str s ->
    (* Precompute the verdict per dictionary entry: the scan then tests
       one byte per row regardless of string lengths. *)
    let pass = Array.map (fun entry -> cmp_holds cmp (String.compare entry s)) dict in
    fun i ->
      let code = Array.unsafe_get codes i in
      code >= 0 && Array.unsafe_get pass code
  | Column.Dict { codes; _ }, (Value.Int _ | Value.Float _ | Value.Bool _) ->
    (* rank Str > every other non-null rank. *)
    if cmp_holds cmp 1 then fun i -> Array.unsafe_get codes i >= 0 else fun _ -> false
  | Column.Bools { data; nulls }, Value.Bool b ->
    let pass_false = cmp_holds cmp (Bool.compare false b) in
    let pass_true = cmp_holds cmp (Bool.compare true b) in
    guard_nulls nulls (fun i ->
        if Column.Bitset.get data i then pass_true else pass_false)
  | Column.Bools { data = _; nulls }, (Value.Int _ | Value.Float _ | Value.Str _) ->
    if cmp_holds cmp (-1) then guard_nulls nulls (fun _ -> true) else fun _ -> false
  | Column.Generic vs, k ->
    fun i ->
      (match Array.unsafe_get vs i with
      | Value.Null -> false
      | v -> cmp_holds cmp (Value.compare v k))

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

let rec compile view (p : Predicate.t) =
  match p with
  | Predicate.True -> fun _ -> true
  | Predicate.False -> fun _ -> false
  | Predicate.Cmp (cmp, Predicate.Attr name, Predicate.Const k) ->
    compile_attr_const view (Schema.index_of (Column.schema view) name) cmp k
  | Predicate.Cmp (cmp, Predicate.Const k, Predicate.Attr name) ->
    compile_attr_const view (Schema.index_of (Column.schema view) name)
      (Predicate.flip cmp) k
  | Predicate.Cmp (cmp, t1, t2) ->
    let f1 = term_eval view t1 and f2 = term_eval view t2 in
    fun i ->
      (match f1 i, f2 i with
      | Some v1, Some v2 -> cmp_holds cmp (Value.compare v1 v2)
      | None, _ | _, None -> false)
  | Predicate.Between (t, lo, hi) -> (
    (* lo <= v && v <= hi under Value.compare.  Null bounds collapse at
       compile time (Null is below every value), but the term must still
       be resolved so unknown attributes raise like the row path. *)
    match lo, hi with
    | _, Value.Null ->
      let _resolved = term_eval view t in
      fun _ -> false
    | Value.Null, hi -> compile view (Predicate.Cmp (Predicate.Le, t, Predicate.Const hi))
    | lo, hi ->
      compile view
        (Predicate.And
           ( Predicate.Cmp (Predicate.Ge, t, Predicate.Const lo),
             Predicate.Cmp (Predicate.Le, t, Predicate.Const hi) )))
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

let count view p =
  let pred = compile view p in
  let hits = ref 0 in
  for i = 0 to Column.length view - 1 do
    if pred i then incr hits
  done;
  !hits

let count_indices view p indices =
  let pred = compile view p in
  let hits = ref 0 in
  Array.iter (fun i -> if pred i then incr hits) indices;
  !hits

let filter_indices view p =
  let pred = compile view p in
  let n = Column.length view in
  (* Two cheap passes beat accumulating a list: the compiled predicate
     is branch-predictable and the output is exactly sized. *)
  let hits = ref 0 in
  for i = 0 to n - 1 do
    if pred i then incr hits
  done;
  let out = Array.make !hits 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if pred i then begin
      Array.unsafe_set out !k i;
      incr k
    end
  done;
  out

(* --- equijoin key codes ---------------------------------------------- *)

let join_codes l jl r jr =
  match Column.col l jl, Column.col r jr with
  | Column.Ints { data = dl; nulls = None }, Column.Ints { data = dr; nulls = None } ->
    (* Raw ints are their own codes.  A null on either side has no int
       sentinel available, so those relations take the row path. *)
    Some (dl, dr)
  | ( Column.Dict { codes = lcodes; dict = ldict; _ },
      Column.Dict { codes = rcodes; lookup = rlookup; _ } ) ->
    (* Remap left codes into the right dictionary.  -1 (Null) maps to
       -1, so Null keys match Null keys exactly as Tuple.equal does;
       strings absent from the right get -2, which never appears in
       right codes. *)
    let remap =
      Array.map
        (fun s -> match Hashtbl.find_opt rlookup s with Some c -> c | None -> -2)
        ldict
    in
    let left =
      Array.map (fun c -> if c < 0 then -1 else Array.unsafe_get remap c) lcodes
    in
    Some (left, rcodes)
  | (Column.Ints _ | Column.Floats _ | Column.Bools _ | Column.Dict _ | Column.Generic _), _
    ->
    None
