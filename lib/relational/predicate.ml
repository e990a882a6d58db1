type term =
  | Attr of string
  | Const of Value.t
  | Add of term * term
  | Sub of term * term
  | Mul of term * term
  | Div of term * term

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of cmp * term * term
  | Between of term * Value.t * Value.t
  | In of term * Value.t list
  | And of t * t
  | Or of t * t
  | Not of t

let attr name = Attr name
let const v = Const v
let vint i = Const (Value.Int i)
let vfloat f = Const (Value.Float f)
let vstr s = Const (Value.Str s)

let eq t1 t2 = Cmp (Eq, t1, t2)
let neq t1 t2 = Cmp (Neq, t1, t2)
let lt t1 t2 = Cmp (Lt, t1, t2)
let le t1 t2 = Cmp (Le, t1, t2)
let gt t1 t2 = Cmp (Gt, t1, t2)
let ge t1 t2 = Cmp (Ge, t1, t2)
let between t lo hi = Between (t, lo, hi)
let in_ t vs = In (t, vs)
let ( &&& ) p1 p2 = And (p1, p2)
let ( ||| ) p1 p2 = Or (p1, p2)
let not_ p = Not p

let attributes p =
  let rec term_attrs acc = function
    | Attr name -> if List.mem name acc then acc else name :: acc
    | Const _ -> acc
    | Add (t1, t2) | Sub (t1, t2) | Mul (t1, t2) | Div (t1, t2) ->
      term_attrs (term_attrs acc t1) t2
  in
  let rec pred_attrs acc = function
    | True | False -> acc
    | Cmp (_, t1, t2) -> term_attrs (term_attrs acc t1) t2
    | Between (t, _, _) | In (t, _) -> term_attrs acc t
    | And (p1, p2) | Or (p1, p2) -> pred_attrs (pred_attrs acc p1) p2
    | Not p -> pred_attrs acc p
  in
  List.rev (pred_attrs [] p)

let map_attributes f p =
  let rec term = function
    | Attr name -> Attr (f name)
    | Const _ as t -> t
    | Add (t1, t2) -> Add (term t1, term t2)
    | Sub (t1, t2) -> Sub (term t1, term t2)
    | Mul (t1, t2) -> Mul (term t1, term t2)
    | Div (t1, t2) -> Div (term t1, term t2)
  in
  let rec pred = function
    | (True | False) as p -> p
    | Cmp (cmp, t1, t2) -> Cmp (cmp, term t1, term t2)
    | Between (t, lo, hi) -> Between (term t, lo, hi)
    | In (t, vs) -> In (term t, vs)
    | And (p1, p2) -> And (pred p1, pred p2)
    | Or (p1, p2) -> Or (pred p1, pred p2)
    | Not p -> Not (pred p)
  in
  pred p

(* Compiled terms return [None] for Null propagation. *)
let rec compile_term schema = function
  | Attr name ->
    let i = Schema.index_of schema name in
    fun tuple ->
      (match Tuple.get tuple i with Value.Null -> None | v -> Some v)
  | Const Value.Null -> fun _ -> None
  | Const v -> fun _ -> Some v
  | Add (t1, t2) -> arith schema ( +. ) t1 t2
  | Sub (t1, t2) -> arith schema ( -. ) t1 t2
  | Mul (t1, t2) -> arith schema ( *. ) t1 t2
  | Div (t1, t2) -> arith schema ( /. ) t1 t2

and arith schema op t1 t2 =
  let f1 = compile_term schema t1 and f2 = compile_term schema t2 in
  fun tuple ->
    match f1 tuple, f2 tuple with
    | Some v1, Some v2 -> Some (Value.Float (op (Value.to_float v1) (Value.to_float v2)))
    | None, _ | _, None -> None

let cmp_holds cmp c =
  match cmp with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let flip = function
  | (Eq | Neq) as cmp -> cmp
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let int_test cmp (c : int) =
  match cmp with
  | Eq -> fun v -> v = c
  | Neq -> fun v -> v <> c
  | Lt -> fun v -> v < c
  | Le -> fun v -> v <= c
  | Gt -> fun v -> v > c
  | Ge -> fun v -> v >= c

(* [Attr] against a constant, decided on the value where it lies: no
   [Value.t option] per row, and an int attribute against an int
   constant compares unboxed.  Verdicts are the general [Cmp] case's:
   a Null on either side is false, anything else is [cmp_holds] of
   [Value.compare]. *)
let compile_attr_const schema name cmp k =
  let i = Schema.index_of schema name in
  match (k : Value.t) with
  | Null -> fun _ -> false
  | Int c ->
    let test = int_test cmp c in
    fun tuple ->
      (match Tuple.get tuple i with
      | Value.Int v -> test v
      | Value.Null -> false
      | v -> cmp_holds cmp (Value.compare v k))
  | _ ->
    fun tuple ->
      (match Tuple.get tuple i with
      | Value.Null -> false
      | v -> cmp_holds cmp (Value.compare v k))

let rec compile schema = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (cmp, Attr name, Const k) -> compile_attr_const schema name cmp k
  | Cmp (cmp, Const k, Attr name) -> compile_attr_const schema name (flip cmp) k
  | Cmp (cmp, t1, t2) ->
    let f1 = compile_term schema t1 and f2 = compile_term schema t2 in
    fun tuple ->
      (match f1 tuple, f2 tuple with
      | Some v1, Some v2 -> cmp_holds cmp (Value.compare v1 v2)
      | None, _ | _, None -> false)
  | Between (t, lo, hi) ->
    let f = compile_term schema t in
    fun tuple ->
      (match f tuple with
      | Some v -> Value.compare lo v <= 0 && Value.compare v hi <= 0
      | None -> false)
  | In (t, vs) ->
    let f = compile_term schema t in
    fun tuple ->
      (match f tuple with
      | Some v -> List.exists (Value.equal v) vs
      | None -> false)
  | And (p1, p2) ->
    let f1 = compile schema p1 and f2 = compile schema p2 in
    fun tuple -> f1 tuple && f2 tuple
  | Or (p1, p2) ->
    let f1 = compile schema p1 and f2 = compile schema p2 in
    fun tuple -> f1 tuple || f2 tuple
  | Not p ->
    let f = compile schema p in
    fun tuple -> not (f tuple)

let eval schema p tuple = compile schema p tuple

let rec pp_term ppf = function
  | Attr name -> Format.pp_print_string ppf name
  | Const v -> Value.pp ppf v
  | Add (t1, t2) -> Format.fprintf ppf "(%a + %a)" pp_term t1 pp_term t2
  | Sub (t1, t2) -> Format.fprintf ppf "(%a - %a)" pp_term t1 pp_term t2
  | Mul (t1, t2) -> Format.fprintf ppf "(%a * %a)" pp_term t1 pp_term t2
  | Div (t1, t2) -> Format.fprintf ppf "(%a / %a)" pp_term t1 pp_term t2

let cmp_to_string = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (cmp, t1, t2) ->
    Format.fprintf ppf "%a %s %a" pp_term t1 (cmp_to_string cmp) pp_term t2
  | Between (t, lo, hi) ->
    Format.fprintf ppf "%a between %a and %a" pp_term t Value.pp lo Value.pp hi
  | In (t, vs) ->
    Format.fprintf ppf "%a in (%a)" pp_term t
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Value.pp)
      vs
  | And (p1, p2) -> Format.fprintf ppf "(%a and %a)" pp p1 pp p2
  | Or (p1, p2) -> Format.fprintf ppf "(%a or %a)" pp p1 pp p2
  | Not p -> Format.fprintf ppf "not %a" pp p

let to_string p = Format.asprintf "%a" pp p
