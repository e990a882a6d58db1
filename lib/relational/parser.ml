(* Recursive-descent parser over a hand-rolled tokenizer, for algebra
   and for the SQL subset alike: both read the same token array, and
   SQL's WHERE and ON conditions are parsed in place by the predicate
   grammar.  The only delicate spot is '(' in predicate position, which
   may open either a nested predicate or a parenthesized arithmetic
   term; it is resolved by bounded backtracking (see [try_parse]). *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Sym of string
  | Eof

type state = {
  tokens : (token * int) array;  (* token, byte offset for errors *)
  source : string;
  mutable pos : int;
}

exception Parse_error of string * int

(* Fails at token [at], by default the current one. *)
let fail_at ?at state message =
  let at = Option.value at ~default:state.pos in
  let offset =
    if at < Array.length state.tokens then snd state.tokens.(at)
    else String.length state.source
  in
  raise (Parse_error (message, offset))

(* ---------------------------------------------------------- tokenizer *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '#'

let is_digit c = c >= '0' && c <= '9'

let tokenize source =
  let tokens = ref [] in
  let n = String.length source in
  let i = ref 0 in
  let push token start = tokens := (token, start) :: !tokens in
  while !i < n do
    let start = !i in
    let c = source.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit source.[!j] do
        incr j
      done;
      let is_float =
        !j < n && source.[!j] = '.' && (!j + 1 >= n || source.[!j + 1] <> '.')
        && (!j + 1 >= n || is_digit source.[!j + 1] || not (is_ident_char source.[!j + 1]))
      in
      if is_float then begin
        incr j;
        while !j < n && is_digit source.[!j] do
          incr j
        done;
        (* Exponent part. *)
        if !j < n && (source.[!j] = 'e' || source.[!j] = 'E') then begin
          incr j;
          if !j < n && (source.[!j] = '+' || source.[!j] = '-') then incr j;
          while !j < n && is_digit source.[!j] do
            incr j
          done
        end;
        let text = String.sub source !i (!j - !i) in
        match float_of_string_opt text with
        | Some v -> push (Float_lit v) start
        | None -> raise (Parse_error (Printf.sprintf "malformed number %s" text, start))
      end
      else begin
        (* Plain integer (scientific notation only with a dot). *)
        let text = String.sub source !i (!j - !i) in
        match int_of_string_opt text with
        | Some v -> push (Int_lit v) start
        | None ->
          raise (Parse_error (Printf.sprintf "integer literal %s out of range" text, start))
      end;
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char source.[!j] do
        incr j
      done;
      push (Ident (String.sub source !i (!j - !i))) start;
      i := !j
    end
    else if c = '\'' then begin
      (* String literal with '' as the escaped quote. *)
      let buffer = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while not !closed && !j < n do
        if source.[!j] = '\'' then
          if !j + 1 < n && source.[!j + 1] = '\'' then begin
            Buffer.add_char buffer '\'';
            j := !j + 2
          end
          else begin
            closed := true;
            incr j
          end
        else begin
          Buffer.add_char buffer source.[!j];
          incr j
        end
      done;
      if not !closed then raise (Parse_error ("unterminated string literal", start));
      push (Str_lit (Buffer.contents buffer)) start;
      i := !j
    end
    else begin
      let two = if !i + 1 < n then String.sub source !i 2 else "" in
      match two with
      | "->" | "!=" | "<>" | "<=" | ">=" ->
        push (Sym two) start;
        i := !i + 2
      | _ ->
        (match c with
        | '(' | ')' | '[' | ']' | ',' | ';' | '=' | '<' | '>' | '+' | '-' | '*' | '/' ->
          push (Sym (String.make 1 c)) start;
          incr i
        | _ -> raise (Parse_error (Printf.sprintf "unexpected character %C" c, start)))
    end
  done;
  push Eof n;
  Array.of_list (List.rev !tokens)

(* ------------------------------------------------------ parser plumbing *)

let make_state source = { tokens = tokenize source; source; pos = 0 }

let peek state = fst state.tokens.(state.pos)

let advance state = state.pos <- state.pos + 1

let keyword state =
  match peek state with
  | Ident name -> Some (String.lowercase_ascii name)
  | Int_lit _ | Float_lit _ | Str_lit _ | Sym _ | Eof -> None

let eat_keyword state expected =
  match keyword state with
  | Some k when k = expected -> advance state
  | _ -> fail_at state (Printf.sprintf "expected %S" expected)

let eat_sym state expected =
  match peek state with
  | Sym s when s = expected -> advance state
  | _ -> fail_at state (Printf.sprintf "expected %S" expected)

let accept_sym state expected =
  match peek state with
  | Sym s when s = expected ->
    advance state;
    true
  | _ -> false

let ident state =
  match peek state with
  | Ident name ->
    advance state;
    name
  | _ -> fail_at state "expected an identifier"

(* One or more [parse]s separated by commas. *)
let comma_list state parse =
  let items = ref [ parse state ] in
  while accept_sym state "," do
    items := parse state :: !items
  done;
  List.rev !items

let try_parse state f =
  let saved = state.pos in
  try Some (f state)
  with Parse_error _ ->
    state.pos <- saved;
    None

(* --------------------------------------------------------------- values *)

let parse_value state =
  match peek state with
  | Int_lit v ->
    advance state;
    Value.Int v
  | Float_lit v ->
    advance state;
    Value.Float v
  | Str_lit v ->
    advance state;
    Value.Str v
  | Sym "-" -> (
    advance state;
    match peek state with
    | Int_lit v ->
      advance state;
      Value.Int (-v)
    | Float_lit v ->
      advance state;
      Value.Float (-.v)
    | _ -> fail_at state "expected a number after unary minus")
  | Ident _ -> (
    match keyword state with
    | Some "true" ->
      advance state;
      Value.Bool true
    | Some "false" ->
      advance state;
      Value.Bool false
    | Some "null" ->
      advance state;
      Value.Null
    | _ -> fail_at state "expected a literal value")
  | Sym _ | Eof -> fail_at state "expected a literal value"

(* ---------------------------------------------------------------- terms *)

let reserved_in_predicates =
  [ "and"; "or"; "not"; "between"; "in"; "true"; "false"; "null" ]

let rec parse_term state = parse_additive state

and parse_additive state =
  let left = ref (parse_multiplicative state) in
  let continue = ref true in
  while !continue do
    if accept_sym state "+" then left := Predicate.Add (!left, parse_multiplicative state)
    else if accept_sym state "-" then left := Predicate.Sub (!left, parse_multiplicative state)
    else continue := false
  done;
  !left

and parse_multiplicative state =
  let left = ref (parse_term_atom state) in
  let continue = ref true in
  while !continue do
    if accept_sym state "*" then left := Predicate.Mul (!left, parse_term_atom state)
    else if accept_sym state "/" then left := Predicate.Div (!left, parse_term_atom state)
    else continue := false
  done;
  !left

and parse_term_atom state =
  match peek state with
  | Int_lit _ | Float_lit _ | Str_lit _ | Sym "-" -> Predicate.Const (parse_value state)
  | Sym "(" ->
    advance state;
    let term = parse_term state in
    eat_sym state ")";
    term
  | Ident name ->
    let lower = String.lowercase_ascii name in
    if lower = "null" then begin
      advance state;
      Predicate.Const Value.Null
    end
    else if List.mem lower reserved_in_predicates then
      fail_at state (Printf.sprintf "keyword %S cannot be an attribute" name)
    else begin
      advance state;
      Predicate.Attr name
    end
  | Sym _ | Eof -> fail_at state "expected a term"

(* ----------------------------------------------------------- predicates *)

let comparison_of_sym = function
  | "=" -> Some Predicate.Eq
  | "!=" | "<>" -> Some Predicate.Neq
  | "<" -> Some Predicate.Lt
  | "<=" -> Some Predicate.Le
  | ">" -> Some Predicate.Gt
  | ">=" -> Some Predicate.Ge
  | _ -> None

let rec parse_predicate_level state = parse_or state

and parse_or state =
  let left = ref (parse_and state) in
  while keyword state = Some "or" do
    advance state;
    left := Predicate.Or (!left, parse_and state)
  done;
  !left

and parse_and state =
  let left = ref (parse_not state) in
  while keyword state = Some "and" do
    advance state;
    left := Predicate.And (!left, parse_not state)
  done;
  !left

and parse_not state =
  if keyword state = Some "not" then begin
    advance state;
    Predicate.Not (parse_not state)
  end
  else parse_predicate_atom state

and parse_predicate_atom state =
  match keyword state with
  | Some "true" ->
    advance state;
    Predicate.True
  | Some "false" ->
    advance state;
    Predicate.False
  | _ ->
    (* '(' is ambiguous: nested predicate or parenthesized term. *)
    if peek state = Sym "(" then begin
      let as_predicate =
        try_parse state (fun state ->
            advance state;
            let p = parse_predicate_level state in
            eat_sym state ")";
            (* A comparison right after the closing paren means the
               parentheses belonged to a term after all. *)
            (match peek state with
            | Sym s
              when comparison_of_sym s <> None || s = "+" || s = "-" || s = "*" || s = "/"
              ->
              fail_at state "parenthesized term, not predicate"
            | _ -> ());
            p)
      in
      match as_predicate with
      | Some p -> p
      | None -> parse_comparison state
    end
    else parse_comparison state

and parse_comparison state =
  let left = parse_term state in
  match keyword state with
  | Some "between" ->
    advance state;
    let lo = parse_value state in
    eat_keyword state "and";
    let hi = parse_value state in
    Predicate.Between (left, lo, hi)
  | Some "in" ->
    advance state;
    eat_sym state "(";
    let values = comma_list state parse_value in
    eat_sym state ")";
    Predicate.In (left, values)
  | _ -> (
    match peek state with
    | Sym s -> (
      match comparison_of_sym s with
      | Some cmp ->
        advance state;
        let right = parse_term state in
        Predicate.Cmp (cmp, left, right)
      | None -> fail_at state "expected a comparison operator")
    | _ -> fail_at state "expected a comparison operator")

(* ---------------------------------------------------------- expressions *)

let expr_keywords =
  [ "select"; "pi"; "pidist"; "distinct"; "rho"; "cross"; "join"; "theta"; "union";
    "inter"; "minus"; "gamma" ]

let default_agg_name = function
  | Expr.Count -> "count"
  | Expr.Sum a -> "sum_" ^ a
  | Expr.Avg a -> "avg_" ^ a
  | Expr.Min a -> "min_" ^ a
  | Expr.Max a -> "max_" ^ a

let parse_agg_spec state =
  let f =
    match keyword state with
    | Some "count" ->
      advance state;
      Expr.Count
    | Some (("sum" | "avg" | "min" | "max") as which) ->
      advance state;
      eat_sym state "(";
      let attr = ident state in
      eat_sym state ")";
      (match which with
      | "sum" -> Expr.Sum attr
      | "avg" -> Expr.Avg attr
      | "min" -> Expr.Min attr
      | _ -> Expr.Max attr)
    | _ -> fail_at state "expected count, sum(a), avg(a), min(a) or max(a)"
  in
  let output =
    if keyword state = Some "as" then begin
      advance state;
      ident state
    end
    else default_agg_name f
  in
  (f, output)

(* [a sep b], as in rename's [a -> b] and join's [a = b]. *)
let parse_pair sep state =
  let left = ident state in
  eat_sym state sep;
  let right = ident state in
  (left, right)

let rec parse_expr_level state = parse_set_ops state

and parse_set_ops state =
  let left = ref (parse_join_ops state) in
  let continue = ref true in
  while !continue do
    match keyword state with
    | Some "union" ->
      advance state;
      left := Expr.Union (!left, parse_join_ops state)
    | Some "inter" ->
      advance state;
      left := Expr.Inter (!left, parse_join_ops state)
    | Some "minus" ->
      advance state;
      left := Expr.Diff (!left, parse_join_ops state)
    | _ -> continue := false
  done;
  !left

and parse_join_ops state =
  let left = ref (parse_expr_atom state) in
  let continue = ref true in
  while !continue do
    match keyword state with
    | Some "cross" ->
      advance state;
      left := Expr.Product (!left, parse_expr_atom state)
    | Some "join" ->
      advance state;
      eat_sym state "[";
      let pairs = comma_list state (parse_pair "=") in
      eat_sym state "]";
      left := Expr.Equijoin (pairs, !left, parse_expr_atom state)
    | Some "theta" ->
      advance state;
      eat_sym state "[";
      let p = parse_predicate_level state in
      eat_sym state "]";
      left := Expr.Theta_join (p, !left, parse_expr_atom state)
    | _ -> continue := false
  done;
  !left

and parse_expr_atom state =
  match keyword state with
  | Some "select" ->
    advance state;
    eat_sym state "[";
    let p = parse_predicate_level state in
    eat_sym state "]";
    eat_sym state "(";
    let e = parse_expr_level state in
    eat_sym state ")";
    Expr.Select (p, e)
  | Some "pi" ->
    advance state;
    eat_sym state "[";
    let attrs = comma_list state ident in
    eat_sym state "]";
    eat_sym state "(";
    let e = parse_expr_level state in
    eat_sym state ")";
    Expr.Project (attrs, e)
  | Some "pidist" ->
    advance state;
    eat_sym state "[";
    let attrs = comma_list state ident in
    eat_sym state "]";
    eat_sym state "(";
    let e = parse_expr_level state in
    eat_sym state ")";
    Expr.Distinct (Expr.Project (attrs, e))
  | Some "distinct" ->
    advance state;
    eat_sym state "(";
    let e = parse_expr_level state in
    eat_sym state ")";
    Expr.Distinct e
  | Some "rho" ->
    advance state;
    eat_sym state "[";
    let pairs = comma_list state (parse_pair "->") in
    eat_sym state "]";
    eat_sym state "(";
    let e = parse_expr_level state in
    eat_sym state ")";
    Expr.Rename (pairs, e)
  | Some "gamma" ->
    advance state;
    eat_sym state "[";
    let by = if peek state = Sym ";" then [] else comma_list state ident in
    eat_sym state ";";
    let specs = comma_list state parse_agg_spec in
    eat_sym state "]";
    eat_sym state "(";
    let e = parse_expr_level state in
    eat_sym state ")";
    Expr.Aggregate (by, specs, e)
  | Some k when List.mem k expr_keywords -> fail_at state (Printf.sprintf "misplaced keyword %S" k)
  | Some _ -> Expr.Base (ident state)
  | None ->
    if accept_sym state "(" then begin
      let e = parse_expr_level state in
      eat_sym state ")";
      e
    end
    else fail_at state "expected an expression"

let finish state result =
  match peek state with
  | Eof -> result
  | _ -> fail_at state "trailing input"

(* ------------------------------------------------------------------ SQL *)

(* Words that open or end a SQL clause: none names a relation or an
   attribute. *)
let sql_keywords =
  [ "select"; "distinct"; "from"; "join"; "on"; "where"; "group"; "by"; "order"; "having";
    "limit"; "as" ]

let sql_name state what =
  match keyword state with
  | Some k when not (List.mem k sql_keywords) -> ident state
  | _ -> fail_at state ("expected " ^ what)

type sql_item =
  | Star
  | Column of string
  | Agg of Expr.agg * string  (* function, output name *)

let parse_sql_item state =
  let at = state.pos in
  match peek state with
  | Sym "*" ->
    advance state;
    Star
  | Ident func when fst state.tokens.(at + 1) = Sym "(" ->
    advance state;
    advance state;
    let f =
      match (String.lowercase_ascii func, peek state) with
      | "count", Sym "*" ->
        advance state;
        Expr.Count
      | "count", _ ->
        (* Name the argument as written, up to the closing parenthesis. *)
        let close = ref state.pos in
        while (match fst state.tokens.(!close) with Sym ")" | Eof -> false | _ -> true) do
          incr close
        done;
        let lo = snd state.tokens.(at + 1) + 1 in
        let arg = String.sub state.source lo (snd state.tokens.(!close) - lo) in
        fail_at ~at state
          (Printf.sprintf "only COUNT(*) is supported, not COUNT(%s)" (String.trim arg))
      | "sum", _ -> Expr.Sum (sql_name state "an attribute")
      | "avg", _ -> Expr.Avg (sql_name state "an attribute")
      | "min", _ -> Expr.Min (sql_name state "an attribute")
      | "max", _ -> Expr.Max (sql_name state "an attribute")
      | other, _ -> fail_at ~at state (Printf.sprintf "unknown aggregate %S" other)
    in
    eat_sym state ")";
    if keyword state = Some "as" then begin
      advance state;
      Agg (f, sql_name state "an output name")
    end
    else Agg (f, default_agg_name f)
  | _ -> Column (sql_name state "a select item")

(* rel (, rel)* or rel (JOIN rel ON p)*.  Without the catalog an ON
   condition's equality pairs cannot be oriented, so each JOIN becomes
   a θ-join; {!Optimizer} rewrites equality θ-joins into correctly
   oriented equi-joins. *)
let parse_sql_from state =
  let relation () =
    let name = sql_name state "a relation name" in
    (match keyword state with
    | Some k when k = "as" || not (List.mem k sql_keywords) ->
      fail_at state "table aliases are not supported"
    | _ -> ());
    Expr.Base name
  in
  let first = relation () in
  let joins = keyword state = Some "join" in
  let rec more acc =
    if joins && keyword state = Some "join" then begin
      advance state;
      let right = relation () in
      if keyword state <> Some "on" then fail_at state "JOIN without ON";
      advance state;
      more (Expr.Theta_join (parse_predicate_level state, acc, right))
    end
    else if (not joins) && accept_sym state "," then more (Expr.Product (acc, relation ()))
    else if keyword state = Some "join" || peek state = Sym "," then
      fail_at state "mixing comma-lists and JOIN in FROM is not supported"
    else acc
  in
  more first

let parse_sql_query state =
  if keyword state <> Some "select" then fail_at state "query must start with SELECT";
  Array.iteri
    (fun at (token, _) ->
      match token with
      | Ident word when at > 0 && String.lowercase_ascii word = "select" ->
        fail_at ~at state "multiple SELECT clauses (subqueries are not supported)"
      | _ -> ())
    state.tokens;
  advance state;
  let distinct = keyword state = Some "distinct" in
  if distinct then advance state;
  let items_at = state.pos in
  if keyword state = Some "from" then fail_at state "empty select list";
  let items = comma_list state parse_sql_item in
  if keyword state <> Some "from" then fail_at state "missing FROM clause";
  advance state;
  let from = parse_sql_from state in
  let filtered =
    if keyword state = Some "where" then begin
      advance state;
      Expr.Select (parse_predicate_level state, from)
    end
    else from
  in
  let group =
    if keyword state = Some "group" then begin
      advance state;
      if keyword state <> Some "by" then fail_at state "GROUP must be followed by BY";
      advance state;
      Some (comma_list state (fun state -> sql_name state "a GROUP BY attribute"))
    end
    else None
  in
  (match keyword state with
  | Some "order" -> fail_at state "ORDER BY is not supported"
  | Some "having" -> fail_at state "HAVING is not supported"
  | Some "limit" -> fail_at state "LIMIT is not supported"
  | _ -> finish state ());
  let fail message = fail_at ~at:items_at state message in
  let aggs = List.filter_map (function Agg (f, o) -> Some (f, o) | _ -> None) items in
  let plain = List.filter_map (function Column a -> Some a | _ -> None) items in
  match group with
  | Some group ->
    (* Plain items only name grouping attributes; the output carries
       the GROUP BY list. *)
    if List.mem Star items then fail "SELECT * with GROUP BY";
    List.iter
      (fun a ->
        if not (List.mem a group) then
          fail (Printf.sprintf "select item %S is not in GROUP BY" a))
      plain;
    if aggs = [] then Expr.Distinct (Expr.Project (group, filtered))
    else Expr.Aggregate (group, aggs, filtered)
  | None when aggs <> [] ->
    if plain <> [] then fail "mixing attributes and aggregates needs GROUP BY";
    Expr.Aggregate ([], aggs, filtered)
  | None ->
    let e = if List.mem Star items then filtered else Expr.Project (plain, filtered) in
    if distinct then Expr.Distinct e else e

let count_star_target = function
  | Expr.Aggregate ([], [ (Expr.Count, _) ], inner) -> Some inner
  | _ -> None

(* ----------------------------------------------------------- entrypoints *)

let describe_error what source (message, offset) =
  let prefix = String.sub source 0 (min offset (String.length source)) in
  let line = 1 + String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 prefix in
  Printf.sprintf "%s: %s at offset %d (line %d) in %S" what message offset line source

let run what parse source =
  try parse (make_state source)
  with Parse_error (message, offset) -> failwith (describe_error what source (message, offset))

let parse_expr = run "Parser" (fun state -> finish state (parse_expr_level state))
let parse_predicate = run "Parser" (fun state -> finish state (parse_predicate_level state))
let parse_sql = run "Sql" parse_sql_query

(* ---------------------------------------------------------------- printer *)

let print_value = function
  | Value.Null -> "null"
  | Value.Bool b -> string_of_bool b
  | Value.Int v -> string_of_int v
  | Value.Float v ->
    let text = Printf.sprintf "%.12g" v in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n' || c = 'i') text
    then text
    else text ^ ".0"
  | Value.Str s ->
    let buffer = Buffer.create (String.length s + 2) in
    Buffer.add_char buffer '\'';
    String.iter
      (fun c -> if c = '\'' then Buffer.add_string buffer "''" else Buffer.add_char buffer c)
      s;
    Buffer.add_char buffer '\'';
    Buffer.contents buffer

(* The printers append to one buffer, so printing is linear in the size
   of the expression however deep it nests. *)
let rec add_term b = function
  | Predicate.Attr name -> Buffer.add_string b name
  | Predicate.Const v -> Buffer.add_string b (print_value v)
  | Predicate.Add (t1, t2) -> add_arith b t1 " + " t2
  | Predicate.Sub (t1, t2) -> add_arith b t1 " - " t2
  | Predicate.Mul (t1, t2) -> add_arith b t1 " * " t2
  | Predicate.Div (t1, t2) -> add_arith b t1 " / " t2

and add_arith b t1 op t2 =
  Buffer.add_char b '(';
  add_term b t1;
  Buffer.add_string b op;
  add_term b t2;
  Buffer.add_char b ')'

let print_cmp = function
  | Predicate.Eq -> " = "
  | Predicate.Neq -> " != "
  | Predicate.Lt -> " < "
  | Predicate.Le -> " <= "
  | Predicate.Gt -> " > "
  | Predicate.Ge -> " >= "

let rec add_predicate b = function
  | Predicate.True -> Buffer.add_string b "true"
  | Predicate.False -> Buffer.add_string b "false"
  | Predicate.Cmp (cmp, t1, t2) ->
    add_term b t1;
    Buffer.add_string b (print_cmp cmp);
    add_term b t2
  | Predicate.Between (t, lo, hi) ->
    add_term b t;
    Buffer.add_string b (" between " ^ print_value lo ^ " and " ^ print_value hi)
  | Predicate.In (t, values) ->
    add_term b t;
    Buffer.add_string b (" in (" ^ String.concat ", " (List.map print_value values) ^ ")")
  | Predicate.And (p1, p2) -> add_connective b p1 " and " p2
  | Predicate.Or (p1, p2) -> add_connective b p1 " or " p2
  | Predicate.Not p ->
    Buffer.add_string b "not (";
    add_predicate b p;
    Buffer.add_char b ')'

and add_connective b p1 word p2 =
  Buffer.add_char b '(';
  add_predicate b p1;
  Buffer.add_string b word;
  add_predicate b p2;
  Buffer.add_char b ')'

(* [head], then [e], then the closing parenthesis: every unary operator. *)
let rec add_unary b head e =
  Buffer.add_string b head;
  add_expr b e;
  Buffer.add_char b ')'

and add_binary b l middle r =
  Buffer.add_char b '(';
  add_expr b l;
  Buffer.add_string b middle;
  add_expr b r;
  Buffer.add_char b ')'

and add_expr b = function
  | Expr.Base name -> Buffer.add_string b name
  | Expr.Select (p, e) ->
    Buffer.add_string b "select[";
    add_predicate b p;
    add_unary b "](" e
  | Expr.Distinct (Expr.Project (attrs, e)) ->
    add_unary b ("pidist[" ^ String.concat ", " attrs ^ "](") e
  | Expr.Project (attrs, e) -> add_unary b ("pi[" ^ String.concat ", " attrs ^ "](") e
  | Expr.Distinct e -> add_unary b "distinct(" e
  | Expr.Rename (pairs, e) ->
    let pairs = List.map (fun (x, y) -> x ^ " -> " ^ y) pairs in
    add_unary b ("rho[" ^ String.concat ", " pairs ^ "](") e
  | Expr.Product (l, r) -> add_binary b l " cross " r
  | Expr.Equijoin (pairs, l, r) ->
    let pairs = List.map (fun (x, y) -> x ^ " = " ^ y) pairs in
    add_binary b l (" join[" ^ String.concat ", " pairs ^ "] ") r
  | Expr.Theta_join (p, l, r) ->
    Buffer.add_char b '(';
    add_expr b l;
    Buffer.add_string b " theta[";
    add_predicate b p;
    Buffer.add_string b "] ";
    add_expr b r;
    Buffer.add_char b ')'
  | Expr.Union (l, r) -> add_binary b l " union " r
  | Expr.Inter (l, r) -> add_binary b l " inter " r
  | Expr.Diff (l, r) -> add_binary b l " minus " r
  | Expr.Aggregate (by, specs, e) ->
    let print_spec (f, output) =
      let f_text =
        match f with
        | Expr.Count -> "count"
        | Expr.Sum a -> Printf.sprintf "sum(%s)" a
        | Expr.Avg a -> Printf.sprintf "avg(%s)" a
        | Expr.Min a -> Printf.sprintf "min(%s)" a
        | Expr.Max a -> Printf.sprintf "max(%s)" a
      in
      f_text ^ " as " ^ output
    in
    add_unary b
      (Printf.sprintf "gamma[%s; %s](" (String.concat ", " by)
         (String.concat ", " (List.map print_spec specs)))
      e

let to_string add x =
  let b = Buffer.create 64 in
  add b x;
  Buffer.contents b

let print_predicate p = to_string add_predicate p
let print_expr e = to_string add_expr e
