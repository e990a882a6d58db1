type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- parser ---------------------------------------------------------- *)

exception Parse_error of int * string

let error pos message = raise (Parse_error (pos, message))

type state = { text : string; len : int; mutable pos : int }

let peek s = if s.pos < s.len then Some s.text.[s.pos] else None

let skip_ws s =
  while
    s.pos < s.len
    && match s.text.[s.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    s.pos <- s.pos + 1
  done

let expect s ch =
  match peek s with
  | Some c when c = ch -> s.pos <- s.pos + 1
  | _ -> error s.pos (Printf.sprintf "expected %C" ch)

let literal s word value =
  let n = String.length word in
  if s.pos + n <= s.len && String.sub s.text s.pos n = word then begin
    s.pos <- s.pos + n;
    value
  end
  else error s.pos (Printf.sprintf "expected %s" word)

let parse_string s =
  expect s '"';
  let buffer = Buffer.create 16 in
  let rec go () =
    if s.pos >= s.len then error s.pos "unterminated string";
    let c = s.text.[s.pos] in
    s.pos <- s.pos + 1;
    match c with
    | '"' -> Buffer.contents buffer
    | '\\' ->
      (if s.pos >= s.len then error s.pos "unterminated escape";
       let e = s.text.[s.pos] in
       s.pos <- s.pos + 1;
       match e with
       | '"' -> Buffer.add_char buffer '"'
       | '\\' -> Buffer.add_char buffer '\\'
       | '/' -> Buffer.add_char buffer '/'
       | 'b' -> Buffer.add_char buffer '\b'
       | 'f' -> Buffer.add_char buffer '\012'
       | 'n' -> Buffer.add_char buffer '\n'
       | 'r' -> Buffer.add_char buffer '\r'
       | 't' -> Buffer.add_char buffer '\t'
       | 'u' ->
         if s.pos + 4 > s.len then error s.pos "truncated \\u escape";
         let code =
           try int_of_string ("0x" ^ String.sub s.text s.pos 4)
           with Failure _ -> error s.pos "bad \\u escape"
         in
         s.pos <- s.pos + 4;
         (* UTF-8 encode the code point; surrogate pairs are not
            recombined — the protocol is ASCII in practice. *)
         if code < 0x80 then Buffer.add_char buffer (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> error (s.pos - 1) "bad escape");
      go ()
    | c when Char.code c < 0x20 -> error (s.pos - 1) "control character in string"
    | c ->
      Buffer.add_char buffer c;
      go ()
  in
  go ()

let parse_number s =
  let start = s.pos in
  let is_float = ref false in
  if peek s = Some '-' then s.pos <- s.pos + 1;
  let digits () =
    let d0 = s.pos in
    while s.pos < s.len && match s.text.[s.pos] with '0' .. '9' -> true | _ -> false do
      s.pos <- s.pos + 1
    done;
    if s.pos = d0 then error s.pos "expected digit"
  in
  digits ();
  if peek s = Some '.' then begin
    is_float := true;
    s.pos <- s.pos + 1;
    digits ()
  end;
  (match peek s with
  | Some ('e' | 'E') ->
    is_float := true;
    s.pos <- s.pos + 1;
    (match peek s with
    | Some ('+' | '-') -> s.pos <- s.pos + 1
    | _ -> ());
    digits ()
  | _ -> ());
  let lexeme = String.sub s.text start (s.pos - start) in
  if !is_float then Float (float_of_string lexeme)
  else
    match int_of_string_opt lexeme with
    | Some n -> Int n
    | None -> Float (float_of_string lexeme)

let rec parse_value s =
  skip_ws s;
  match peek s with
  | None -> error s.pos "unexpected end of input"
  | Some '"' -> Str (parse_string s)
  | Some '{' ->
    s.pos <- s.pos + 1;
    skip_ws s;
    if peek s = Some '}' then begin
      s.pos <- s.pos + 1;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws s;
        let key = parse_string s in
        skip_ws s;
        expect s ':';
        let value = parse_value s in
        fields := (key, value) :: !fields;
        skip_ws s;
        match peek s with
        | Some ',' ->
          s.pos <- s.pos + 1;
          members ()
        | Some '}' -> s.pos <- s.pos + 1
        | _ -> error s.pos "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    s.pos <- s.pos + 1;
    skip_ws s;
    if peek s = Some ']' then begin
      s.pos <- s.pos + 1;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let value = parse_value s in
        items := value :: !items;
        skip_ws s;
        match peek s with
        | Some ',' ->
          s.pos <- s.pos + 1;
          elements ()
        | Some ']' -> s.pos <- s.pos + 1
        | _ -> error s.pos "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | Some 't' -> literal s "true" (Bool true)
  | Some 'f' -> literal s "false" (Bool false)
  | Some 'n' -> literal s "null" Null
  | Some ('-' | '0' .. '9') -> parse_number s
  | Some c -> error s.pos (Printf.sprintf "unexpected character %C" c)

let parse text =
  let s = { text; len = String.length text; pos = 0 } in
  match parse_value s with
  | value ->
    skip_ws s;
    if s.pos <> s.len then
      Error (Printf.sprintf "trailing garbage at offset %d" s.pos)
    else Ok value
  | exception Parse_error (pos, message) ->
    Error (Printf.sprintf "%s at offset %d" message pos)

(* --- printer --------------------------------------------------------- *)

let escape buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' | '\\' ->
        Buffer.add_char buffer '\\';
        Buffer.add_char buffer ch
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buffer ch)
    s;
  Buffer.add_char buffer '"'

(* The shortest of %.15g, %.16g and %.17g that reads back as the same
   float.  %.17g always does; the shorter forms drop the noise digits
   of a decimal such as 0.975, which %.17g prints as
   0.97499999999999998. *)
let float_text f =
  let text = Printf.sprintf "%.15g" f in
  if float_of_string text = f then text
  else
    let text = Printf.sprintf "%.16g" f in
    if float_of_string text = f then text else Printf.sprintf "%.17g" f

let to_string value =
  let buffer = Buffer.create 64 in
  let rec go = function
    | Null -> Buffer.add_string buffer "null"
    | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
    | Int n -> Buffer.add_string buffer (string_of_int n)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buffer (float_text f)
      else Buffer.add_string buffer "null"
    | Str s -> escape buffer s
    | List items ->
      Buffer.add_char buffer '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buffer ", ";
          go item)
        items;
      Buffer.add_char buffer ']'
    | Obj fields ->
      Buffer.add_char buffer '{';
      List.iteri
        (fun i (key, item) ->
          if i > 0 then Buffer.add_string buffer ", ";
          escape buffer key;
          Buffer.add_string buffer ": ";
          go item)
        fields;
      Buffer.add_char buffer '}'
  in
  go value;
  Buffer.contents buffer

(* --- accessors ------------------------------------------------------- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let field_error name what =
  failwith (Printf.sprintf "request field %S must be %s" name what)

let string_field ?default obj name =
  match member name obj with
  | None | Some Null -> default
  | Some (Str s) -> Some s
  | Some _ -> field_error name "a string"

let int_field ?default obj name =
  match member name obj with
  | None | Some Null -> default
  | Some (Int n) -> Some n
  (* [int_of_float] is unspecified outside the native int range (0 on
     amd64), so only floats in [-2^62, 2^62) convert. *)
  | Some (Float f) when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Some (int_of_float f)
  | Some _ -> field_error name "an integer"

let float_field ?default obj name =
  match member name obj with
  | None | Some Null -> default
  | Some (Int n) -> Some (float_of_int n)
  | Some (Float f) -> Some f
  | Some _ -> field_error name "a number"
