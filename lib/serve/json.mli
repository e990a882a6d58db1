(** Minimal JSON values for the serve wire protocol.

    The repository deliberately has no JSON library in its dependency
    set; this module covers exactly what the newline-delimited protocol
    needs: parse one request object, print one response object on a
    single line.  Numbers keep the int/float distinction ([Int] when the
    literal has no fraction or exponent and fits in an OCaml [int]) so
    seeds and sample sizes round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] reads one JSON value spanning the whole string (leading
    and trailing whitespace allowed).  Errors carry a byte offset. *)
val parse : string -> (t, string) result

(** Compact single-line rendering (no newlines, ASCII-safe escapes).
    A finite float prints as the first of [%.15g], [%.16g] and [%.17g]
    that reads back as the same float, so [0.975] prints as [0.975];
    non-finite floats print as [null]. *)
val to_string : t -> string

(** {1 Object accessors} *)

(** Field of an [Obj], [None] otherwise. *)
val member : string -> t -> t option

(** [string_field ~default obj name] — a [Str] field, [default] when
    absent or [Null].
    @raise Failure when present with a non-string value. *)
val string_field : ?default:string -> t -> string -> string option

(** An [Int] field ([Float] accepted when integral).
    @raise Failure when present with a non-integer value. *)
val int_field : ?default:int -> t -> string -> int option

(** An [Int] or [Float] field as float.
    @raise Failure when present with a non-numeric value. *)
val float_field : ?default:float -> t -> string -> float option
