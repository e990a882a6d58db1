(* Plain-text table rendering for the experiment harness, and the one
   JSON report shape every bench writes. *)

let heading id title =
  Printf.printf "\n=== %s: %s ===\n" id title

let columns widths headers =
  List.iter2 (fun w h -> Printf.printf "%*s " w h) widths headers;
  print_newline ();
  let total = List.fold_left (fun acc w -> acc + w + 1) 0 widths in
  print_string (String.make total '-');
  print_newline ()

let cell w s = Printf.printf "%*s " w s

let row widths cells =
  List.iter2 cell widths cells;
  print_newline ()

let pct x = Printf.sprintf "%.2f%%" (100. *. x)

let num x =
  if Float.abs x >= 1e6 then Printf.sprintf "%.3g" x else Printf.sprintf "%.1f" x

let note text = Printf.printf "  note: %s\n" text

(* --- bench self-assertions -------------------------------------------

   A bench asserts the contract it exists to demonstrate (a sampled
   fraction reads that fraction of the pages, a rescan clears erosion,
   …) while it runs.  A failed assertion is printed at once and makes
   bench/main.exe exit 1 after every requested report is written. *)

let failed = ref false

let check condition detail =
  if not condition then begin
    failed := true;
    Printf.eprintf "bench ASSERT FAILED: %s\n%!" detail
  end

(* Run [f] on a fresh private directory and remove it afterwards. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* --- the report ------------------------------------------------------

   Every BENCH_<bench>.json is one object

     {"schema": "raestat-bench/2", "bench": …, "command": …, "cores": …,
      "rows": [ one row per line ]}

   and every row is

     {"name": …, "pinned": {…}, "checks": […], "timings": {…}}

   - [pinned] holds seed-fixed values (ints, strings, floats) that a
     fresh run must reproduce: ints and strings exactly, floats within
     1e-6 relative.
   - [checks] are the conditions the bench declares for the row.  The
     gate (bench/compare.exe) reads them from the committed baseline,
     so a changed tolerance shows up in the baseline's diff.
   - [timings] summarize k repeats of a wall-clock quantity (median,
     p95, max) and record k.  The p95 is a tail only from k = 200 on
     (ten samples beyond it); below that read the median.  Timings are
     printed, never pinned; a check may read a timing's median (and
     the tail check its p95).

   [command] is the bench/main.exe argument list that wrote the report,
   so a missing baseline can be regenerated the same way. *)

let schema = "raestat-bench/2"

type timing = { k : int; median : float; p95 : float; max : float }

(* A bound is a constant or another field of the same (fresh) row. *)
type bound = Value of float | Field of string

type check =
  | At_least of string * bound  (** field >= bound *)
  | At_most of string * bound  (** field <= bound *)
  | At_least_base of string * float
      (** field >= baseline's field / (1 + tolerance) *)
  | Tail of string * float * float
      (** timing's p95 <= baseline p95 × (fresh median ÷ baseline
          median) × (1 + tolerance) + grace *)

type row = {
  name : string;
  pinned : (string * Serve.Json.t) list;
  checks : check list;
  timings : (string * timing) list;
}

let bench_row ?(pinned = []) ?(checks = []) ?(timings = []) name =
  { name; pinned; checks; timings }

let pin_int key v = (key, Serve.Json.Int v)
let pin_float key v = (key, Serve.Json.Float v)
let pin_str key v = (key, Serve.Json.Str v)

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(Int.min (n - 1) (int_of_float (q *. float_of_int n)))

let timing samples =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  {
    k = Array.length sorted;
    median = percentile sorted 0.5;
    p95 = percentile sorted 0.95;
    max = (if sorted = [||] then Float.nan else sorted.(Array.length sorted - 1));
  }

(* Wall-clock samples in seconds, summarized in whole nanoseconds. *)
let timing_ns seconds = timing (Array.map (fun s -> Float.round (1e9 *. s)) seconds)

(* --- JSON ------------------------------------------------------------- *)

module J = Serve.Json

let bound_to_json = function Value v -> J.Float v | Field f -> J.Str f

let check_to_json check =
  let kind, field, rest =
    match check with
    | At_least (f, b) -> ("at_least", f, [ ("bound", bound_to_json b) ])
    | At_most (f, b) -> ("at_most", f, [ ("bound", bound_to_json b) ])
    | At_least_base (f, tolerance) ->
      ("at_least_base", f, [ ("tolerance", J.Float tolerance) ])
    | Tail (f, tolerance, grace) ->
      ("tail", f, [ ("tolerance", J.Float tolerance); ("grace", J.Float grace) ])
  in
  J.Obj ((("check", J.Str kind) :: ("field", J.Str field) :: rest))

let row_to_json r =
  J.Obj
    [
      ("name", J.Str r.name);
      ("pinned", J.Obj r.pinned);
      ("checks", J.List (List.map check_to_json r.checks));
      ( "timings",
        J.Obj
          (List.map
             (fun (name, t) ->
               ( name,
                 J.Obj
                   [
                     ("k", J.Int t.k);
                     ("median", J.Float t.median);
                     ("p95", J.Float t.p95);
                     ("max", J.Float t.max);
                   ] ))
             r.timings) );
    ]

(* Writes BENCH_<bench>.json in the current directory. *)
let write ~bench ~command rows =
  let path = Printf.sprintf "BENCH_%s.json" bench in
  let oc = open_out path in
  let str s = J.to_string (J.Str s) in
  Printf.fprintf oc "{\"schema\": %s, \"bench\": %s, \"command\": %s, \"cores\": %d, \"rows\": [\n"
    (str schema) (str bench) (str command) (Raestat.Parallel.auto ());
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",\n";
      output_string oc (J.to_string (row_to_json r)))
    rows;
  output_string oc "\n]}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n%!" path

let number = function
  | J.Int n -> Some (float_of_int n)
  | J.Float f -> Some f
  | _ -> None

let fail_field what = failwith ("malformed report: " ^ what)

let field name obj =
  match J.member name obj with Some v -> v | None -> fail_field ("no " ^ name)

(* Timings print a non-finite value as null; it reads back as nan. *)
let float_of name obj =
  match field name obj with
  | J.Null -> Float.nan
  | v -> (
    match number v with Some f -> f | None -> fail_field (name ^ " not a number"))

let string_of name obj =
  match field name obj with J.Str s -> s | _ -> fail_field (name ^ " not a string")

let obj_of name obj =
  match field name obj with J.Obj fields -> fields | _ -> fail_field (name ^ " not an object")

let check_of_json obj =
  let f = string_of "field" obj in
  let bound () =
    match field "bound" obj with
    | J.Str other -> Field other
    | v -> (
      match number v with Some b -> Value b | None -> fail_field "bad bound")
  in
  match string_of "check" obj with
  | "at_least" -> At_least (f, bound ())
  | "at_most" -> At_most (f, bound ())
  | "at_least_base" -> At_least_base (f, float_of "tolerance" obj)
  | "tail" -> Tail (f, float_of "tolerance" obj, float_of "grace" obj)
  | kind -> fail_field ("unknown check " ^ kind)

let row_of_json obj =
  {
    name = string_of "name" obj;
    pinned = obj_of "pinned" obj;
    checks =
      (match field "checks" obj with
      | J.List checks -> List.map check_of_json checks
      | _ -> fail_field "checks not a list");
    timings =
      List.map
        (fun (name, t) ->
          ( name,
            {
              k = int_of_float (float_of "k" t);
              median = float_of "median" t;
              p95 = float_of "p95" t;
              max = float_of "max" t;
            } ))
        (obj_of "timings" obj);
  }

type report = { bench : string; command : string; rows : row list }

(* @raise Failure on text that is not a raestat-bench/2 report. *)
let parse text =
  match J.parse text with
  | Error message -> failwith message
  | Ok obj ->
    if J.member "schema" obj <> Some (J.Str schema) then
      fail_field ("schema is not " ^ schema);
    {
      bench = string_of "bench" obj;
      command = string_of "command" obj;
      rows =
        (match field "rows" obj with
        | J.List rows -> List.map row_of_json rows
        | _ -> fail_field "rows not a list");
    }
