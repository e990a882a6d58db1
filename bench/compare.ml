(* The bench regression gate.

     dune exec bench/compare.exe -- BASE.json FRESH.json [BASE.json FRESH.json ...]

   One rule for every pair of raestat-bench/2 reports (see
   bench/report.ml).  For each row of the baseline BASE, the row of the
   same name in FRESH must

   - exist;
   - reproduce every pinned value: ints and strings exactly, floats
     within 1e-6 relative;
   - pass every check the baseline row declares:
     - [at_least] / [at_most]: the field against a constant or another
       field of the fresh row;
     - [at_least_base]: the field at or above the baseline's value
       divided by (1 + tolerance);
     - [tail]: the timing's p95 at most the baseline p95, scaled by the
       ratio of the two medians, times (1 + tolerance), plus grace.

   A field is a pinned value, or else the median of the timing of that
   name.  Timings are printed and never gated otherwise.  A fresh row
   the baseline lacks is reported as new.  The checks come from the
   committed baseline, so this file names no bench: changing what a
   bench guards, or how tightly, is a diff of its baseline.  Exits 1 if
   anything fails. *)

module J = Serve.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let load path =
  match Report.parse (read_file path) with
  | report -> Ok report
  | exception (Sys_error message | Failure message) -> Error message

let failed = ref false

let same_pin base fresh =
  match (base, fresh) with
  | J.Int b, J.Int f -> b = f
  | J.Str b, J.Str f -> String.equal b f
  | _ -> (
    match (Report.number base, Report.number fresh) with
    | Some b, Some f -> Float.abs (b -. f) <= 1e-6 *. Float.max 1. (Float.abs b)
    | _ -> base = fresh)

let value (row : Report.row) name =
  match List.assoc_opt name row.pinned with
  | Some v -> Report.number v
  | None -> Option.map (fun (t : Report.timing) -> t.median) (List.assoc_opt name row.timings)

let num x = if Float.abs x >= 1e4 then Printf.sprintf "%.0f" x else Printf.sprintf "%.4g" x

(* [None] when the check holds, else what went wrong. *)
let violation ~(base : Report.row) ~(fresh : Report.row) check =
  let missing field = Some (field ^ " missing") in
  let against field op holds bound =
    let limit =
      match bound with Report.Value v -> Some v | Report.Field other -> value fresh other
    in
    match (value fresh field, limit) with
    | Some v, Some limit ->
      if holds v limit then None
      else Some (Printf.sprintf "%s %s not %s %s" field (num v) op (num limit))
    | None, _ -> missing field
    | _, None -> missing "bound"
  in
  match check with
  | Report.At_least (field, bound) -> against field ">=" ( >= ) bound
  | Report.At_most (field, bound) -> against field "<=" ( <= ) bound
  | Report.At_least_base (field, tolerance) -> (
    match (value base field, value fresh field) with
    | Some b, Some f ->
      let floor = b /. (1. +. tolerance) in
      if f >= floor then None
      else
        Some
          (Printf.sprintf "%s %s below %s (baseline %s / %g)" field (num f) (num floor)
             (num b) (1. +. tolerance))
    | _ -> missing field)
  | Report.Tail (field, tolerance, grace) -> (
    match (List.assoc_opt field base.timings, List.assoc_opt field fresh.timings) with
    | Some b, Some f when b.median > 0. ->
      let scale = f.median /. b.median in
      let limit = (b.p95 *. scale *. (1. +. tolerance)) +. grace in
      if f.p95 <= limit then None
      else
        Some
          (Printf.sprintf "%s p95 %s over %s (baseline p95 %s at median ratio %.2f)" field
             (num f.p95) (num limit) (num b.p95) scale)
    | _ -> missing field)

let timings_text (base : Report.row) (fresh : Report.row) =
  String.concat "; "
    (List.map
       (fun (name, (t : Report.timing)) ->
         Printf.sprintf "%s %s%s" name (num t.median)
           (match List.assoc_opt name base.timings with
           | Some b -> Printf.sprintf " (base %s)" (num b.Report.median)
           | None -> ""))
       fresh.timings)

let compare_row (fresh_rows : Report.row list) (base : Report.row) =
  match List.find_opt (fun (r : Report.row) -> r.name = base.name) fresh_rows with
  | None ->
    failed := true;
    Printf.printf "FAILED  %-38s MISSING in fresh report\n" base.name
  | Some fresh ->
    let pin_problems =
      List.filter_map
        (fun (key, b) ->
          match List.assoc_opt key fresh.pinned with
          | None -> Some (key ^ " missing")
          | Some f when same_pin b f -> None
          | Some f -> Some (Printf.sprintf "%s %s -> %s" key (J.to_string b) (J.to_string f)))
        base.pinned
    in
    let check_problems = List.filter_map (violation ~base ~fresh) base.checks in
    (match pin_problems @ check_problems with
    | [] ->
      Printf.printf "ok      %-38s %d pinned, %d checks; %s\n" base.name
        (List.length base.pinned) (List.length base.checks) (timings_text base fresh)
    | problems ->
      failed := true;
      Printf.printf "FAILED  %-38s %s\n" base.name (String.concat "; " problems))

let compare_pair (base_path, fresh_path) =
  match load fresh_path with
  | Error message ->
    failed := true;
    Printf.printf "FAILED  fresh report %s unreadable: %s\n" fresh_path message
  | Ok fresh -> (
    match load base_path with
    | Error message ->
      failed := true;
      Printf.printf
        "FAILED  baseline %s %s: regenerate with `dune exec bench/main.exe -- %s` and \
         commit it\n"
        base_path
        (if Sys.file_exists base_path then "unreadable (" ^ message ^ ")" else "missing")
        fresh.command
    | Ok base when base.bench <> fresh.bench ->
      failed := true;
      Printf.printf "FAILED  %s is a %s report but %s is a %s report\n" base_path base.bench
        fresh_path fresh.bench
    | Ok base ->
      Printf.printf "\n== %s: %s vs %s\n" base.bench base_path fresh_path;
      List.iter (compare_row fresh.rows) base.rows;
      List.iter
        (fun (r : Report.row) ->
          if not (List.exists (fun (b : Report.row) -> b.name = r.name) base.rows) then
            Printf.printf "new     %s\n" r.name)
        fresh.rows)

let () =
  let rec pairs = function
    | base :: fresh :: rest -> (base, fresh) :: pairs rest
    | [] -> []
    | [ _ ] -> raise Exit
  in
  match pairs (List.tl (Array.to_list Sys.argv)) with
  | [] | (exception Exit) ->
    prerr_endline "usage: compare BASE.json FRESH.json [BASE.json FRESH.json ...]";
    exit 2
  | pairs ->
    List.iter compare_pair pairs;
    if !failed then begin
      prerr_endline "bench regression gate FAILED (see the FAILED lines above)";
      exit 1
    end
