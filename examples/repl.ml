(* Interactive estimator shell: type relational algebra expressions,
   get sampled COUNT estimates (and exact answers for comparison) over
   a demo catalog or your own CSV files.

   Run with:  dune exec examples/repl.exe              (demo catalog)
              dune exec examples/repl.exe -- r=data.csv s=other.csv

   Expressions use the Relational.Parser syntax, e.g.
     select[o_quantity >= 5](orders) join[o_supplier = s_key] suppliers
   Commands:
     :relations            list catalog contents
     :fraction 0.05        set the sampling fraction
     :groups 8             set replicate groups (variance/CI)
     :exact on|off         toggle exact evaluation
     :quit                 leave *)

module Expr = Relational.Expr
module CE = Raestat.Count_estimator
module Estimate = Stats.Estimate

let load_catalog () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then begin
    let rng = Sampling.Rng.create ~seed:11 () in
    print_endline "no CSVs given; loading the demo mini-TPC catalog";
    Workload.Tpc_mini.catalog rng ()
  end
  else
    Relational.Catalog.of_list
      (List.map
         (fun spec ->
           match String.index_opt spec '=' with
           | Some i ->
             let name = String.sub spec 0 i in
             let path = String.sub spec (i + 1) (String.length spec - i - 1) in
             (name, Relational.Csv.load path)
           | None -> failwith (Printf.sprintf "expected NAME=PATH, got %S" spec))
         args)

let () =
  let catalog = load_catalog () in
  let rng = Sampling.Rng.create ~seed:1988 () in
  let fraction = ref 0.05 in
  let groups = ref 5 in
  let exact = ref true in
  let describe () =
    List.iter
      (fun name ->
        let r = Relational.Catalog.find catalog name in
        Printf.printf "  %-12s %8d tuples  %s\n" name
          (Relational.Relation.cardinality r)
          (Relational.Schema.to_string (Relational.Relation.schema r)))
      (Relational.Catalog.names catalog)
  in
  describe ();
  Printf.printf "fraction=%.3f groups=%d exact=%b — type an expression or :help\n%!"
    !fraction !groups !exact;
  let rec loop () =
    print_string "raestat> ";
    match In_channel.input_line stdin with
    | None -> print_newline ()
    | Some line ->
      let line = String.trim line in
      (try
         if line = "" then ()
         else if line = ":quit" then raise Exit
         else if line = ":relations" then describe ()
         else if line = ":help" then
           print_endline
             "expressions: select[p](e), pi[a,b](e), pidist[a](e), distinct(e),\n\
             \  rho[a->b](e), gamma[g; count, sum(v)](e), e cross e,\n\
             \  e join[a=b] e, e theta[p] e, e union e, e inter e, e minus e\n\
              SQL: prefix with 'sql', e.g. sql SELECT COUNT(*) FROM orders WHERE o_quantity >= 5\n\
              commands: :relations  :fraction F  :groups G  :exact on|off  :quit"
         else if String.length line > 10 && String.sub line 0 10 = ":fraction " then
           fraction := float_of_string (String.trim (String.sub line 10 (String.length line - 10)))
         else if String.length line > 8 && String.sub line 0 8 = ":groups " then
           groups := int_of_string (String.trim (String.sub line 8 (String.length line - 8)))
         else if line = ":exact on" then exact := true
         else if line = ":exact off" then exact := false
         else begin
           (* "sql SELECT ..." runs the SQL front-end; anything else is
              parsed as relational algebra. *)
           let e =
             if String.length line > 4 && String.lowercase_ascii (String.sub line 0 4) = "sql "
             then begin
               let parsed =
                 Relational.Optimizer.optimize catalog
                   (Relational.Parser.parse_sql (String.sub line 4 (String.length line - 4)))
               in
               (* SELECT COUNT( * ) means "estimate this cardinality". *)
               Option.value (Relational.Parser.count_star_target parsed) ~default:parsed
             end
             else Relational.Parser.parse_expr line
           in
           let est = CE.estimate ~groups:!groups rng catalog ~fraction:!fraction e in
           Printf.printf "estimate: %.0f   (%s" est.Estimate.point
             (Estimate.status_to_string est.Estimate.status);
           if Estimate.has_variance est then begin
             let ci = Estimate.ci ~level:0.95 est in
             Printf.printf ", CI95 [%.0f, %.0f]" ci.Stats.Confidence.lo ci.Stats.Confidence.hi
           end;
           Printf.printf ", %d tuples read)\n" est.Estimate.sample_size;
           if !exact then begin
             let result = Baselines.Exact.count catalog e in
             Printf.printf "exact:    %d   (%.1f ms; estimate error %.2f%%)\n"
               result.Baselines.Exact.count
               (1000. *. result.Baselines.Exact.seconds)
               (100.
               *. Estimate.relative_error
                    ~truth:(float_of_int result.Baselines.Exact.count)
                    est)
           end
         end
       with
      | Exit -> raise Exit
      | Failure message -> Printf.printf "error: %s\n" message
      | Invalid_argument message -> Printf.printf "error: %s\n" message);
      flush stdout;
      loop ()
  in
  (try loop () with Exit -> ());
  print_endline "bye"
