(* Strategy-selection benchmark for the optimizing planner.

   Each scenario is a seed-fixed catalog plus an expression.  The
   planner enumerates root-sampling and every sampling-pushdown
   placement, prices them with the GUS second-moment model, and picks
   a winner; this bench then *measures* what the model only predicts,
   by replicating both the historical root-sampling plan and the
   winner's plan at the same sampled-tuple budget and comparing the
   empirical variance of the point estimates.

   Everything here is deterministic — relation contents, the planner
   (no RNG), and the replicate streams are all seed-fixed — so the
   winner labels and the measured variance ratios are reproducible
   bit-for-bit across machines and runs.  Each row pins them, and a
   row whose winner is a pushdown declares the >= 1.5x measured
   variance improvement as a check for the gate. *)

let seed = 2024

(* --- scenarios --------------------------------------------------------- *)

type column =
  | Uniform of int  (** uniform keys in [0, hi] *)
  | Unique  (** sequential unique keys 0 .. n−1 (foreign-key side) *)

type scenario = {
  name : string;
  expr : string;  (** parsed against the scenario's catalog *)
  fraction : float;
  relations : (string * string * int * column) list;
      (** relation name, column name, cardinality, key shape *)
}

(* Foreign-key equijoins (unique keys on the dimension side): root
   sampling thins both leaves and pays the cross-term
   J·(1/(q1·q2) − 1), while pushing the sample to the fact side keeps
   the dimension census and collapses the variance to J·(1/q − 1)
   (SS_fact = J when every fact tuple matches at most one dimension
   row).  The dimension census is cheap, so the score — variance ×
   tuples touched — picks the pushdown, and the measurement must
   confirm >= 1.5x at the same drawn-tuple budget.  Dimension
   populations sit above the budget so no candidate degenerates to a
   zero-variance full census: the ratio stays a finite
   sampled-vs-sampled comparison.  The single-leaf selection is the
   control: its one pushdown candidate is the identical design, the
   scorer ties, and the tie-break keeps the historical root-sampling
   strategy. *)
let scenarios =
  [
    {
      name = "fk-join";
      expr = "fact join[a=b] dim";
      fraction = 0.01;
      (* Fact keys range past the dimension: only half the fact rows
         match, so the pushed-down sample still estimates (the join is
         selective) instead of degenerating to an exact count. *)
      relations =
        [ ("fact", "a", 40_000, Uniform 3_999); ("dim", "b", 2_000, Unique) ];
    };
    {
      name = "select-fk-join";
      expr = "select[a < 500](fact) join[a=b] dim";
      fraction = 0.02;
      relations =
        [ ("fact", "a", 30_000, Uniform 999); ("dim", "b", 1_000, Unique) ];
    };
    {
      name = "single-leaf-select";
      expr = "select[a < 50](r)";
      fraction = 0.1;
      relations = [ ("r", "a", 5_000, Uniform 99) ];
    };
  ]

let materialize scenario =
  let rng = Sampling.Rng.create ~seed () in
  Relational.Catalog.of_list
    (List.map
       (fun (name, column, cardinality, shape) ->
         let relation =
           match shape with
           | Uniform hi ->
             Workload.Generator.int_relation rng ~n:cardinality ~attribute:column
               (Workload.Dist.Uniform { lo = 0; hi })
           | Unique ->
             Workload.Generator.of_columns
               [ (column, Array.init cardinality (fun i -> i)) ]
         in
         (name, relation))
       scenario.relations)

(* --- measurement ------------------------------------------------------- *)

let empirical_variance points =
  let n = float_of_int (Array.length points) in
  let mean = Array.fold_left ( +. ) 0. points /. n in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. points in
  ss /. (n -. 1.)

(* Replicate a compiled plan: fresh independent stream per run, all
   derived from one fixed master seed per (scenario, plan) pair. *)
let replicate ~runs ~salt catalog plan =
  let master = Sampling.Rng.create ~seed:(seed + salt) () in
  Array.init runs (fun _ ->
      (Raestat.Estplan.run (Sampling.Rng.split master) catalog plan)
        .Stats.Estimate.point)

type measured = {
  scenario : scenario;
  winner : string;
  candidates : int;
  budget : int;
  root_drawn : float;
  winner_drawn : float;
  root_var : float;
  winner_var : float;
  ratio : float;
}

let run_scenario ~replicates index scenario =
  let catalog = materialize scenario in
  let expr = Relational.Parser.parse_expr scenario.expr in
  let choice =
    Raestat.Planner.choose_sampling catalog ~fraction:scenario.fraction expr
  in
  let winner = choice.Raestat.Planner.winner in
  let root_candidate =
    List.hd choice.Raestat.Planner.candidates (* enumeration order: root first *)
  in
  let root_plan =
    Raestat.Estplan.compile ~groups:1 catalog ~fraction:scenario.fraction expr
  in
  let root_points = replicate ~runs:replicates ~salt:(100 + index) catalog root_plan in
  let winner_points =
    replicate ~runs:replicates ~salt:(200 + index) catalog
      choice.Raestat.Planner.chosen
  in
  let root_var = empirical_variance root_points in
  let winner_var = empirical_variance winner_points in
  (* The control scenario's winner is the root plan itself: its ratio
     is 1 by construction, not two noisy draws of the same design. *)
  let ratio =
    if winner.Raestat.Planner.label = "root-sampling" then 1.
    else if winner_var > 0. then root_var /. winner_var
    else Float.infinity
  in
  {
    scenario;
    winner = winner.Raestat.Planner.label;
    candidates = List.length choice.Raestat.Planner.candidates;
    budget = choice.Raestat.Planner.budget;
    root_drawn = root_candidate.Raestat.Planner.drawn_tuples;
    winner_drawn = winner.Raestat.Planner.drawn_tuples;
    root_var;
    winner_var;
    ratio;
  }

(* --- harness ----------------------------------------------------------- *)

let run ?(quick = false) () =
  Printf.printf "\n=== plans bench (strategy selection, measured variance) ===\n%!";
  let replicates = if quick then 200 else 400 in
  let results = List.mapi (fun i s -> run_scenario ~replicates i s) scenarios in
  Printf.printf "%-20s %-20s %12s %12s %8s\n" "scenario" "winner" "root var"
    "winner var" "ratio";
  List.map
    (fun m ->
      Printf.printf "%-20s %-20s %12.4g %12.4g %7.2fx\n" m.scenario.name m.winner
        m.root_var m.winner_var m.ratio;
      (* Budget parity: the winner never draws more sampled tuples than
         the root strategy's total. *)
      Report.check
        (m.winner_drawn <= m.root_drawn +. 0.5)
        (Printf.sprintf "%s: winner drew %.0f tuples, over the root budget %.0f"
           m.scenario.name m.winner_drawn m.root_drawn);
      Report.bench_row m.scenario.name
        ~pinned:
          Report.
            [
              pin_str "winner" m.winner;
              pin_int "candidates" m.candidates;
              pin_int "replicates" replicates;
              pin_int "budget" m.budget;
              pin_float "root_drawn" m.root_drawn;
              pin_float "winner_drawn" m.winner_drawn;
              pin_float "root_var" m.root_var;
              pin_float "winner_var" m.winner_var;
              pin_float "variance_ratio" m.ratio;
            ]
        ~checks:
          (if String.starts_with ~prefix:"pushdown" m.winner then
             [ Report.At_least ("variance_ratio", Report.Value 1.5) ]
           else []))
    results
