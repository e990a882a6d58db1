module Expr = Relational.Expr
module Catalog = Relational.Catalog
module Schema = Relational.Schema

type join_spec = {
  left_attr : string;
  right_attr : string;
}

type input = {
  name : string;
  filter : Relational.Predicate.t option;
}

type plan = {
  expr : Expr.t;
  order : string list;
  estimated_cost : float;
  intermediates : Expr.t list;
  estimates : (string * float) list;
}

(* Resolved join edge: input indices plus their attributes. *)
type edge = { a_input : int; a_attr : string; b_input : int; b_attr : string }

let input_expr input =
  match input.filter with
  | Some p -> Expr.Select (p, Expr.Base input.name)
  | None -> Expr.Base input.name

let resolve_inputs catalog inputs joins =
  let n = List.length inputs in
  if n < 2 then invalid_arg "Planner: need at least two inputs";
  if n > 8 then invalid_arg "Planner: more than 8 inputs (left-deep enumeration)";
  let names = List.map (fun i -> i.name) inputs in
  if List.length (List.sort_uniq String.compare names) <> n then
    invalid_arg "Planner: duplicate input names";
  let schemas =
    Array.of_list
      (List.map (fun i -> Relational.Relation.schema (Catalog.find catalog i.name)) inputs)
  in
  let owner attr =
    let owners = ref [] in
    Array.iteri (fun k schema -> if Schema.mem schema attr then owners := k :: !owners) schemas;
    match !owners with
    | [ k ] -> k
    | [] -> invalid_arg (Printf.sprintf "Planner: attribute %S matches no input" attr)
    | _ -> invalid_arg (Printf.sprintf "Planner: attribute %S is ambiguous across inputs" attr)
  in
  List.map
    (fun spec ->
      let a_input = owner spec.left_attr and b_input = owner spec.right_attr in
      if a_input = b_input then
        invalid_arg
          (Printf.sprintf "Planner: join %s = %s stays within one input" spec.left_attr
             spec.right_attr);
      { a_input; a_attr = spec.left_attr; b_input; b_attr = spec.right_attr })
    joins

(* Join pairs between the set [joined] and the new input [next]:
   oriented (joined-side attribute, next-side attribute). *)
let pairs_to edges ~joined ~next =
  List.filter_map
    (fun e ->
      if e.a_input = next && List.mem e.b_input joined then Some (e.b_attr, e.a_attr)
      else if e.b_input = next && List.mem e.a_input joined then Some (e.a_attr, e.b_attr)
      else None)
    edges

let set_key indices names =
  List.sort Int.compare indices
  |> List.map (fun i -> names.(i))
  |> String.concat "+"

let plan rng catalog ~fraction ~inputs ~joins =
  let edges = resolve_inputs catalog inputs joins in
  let inputs_array = Array.of_list inputs in
  let names = Array.map (fun i -> i.name) inputs_array in
  let n = Array.length inputs_array in
  (* Cardinality estimate per joined input-set, memoized: join size is
     order-independent, so one sampling per set suffices. *)
  let memo = Hashtbl.create 32 in
  let estimate_set indices expr =
    let key = set_key indices names in
    match Hashtbl.find_opt memo key with
    | Some size -> size
    | None ->
      (* Cost each candidate intermediate through the same estimation
         IR the public estimators compile to. *)
      let est = Estplan.run rng catalog (Estplan.compile catalog ~fraction expr) in
      let size = Float.max 0. est.Stats.Estimate.point in
      Hashtbl.add memo key size;
      size
  in
  let build_join joined_expr joined next =
    let pairs = pairs_to edges ~joined ~next in
    (pairs, Expr.Equijoin (pairs, joined_expr, input_expr inputs_array.(next)))
  in
  (* DFS over connected left-deep orders. *)
  let best = ref None in
  let rec explore order joined expr cost intermediates =
    if List.length joined = n then begin
      match !best with
      | Some (best_cost, _, _, _) when best_cost <= cost -> ()
      | _ -> best := Some (cost, List.rev order, expr, List.rev intermediates)
    end
    else
      for next = 0 to n - 1 do
        if not (List.mem next joined) then begin
          let pairs, joined_expr = build_join expr joined next in
          if pairs <> [] then begin
            let joined' = next :: joined in
            let is_final = List.length joined' = n in
            (* Strict intermediates only: the final result is common to
               all orders and does not discriminate. *)
            let cost' =
              if is_final then cost else cost +. estimate_set joined' joined_expr
            in
            (match !best with
            | Some (best_cost, _, _, _) when best_cost <= cost' && not is_final -> ()
            | _ ->
              explore (next :: order) joined' joined_expr cost'
                (if is_final then intermediates else joined_expr :: intermediates))
          end
        end
      done
  in
  for first = 0 to n - 1 do
    explore [ first ] [ first ] (input_expr inputs_array.(first)) 0. []
  done;
  match !best with
  | None -> invalid_arg "Planner: join graph is disconnected (no cross-product-free order)"
  | Some (cost, order, expr, intermediates) ->
    {
      expr;
      order = List.map (fun i -> names.(i)) order;
      estimated_cost = cost;
      intermediates;
      estimates =
        Hashtbl.fold (fun key size acc -> (key, size) :: acc) memo []
        |> List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2);
    }

let exact_cost catalog plan =
  List.fold_left
    (fun acc e -> acc +. float_of_int (Relational.Physical.count_expr catalog e))
    0. plan.intermediates

(* ------------------------------------------------------------------ *)
(* Sampling-placement optimization                                     *)

module Pushdown = Relational.Optimizer.Sampling_pushdown
module Predicate = Relational.Predicate
module Relation = Relational.Relation

let optimizer_version = 1

(* Kill switch, read once at startup so every consult in one process
   agrees: RAESTAT_NO_OPTIMIZE=1 forces every goal-based entry point
   back to the historical root-sampling strategy. *)
let optimize_enabled =
  let on =
    match Sys.getenv_opt "RAESTAT_NO_OPTIMIZE" with
    | Some ("1" | "true" | "yes" | "on") -> false
    | Some _ | None -> true
  in
  fun () -> on

type goal =
  | Budget_fraction of float
  | Budget_tuples of int
  | Ci_width of { width : float; level : float }

let z_of_level level = (Stats.Confidence.normal ~level ~point:0. ~stderr:1.).Stats.Confidence.hi

let fraction_of_goal ~population goal =
  match goal with
  | Budget_fraction f ->
    if not (f > 0. && f <= 1.) then
      invalid_arg "Planner.fraction_of_goal: fraction must be in (0, 1]";
    f
  | Budget_tuples b ->
    if b <= 0 then invalid_arg "Planner.fraction_of_goal: budget must be positive";
    if population <= 0 then 1.
    else Float.min 1. (float_of_int b /. float_of_int population)
  | Ci_width { width; level } ->
    if not (width > 0.) then invalid_arg "Planner.fraction_of_goal: width must be positive";
    if population <= 0 then 1.
    else begin
      (* Conservative closed form from the worst-case binomial variance
         p(1−p) ≤ 1/4: the CI half-width z·N·√(0.25(1−n/N)/(n−1)) stays
         under width/2 whenever n ≥ (1 + c)/(1 + c/N) with
         c = z²N²/width² — solve the quadratic, no data pass needed. *)
      let big_n = float_of_int population in
      let z = z_of_level level in
      let c = z *. z *. big_n *. big_n /. (width *. width) in
      let n = Float.ceil ((1. +. c) /. (1. +. (c /. big_n))) in
      let n = Float.max 2. (Float.min big_n n) in
      Float.min 1. (n /. big_n)
    end

let size_of_goal ~population goal =
  if population <= 0 then 0
  else
    let fraction = fraction_of_goal ~population goal in
    Stdlib.max 1
      (Stdlib.min population (Sampling.Srs.size_of_fraction ~fraction population))

type candidate = {
  label : string;
  derivation : Pushdown.derivation option;  (* None for root-sampling *)
  predicted_variance : float;
  predicted_cost : float;
  score : float;
  drawn_tuples : float;
  exact_tuples : float;
}

type choice = {
  winner : candidate;
  chosen : Estplan.t;
  candidates : candidate list;
  rationale : string;
  analytic : bool;
  budget : int;
}

(* --- per-leaf second-moment statistics ---------------------------- *)

(* Statistics driving the analytic variance model: J approximates (or
   bounds) the true count, ss.(i) the sum of squared per-tuple result
   contributions of leaf occurrence i.  [analytic] marks the shapes
   computed exactly from the leaves' passing rows (selection chains over
   a base, and a two-leaf equijoin/product of such chains); the
   fallback uses the pessimistic cardinality cap with the
   uniform-contribution approximation SS_i = J²/N_i. *)
type stats = {
  j : float;
  ss : float array;
  analytic : bool;
}

module Kernel = Relational.Kernel

let rec strip_projects = function
  | Expr.Project (_, e) -> strip_projects e
  | e -> e

(* [chain e] — Some (predicates, base) when [e] is a selection chain
   over a base relation. *)
let rec chain = function
  | Expr.Base name -> Some ([], name)
  | Expr.Select (p, e) ->
    Option.map (fun (ps, name) -> (p :: ps, name)) (chain e)
  | _ -> None

(* A chain's predicates as one conjunction: the scan kernels run its
   conjuncts in sequence. *)
let conjunction = function
  | [] -> None
  | p :: ps -> Some (List.fold_left (fun acc q -> Predicate.And (acc, q)) p ps)

let chain_count catalog (preds, name) =
  let relation = Catalog.find catalog name in
  match conjunction preds with
  | None -> Relation.cardinality relation
  | Some p -> Relation.count_pred p relation

(* A side of a join: its key codes, the rows it reads (its passing rows,
   or every row of the base when [None]) and their number. *)
type side = {
  codes : Kernel.codes;
  rows : int array option;
  n : int;
}

(* A key of multiplicity m on the left and n on the right adds m·n to
   J, m·n² to SS_left and n·m² to SS_right: a left tuple with that key
   appears in n result tuples. *)
let add_key (j, ss_l, ss_r) m n =
  let m = float_of_int m and n = float_of_int n in
  (j +. (m *. n), ss_l +. (m *. n *. n), ss_r +. (n *. m *. m))

(* The same sums from the int key codes of the two sides, whose codes
   lie in [lo, hi]: the per-key counts live in a key table built on the
   side with fewer rows, and the other side is counted by the table's
   slots (a key the table lacks lands in an empty slot and is never
   read). *)
let code_moments ~lo ~hi left right =
  let left_builds = left.n <= right.n in
  let b, p = if left_builds then (left, right) else (right, left) in
  let table = Kernel.Key_table.create ~lo ~hi ~rows:b.n in
  Kernel.Key_table.count table b.codes b.rows b.n;
  let probed = Kernel.Key_table.histogram table p.codes p.rows p.n in
  let sums = ref (0., 0., 0.) in
  Array.iteri
    (fun s built ->
      let other = probed.(s) in
      if built > 0 && other > 0 then
        sums := if left_builds then add_key !sums built other else add_key !sums other built)
    (Kernel.Key_table.vals table);
  Kernel.Key_table.free table;
  Relational.Scratch.free probed;
  !sums

(* J, SS_left and SS_right of an equijoin of two selection chains,
   counted from each side's passing rows, found by the scan kernels over
   its base's view.  The keys are coded as [Physical.count_expr] codes
   them: a single attribute pair whose key columns admit int codes
   ({!Kernel.join_codes}) reads them in place, within the range the
   columns give, and every other key shape numbers the right side's key
   tuples in a {!Kernel.Key_dict}, which gives a left key the right side
   lacks the code [-1]: the range is [-1, D - 1] for its D keys. *)
let join_moments catalog expr =
  match strip_projects expr with
  | Expr.Equijoin (pairs, l, r) when pairs <> [] -> (
    match (chain (strip_projects l), chain (strip_projects r)) with
    | Some (pl, nl), Some (pr, nr) ->
      let rl = Catalog.find catalog nl and rr = Catalog.find catalog nr in
      let vl = Relation.columnar rl and vr = Relation.columnar rr in
      let index v attr = Schema.index_of (Relational.Column.schema v) attr in
      let passing relation preds =
        match conjunction preds with
        | None -> (None, Relation.cardinality relation)
        | Some p ->
          let ids = Kernel.filter_indices (Relation.columnar relation) p in
          (Some ids, Array.length ids)
      in
      let side relation codes preds =
        let rows, n = passing relation preds in
        { codes; rows; n }
      in
      let codes =
        match pairs with
        | [ (a, b) ] -> Kernel.join_codes vl (index vl a) vr (index vr b)
        | _ -> None
      in
      (match codes with
      | Some { Kernel.left; right; lo; hi } ->
        Some (code_moments ~lo ~hi (side rl left pl) (side rr right pr))
      | None ->
        let dict = Kernel.Key_dict.create () in
        let key_codes relation attrs preds coder =
          let key = Array.of_list (List.map (Schema.index_of (Relation.schema relation)) attrs) in
          let code i = coder dict (Relational.Tuple.project (Relation.tuple relation i) key) in
          let rows, n = passing relation preds in
          let codes =
            match rows with None -> Array.init n code | Some ids -> Array.map code ids
          in
          { codes = Kernel.Raw codes; rows = None; n }
        in
        let kr = key_codes rr (List.map snd pairs) pr Kernel.Key_dict.code in
        let kl = key_codes rl (List.map fst pairs) pl Kernel.Key_dict.find in
        Some (code_moments ~lo:(-1) ~hi:(Kernel.Key_dict.length dict - 1) kl kr))
    | _ -> None)
  | _ -> None

let leaf_populations catalog expr =
  List.map
    (fun name -> float_of_int (Relation.cardinality (Catalog.find catalog name)))
    (Expr.leaves expr)

let compute_stats catalog expr =
  let populations = Array.of_list (leaf_populations catalog expr) in
  let fallback () =
    let cap = Baselines.Pessimistic.bound catalog expr in
    {
      j = cap;
      ss = Array.map (fun n -> cap *. cap /. Float.max 1. n) populations;
      analytic = false;
    }
  in
  match strip_projects expr with
  | e when chain e <> None ->
    let j = float_of_int (chain_count catalog (Option.get (chain e))) in
    { j; ss = [| j |]; analytic = true }
  | Expr.Product (l, r) -> (
    match (chain (strip_projects l), chain (strip_projects r)) with
    | Some cl, Some cr ->
      let m = float_of_int (chain_count catalog cl)
      and n = float_of_int (chain_count catalog cr) in
      { j = m *. n; ss = [| m *. n *. n; n *. m *. m |]; analytic = true }
    | _ -> fallback ())
  | e -> (
    match join_moments catalog e with
    | Some (j, ss_l, ss_r) -> { j; ss = [| ss_l; ss_r |]; analytic = true }
    | None -> fallback ())

(* --- candidate enumeration and scoring ---------------------------- *)

(* GUS variance model at sampling rates q_i (Bernoulli approximation,
   exact for independent per-leaf designs; THEORY.md §22):
   Var = J·(Π 1/q_i − 1) + Σ_i (SS_i − J)·(1/q_i − 1). *)
let model_variance stats rates =
  let product = Array.fold_left (fun acc q -> acc /. q) 1. rates in
  let cross = ref (stats.j *. (product -. 1.)) in
  Array.iteri
    (fun i q ->
      if q < 1. then
        cross := !cross +. ((stats.ss.(i) -. stats.j) *. ((1. /. q) -. 1.)))
    rates;
  Float.max 0. !cross

let root_label = "root-sampling"

let choose_sampling ?(metrics = Obs.Metrics.noop) ?(groups = 1) catalog ~fraction expr =
  if not (fraction > 0. && fraction <= 1.) then
    invalid_arg "Planner.choose_sampling: fraction must be in (0, 1]";
  if groups < 1 then invalid_arg "Planner.choose_sampling: groups must be positive";
  let derivations = Pushdown.derivations expr in
  let populations = Array.of_list (leaf_populations catalog expr) in
  let root_sizes =
    Array.map
      (fun n -> Sampling.Srs.size_of_fraction ~fraction (int_of_float n))
      populations
  in
  let budget = Array.fold_left ( + ) 0 root_sizes in
  let stats = lazy (compute_stats catalog expr) in
  let groups_f = float_of_int groups in
  let rates sizes =
    Array.mapi
      (fun i n ->
        if populations.(i) <= 0. then 1. else float_of_int n /. populations.(i))
      sizes
  in
  (* Score = max(variance, 1) × cost: variance of the mean-of-groups
     estimator times total tuples touched across all groups.  The floor
     keeps a zero-variance census candidate priced by its scans instead
     of erasing them. *)
  let scored label derivation sizes =
    let stats = Lazy.force stats in
    let qs = rates sizes in
    let variance = model_variance stats qs /. groups_f in
    (* Sampled-tuple budget counts draws at sampled leaves only; a
       pushdown candidate's census scans of the other leaves are work
       (cost), not budget. *)
    let drawn = ref 0. and exact = ref 0. in
    Array.iteri
      (fun i n ->
        let sampled =
          match derivation with
          | None -> true
          | Some d -> i = d.Pushdown.occurrence
        in
        if sampled then drawn := !drawn +. float_of_int n
        else exact := !exact +. populations.(i))
      sizes;
    let drawn = !drawn and exact = !exact in
    let result_touched =
      stats.j *. Array.fold_left (fun acc q -> acc *. q) 1. qs
    in
    let cost = groups_f *. (drawn +. exact +. result_touched) in
    {
      label;
      derivation;
      predicted_variance = variance;
      predicted_cost = cost;
      score = Float.max variance 1. *. cost;
      drawn_tuples = groups_f *. drawn;
      exact_tuples = groups_f *. exact;
    }
  in
  let candidates =
    if derivations = [] then
      (* Not pushable: the historical strategy is the only sound one. *)
      [
        {
          label = root_label;
          derivation = None;
          predicted_variance = Float.nan;
          predicted_cost = Float.nan;
          score = Float.nan;
          drawn_tuples = groups_f *. float_of_int budget;
          exact_tuples = 0.;
        };
      ]
    else
      scored root_label None root_sizes
      :: List.map
           (fun d ->
             let target = d.Pushdown.occurrence in
             let sizes =
               Array.mapi
                 (fun i population ->
                   let population = int_of_float population in
                   if i = target then min budget population else population)
                 populations
             in
             scored
               (Printf.sprintf "pushdown(%s#%d)" d.Pushdown.relation target)
               (Some d) sizes)
           derivations
  in
  Obs.Metrics.add_plans_considered metrics (List.length candidates);
  let winner =
    List.fold_left
      (fun best c -> if c.score < best.score then c else best)
      (List.hd candidates) (List.tl candidates)
  in
  let chosen =
    match winner.derivation with
    | None -> Estplan.compile ~groups ~label:root_label catalog ~fraction expr
    | Some d ->
      let target = d.Pushdown.occurrence in
      let splan =
        Sampling_plan.make_custom catalog
          ~mode:(fun occurrence _relation population ->
            if occurrence = target then Sampling_plan.Srswor (min budget population)
            else Sampling_plan.Srswor population)
          expr
      in
      Estplan.of_sampling_plan ~groups ~label:winner.label splan
  in
  let rationale =
    if derivations = [] then
      "root-sampling: sampling does not commute with dedup/aggregate \
       semantics in this expression, no pushdown candidates"
    else begin
      let losers = List.filter (fun c -> c.label <> winner.label) candidates in
      let runner_up =
        List.fold_left
          (fun best c ->
            match best with
            | None -> Some c
            | Some b -> if c.score < b.score then Some c else best)
          None losers
      in
      match runner_up with
      | None -> Printf.sprintf "%s is the only candidate" winner.label
      | Some r when r.score <= winner.score ->
        Printf.sprintf
          "%s wins the tie at score %.6g (variance %.6g, cost %.6g): \
           equal-score candidates fall back to the historical strategy"
          winner.label winner.score winner.predicted_variance winner.predicted_cost
      | Some r ->
        Printf.sprintf
          "%s wins: score %.6g (predicted variance %.6g x cost %.6g) vs %.6g \
           for %s at equal sampled-tuple budget %d per group"
          winner.label winner.score winner.predicted_variance
          winner.predicted_cost r.score r.label budget
    end
  in
  {
    winner;
    chosen;
    candidates;
    rationale;
    analytic = (if derivations = [] then false else (Lazy.force stats).analytic);
    budget;
  }

(* --- explain surfaces --------------------------------------------- *)

let number v = if Float.is_nan v then "n/a" else Printf.sprintf "%.6g" v

let stats_source (choice : choice) =
  if choice.analytic then "analytic" else "pessimistic-approx"

let render_choice choice =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer (Estplan.render choice.chosen);
  Buffer.add_string buffer
    (Printf.sprintf "candidates (optimizer v%d, %s stats, budget %d per group):\n"
       optimizer_version (stats_source choice) choice.budget);
  List.iter
    (fun c ->
      Buffer.add_string buffer
        (Printf.sprintf "%s %s  variance=%s  cost=%s  score=%s\n"
           (if c.label = choice.winner.label then "  *" else "   ")
           c.label (number c.predicted_variance) (number c.predicted_cost)
           (number c.score)))
    choice.candidates;
  (match choice.winner.derivation with
  | None -> ()
  | Some d ->
    Buffer.add_string buffer "pushdown trace:\n";
    List.iter
      (fun step ->
        Buffer.add_string buffer
          (Printf.sprintf "    %s\n" (Pushdown.step_to_string step)))
      d.Pushdown.steps);
  Buffer.add_string buffer (Printf.sprintf "winner: %s\n" choice.rationale);
  Buffer.contents buffer

let json_number v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

(* Schema raestat-explain/2: the optimized-explain envelope.  The
   winner's executed plan is embedded verbatim as its own
   raestat-explain/1 object under "plan", so /1 consumers can keep
   reading the tree. *)
let choice_to_json choice =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "{\n  \"schema\": \"raestat-explain/2\",\n";
  Buffer.add_string buffer
    (Printf.sprintf "  \"optimizer_version\": %d,\n  \"strategy\": \"%s\",\n"
       optimizer_version (Obs.Metrics.escape choice.winner.label));
  Buffer.add_string buffer
    (Printf.sprintf "  \"stats\": \"%s\",\n  \"budget\": %d,\n" (stats_source choice)
       choice.budget);
  Buffer.add_string buffer
    (Printf.sprintf "  \"rationale\": \"%s\",\n  \"candidates\": [\n"
       (Obs.Metrics.escape choice.rationale));
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string buffer ",\n";
      Buffer.add_string buffer
        (Printf.sprintf
           "    {\"label\": \"%s\", \"winner\": %b, \"predicted_variance\": %s, \
            \"predicted_cost\": %s, \"score\": %s, \"drawn_tuples\": %s, \
            \"exact_tuples\": %s, \"derivation\": [%s]}"
           (Obs.Metrics.escape c.label)
           (c.label = choice.winner.label)
           (json_number c.predicted_variance)
           (json_number c.predicted_cost) (json_number c.score)
           (json_number c.drawn_tuples) (json_number c.exact_tuples)
           (match c.derivation with
           | None -> ""
           | Some d ->
             String.concat ", "
               (List.map
                  (fun step ->
                    Printf.sprintf "\"%s\""
                      (Obs.Metrics.escape (Pushdown.step_to_string step)))
                  d.Pushdown.steps))))
    choice.candidates;
  Buffer.add_string buffer "\n  ],\n  \"plan\":\n";
  Buffer.add_string buffer (Estplan.to_json choice.chosen);
  Buffer.add_string buffer "\n}";
  Buffer.contents buffer
