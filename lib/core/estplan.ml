module Expr = Relational.Expr
module Catalog = Relational.Catalog
module Relation = Relational.Relation
module Predicate = Relational.Predicate
module Paged = Relational.Paged
module Tuple = Relational.Tuple
module Value = Relational.Value
module Estimate = Stats.Estimate
module Summary = Stats.Summary
module Metrics = Obs.Metrics

type unbiasedness =
  | Unbiased
  | Consistent_only

let status_to_estimate = function
  | Unbiased -> Estimate.Unbiased
  | Consistent_only -> Estimate.Consistent

let unbiasedness_to_string = function
  | Unbiased -> "unbiased"
  | Consistent_only -> "consistent-only"

type mode =
  | Derived
  | Exact of { population : int }
  | Srswor of { n : int; population : int }
  | Bernoulli of { p : float; population : int }
  | Page_srswor of { m : int; pages : int; population : int }
  | Stratified_srswor of { n : int; population : int }
  | Prefix of { batch : int; population : int }
  | Resampled of { n : int; population : int; replicates : int }

type op =
  | Scan of { relation : string; alias : string; occurrence : int }
  | Select of Relational.Predicate.t
  | Project of string list
  | Dedup
  | Product
  | Equijoin of (string * string) list
  | Theta_join of Relational.Predicate.t
  | Union
  | Inter
  | Diff
  | Rename of (string * string) list
  | Aggregate of string list * (Relational.Expr.agg * string) list
  | Group_by of string list

module Moments = struct
  type t = {
    mutable summary : Summary.t;
    mutable analytic : (float * float) option;
  }

  let create () = { summary = Summary.empty; analytic = None }
  let observe m x = m.summary <- Summary.add m.summary x
  let set_analytic m ~mean ~variance = m.analytic <- Some (mean, variance)
  let count m = Summary.count m.summary

  let mean m =
    if Summary.count m.summary > 0 then Summary.mean m.summary
    else
      match m.analytic with
      | Some (mean, _) -> mean
      | None -> invalid_arg "Estplan.Moments.mean: no observations"

  let variance m =
    if Summary.count m.summary >= 2 then Summary.variance m.summary
    else match m.analytic with Some (_, v) -> v | None -> 0.

  let second_moment m =
    let mu = mean m in
    variance m +. (mu *. mu)
end

type node = {
  id : int;
  op : op;
  mode : mode;
  scale : float;
  status : unbiasedness;
  moments : Moments.t;
  children : node list;
}

type set_op =
  | Inter_size
  | Union_size
  | Diff_size

type strategy =
  | Scale_up of { groups : int }
  | Direct_selection
  | Sequential_selection of { target : float; level : float; batch : int }
  | Cluster_expansion
  | Stratified_expansion
  | Bootstrap_resampling of { replicates : int }
  | Indexed_degree
  | Set_membership of set_op
  | Grouped of { sum_attribute : string option }

let set_op_to_string = function
  | Inter_size -> "intersection"
  | Union_size -> "union"
  | Diff_size -> "difference"

let strategy_to_string = function
  | Scale_up { groups = 1 } -> "scale-up"
  | Scale_up { groups } -> Printf.sprintf "scale-up (%d replicates)" groups
  | Direct_selection -> "direct selection"
  | Sequential_selection { target; level; batch } ->
    Printf.sprintf "sequential (target=%g, level=%g, batch=%d)" target level batch
  | Cluster_expansion -> "cluster expansion"
  | Stratified_expansion -> "stratified expansion"
  | Bootstrap_resampling { replicates } ->
    Printf.sprintf "bootstrap (%d resamples)" replicates
  | Indexed_degree -> "indexed degree"
  | Set_membership op -> Printf.sprintf "set membership (%s)" (set_op_to_string op)
  | Grouped { sum_attribute = None } -> "grouped count"
  | Grouped { sum_attribute = Some a } -> Printf.sprintf "grouped sum of %s" a

type t = {
  root : node;
  strategy : strategy;
  label : string;
  splan : Sampling_plan.t option;
}

(* ------------------------------------------------------------------ *)
(* Plan construction                                                   *)

(* Set-semantics operators scale up only consistently: deduplicated
   counts do not admit the product-of-leaf-scales expectation
   (THEORY.md §17).  Mirrors [Expr.has_dedup].  [Group_by] is not in
   the list: its strategy estimates each group by an unbiased binomial,
   not by deduplicated scale-up. *)
let dedup_op = function
  | Dedup | Union | Inter | Diff | Aggregate _ -> true
  | Scan _ | Select _ | Project _ | Product | Equijoin _ | Theta_join _ | Rename _
  | Group_by _ ->
    false

(* An empty population is sampled as the empty census (n = 0): the
   sample is the whole population, so every 0/0 below is scale 1. *)
let census_scale ~population ~n =
  if population = 0 then 1. else float_of_int population /. float_of_int n

let mode_scale = function
  | Derived | Exact _ -> 1.
  | Srswor { n; population } -> census_scale ~population ~n
  | Bernoulli { p; _ } -> 1. /. p
  | Page_srswor { m; pages; _ } -> census_scale ~population:pages ~n:m
  | Stratified_srswor { n; population } -> census_scale ~population ~n
  (* The prefix grows at run time; annotate with the scale at the first
     stopping opportunity (one full batch, clamped to the census). *)
  | Prefix { batch; population } ->
    census_scale ~population ~n:(min batch population)
  | Resampled { n; population; _ } -> census_scale ~population ~n

let mk ?(mode = Derived) ?status op children =
  let status =
    match status with
    | Some s -> s
    | None ->
      if dedup_op op || List.exists (fun c -> c.status = Consistent_only) children
      then Consistent_only
      else Unbiased
  in
  let scale =
    match mode with
    | Derived -> List.fold_left (fun acc c -> acc *. c.scale) 1. children
    | m -> mode_scale m
  in
  { id = 0; op; mode; scale; status; moments = Moments.create (); children }

let renumber root =
  let next = ref 0 in
  let rec go n =
    let id = !next in
    incr next;
    { n with id; children = List.map go n.children }
  in
  go root

let make_plan ~label ~strategy ?splan root =
  { root = renumber root; strategy; label; splan }

let of_sampling_plan ?(groups = 1) ?(label = "scale-up") (splan : Sampling_plan.t) =
  if groups < 1 then invalid_arg "Estplan.of_sampling_plan: groups must be >= 1";
  let leaf_of_alias =
    let table = Hashtbl.create 8 in
    List.iter
      (fun (l : Sampling_plan.leaf) -> Hashtbl.replace table l.alias l)
      splan.leaves;
    fun alias ->
      match Hashtbl.find_opt table alias with
      | Some l -> l
      | None ->
        invalid_arg (Printf.sprintf "Estplan.of_sampling_plan: unbound alias %S" alias)
  in
  let rec lower (e : Expr.t) =
    match e with
    | Expr.Base alias ->
      let leaf = leaf_of_alias alias in
      let mode =
        match leaf.mode with
        | Sampling_plan.Srswor n -> Srswor { n; population = leaf.population }
        | Sampling_plan.Bernoulli p -> Bernoulli { p; population = leaf.population }
      in
      mk ~mode
        (Scan { relation = leaf.relation; alias; occurrence = leaf.occurrence })
        []
    | Expr.Select (p, e) -> mk (Select p) [ lower e ]
    | Expr.Project (attrs, e) -> mk (Project attrs) [ lower e ]
    | Expr.Distinct e -> mk Dedup [ lower e ]
    | Expr.Product (l, r) -> mk Product [ lower l; lower r ]
    | Expr.Equijoin (on, l, r) -> mk (Equijoin on) [ lower l; lower r ]
    | Expr.Theta_join (p, l, r) -> mk (Theta_join p) [ lower l; lower r ]
    | Expr.Union (l, r) -> mk Union [ lower l; lower r ]
    | Expr.Inter (l, r) -> mk Inter [ lower l; lower r ]
    | Expr.Diff (l, r) -> mk Diff [ lower l; lower r ]
    | Expr.Rename (m, e) -> mk (Rename m) [ lower e ]
    | Expr.Aggregate (by, specs, e) -> mk (Aggregate (by, specs)) [ lower e ]
  in
  let root = lower splan.expr in
  (* The subtree product can differ from the plan scale in the last ulp
     (tree-shaped vs left-folded multiplication); the annotation must
     show exactly what the engine multiplies by. *)
  let root = { root with scale = splan.scale } in
  make_plan ~label ~strategy:(Scale_up { groups }) ~splan root

let compile ?(groups = 1) ?(optimize = false) ?(label = "scale-up") catalog ~fraction
    expr =
  let expr = if optimize then Relational.Optimizer.optimize catalog expr else expr in
  of_sampling_plan ~groups ~label (Sampling_plan.make catalog ~fraction expr)

let equijoin_plan catalog ~left ~right ~on ~fraction ~groups =
  if groups < 1 then invalid_arg "Estplan.equijoin_plan: groups must be >= 1";
  (* Each replicate runs at fraction/groups so the total tuples drawn
     match a single draw at [fraction]. *)
  let sub_fraction =
    if groups = 1 then fraction else fraction /. float_of_int groups
  in
  of_sampling_plan ~groups ~label:"equijoin"
    (Sampling_plan.make catalog ~fraction:sub_fraction
       (Expr.equijoin on (Expr.base left) (Expr.base right)))

(* The non-scale-up constructors annotate without validating sizes: the
   runtime sampling layer raises the historical messages, and the
   front-end modules keep their own argument guards. *)

let scan_leaf_of catalog ~relation ~occurrence mode_of =
  let population = Relation.cardinality (Catalog.find catalog relation) in
  mk ~mode:(mode_of population) (Scan { relation; alias = relation; occurrence }) []

let selection_plan catalog ~relation ~n predicate =
  let leaf =
    scan_leaf_of catalog ~relation ~occurrence:0 (fun population ->
        Srswor { n; population })
  in
  make_plan ~label:"selection" ~strategy:Direct_selection
    (mk (Select predicate) [ leaf ])

let sequential_plan catalog ~relation ~target ~level ~batch predicate =
  let leaf =
    scan_leaf_of catalog ~relation ~occurrence:0 (fun population ->
        Prefix { batch; population })
  in
  make_plan ~label:"selection"
    ~strategy:(Sequential_selection { target; level; batch })
    (mk (Select predicate) [ leaf ])

let cluster_plan paged ~m ?predicate () =
  let pages = Paged.page_count paged in
  let population = Paged.cardinality paged in
  let leaf =
    mk
      ~mode:(Page_srswor { m; pages; population })
      (Scan { relation = "<paged>"; alias = "<paged>"; occurrence = 0 })
      []
  in
  let root =
    match predicate with Some p -> mk (Select p) [ leaf ] | None -> leaf
  in
  make_plan ~label:"cluster" ~strategy:Cluster_expansion root

let stratified_plan catalog ~relation ~n predicate =
  let leaf =
    scan_leaf_of catalog ~relation ~occurrence:0 (fun population ->
        Stratified_srswor { n; population })
  in
  make_plan ~label:"stratified selection" ~strategy:Stratified_expansion
    (mk (Select predicate) [ leaf ])

let bootstrap_plan catalog ~relation ~n ~replicates predicate =
  let leaf =
    scan_leaf_of catalog ~relation ~occurrence:0 (fun population ->
        Resampled { n; population; replicates })
  in
  make_plan ~label:"selection (bootstrap)"
    ~strategy:(Bootstrap_resampling { replicates })
    (mk (Select predicate) [ leaf ])

let indexed_join_plan catalog ~left ~right ~on:(left_attr, right_attr) ~n =
  let lleaf =
    scan_leaf_of catalog ~relation:left ~occurrence:0 (fun population ->
        Srswor { n; population })
  in
  let rleaf =
    scan_leaf_of catalog ~relation:right ~occurrence:1 (fun population ->
        Exact { population })
  in
  make_plan ~label:"equijoin (indexed)" ~strategy:Indexed_degree
    (mk (Equijoin [ (left_attr, right_attr) ]) [ lleaf; rleaf ])

let set_plan catalog ~op ~left ~right ~fraction =
  let combine =
    match op with
    | Inter_size -> Expr.inter
    | Union_size -> Expr.union
    | Diff_size -> Expr.diff
  in
  let t =
    of_sampling_plan ~label:(set_op_to_string op)
      (Sampling_plan.make catalog ~fraction
         (combine (Expr.base left) (Expr.base right)))
  in
  (* The membership estimator K̂ = X/(p1·p2) over duplicate-free
     operands is unbiased even though the operator has set semantics —
     override the dedup-contagion default. *)
  {
    t with
    strategy = Set_membership op;
    root = { t.root with status = Unbiased };
  }

let grouped_plan catalog ~relation ~by ?sum_attribute ~n predicate =
  let leaf =
    scan_leaf_of catalog ~relation ~occurrence:0 (fun population ->
        Srswor { n; population })
  in
  let label = match sum_attribute with None -> "group-count" | Some _ -> "group-sum" in
  make_plan ~label
    ~strategy:(Grouped { sum_attribute })
    (mk (Group_by by) [ mk (Select predicate) [ leaf ] ])

(* ------------------------------------------------------------------ *)
(* Shared engine plumbing                                              *)

(* Metrics accounting convention, shared by every strategy: the
   sampling/eval layers record their own counters via the threaded
   sink, replicated paths give each replicate a fresh [Metrics.child]
   sink (so domains never share a mutable sink) and absorb them in
   replicate order after the join — integer counters merge by addition,
   so totals are bit-identical for any domain count.  The parent
   generator's own draws (the serial [Rng.split]s) are recorded as a
   delta of its draw counter. *)

let with_replicate_sinks metrics groups f =
  let sinks = Array.init groups (fun _ -> Metrics.child metrics) in
  let result = f sinks in
  Array.iter (fun sink -> Metrics.absorb metrics sink) sinks;
  result

let the_splan plan =
  match plan.splan with
  | Some sp -> sp
  | None -> invalid_arg "Estplan: plan carries no sampling-plan annotation"

let leaf_nodes plan =
  let rec go acc n =
    match n.children with [] -> n :: acc | cs -> List.fold_left go acc cs
  in
  List.rev (go [] plan.root)

let leaf_sizes plan sampled =
  List.map
    (fun leaf ->
      match leaf.op with
      | Scan { alias; _ } -> Relation.cardinality (Catalog.find sampled alias)
      | _ -> 0)
    (leaf_nodes plan)

(* Leaf moments record the design-unbiased population estimate of the
   leaf itself: scale × drawn size (exactly N for a fixed-size draw, a
   genuine estimate under Bernoulli).  Must only be called from the
   coordinating thread — replicate bodies return their observations. *)
let observe_leaves plan sizes =
  List.iter2
    (fun leaf size ->
      match leaf.op with
      | Scan _ -> Moments.observe leaf.moments (leaf.scale *. float_of_int size)
      | _ -> ())
    (leaf_nodes plan) sizes

let draw ?(metrics = Metrics.noop) rng catalog plan =
  let splan = the_splan plan in
  let sampled, total = Sampling_plan.draw ~metrics rng catalog splan in
  observe_leaves plan (leaf_sizes plan sampled);
  (sampled, total)

(* One scale-up execution: draw every leaf in occurrence order, count
   the rewritten expression on the sampled catalog, multiply by the
   plan scale.  Safe to run inside a domain: touches no plan state. *)
let run_once ~metrics rng catalog plan splan =
  let sampled, drawn =
    Metrics.time metrics "draw" (fun () ->
        Sampling_plan.draw ~metrics rng catalog splan)
  in
  (* The streaming engine avoids materializing intermediates — cheaper
     on product-heavy sample evaluations, identical counts. *)
  let count =
    Metrics.time metrics "eval" (fun () ->
        Relational.Physical.count_expr ~metrics sampled
          splan.Sampling_plan.expr)
  in
  ( splan.Sampling_plan.scale *. float_of_int count,
    drawn,
    leaf_sizes plan sampled )

(* ------------------------------------------------------------------ *)
(* Closed-form binomial selection                                      *)

let binomial_estimate ?(label = "selection") ~big_n ~n ~hits () =
  if (n <= 0 && big_n > 0) || n < 0 || n > big_n then
    invalid_arg "Estplan.binomial_estimate: sample size out of range";
  if hits < 0 || hits > n then invalid_arg "Estplan.binomial_estimate: hits out of range";
  if big_n = 0 then
    (* Empty universe: the census of nothing is exact, so the estimate
       is 0 with a degenerate (zero-width) CI. *)
    Estimate.make ~variance:0. ~label ~status:Estimate.Unbiased ~sample_size:0 0.
  else
  let big_nf = float_of_int big_n and nf = float_of_int n in
  let p_hat = float_of_int hits /. nf in
  let point = big_nf *. p_hat in
  let variance =
    if n < 2 then Float.nan
    else
      big_nf *. big_nf
      *. (1. -. (nf /. big_nf))
      *. p_hat *. (1. -. p_hat)
      /. (nf -. 1.)
  in
  Estimate.make ~variance ~label ~status:Estimate.Unbiased ~sample_size:n point

let record_estimate node (e : Estimate.t) =
  Moments.set_analytic node.moments ~mean:e.Estimate.point ~variance:e.Estimate.variance

(* ------------------------------------------------------------------ *)
(* Strategy runners                                                    *)

let run_scale_up ?domains ~metrics rng catalog plan groups =
  let splan = the_splan plan in
  let status = status_to_estimate plan.root.status in
  if groups = 1 then begin
    let point, drawn, sizes = run_once ~metrics rng catalog plan splan in
    observe_leaves plan sizes;
    Moments.observe plan.root.moments point;
    Estimate.make ~label:plan.label ~status ~sample_size:drawn point
  end
  else begin
    (* g independent replicates; the mean keeps the status of a single
       replicate and gains an honest variance estimate s²/g.  Each
       replicate runs on its own split stream, so the points (and the
       variance computed from them) are identical for any [domains]. *)
    let draws_before = Sampling.Rng.draws rng in
    let results =
      with_replicate_sinks metrics groups (fun sinks ->
          Parallel.replicate_init ?domains rng groups (fun child i ->
              run_once ~metrics:sinks.(i) child catalog plan splan))
    in
    Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
    Array.iter
      (fun (point, _, sizes) ->
        observe_leaves plan sizes;
        Moments.observe plan.root.moments point)
      results;
    let points = Array.map (fun (point, _, _) -> point) results in
    let summary = Stats.Summary.of_array points in
    let variance = Stats.Summary.variance summary /. float_of_int groups in
    let drawn =
      groups * int_of_float (Float.round (Sampling_plan.expected_sample_size splan))
    in
    Estimate.make ~variance
      ~label:(plan.label ^ " (replicated)")
      ~status ~sample_size:drawn
      (Stats.Summary.mean summary)
  end

type index_source = n:int -> universe:int -> (unit -> int array) -> int array

let selection_shape plan =
  match plan.root with
  | {
   op = Select predicate;
   children = [ ({ op = Scan { relation; _ }; _ } as leaf) ];
   _;
  } ->
    (predicate, relation, leaf)
  | _ -> invalid_arg "Estplan: expected a selection-shaped plan (select over scan)"

let run_direct_selection ~metrics ?index_source rng catalog plan =
  let predicate, relation, leaf = selection_shape plan in
  let n =
    match leaf.mode with
    | Srswor { n; _ } -> n
    | _ -> invalid_arg "Estplan: direct selection needs an SRSWOR leaf"
  in
  let r = Catalog.find catalog relation in
  (* The sampled rows are tested in place on the base relation's
     columnar view — no per-sample tuple materialization, and no index
     sort (counting is order-insensitive).  The sampled rows count as
     scanned tuples, as in every other strategy.

     An [index_source] (the daemon's warm backing-sample cache) may
     supply the index set instead of drawing: because the draw is fully
     determined by (seed, n, universe), a cached set keyed on those is
     the set this request would have drawn, so results are
     bit-identical — only the draw work (and its rng_draws /
     sample_indices accounting) is skipped. *)
  let universe = Relation.cardinality r in
  let draw () =
    Sampling.Srs.indices_without_replacement ~metrics ~sorted:false rng ~n ~universe
  in
  let indices =
    match index_source with Some source -> source ~n ~universe draw | None -> draw ()
  in
  Metrics.add_tuples metrics n;
  let hits = Relational.Kernel.count_indices (Relation.columnar r) predicate indices in
  let estimate =
    binomial_estimate ~label:plan.label ~big_n:universe ~n ~hits ()
  in
  Moments.observe leaf.moments (leaf.scale *. float_of_int n);
  record_estimate plan.root estimate;
  estimate

(* Set-operation sizes via the membership estimator.

   X = |S_A ∩ S_B| is a sum over the K = |A ∩ B| common tuples of
   I_A(v)·I_B(v).  With SRSWOR, P(v ∈ S_A) = p1 = n1/N1 and
   P(v,w ∈ S_A) = r1 = n1(n1−1)/(N1(N1−1)), so
     E[X]  = K·p1·p2
     Var X = K·p1p2(1−p1p2) + K(K−1)(r1·r2 − p1²p2²).
   The estimator is K̂ = X/(p1 p2); its variance plugs K̂ into the
   formula.  Union and difference are affine in K̂ with the same
   variance. *)
let run_set ~metrics rng catalog plan flavor =
  let splan = the_splan plan in
  let l_leaf, r_leaf =
    match splan.Sampling_plan.leaves with
    | [ l; r ] -> (l, r)
    | _ -> invalid_arg "Estplan: set plans take exactly two leaves"
  in
  let srswor_n (leaf : Sampling_plan.leaf) =
    match leaf.mode with
    | Sampling_plan.Srswor n -> n
    | Sampling_plan.Bernoulli _ ->
      invalid_arg "Estplan: set plans need SRSWOR leaves"
  in
  let n1 = srswor_n l_leaf and n2 = srswor_n r_leaf in
  let sampled, drawn = Sampling_plan.draw ~metrics rng catalog splan in
  let x =
    Relational.Physical.count_expr ~metrics sampled
      (Expr.inter (Expr.base l_leaf.alias) (Expr.base r_leaf.alias))
  in
  let big_n1 = float_of_int l_leaf.population in
  let big_n2 = float_of_int r_leaf.population in
  let n1f = float_of_int n1 and n2f = float_of_int n2 in
  (* An empty side is a census of nothing: its inclusion probability is
     1 (every tuple of the empty relation is in the sample), keeping
     K̂ = X/(p₁p₂) well-defined with X = 0. *)
  let incl nf big_nf = if big_nf = 0. then 1. else nf /. big_nf in
  let p1 = incl n1f big_n1 and p2 = incl n2f big_n2 in
  let pair_prob nf big_nf =
    if big_nf < 2. then 1. else nf *. (nf -. 1.) /. (big_nf *. (big_nf -. 1.))
  in
  let r1 = pair_prob n1f big_n1 and r2 = pair_prob n2f big_n2 in
  let k_hat = float_of_int x /. (p1 *. p2) in
  let var_x =
    (k_hat *. p1 *. p2 *. (1. -. (p1 *. p2)))
    +. (k_hat *. Float.max 0. (k_hat -. 1.) *. ((r1 *. r2) -. (p1 *. p1 *. p2 *. p2)))
  in
  let variance = Float.max 0. (var_x /. (p1 *. p1 *. p2 *. p2)) in
  let point =
    match flavor with
    | Inter_size -> k_hat
    | Union_size -> big_n1 +. big_n2 -. k_hat
    | Diff_size -> big_n1 -. k_hat
  in
  observe_leaves plan (leaf_sizes plan sampled);
  let estimate =
    Estimate.make ~variance ~label:plan.label ~status:Estimate.Unbiased
      ~sample_size:drawn point
  in
  record_estimate plan.root estimate;
  estimate

let run ?domains ?(metrics = Metrics.noop) ?index_source rng catalog plan =
  match plan.strategy with
  | Scale_up { groups } -> run_scale_up ?domains ~metrics rng catalog plan groups
  | Direct_selection -> run_direct_selection ~metrics ?index_source rng catalog plan
  | Set_membership flavor -> run_set ~metrics rng catalog plan flavor
  | Sequential_selection _ | Cluster_expansion | Stratified_expansion
  | Bootstrap_resampling _ | Indexed_degree | Grouped _ ->
    invalid_arg
      (Printf.sprintf "Estplan.run: %s plans need their dedicated runner"
         (strategy_to_string plan.strategy))

type sequential_step = {
  step_n : int;
  step_point : float;
  step_half_width : float;
}

let run_sequential ?(metrics = Metrics.noop) rng catalog plan =
  let target, level, batch =
    match plan.strategy with
    | Sequential_selection { target; level; batch } -> (target, level, batch)
    | _ -> invalid_arg "Estplan.run_sequential: not a sequential plan"
  in
  let predicate, relation, leaf = selection_shape plan in
  let r = Catalog.find catalog relation in
  let big_n = Relation.cardinality r in
  let keep = Relational.Predicate.compile (Relation.schema r) predicate in
  (* A uniformly random permutation makes every prefix an SRSWOR. *)
  let order = Array.init big_n (fun i -> i) in
  let draws_before = Sampling.Rng.draws rng in
  Sampling.Rng.shuffle_in_place rng order;
  Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
  let z = Stats.Confidence.z_value ~level in
  let trajectory = ref [] in
  (* [batches] counts completed batches; the trajectory list stays
     write-only inside the loop, so growth is O(batches), not
     O(batches²) as a [List.length] stopping test would make it. *)
  let rec grow n hits batches =
    let stop = min (n + batch) big_n in
    let hits = ref hits in
    for k = n to stop - 1 do
      if keep (Relation.tuple r order.(k)) then incr hits
    done;
    Metrics.add_tuples metrics (stop - n);
    let n = stop in
    let estimate = binomial_estimate ~big_n ~n ~hits:!hits () in
    let half_width =
      if Estimate.has_variance estimate then z *. Estimate.stderr estimate
      else Float.infinity
    in
    trajectory :=
      { step_n = n; step_point = estimate.Estimate.point; step_half_width = half_width }
      :: !trajectory;
    let precise =
      estimate.Estimate.point > 0. && half_width /. estimate.Estimate.point <= target
    in
    (* Demand at least two batches so a lucky first batch cannot stop
       on a degenerate variance estimate. *)
    if (precise && batches >= 2) || n >= big_n then
      (estimate, precise || (n >= big_n && half_width = 0.))
    else grow n !hits (batches + 1)
  in
  let estimate, reached_target = grow 0 0 1 in
  Moments.observe leaf.moments (float_of_int big_n);
  record_estimate plan.root estimate;
  (estimate, reached_target, List.rev !trajectory)

let run_cluster ?(metrics = Metrics.noop) rng paged plan ~measure =
  (match plan.strategy with
  | Cluster_expansion -> ()
  | _ -> invalid_arg "Estplan.run_cluster: not a cluster plan");
  let leaf =
    match leaf_nodes plan with
    | [ leaf ] -> leaf
    | _ -> invalid_arg "Estplan.run_cluster: cluster plans take one page leaf"
  in
  let m, big_m =
    match leaf.mode with
    | Page_srswor { m; pages; _ } -> (m, pages)
    | _ -> invalid_arg "Estplan.run_cluster: cluster plans need a page leaf"
  in
  let sample = Sampling.Page_sampling.measures ~metrics rng ~m paged ~measure in
  let summary = Stats.Summary.of_array sample.Sampling.Page_sampling.values in
  let big_mf = float_of_int big_m and mf = float_of_int m in
  let point = big_mf /. mf *. Stats.Summary.total summary in
  let variance =
    if m < 2 then Float.nan
    else
      big_mf *. big_mf *. (1. -. (mf /. big_mf)) *. Stats.Summary.variance summary /. mf
  in
  let tuples_read = sample.Sampling.Page_sampling.tuples in
  let estimate =
    Estimate.make ~variance ~label:plan.label ~status:Estimate.Unbiased
      ~sample_size:tuples_read point
  in
  Moments.observe leaf.moments (leaf.scale *. float_of_int tuples_read);
  record_estimate plan.root estimate;
  (estimate, m, tuples_read)

let run_stratified rng catalog plan ~key =
  (match plan.strategy with
  | Stratified_expansion -> ()
  | _ -> invalid_arg "Estplan.run_stratified: not a stratified plan");
  let predicate, relation, leaf = selection_shape plan in
  let n =
    match leaf.mode with
    | Stratified_srswor { n; _ } -> n
    | _ -> invalid_arg "Estplan.run_stratified: stratified plans need a stratified leaf"
  in
  let r = Catalog.find catalog relation in
  let keep = Relational.Predicate.compile (Relation.schema r) predicate in
  let strata = Sampling.Stratified.sample rng ~n ~key (Relation.tuples r) in
  (* Recover per-stratum population sizes with one grouping pass. *)
  let populations = Hashtbl.create 16 in
  Relation.iter
    (fun t ->
      let k = key t in
      Hashtbl.replace populations k
        (1 + Option.value (Hashtbl.find_opt populations k) ~default:0))
    r;
  let point = ref 0. and variance = ref 0. and drawn = ref 0 in
  let summary =
    List.map
      (fun stratum ->
        let k = stratum.Sampling.Stratified.key in
        let n_h = stratum.Sampling.Stratified.allocated in
        let big_nh = Hashtbl.find populations k in
        drawn := !drawn + n_h;
        if n_h > 0 then begin
          let hits =
            Array.fold_left
              (fun acc t -> if keep t then acc + 1 else acc)
              0 stratum.Sampling.Stratified.members
          in
          let nf = float_of_int n_h and big_nf = float_of_int big_nh in
          let p_hat = float_of_int hits /. nf in
          point := !point +. (big_nf *. p_hat);
          if n_h >= 2 then
            variance :=
              !variance
              +. big_nf *. big_nf
                 *. (1. -. (nf /. big_nf))
                 *. p_hat *. (1. -. p_hat) /. (nf -. 1.)
        end;
        (k, big_nh, n_h))
      strata
  in
  let estimate =
    Estimate.make ~variance:!variance ~label:plan.label ~status:Estimate.Unbiased
      ~sample_size:!drawn !point
  in
  Moments.observe leaf.moments (leaf.scale *. float_of_int !drawn);
  record_estimate plan.root estimate;
  (estimate, summary)

let bootstrap_replicates ?domains ?(metrics = Metrics.noop) rng ~replicates ~statistic
    sample =
  if Array.length sample = 0 then invalid_arg "Estplan.bootstrap_replicates: empty sample";
  if replicates <= 0 then
    invalid_arg "Estplan.bootstrap_replicates: replicates must be positive";
  let n = Array.length sample in
  (* One split stream per replicate, derived serially: replicate r sees
     the same draws whatever the domain count.  Each chunk reuses a
     single scratch buffer, matching the serial code's allocation. *)
  let draws_before = Sampling.Rng.draws rng in
  let children = Array.init replicates (fun _ -> Sampling.Rng.split rng) in
  Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
  (* Per-replicate sinks, absorbed in replicate order below: counter
     totals are independent of the domain count. *)
  let sinks = Array.init replicates (fun _ -> Metrics.child metrics) in
  let values =
    Parallel.chunked_init ?domains replicates (fun start len ->
        let resampled = Array.make n sample.(0) in
        Array.init len (fun k ->
            let child = children.(start + k) in
            for i = 0 to n - 1 do
              resampled.(i) <- sample.(Sampling.Rng.int child n)
            done;
            let sink = sinks.(start + k) in
            Metrics.add_indices sink n;
            Metrics.add_rng_draws sink (Sampling.Rng.draws child);
            statistic resampled))
  in
  Array.iter (fun sink -> Metrics.absorb metrics sink) sinks;
  values

let run_bootstrap ?domains ?(metrics = Metrics.noop) rng catalog plan ~level =
  let replicates =
    match plan.strategy with
    | Bootstrap_resampling { replicates } -> replicates
    | _ -> invalid_arg "Estplan.run_bootstrap: not a bootstrap plan"
  in
  let predicate, relation, leaf = selection_shape plan in
  let n =
    match leaf.mode with
    | Resampled { n; _ } -> n
    | _ -> invalid_arg "Estplan.run_bootstrap: bootstrap plans need a resampled leaf"
  in
  let r = Catalog.find catalog relation in
  let big_n = Relation.cardinality r in
  let sample =
    Sampling.Srs.sample_without_replacement ~metrics rng ~n (Relation.tuples r)
  in
  let keep = Relational.Predicate.compile (Relation.schema r) predicate in
  (* Statistic over 0/1 hit indicators: scale-up count. *)
  let indicators = Array.map (fun t -> if keep t then 1. else 0.) sample in
  let statistic hits =
    float_of_int big_n *. (Array.fold_left ( +. ) 0. hits /. float_of_int n)
  in
  let values =
    bootstrap_replicates ?domains ~metrics rng ~replicates ~statistic indicators
  in
  let point = statistic indicators in
  let variance = Stats.Summary.variance (Stats.Summary.of_array values) in
  let estimate =
    Estimate.make ~variance ~label:plan.label ~status:Estimate.Unbiased ~sample_size:n
      point
  in
  (* Historical message: this validation lived in
     [Bootstrap.percentile_interval], after the resampling ran. *)
  if level <= 0. || level >= 1. then
    invalid_arg "Bootstrap.percentile_interval: level outside (0, 1)";
  let alpha2 = (1. -. level) /. 2. in
  let interval =
    Stats.Confidence.clamp_nonnegative
      {
        Stats.Confidence.lo = Stats.Summary.quantile alpha2 values;
        hi = Stats.Summary.quantile (1. -. alpha2) values;
        level;
      }
  in
  Moments.observe leaf.moments (leaf.scale *. float_of_int n);
  record_estimate plan.root estimate;
  (estimate, interval)

let run_indexed_degree ?(metrics = Metrics.noop) rng catalog plan ~degree =
  (match plan.strategy with
  | Indexed_degree -> ()
  | _ -> invalid_arg "Estplan.run_indexed_degree: not an indexed-degree plan");
  let relation, leaf =
    match leaf_nodes plan with
    | ({ op = Scan { relation; _ }; _ } as leaf) :: _ -> (relation, leaf)
    | _ -> invalid_arg "Estplan.run_indexed_degree: plan has no scan leaf"
  in
  let n =
    match leaf.mode with
    | Srswor { n; _ } -> n
    | _ -> invalid_arg "Estplan.run_indexed_degree: left leaf must be SRSWOR"
  in
  let rl = Catalog.find catalog relation in
  let big_n = Relation.cardinality rl in
  let sample =
    Sampling.Srs.sample_without_replacement ~metrics rng ~n (Relation.tuples rl)
  in
  (* Per-tuple degree is an exact lookup, so the estimator reduces to a
     mean expansion with the usual SRSWOR variance.  Each index lookup
     is one hash probe; zero degree is a miss. *)
  let degrees =
    Array.map
      (fun t ->
        let d = degree t in
        if d > 0 then Metrics.probe_hit metrics else Metrics.probe_miss metrics;
        float_of_int d)
      sample
  in
  let summary = Stats.Summary.of_array degrees in
  let big_nf = float_of_int big_n and nf = float_of_int n in
  let point = big_nf *. Stats.Summary.mean summary in
  let variance =
    if n < 2 then Float.nan
    else big_nf *. big_nf *. (1. -. (nf /. big_nf)) *. Stats.Summary.variance summary /. nf
  in
  let estimate =
    Estimate.make ~variance ~label:plan.label ~status:Estimate.Unbiased ~sample_size:n
      point
  in
  Moments.observe leaf.moments (leaf.scale *. float_of_int n);
  record_estimate plan.root estimate;
  estimate

(* ------------------------------------------------------------------ *)
(* Grouped tallies                                                     *)

let compare_keys k1 k2 = List.compare Value.compare k1 k2

let key_of indices tuple = List.map (fun i -> Tuple.get tuple i) indices

(* Parallel tallies run over fixed-size blocks, not per-domain chunks:
   the block decomposition — and with it the per-key merge order of
   partial aggregates — is independent of the domain count, so results
   are bit-identical whether tallied on 1 or N domains. *)
let tally_block = 8192

let blocked_tables ?domains ~per_block n =
  let nblocks = max 1 ((n + tally_block - 1) / tally_block) in
  Parallel.init ?domains nblocks (fun b ->
      let start = b * tally_block in
      per_block start (min tally_block (n - start)))

let group_tally ?domains ~indices ~keep tuples =
  let per_block start len =
    let table = Hashtbl.create 64 in
    for i = start to start + len - 1 do
      let t = tuples.(i) in
      if keep t then begin
        let key = key_of indices t in
        Hashtbl.replace table key
          (1 + Option.value (Hashtbl.find_opt table key) ~default:0)
      end
    done;
    table
  in
  let merged = Hashtbl.create 64 in
  Array.iter
    (fun table ->
      Hashtbl.iter
        (fun key count ->
          Hashtbl.replace merged key
            (count + Option.value (Hashtbl.find_opt merged key) ~default:0))
        table)
    (blocked_tables ?domains ~per_block (Array.length tuples));
  Hashtbl.fold (fun key count acc -> (key, count) :: acc) merged []
  |> List.sort (fun (k1, _) (k2, _) -> compare_keys k1 k2)

(* Per-group sums of [value] over the given tuples, with the per-group
   sum of squares (needed for the expansion variance).  Blocked like
   {!group_tally}: per-block partials combine in block order, so a
   fixed seed gives the same sums on any domain count. *)
let group_tally_sums ?domains ~indices ~keep ~value tuples =
  let per_block start len =
    let table = Hashtbl.create 64 in
    for i = start to start + len - 1 do
      let t = tuples.(i) in
      if keep t then begin
        let key = key_of indices t in
        let y = value t in
        let sum, sum_sq, hits =
          Option.value (Hashtbl.find_opt table key) ~default:(0., 0., 0)
        in
        Hashtbl.replace table key (sum +. y, sum_sq +. (y *. y), hits + 1)
      end
    done;
    table
  in
  let merged = Hashtbl.create 64 in
  Array.iter
    (fun table ->
      Hashtbl.iter
        (fun key (sum, sum_sq, hits) ->
          let acc_sum, acc_sq, acc_hits =
            Option.value (Hashtbl.find_opt merged key) ~default:(0., 0., 0)
          in
          Hashtbl.replace merged key (acc_sum +. sum, acc_sq +. sum_sq, acc_hits + hits))
        table)
    (blocked_tables ?domains ~per_block (Array.length tuples));
  Hashtbl.fold (fun key totals acc -> (key, totals) :: acc) merged []
  |> List.sort (fun (k1, _) (k2, _) -> compare_keys k1 k2)

type grouped_row = {
  group_key : Relational.Value.t list;
  group_estimate : Stats.Estimate.t;
  group_interval : Stats.Confidence.interval;
}

let contribution r attribute =
  let i = Relational.Schema.index_of (Relation.schema r) attribute in
  fun tuple ->
    match Tuple.get tuple i with Value.Null -> 0. | v -> Value.to_float v

let run_grouped ?domains ?(metrics = Metrics.noop) rng catalog plan ~level =
  let sum_attribute =
    match plan.strategy with
    | Grouped { sum_attribute } -> sum_attribute
    | _ -> invalid_arg "Estplan.run_grouped: not a grouped plan"
  in
  let by, predicate, relation, leaf =
    match plan.root with
    | {
     op = Group_by by;
     children =
       [
         {
           op = Select predicate;
           children = [ ({ op = Scan { relation; _ }; _ } as leaf) ];
           _;
         };
       ];
     _;
    } ->
      (by, predicate, relation, leaf)
    | _ -> invalid_arg "Estplan.run_grouped: expected group-by over select over scan"
  in
  let n =
    match leaf.mode with
    | Srswor { n; _ } -> n
    | _ -> invalid_arg "Estplan.run_grouped: grouped plans need an SRSWOR leaf"
  in
  let r = Catalog.find catalog relation in
  let schema = Relation.schema r in
  let indices = List.map (fun a -> Relational.Schema.index_of schema a) by in
  let big_n = Relation.cardinality r in
  let keep = Relational.Predicate.compile schema predicate in
  let sample =
    Sampling.Srs.sample_without_replacement ~metrics rng ~n (Relation.tuples r)
  in
  Moments.observe leaf.moments (leaf.scale *. float_of_int n);
  match sum_attribute with
  | None ->
    let counts =
      Metrics.time metrics "tally" (fun () -> group_tally ?domains ~indices ~keep sample)
    in
    let k = List.length counts in
    let per_group_level =
      if k = 0 then level else 1. -. ((1. -. level) /. float_of_int k)
    in
    List.map
      (fun (key, hits) ->
        let estimate = binomial_estimate ~label:plan.label ~big_n ~n ~hits () in
        let interval =
          if Estimate.has_variance estimate then
            Estimate.ci ~level:per_group_level estimate
          else
            { Stats.Confidence.lo = 0.; hi = float_of_int big_n; level = per_group_level }
        in
        { group_key = key; group_estimate = estimate; group_interval = interval })
      counts
  | Some attribute ->
    let value = contribution r attribute in
    let sums =
      Metrics.time metrics "tally" (fun () ->
          group_tally_sums ?domains ~indices ~keep ~value sample)
    in
    let k = List.length sums in
    let per_group_level =
      if k = 0 then level else 1. -. ((1. -. level) /. float_of_int k)
    in
    let big_nf = float_of_int big_n and nf = float_of_int n in
    List.map
      (fun (key, (sum, sum_sq, _hits)) ->
        (* Expansion over per-tuple contributions: y for the group's
           tuples, 0 for everything else in the sample. *)
        let mean = sum /. nf in
        let point = big_nf *. mean in
        let variance =
          if n < 2 then Float.nan
          else begin
            let ss = sum_sq -. (nf *. mean *. mean) in
            big_nf *. big_nf *. (1. -. (nf /. big_nf)) *. (ss /. (nf -. 1.)) /. nf
          end
        in
        let estimate =
          Estimate.make ~variance ~label:plan.label ~status:Estimate.Unbiased
            ~sample_size:n point
        in
        let interval =
          if Estimate.has_variance estimate then
            Stats.Confidence.normal ~level:per_group_level ~point
              ~stderr:(Estimate.stderr estimate)
          else
            {
              Stats.Confidence.lo = Float.neg_infinity;
              hi = Float.infinity;
              level = per_group_level;
            }
        in
        { group_key = key; group_estimate = estimate; group_interval = interval })
      sums

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let expected_sample_size plan =
  match plan.splan with
  | Some sp -> Sampling_plan.expected_sample_size sp
  | None ->
    List.fold_left
      (fun acc leaf ->
        acc
        +.
        match leaf.mode with
        | Srswor { n; _ } | Stratified_srswor { n; _ } | Resampled { n; _ } ->
          float_of_int n
        | Exact { population } -> float_of_int population
        | Bernoulli { p; population } -> p *. float_of_int population
        | Page_srswor { m; pages; population } ->
          float_of_int population *. float_of_int m /. float_of_int pages
        | Prefix { batch; population } -> float_of_int (min batch population)
        | Derived -> 0.)
      0. (leaf_nodes plan)

let node_count plan =
  let rec go acc n = List.fold_left go (acc + 1) n.children in
  go 0 plan.root

let mode_sizes = function
  | Derived | Bernoulli _ -> None
  | Exact { population } -> Some (population, population)
  | Srswor { n; population }
  | Stratified_srswor { n; population }
  | Resampled { n; population; _ } ->
    Some (population, n)
  | Page_srswor { m; pages; _ } -> Some (pages, m)
  | Prefix { batch; population } -> Some (population, min batch population)

let agg_to_string = function
  | Expr.Count -> "count"
  | Expr.Sum a -> Printf.sprintf "sum(%s)" a
  | Expr.Avg a -> Printf.sprintf "avg(%s)" a
  | Expr.Min a -> Printf.sprintf "min(%s)" a
  | Expr.Max a -> Printf.sprintf "max(%s)" a

let op_to_string = function
  | Scan { relation; alias; _ } ->
    if alias = relation then Printf.sprintf "scan %s" relation
    else Printf.sprintf "scan %s as %s" relation alias
  | Select p -> Printf.sprintf "select[%s]" (Predicate.to_string p)
  | Project attrs -> Printf.sprintf "project[%s]" (String.concat ", " attrs)
  | Dedup -> "distinct"
  | Product -> "product"
  | Equijoin on ->
    Printf.sprintf "equijoin[%s]"
      (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%s=%s" a b) on))
  | Theta_join p -> Printf.sprintf "theta-join[%s]" (Predicate.to_string p)
  | Union -> "union"
  | Inter -> "intersect"
  | Diff -> "difference"
  | Rename m ->
    Printf.sprintf "rename[%s]"
      (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%s->%s" a b) m))
  | Aggregate (by, specs) ->
    Printf.sprintf "aggregate[by=%s; %s]"
      (String.concat "," by)
      (String.concat ", "
         (List.map
            (fun (agg, name) -> Printf.sprintf "%s as %s" (agg_to_string agg) name)
            specs))
  | Group_by by -> Printf.sprintf "group-by[%s]" (String.concat ", " by)

let mode_to_string = function
  | Derived -> "derived"
  | Exact { population } -> Printf.sprintf "exact scan N=%d" population
  | Srswor { n; population } -> Printf.sprintf "srswor %d/%d" n population
  | Bernoulli { p; population } -> Printf.sprintf "bernoulli p=%g N=%d" p population
  | Page_srswor { m; pages; population } ->
    Printf.sprintf "pages %d/%d (N=%d)" m pages population
  | Stratified_srswor { n; population } ->
    Printf.sprintf "stratified srswor %d/%d" n population
  | Prefix { batch; population } ->
    Printf.sprintf "permutation prefix batch=%d N=%d" batch population
  | Resampled { n; population; replicates } ->
    Printf.sprintf "srswor %d/%d, %d resamples" n population replicates

let node_line node =
  Printf.sprintf "%s  [%s]  scale=%.6g  %s" (op_to_string node.op)
    (mode_to_string node.mode) node.scale
    (unbiasedness_to_string node.status)

let render plan =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "estimation plan: %s (%s)" plan.label
       (strategy_to_string plan.strategy));
  let walk prefix node =
    let rec children prefix = function
      | [] -> ()
      | [ last ] ->
        Buffer.add_string buffer (Printf.sprintf "\n%s`- %s" prefix (node_line last));
        children_of (prefix ^ "   ") last
      | child :: rest ->
        Buffer.add_string buffer (Printf.sprintf "\n%s|- %s" prefix (node_line child));
        children_of (prefix ^ "|  ") child;
        children prefix rest
    and children_of prefix node = children prefix node.children in
    Buffer.add_string buffer (Printf.sprintf "\n%s`- %s" prefix (node_line node));
    children_of (prefix ^ "   ") node
  in
  walk "" plan.root;
  Buffer.add_char buffer '\n';
  Buffer.contents buffer

let json_float x = if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let to_json plan =
  let buffer = Buffer.create 512 in
  let rec node_json indent node =
    let pad = String.make indent ' ' in
    Buffer.add_string buffer
      (Printf.sprintf "%s{\"id\": %d, \"op\": \"%s\", \"mode\": \"%s\"" pad node.id
         (Metrics.escape (op_to_string node.op))
         (Metrics.escape (mode_to_string node.mode)));
    (match mode_sizes node.mode with
    | Some (population, sample_size) ->
      Buffer.add_string buffer
        (Printf.sprintf ", \"population\": %d, \"sample_size\": %d" population
           sample_size)
    | None -> ());
    Buffer.add_string buffer
      (Printf.sprintf ", \"scale\": %s, \"status\": \"%s\"" (json_float node.scale)
         (unbiasedness_to_string node.status));
    (match node.children with
    | [] -> Buffer.add_string buffer ", \"children\": []}"
    | children ->
      Buffer.add_string buffer ", \"children\": [\n";
      List.iteri
        (fun i child ->
          if i > 0 then Buffer.add_string buffer ",\n";
          node_json (indent + 2) child)
        children;
      Buffer.add_string buffer (Printf.sprintf "\n%s]}" pad))
  in
  Buffer.add_string buffer
    (Printf.sprintf
       "{\n  \"schema\": \"raestat-explain/1\",\n  \"label\": \"%s\",\n  \
        \"strategy\": \"%s\",\n  \"expected_sample_size\": %s,\n  \"root\":\n"
       (Metrics.escape plan.label)
       (Metrics.escape (strategy_to_string plan.strategy))
       (json_float (expected_sample_size plan)));
  node_json 2 plan.root;
  Buffer.add_string buffer "\n}";
  Buffer.contents buffer
