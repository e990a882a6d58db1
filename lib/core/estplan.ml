module Expr = Relational.Expr
module Catalog = Relational.Catalog
module Relation = Relational.Relation
module Predicate = Relational.Predicate
module Estimate = Stats.Estimate
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
  | Srswor of { n : int; population : int }
  | Bernoulli of { p : float; population : int }

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

type node = {
  id : int;
  op : op;
  mode : mode;
  scale : float;
  status : unbiasedness;
  children : node list;
}

type set_op =
  | Inter_size
  | Union_size
  | Diff_size

type strategy =
  | Scale_up of { groups : int }
  | Direct_selection
  | Set_membership of set_op

let set_op_to_string = function
  | Inter_size -> "intersection"
  | Union_size -> "union"
  | Diff_size -> "difference"

let strategy_to_string = function
  | Scale_up { groups = 1 } -> "scale-up"
  | Scale_up { groups } -> Printf.sprintf "scale-up (%d replicates)" groups
  | Direct_selection -> "direct selection"
  | Set_membership op -> Printf.sprintf "set membership (%s)" (set_op_to_string op)

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
   (THEORY.md §17).  Mirrors [Expr.has_dedup]. *)
let dedup_op = function
  | Dedup | Union | Inter | Diff | Aggregate _ -> true
  | Scan _ | Select _ | Project _ | Product | Equijoin _ | Theta_join _ | Rename _ ->
    false

(* An empty population is sampled as the empty census (n = 0): the
   sample is the whole population, so every 0/0 below is scale 1. *)
let census_scale ~population ~n =
  if population = 0 then 1. else float_of_int population /. float_of_int n

let mk ?(mode = Derived) op children =
  let status =
    if dedup_op op || List.exists (fun c -> c.status = Consistent_only) children then
      Consistent_only
    else Unbiased
  in
  let scale =
    match mode with
    | Derived -> List.fold_left (fun acc c -> acc *. c.scale) 1. children
    | Srswor { n; population } -> census_scale ~population ~n
    | Bernoulli { p; _ } -> 1. /. p
  in
  { id = 0; op; mode; scale; status; children }

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

(* The selection plan annotates without validating [n]: the runtime
   sampling layer raises the historical messages. *)
let selection_plan catalog ~relation ~n predicate =
  let population = Relation.cardinality (Catalog.find catalog relation) in
  let leaf =
    mk
      ~mode:(Srswor { n; population })
      (Scan { relation; alias = relation; occurrence = 0 })
      []
  in
  make_plan ~label:"selection" ~strategy:Direct_selection (mk (Select predicate) [ leaf ])

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

(* One scale-up execution: draw every leaf in occurrence order, count
   the rewritten expression on the sampled catalog, multiply by the
   plan scale.  Safe to run inside a domain: touches no plan state.
   The sampled catalog dies with the count, so the row ids the draw
   made go back to the pool for the next replicate; a census leaf's
   relation is the caller's, and the draw hands back no ids for it. *)
let run_once ~metrics rng catalog splan =
  let sampled, drawn, ids =
    Metrics.time metrics "draw" (fun () ->
        Sampling_plan.draw ~metrics rng catalog splan)
  in
  (* The row-id engine builds no intermediate tuple — cheaper on
     product-heavy sample evaluations, identical counts. *)
  let count =
    Metrics.time metrics "eval" (fun () ->
        Relational.Physical.count_expr ~metrics sampled
          splan.Sampling_plan.expr)
  in
  List.iter Relational.Scratch.free ids;
  (splan.Sampling_plan.scale *. float_of_int count, drawn)

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
    (* A census of any size is exact; below it, one sampled tuple
       carries no variance estimate. *)
    if n = big_n then 0.
    else if n < 2 then Float.nan
    else
      big_nf *. big_nf
      *. (1. -. (nf /. big_nf))
      *. p_hat *. (1. -. p_hat)
      /. (nf -. 1.)
  in
  Estimate.make ~variance ~label ~status:Estimate.Unbiased ~sample_size:n point

(* ------------------------------------------------------------------ *)
(* Strategy runners                                                    *)

(* Every leaf a census ([Srswor] of its whole population, the empty
   leaf included): every replicate would count the same exact
   expression. *)
let all_census (splan : Sampling_plan.t) =
  List.for_all
    (fun (l : Sampling_plan.leaf) -> l.mode = Sampling_plan.Srswor l.population)
    splan.leaves

let run_scale_up ?domains ~metrics rng catalog plan groups =
  let splan = the_splan plan in
  let status = status_to_estimate plan.root.status in
  if groups = 1 then begin
    let point, drawn = run_once ~metrics rng catalog splan in
    Estimate.make ~label:plan.label ~status ~sample_size:drawn point
  end
  else if all_census splan then begin
    (* An all-census plan counts once: its g replicates would all read
       this exact point, whose mean it is, with sample variance 0.  The
       parent still splits its g children, so its stream and draws are
       those of the replicated run, and the census draws nothing from
       the child it runs on. *)
    let draws_before = Sampling.Rng.draws rng in
    let children = Array.init groups (fun _ -> Sampling.Rng.split rng) in
    Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
    let point, drawn = run_once ~metrics children.(0) catalog splan in
    Estimate.make ~variance:0.
      ~label:(plan.label ^ " (replicated)")
      ~status ~sample_size:drawn point
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
              run_once ~metrics:sinks.(i) child catalog splan))
    in
    Metrics.add_rng_draws metrics (Sampling.Rng.draws rng - draws_before);
    let points = Array.map fst results in
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
     columnar view — no per-sample tuple materialization.  The sampled
     rows count as scanned tuples, as in every other strategy.

     An [index_source] (the daemon's warm backing-sample cache) may
     supply the index set instead of drawing: because the draw is fully
     determined by (seed, n, universe), a cached set keyed on those is
     the set this request would have drawn, so results are
     bit-identical — only the draw work (and its rng_draws /
     sample_indices accounting) is skipped. *)
  let universe = Relation.cardinality r in
  let draw () = Sampling.Srs.indices_without_replacement ~metrics rng ~n ~universe in
  let indices =
    match index_source with Some source -> source ~n ~universe draw | None -> draw ()
  in
  Metrics.add_tuples metrics n;
  let hits = Relational.Kernel.count ~ids:indices (Relation.columnar r) predicate in
  binomial_estimate ~label:plan.label ~big_n:universe ~n ~hits ()

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
  let sampled, drawn, _ = Sampling_plan.draw ~metrics rng catalog splan in
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
  Estimate.make ~variance ~label:plan.label ~status:Estimate.Unbiased ~sample_size:drawn
    point

let run ?domains ?(metrics = Metrics.noop) ?index_source rng catalog plan =
  match plan.strategy with
  | Scale_up { groups } -> run_scale_up ?domains ~metrics rng catalog plan groups
  | Direct_selection -> run_direct_selection ~metrics ?index_source rng catalog plan
  | Set_membership flavor -> run_set ~metrics rng catalog plan flavor

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)

let expected_sample_size plan =
  match plan.splan with
  | Some sp -> Sampling_plan.expected_sample_size sp
  | None ->
    (* Leaves left to right; a sampled node has no children. *)
    let rec go acc node =
      match node.mode with
      | Srswor { n; _ } -> acc +. float_of_int n
      | Bernoulli { p; population } -> acc +. (p *. float_of_int population)
      | Derived -> List.fold_left go acc node.children
    in
    go 0. plan.root

let node_count plan =
  let rec go acc n = List.fold_left go (acc + 1) n.children in
  go 0 plan.root

(* Population and sample size a mode advertises, when it has them. *)
let mode_sizes = function
  | Derived | Bernoulli _ -> None
  | Srswor { n; population } -> Some (population, n)

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

let mode_to_string = function
  | Derived -> "derived"
  | Srswor { n; population } -> Printf.sprintf "srswor %d/%d" n population
  | Bernoulli { p; population } -> Printf.sprintf "bernoulli p=%g N=%d" p population

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
