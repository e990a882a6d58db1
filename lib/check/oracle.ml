module Expr = Relational.Expr
module Catalog = Relational.Catalog
module Relation = Relational.Relation
module Metrics = Obs.Metrics
module Estimate = Stats.Estimate
module Confidence = Stats.Confidence
module Rng = Sampling.Rng
module CE = Raestat.Count_estimator

type subject = {
  label : string;
  estimate :
    groups:int ->
    domains:int ->
    metrics:Metrics.t ->
    Rng.t ->
    Catalog.t ->
    fraction:float ->
    Expr.t ->
    Estimate.t;
}

let reference =
  {
    label = "count_estimator";
    estimate =
      (fun ~groups ~domains ~metrics rng catalog ~fraction expr ->
        CE.estimate ~groups ~domains ~metrics rng catalog ~fraction expr);
  }

type verdict =
  | Pass
  | Skip of string
  | Fail of string

type oracle = {
  name : string;
  summary : string;
  run : subject -> replicates:int -> Gen.case -> verdict;
}

(* Per-oracle stream: a fixed salt per oracle keeps them independent of
   each other and of battery order. *)
let rng_for (case : Gen.case) salt = Rng.create ~seed:((case.Gen.seed * 31) + salt) ()

(* Truth comes from the reference evaluator, so every case checks the
   production engine against code it shares no fast path with. *)
let exact catalog expr = float_of_int (Relational.Eval.count catalog expr)

let leaf_sample_size ~fraction catalog name =
  Sampling.Srs.size_of_fraction ~fraction
    (Relation.cardinality (Catalog.find catalog name))

(* ---------------------------------------------------------------- census *)

let census =
  {
    name = "census";
    summary = "fraction 1.0 reproduces the exact count";
    run =
      (fun subject ~replicates:_ case ->
        let catalog = Gen.materialize case in
        let truth = exact catalog case.Gen.expr in
        let est =
          subject.estimate ~groups:1 ~domains:1 ~metrics:Metrics.noop
            (rng_for case 1) catalog ~fraction:1.0 case.Gen.expr
        in
        if Float.abs (est.Estimate.point -. truth) <= 1e-6 *. Float.max 1. truth then Pass
        else
          Fail
            (Printf.sprintf "census estimate %.17g differs from exact count %.17g"
               est.Estimate.point truth));
  }

(* ---------------------------------------------------------------- parity *)

let parity =
  {
    name = "parity";
    summary = "--domains 2 is bit-identical to the serial run";
    run =
      (fun subject ~replicates:_ case ->
        let run ~domains =
          let catalog = Gen.materialize case in
          let metrics = Metrics.create () in
          let est =
            subject.estimate ~groups:4 ~domains ~metrics (rng_for case 2) catalog
              ~fraction:case.Gen.fraction case.Gen.expr
          in
          (est, Metrics.snapshot metrics)
        in
        let base_est, base_counters = run ~domains:1 in
        let est, counters = run ~domains:2 in
        if
          not
            (Float.equal est.Estimate.point base_est.Estimate.point
            && Float.equal est.Estimate.variance base_est.Estimate.variance)
        then
          Fail
            (Printf.sprintf
               "--domains 2 estimate (%.17g, var %.17g) diverges from the serial run \
                (%.17g, var %.17g)"
               est.Estimate.point est.Estimate.variance base_est.Estimate.point
               base_est.Estimate.variance)
        else if not (Metrics.counters_equal counters base_counters) then
          Fail "--domains 2 counter totals diverge from the serial run"
        else Pass);
  }

(* --------------------------------------------------------------- rewrite *)

let rewrite =
  {
    name = "rewrite";
    summary = "optimizer rewrites leave the compiled estimate bit-identical";
    run =
      (fun _subject ~replicates:_ case ->
        let catalog = Gen.materialize case in
        let run ~optimize =
          let plan =
            Raestat.Estplan.compile ~groups:2 ~optimize catalog
              ~fraction:case.Gen.fraction case.Gen.expr
          in
          Raestat.Estplan.run (rng_for case 3) catalog plan
        in
        let raw = run ~optimize:false in
        let optimized = run ~optimize:true in
        if
          Float.equal raw.Estimate.point optimized.Estimate.point
          && Float.equal raw.Estimate.variance optimized.Estimate.variance
        then Pass
        else
          Fail
            (Printf.sprintf
               "optimized plan estimate %.17g (var %.17g) <> unoptimized %.17g (var %.17g)"
               optimized.Estimate.point optimized.Estimate.variance raw.Estimate.point
               raw.Estimate.variance));
  }

(* -------------------------------------------------------------- pushdown *)

module SP = Relational.Optimizer.Sampling_pushdown

(* Replicate-mean machinery shared with the unbiasedness oracle. *)
let sample_mean_var points =
  let n = float_of_int (Array.length points) in
  let mean = Array.fold_left ( +. ) 0. points /. n in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. points in
  (mean, if n > 1. then ss /. (n -. 1.) else 0.)

let replicate_points subject ~runs ~salt case =
  let catalog = Gen.materialize case in
  let master = rng_for case salt in
  Array.init runs (fun _ ->
      (subject.estimate ~groups:1 ~domains:1 ~metrics:Metrics.noop
         (Rng.split master) catalog ~fraction:case.Gen.fraction case.Gen.expr)
        .Estimate.point)

(* Student-t acceptance region for E[estimate] = truth; returns the
   replicate mean for reporting.  A zero spread demands (near) exact
   agreement: identical replicates mean the estimator is degenerate on
   this case, which for an unbiased estimator implies exactness. *)
let mean_brackets ~level ~truth points =
  let n = Array.length points in
  let mean, var = sample_mean_var points in
  let stderr = sqrt (var /. float_of_int n) in
  let ok =
    if stderr = 0. then Float.abs (mean -. truth) <= 1e-9 *. Float.max 1. truth
    else
      let iv =
        Confidence.student_t ~level ~df:(float_of_int (n - 1)) ~point:mean ~stderr
      in
      iv.Confidence.lo <= truth && truth <= iv.Confidence.hi
  in
  (ok, mean)

(* Conservative survival probability for one sampled run: a result
   tuple survives with probability Π n_i/N_i over the leaves.  For a
   pushdown plan (one leaf sampled, the rest census) this understates
   the true rate, so gating on it only ever skips, never under-gates. *)
let root_hit_rate ~fraction catalog expr =
  List.fold_left
    (fun acc name ->
      let population = Relation.cardinality (Catalog.find catalog name) in
      if population = 0 then acc
      else
        acc
        *. (float_of_int (leaf_sample_size ~fraction catalog name)
           /. float_of_int population))
    1. (Expr.leaves expr)

let pushdown =
  {
    name = "pushdown";
    summary =
      "candidate enumeration is deterministic in leaf-occurrence order and the \
       chosen pushdown plan stays unbiased";
    run =
      (fun _subject ~replicates case ->
        if not (SP.pushable case.Gen.expr) then
          Skip "dedup semantics block pushdown"
        else begin
          let catalog = Gen.materialize case in
          let choose () =
            Raestat.Planner.choose_sampling catalog ~fraction:case.Gen.fraction
              case.Gen.expr
          in
          let first = choose () and second = choose () in
          let labels choice =
            List.map
              (fun c -> c.Raestat.Planner.label)
              choice.Raestat.Planner.candidates
          in
          (* Root-sampling first, then one pushdown per leaf occurrence
             in the rewrite layer's (left-to-right) derivation order —
             the planner's determinism contract. *)
          let expected =
            "root-sampling"
            :: List.map
                 (fun d ->
                   Printf.sprintf "pushdown(%s#%d)" d.SP.relation d.SP.occurrence)
                 (SP.derivations case.Gen.expr)
          in
          if labels first <> labels second then
            Fail "re-planning the same case changed the candidate list"
          else if labels first <> expected then
            Fail
              (Printf.sprintf
                 "candidate order [%s] is not root-sampling then leaf-occurrence \
                  order [%s]"
                 (String.concat "; " (labels first))
                 (String.concat "; " expected))
          else if CE.classify case.Gen.expr <> Estimate.Unbiased then
            Skip "consistent-only expression"
          else begin
            let truth = exact catalog case.Gen.expr in
            let hit_rate =
              root_hit_rate ~fraction:case.Gen.fraction catalog case.Gen.expr
            in
            if truth > 0. && float_of_int (replicates * 8) *. truth *. hit_rate < 25.
            then Skip "power gate: too few expected sampled hits"
            else begin
              (* The winner's executable plan — possibly a pushed-down
                 sampling placement the reference front-end never
                 compiles — must itself be unbiased. *)
              let plan = first.Raestat.Planner.chosen in
              let points ~runs ~salt =
                let master = rng_for case salt in
                Array.init runs (fun _ ->
                    (Raestat.Estplan.run (Rng.split master) catalog plan)
                      .Estimate.point)
              in
              let level = 0.9999 in
              let ok, _ =
                mean_brackets ~level ~truth (points ~runs:replicates ~salt:9)
              in
              if ok then Pass
              else
                let again, mean =
                  mean_brackets ~level ~truth
                    (points ~runs:(replicates * 8) ~salt:10)
                in
                if again then Pass
                else
                  Fail
                    (Printf.sprintf
                       "winner %s: replicate mean %.6g is not consistent with the \
                        exact count %g (%d replicates, twice)"
                       first.Raestat.Planner.winner.Raestat.Planner.label mean truth
                       (replicates * 8))
            end
          end
        end);
  }

(* ---------------------------------------------------------- unbiasedness *)

let unbiasedness =
  {
    name = "unbiasedness";
    summary = "replicate mean of an Unbiased plan brackets the truth (Student-t)";
    run =
      (fun subject ~replicates case ->
        if CE.classify case.Gen.expr <> Estimate.Unbiased then
          Skip "consistent-only expression"
        else
          let catalog = Gen.materialize case in
          let truth = exact catalog case.Gen.expr in
          (* Power gate.  A result tuple survives the sampled run with
             probability Π n_i/N_i over the leaves; when even the 8×
             retry round expects only a handful of surviving tuples,
             an all-zero outcome is likely for a perfectly unbiased
             estimator (P ≈ e^{-expected}), and the replicate mean
             carries no evidence either way. *)
          let hit_rate =
            root_hit_rate ~fraction:case.Gen.fraction catalog case.Gen.expr
          in
          if truth > 0. && float_of_int (replicates * 8) *. truth *. hit_rate < 25.
          then Skip "power gate: too few expected sampled hits"
          else
          let level = 0.9999 in
          let first, _ =
            mean_brackets ~level ~truth (replicate_points subject ~runs:replicates ~salt:4 case)
          in
          if first then Pass
          else
            (* An unlucky draw at 1 − level is possible; demand a second
               independent failure at eight times the replicates before
               declaring bias. *)
            let again, mean =
              mean_brackets ~level ~truth
                (replicate_points subject ~runs:(replicates * 8) ~salt:5 case)
            in
            if again then Pass
            else
              Fail
                (Printf.sprintf
                   "replicate mean %.6g is not consistent with the exact count %g \
                    (%d replicates, twice)"
                   mean truth (replicates * 8)));
  }

(* -------------------------------------------------------------- coverage *)

let coverage =
  {
    name = "coverage";
    summary = "empirical CI coverage stays near nominal where the CLT applies";
    run =
      (fun subject ~replicates case ->
        if CE.classify case.Gen.expr <> Estimate.Unbiased then
          Skip "consistent-only expression"
        else
          let catalog = Gen.materialize case in
          let truth = exact catalog case.Gen.expr in
          let leaves = Expr.leaves case.Gen.expr in
          (* Expected number of result tuples surviving into the sampled
             evaluation: with every leaf thinned by [fraction], a result
             tuple joining L leaves survives with probability
             fraction^L.  Below a handful of expected hits the estimate
             is too discrete for a CLT interval to mean much; the same
             goes for any leaf whose own sample is tiny. *)
          let expected_hits =
            truth *. (case.Gen.fraction ** float_of_int (List.length leaves))
          in
          let min_leaf_sample =
            List.fold_left
              (fun acc name ->
                min acc (leaf_sample_size ~fraction:case.Gen.fraction catalog name))
              max_int leaves
          in
          if expected_hits < 8. || min_leaf_sample < 8 then
            Skip "CLT gate: too few expected sampled hits"
          else begin
            let level = 0.95 and groups = 6 in
            let runs = max 16 replicates in
            let master = rng_for case 6 in
            let covered = ref 0 and usable = ref 0 in
            (* Ulp slack: a deterministic estimate (e.g. a predicate-free
               product, whose replicates all scale the same sampled
               count) has a zero-width CI that can sit a few ulps off
               the integer truth. *)
            let eps = 1e-9 *. Float.max 1. truth in
            for _ = 1 to runs do
              let est =
                subject.estimate ~groups ~domains:1 ~metrics:Metrics.noop
                  (Rng.split master) catalog ~fraction:case.Gen.fraction case.Gen.expr
              in
              if Estimate.has_variance est then begin
                incr usable;
                let iv = Estimate.ci ~level est in
                if iv.Confidence.lo -. eps <= truth && truth <= iv.Confidence.hi +. eps
                then incr covered
              end
            done;
            if !usable = 0 then Skip "no variance attached"
            else
              let rate = float_of_int !covered /. float_of_int !usable in
              (* Slack: the z-on-6-replicates interval genuinely
                 undercovers, and skewed product estimates undercover
                 further even past the gates (the replicate variance is
                 correlated with the point), so the bar is a smoke
                 bound — it catches a mis-scaled or vanishing variance
                 (coverage near 0), not percentage-point drift.  Base
                 slack 0.25, plus three binomial standard errors, plus
                 one run of resolution. *)
              let slack =
                0.25
                +. (3. *. sqrt (level *. (1. -. level) /. float_of_int !usable))
                +. (1. /. float_of_int !usable)
              in
              if rate >= level -. slack then Pass
              else
                Fail
                  (Printf.sprintf
                     "empirical coverage %.3f below %.3f (%d of %d CIs missed the \
                      truth %g)"
                     rate (level -. slack) (!usable - !covered) !usable truth)
          end);
  }

(* ---------------------------------------------------------- conservation *)

let conservation =
  {
    name = "conservation";
    summary = "work counters obey their conservation laws and never perturb estimates";
    run =
      (fun subject ~replicates:_ case ->
        let groups = 3 in
        let run_with_metrics () =
          let catalog = Gen.materialize case in
          let metrics = Metrics.create () in
          let est =
            subject.estimate ~groups ~domains:1 ~metrics (rng_for case 7)
              catalog ~fraction:case.Gen.fraction case.Gen.expr
          in
          (est, Metrics.snapshot metrics)
        in
        let est1, s1 = run_with_metrics () in
        let est2, s2 = run_with_metrics () in
        let catalog = Gen.materialize case in
        let silent =
          subject.estimate ~groups ~domains:1 ~metrics:Metrics.noop
            (rng_for case 7) catalog ~fraction:case.Gen.fraction case.Gen.expr
        in
        let leaves = Expr.leaves case.Gen.expr in
        let size name = leaf_sample_size ~fraction:case.Gen.fraction catalog name in
        (* A plan whose every leaf is a census counts once. *)
        let runs =
          if
            List.for_all
              (fun name -> size name = Relation.cardinality (Catalog.find catalog name))
              leaves
          then 1
          else groups
        in
        let expected_indices = runs * List.fold_left (fun acc name -> acc + size name) 0 leaves in
        if
          (not (Float.equal est1.Estimate.point est2.Estimate.point))
          || not (Metrics.counters_equal s1 s2)
        then Fail "re-running with the same seed changed the estimate or the counters"
        else if not (Float.equal est1.Estimate.point silent.Estimate.point) then
          Fail "attaching a metrics sink changed the estimate"
        else if
          s1.Metrics.tuples_scanned < 0 || s1.Metrics.pages_read < 0
          || s1.Metrics.bytes_read < 0 || s1.Metrics.io_batches < 0
          || s1.Metrics.page_cache_hits < 0
          || s1.Metrics.sample_indices < 0 || s1.Metrics.hash_probe_hits < 0
          || s1.Metrics.hash_probe_misses < 0 || s1.Metrics.rng_draws < 0
        then Fail "negative counter"
        else if s1.Metrics.sample_indices <> expected_indices then
          Fail
            (Printf.sprintf
               "sample_indices %d <> %d = runs × Σ per-leaf sample sizes"
               s1.Metrics.sample_indices expected_indices)
        else
          match case.Gen.expr with
          | Expr.Equijoin (_, Expr.Base left, Expr.Base _) ->
            let probes = s1.Metrics.hash_probe_hits + s1.Metrics.hash_probe_misses in
            if probes <> runs * size left then
              Fail
                (Printf.sprintf "hash probes %d <> %d = runs × left sample size" probes
                   (runs * size left))
            else Pass
          | _ -> Pass);
  }

(* --------------------------------------------------------------- storage *)

(* Packing a relation into the binary pagefile and reloading it is a
   change of storage, never of data: the reloaded catalog must hold
   bit-identical tuples and drive the estimator to a bit-identical
   estimate with identical sampling counters (the page-granular reader
   adds real-I/O counters, but the in-memory estimate path here charges
   none, so even those agree). *)
let storage =
  {
    name = "storage";
    summary = "pagefile pack-and-reload leaves data, estimates and counters bit-identical";
    run =
      (fun subject ~replicates:_ case ->
        let catalog = Gen.materialize case in
        (* A deliberately awkward page capacity so relations straddle
           page boundaries and end on a short last page. *)
        let reload relation =
          let path = Filename.temp_file "raestat-fuzz" ".raf" in
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              Relational.Pagefile.write_relation ~page_capacity:61 path relation;
              let pf = Relational.Pagefile.openfile path in
              Fun.protect
                ~finally:(fun () -> Relational.Pagefile.close pf)
                (fun () -> Relational.Pagefile.to_relation pf))
        in
        let leaves = List.sort_uniq compare (Expr.leaves case.Gen.expr) in
        let corrupted = ref None in
        let reloaded =
          Catalog.of_list
            (List.map
               (fun name ->
                 let original = Catalog.find catalog name in
                 let relation = reload original in
                 if
                   not
                     (Relational.Schema.equal
                        (Relation.schema original)
                        (Relation.schema relation)
                     && Relation.tuples original = Relation.tuples relation)
                 then corrupted := Some name;
                 (name, relation))
               leaves)
        in
        match !corrupted with
        | Some name ->
          Fail (Printf.sprintf "pagefile round-trip changed relation %S" name)
        | None ->
          let run catalog =
            let metrics = Metrics.create () in
            let est =
              subject.estimate ~groups:3 ~domains:1 ~metrics
                (rng_for case 8) catalog ~fraction:case.Gen.fraction case.Gen.expr
            in
            (est, Metrics.snapshot metrics)
          in
          let est1, s1 = run catalog in
          let est2, s2 = run reloaded in
          if
            not
              (Float.equal est1.Estimate.point est2.Estimate.point
              && Float.equal est1.Estimate.variance est2.Estimate.variance
              && est1.Estimate.sample_size = est2.Estimate.sample_size)
          then
            Fail
              (Printf.sprintf
                 "estimate over the reloaded catalog (%.17g, var %.17g) diverges from \
                  the original (%.17g, var %.17g)"
                 est2.Estimate.point est2.Estimate.variance est1.Estimate.point
                 est1.Estimate.variance)
          else if not (Metrics.counters_equal s1 s2) then
            Fail "counters diverge between the original and reloaded catalogs"
          else Pass);
  }

(* --------------------------------------------------------------- kernels *)

(* A selection of the case over a base relation (through other
   selections): its predicate and the base. *)
let rec selections = function
  | Expr.Base _ -> []
  | Expr.Select (p, e) ->
    let rec base = function
      | Expr.Base name -> Some name
      | Expr.Select (_, e) -> base e
      | _ -> None
    in
    Option.to_list (Option.map (fun name -> (p, name)) (base e)) @ selections e
  | Expr.Project (_, e) | Expr.Distinct e | Expr.Rename (_, e) | Expr.Aggregate (_, _, e) ->
    selections e
  | Expr.Product (l, r)
  | Expr.Equijoin (_, l, r)
  | Expr.Theta_join (_, l, r)
  | Expr.Union (l, r)
  | Expr.Inter (l, r)
  | Expr.Diff (l, r) ->
    selections l @ selections r

(* Fuzz relations sit below [Relation.kernel_threshold], so the
   estimators decide their selections on the row path.  This oracle
   runs the scan kernels on them directly: each selection's predicate,
   over its base's columnar view, through [count] and [filter_indices]
   over every row and over every row id twice in descending order, must
   keep exactly the rows [Predicate.compile] keeps.  It also joins every
   pair of the case's columns, a relation with itself included, through
   the key table in both representations (a dense array over the codes'
   range, and open addressing, forced by a table made for
   [min_int, max_int]): the probe hits and the count must be the row
   engine's. *)
let kernels =
  {
    name = "kernels";
    summary =
      "the scan kernels keep exactly the rows the row predicate keeps, and both key \
       tables join as the row engine does";
    run =
      (fun _subject ~replicates:_ case ->
        let catalog = Gen.materialize case in
        let module K = Relational.Kernel in
        let join_disagrees (a, b, nl, nr) =
          let rl = Catalog.find catalog nl and rr = Catalog.find catalog nr in
          let vl = Relation.columnar rl and vr = Relation.columnar rr in
          let index v name = Relational.Schema.index_of (Relational.Column.schema v) name in
          match K.join_codes vl (index vl a) vr (index vr b) with
          | None -> false
          | Some { K.left; right; lo; hi } ->
            let metrics = Metrics.create () in
            let count =
              Relational.Eval.count ~metrics catalog
                (Expr.Equijoin ([ (a, b) ], Expr.Base nl, Expr.Base nr))
            in
            let expected = ((Metrics.snapshot metrics).Metrics.hash_probe_hits, count) in
            let nl = Relation.cardinality rl and nr = Relation.cardinality rr in
            List.exists
              (fun (lo, hi) ->
                let table = K.Key_table.create ~lo ~hi ~rows:nr in
                K.Key_table.count table right None nr;
                K.Key_table.probe_count table left None nl <> expected)
              [ (lo, hi); (min_int, max_int) ]
        in
        let disagrees (p, name) =
          let r = Catalog.find catalog name in
          let tuples = Relation.tuples r and view = Relation.columnar r in
          let keep i = Relational.Predicate.compile (Relation.schema r) p tuples.(i) in
          let n = Array.length tuples in
          let ids = Array.init (2 * n) (fun k -> n - 1 - (k / 2)) in
          let rows = Array.of_list (List.filter keep (List.init n Fun.id)) in
          let among = Array.of_list (List.filter keep (Array.to_list ids)) in
          not
            (K.count view p = Array.length rows
            && K.filter_indices view p = rows
            && K.count ~ids view p = Array.length among
            && K.filter_indices ~ids view p = among)
        in
        let columns =
          List.concat_map
            (fun n ->
              let schema = Relation.schema (Catalog.find catalog n) in
              List.map (fun a -> (n, a)) (Relational.Schema.names schema))
            (Catalog.names catalog)
        in
        let pairs =
          List.concat_map (fun (nl, a) -> List.map (fun (nr, b) -> (a, b, nl, nr)) columns) columns
        in
        match List.find_opt disagrees (selections case.Gen.expr) with
        | Some (p, name) ->
          Fail
            (Printf.sprintf "the scan kernels disagree with the row predicate on %s over %s"
               (Relational.Predicate.to_string p) name)
        | None -> (
          match List.find_opt join_disagrees pairs with
          | Some (a, b, nl, nr) ->
            Fail
              (Printf.sprintf "a key table joins %s.%s = %s.%s unlike the row engine" nl a nr b)
          | None -> Pass));
  }

(* ----------------------------------------------------------- maintenance *)

module SR = Raestat.Stream_relation
module Tuple = Relational.Tuple
module Predicate = Relational.Predicate
module Value = Relational.Value

type stream_op =
  | Add of Tuple.t
  | Remove of SR.id

(* The production write path; unit tests inject mutants (e.g. a writer
   that drops deletions) to prove the maintenance oracle has teeth. *)
let maintenance_writer stream = function
  | Add tuple -> ignore (SR.insert stream tuple)
  | Remove id -> ignore (SR.delete stream id)

(* Deterministic random interleaving over [pool]: inserts cycle through
   the pool's tuples, deletes pick a uniformly random live id, about one
   op in three.  The model predicts the stream's sequential ids, so the
   returned trace is self-contained: [mixed] is the interleaved phase,
   [live] the (id, tuple) population the model expects after it, and
   [drain] deletes every remaining live id. *)
let maintenance_trace rng pool =
  let live = ref [] and next_id = ref 0 and inserts = ref 0 and ops = ref [] in
  let budget = min 256 (2 * Array.length pool) in
  for _ = 1 to budget do
    let n_live = List.length !live in
    if n_live > 0 && Rng.int rng 3 = 0 then begin
      let victim, _ = List.nth !live (Rng.int rng n_live) in
      live := List.filter (fun (id, _) -> id <> victim) !live;
      ops := Remove victim :: !ops
    end
    else begin
      let tuple = pool.(!inserts mod Array.length pool) in
      live := (!next_id, tuple) :: !live;
      incr next_id;
      incr inserts;
      ops := Add tuple :: !ops
    end
  done;
  let live = List.rev !live in
  (List.rev !ops, live, List.map (fun (id, _) -> Remove id) live)

(* Every maintained-sample tuple must be a live tuple — as a multiset:
   the sample may not hold more copies of a tuple than the population
   does.  Catches deletions applied to the store but not the sample. *)
let sample_within_live ~live sample =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (_, tuple) ->
      Hashtbl.replace counts tuple
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts tuple)))
    live;
  Array.for_all
    (fun tuple ->
      match Hashtbl.find_opt counts tuple with
      | Some n when n > 0 ->
        Hashtbl.replace counts tuple (n - 1);
        true
      | _ -> false)
    (Relation.tuples sample)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let maintenance_oracle ?(writer = maintenance_writer) () =
  {
    name = "maintenance";
    summary =
      "maintained stream samples track random insert/delete interleavings: \
       exact recount, live-sample containment, an in-place estimate equal to \
       a recount of the sample, mem, delete-to-empty, an id-ordered snapshot \
       that outlives the drain's compaction, and a replicate-mean \
       unbiasedness gate";
    run =
      (fun _subject ~replicates case ->
        let catalog = Gen.materialize case in
        match Expr.leaves case.Gen.expr with
        | [] -> Skip "no leaf relation"
        | name :: _ ->
          let relation = Catalog.find catalog name in
          let pool = Relation.tuples relation in
          let schema = Relation.schema relation in
          if Array.length pool = 0 then Skip "empty source relation"
          else if Relational.Schema.arity schema = 0 then Skip "no attributes"
          else begin
            (* A predicate keeping about half the pool: attribute 0
               against its median value (total order, any type). *)
            let attr0 = (Relational.Schema.attribute schema 0).Relational.Schema.name in
            let values = Array.map (fun t -> Tuple.get t 0) pool in
            Array.sort Value.compare values;
            let predicate =
              Predicate.le (Predicate.attr attr0)
                (Predicate.const values.(Array.length values / 2))
            in
            let holds = Predicate.compile schema predicate in
            let rng = rng_for case 11 in
            let mixed, live, drain = maintenance_trace rng pool in
            let capacity = max 4 (Array.length pool / 3) in
            let replay seed ops =
              let stream =
                SR.create ~capacity ~bernoulli:0.5 ~window:8 ~seed ~schema ()
              in
              List.iter (writer stream) ops;
              (* Deletion erosion can exhaust an undersized sample; the
                 documented escape hatch is a rescan, and taking it here
                 keeps the replicate estimates defined without hiding a
                 maintenance defect (the recount checks run on the store,
                 not the rebuilt sample). *)
              if SR.sample_size stream = 0 && SR.population stream > 0 then
                SR.rescan stream;
              stream
            in
            let stream = replay (Rng.int rng 0x3FFFFFFF) mixed in
            (* Taken at the checkpoint and read only after the drain,
               whose deletes compact the log under it. *)
            let snapshot = SR.snapshot stream in
            (* The in-place estimate against a recount of a copy of
               the sample, bit for bit. *)
            let estimate_matches () =
              let est = SR.estimate_count stream predicate in
              let recount =
                CE.selection_of_counts ~big_n:(SR.population stream)
                  ~n:(SR.sample_size stream)
                  ~hits:(Relation.count holds (SR.sample stream))
              in
              same_bits est.Estimate.point recount.Estimate.point
              && same_bits est.Estimate.variance recount.Estimate.variance
              && est.Estimate.sample_size = recount.Estimate.sample_size
            in
            (* Every id the trace issued, and one past either end. *)
            let issued =
              List.length (List.filter (function Add _ -> true | Remove _ -> false) mixed)
            in
            let mem_mismatch =
              List.find_opt
                (fun id -> SR.mem stream id <> List.mem_assoc id live)
                (List.init (issued + 2) (fun k -> k - 1))
            in
            let truth =
              float_of_int (List.length (List.filter (fun (_, t) -> holds t) live))
            in
            if SR.population stream <> List.length live then
              Fail
                (Printf.sprintf
                   "population %d diverged from the op trace's exact recount %d \
                    after %d interleaved ops"
                   (SR.population stream) (List.length live) (List.length mixed))
            else if SR.sample_size stream > min capacity (SR.population stream) then
              Fail
                (Printf.sprintf "backing sample holds %d tuples, capacity %d, \
                                 population %d"
                   (SR.sample_size stream) capacity (SR.population stream))
            else if not (sample_within_live ~live (SR.sample stream)) then
              Fail "backing sample holds a tuple the live population does not"
            else if
              not
                (sample_within_live ~live
                   (Option.value
                      ~default:(Relation.empty schema)
                      (SR.bernoulli_sample stream)))
            then Fail "Bernoulli sample holds a tuple the live population does not"
            else if not (estimate_matches ()) then
              Fail
                "maintained estimate differs from the selection estimate over a \
                 recount of the backing sample"
            else if Option.is_some mem_mismatch then
              Fail
                (Printf.sprintf "mem %d disagrees with the op trace's live ids"
                   (Option.get mem_mismatch))
            else begin
              List.iter (writer stream) drain;
              let empty_est = SR.estimate_count stream predicate in
              if SR.population stream <> 0 || SR.sample_size stream <> 0 then
                Fail
                  (Printf.sprintf
                     "deleting every live id left population %d, sample %d"
                     (SR.population stream) (SR.sample_size stream))
              else if
                not
                  (Float.equal empty_est.Estimate.point 0.
                  && Float.equal empty_est.Estimate.variance 0.)
              then
                Fail
                  (Printf.sprintf
                     "estimate over the drained stream is (%.17g, var %.17g), not \
                      the exact 0"
                     empty_est.Estimate.point empty_est.Estimate.variance)
              else if
                (* Through [Relation.sample] first: it gathers from the
                   log's rows without building the snapshot's tuples. *)
                let n = List.length live in
                let probes = if n = 0 then [||] else [| n - 1; 0; n / 2; n - 1 |] in
                not
                  (List.equal Tuple.equal
                     (List.map (fun i -> snd (List.nth live i)) (Array.to_list probes))
                     (Array.to_list (Relation.tuples (Relation.sample snapshot probes))))
              then Fail "the checkpoint's snapshot, sampled after the drain, changed rows"
              else if
                not
                  (List.equal Tuple.equal (List.map snd live)
                     (Array.to_list (Relation.tuples snapshot)))
              then
                Fail
                  "the checkpoint's snapshot, read after the drain, does not hold \
                   its live tuples in id order"
              else begin
                (* Replicate-mean unbiasedness of the maintained-sample
                   estimator at the interleaved checkpoint, across
                   independent stream seeds (same trace, fresh
                   reservoir randomness). *)
                let population = List.length live in
                let hit_rate =
                  if population = 0 then 1.
                  else
                    float_of_int (min capacity population) /. float_of_int population
                in
                if
                  truth > 0.
                  && float_of_int (replicates * 8) *. truth *. hit_rate < 25.
                then Pass (* recount checks ran; too little power to gate the mean *)
                else
                  let points ~runs ~salt =
                    let master = rng_for case salt in
                    Array.init runs (fun _ ->
                        (SR.estimate_count
                           (replay (Rng.int master 0x3FFFFFFF) mixed)
                           predicate)
                          .Estimate.point)
                  in
                  let level = 0.9999 in
                  let ok, _ =
                    mean_brackets ~level ~truth (points ~runs:replicates ~salt:12)
                  in
                  if ok then Pass
                  else
                    let again, mean =
                      mean_brackets ~level ~truth
                        (points ~runs:(replicates * 8) ~salt:13)
                    in
                    if again then Pass
                    else
                      Fail
                        (Printf.sprintf
                           "maintained-sample replicate mean %.6g is not \
                            consistent with the trace's exact count %g (%d \
                            replicates, twice)"
                           mean truth (replicates * 8))
              end
            end
          end);
  }

let maintenance = maintenance_oracle ()

(* --------------------------------------------------------------- battery *)

let battery =
  [ census; parity; rewrite; pushdown; unbiasedness; coverage; conservation; storage;
    maintenance; kernels ]

let check_case ?(subject = reference) ~replicates case =
  List.find_map
    (fun o ->
      match o.run subject ~replicates case with
      | Fail detail -> Some (o.name, detail)
      | Pass | Skip _ -> None)
    battery

let check_one ?(subject = reference) ~replicates ~oracle case =
  match List.find_opt (fun o -> o.name = oracle) battery with
  | None -> invalid_arg (Printf.sprintf "Check.Oracle.check_one: unknown oracle %S" oracle)
  | Some o -> (
    match o.run subject ~replicates case with
    | Fail detail -> Some detail
    | Pass | Skip _ -> None)
