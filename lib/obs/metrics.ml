type snapshot = {
  tuples_scanned : int;
  pages_read : int;
  bytes_read : int;
  io_batches : int;
  page_cache_hits : int;
  sample_indices : int;
  hash_probe_hits : int;
  hash_probe_misses : int;
  rng_draws : int;
  plan_cache_hits : int;
  plan_cache_misses : int;
  plan_cache_evictions : int;
  plans_considered : int;
  maintenance_ops : int;
  timers : (string * float) list;
}

type span = {
  name : string;
  seconds : float;
  children : span list;
}

(* Open spans under construction; children accumulate reversed and are
   reversed once at close. *)
type open_span = {
  os_name : string;
  os_start : float;
  mutable os_children_rev : span list;
}

type t = {
  enabled : bool;
  mutable tuples : int;
  mutable pages : int;
  mutable bytes : int;
  mutable batches : int;
  mutable cache_hits : int;
  mutable indices : int;
  mutable hits : int;
  mutable misses : int;
  mutable draws : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_evictions : int;
  mutable plans : int;
  mutable maint : int;
  timer_table : (string, float) Hashtbl.t;
  mutable roots_rev : span list;
  mutable stack : open_span list;
}

let make ~enabled =
  {
    enabled;
    tuples = 0;
    pages = 0;
    bytes = 0;
    batches = 0;
    cache_hits = 0;
    indices = 0;
    hits = 0;
    misses = 0;
    draws = 0;
    plan_hits = 0;
    plan_misses = 0;
    plan_evictions = 0;
    plans = 0;
    maint = 0;
    timer_table = Hashtbl.create 8;
    roots_rev = [];
    stack = [];
  }

let noop = make ~enabled:false

let create () = make ~enabled:true

let enabled t = t.enabled

let child t = if t.enabled then create () else noop

(* Recording: a single branch when disabled, one field store when
   enabled — cheap enough to leave in hot paths unconditionally. *)
let add_tuples t n = if t.enabled then t.tuples <- t.tuples + n
let add_pages t n = if t.enabled then t.pages <- t.pages + n
let add_bytes_read t n = if t.enabled then t.bytes <- t.bytes + n
let add_io_batches t n = if t.enabled then t.batches <- t.batches + n
let add_page_cache_hits t n = if t.enabled then t.cache_hits <- t.cache_hits + n
let add_indices t n = if t.enabled then t.indices <- t.indices + n
let probe_hit t = if t.enabled then t.hits <- t.hits + 1
let probe_miss t = if t.enabled then t.misses <- t.misses + 1

let add_probes t ~hits ~misses =
  if t.enabled then begin
    t.hits <- t.hits + hits;
    t.misses <- t.misses + misses
  end

let add_rng_draws t n = if t.enabled then t.draws <- t.draws + n
let plan_cache_hit t = if t.enabled then t.plan_hits <- t.plan_hits + 1
let plan_cache_miss t = if t.enabled then t.plan_misses <- t.plan_misses + 1
let plan_cache_eviction t = if t.enabled then t.plan_evictions <- t.plan_evictions + 1
let add_plans_considered t n = if t.enabled then t.plans <- t.plans + n
let add_maintenance_ops t n = if t.enabled then t.maint <- t.maint + n

let add_timer t label seconds =
  Hashtbl.replace t.timer_table label
    (seconds +. Option.value (Hashtbl.find_opt t.timer_table label) ~default:0.)

let time t label f =
  if not t.enabled then f ()
  else begin
    let started = Unix.gettimeofday () in
    Fun.protect ~finally:(fun () -> add_timer t label (Unix.gettimeofday () -. started)) f
  end

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let span = { os_name = name; os_start = Unix.gettimeofday (); os_children_rev = [] } in
    t.stack <- span :: t.stack;
    let close () =
      let closed =
        {
          name = span.os_name;
          seconds = Unix.gettimeofday () -. span.os_start;
          children = List.rev span.os_children_rev;
        }
      in
      (match t.stack with
      | top :: rest when top == span -> t.stack <- rest
      | stack ->
        (* An inner span escaped without closing (exception in user
           code between protects): drop down to this span's frame. *)
        let rec unwind = function
          | top :: rest when top == span -> rest
          | _ :: rest -> unwind rest
          | [] -> []
        in
        t.stack <- unwind stack);
      match t.stack with
      | parent :: _ -> parent.os_children_rev <- closed :: parent.os_children_rev
      | [] -> t.roots_rev <- closed :: t.roots_rev
    in
    Fun.protect ~finally:close f
  end

let spans t = List.rev t.roots_rev

let absorb dst src =
  if dst.enabled then begin
    dst.tuples <- dst.tuples + src.tuples;
    dst.pages <- dst.pages + src.pages;
    dst.bytes <- dst.bytes + src.bytes;
    dst.batches <- dst.batches + src.batches;
    dst.cache_hits <- dst.cache_hits + src.cache_hits;
    dst.indices <- dst.indices + src.indices;
    dst.hits <- dst.hits + src.hits;
    dst.misses <- dst.misses + src.misses;
    dst.draws <- dst.draws + src.draws;
    dst.plan_hits <- dst.plan_hits + src.plan_hits;
    dst.plan_misses <- dst.plan_misses + src.plan_misses;
    dst.plan_evictions <- dst.plan_evictions + src.plan_evictions;
    dst.plans <- dst.plans + src.plans;
    dst.maint <- dst.maint + src.maint;
    Hashtbl.iter (fun label seconds -> add_timer dst label seconds) src.timer_table
  end

let add_snapshot dst s =
  if dst.enabled then begin
    dst.tuples <- dst.tuples + s.tuples_scanned;
    dst.pages <- dst.pages + s.pages_read;
    dst.bytes <- dst.bytes + s.bytes_read;
    dst.batches <- dst.batches + s.io_batches;
    dst.cache_hits <- dst.cache_hits + s.page_cache_hits;
    dst.indices <- dst.indices + s.sample_indices;
    dst.hits <- dst.hits + s.hash_probe_hits;
    dst.misses <- dst.misses + s.hash_probe_misses;
    dst.draws <- dst.draws + s.rng_draws;
    dst.plan_hits <- dst.plan_hits + s.plan_cache_hits;
    dst.plan_misses <- dst.plan_misses + s.plan_cache_misses;
    dst.plan_evictions <- dst.plan_evictions + s.plan_cache_evictions;
    dst.plans <- dst.plans + s.plans_considered;
    dst.maint <- dst.maint + s.maintenance_ops;
    List.iter (fun (label, seconds) -> add_timer dst label seconds) s.timers
  end

let sorted_timers table =
  Hashtbl.fold (fun label seconds acc -> (label, seconds) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t =
  {
    tuples_scanned = t.tuples;
    pages_read = t.pages;
    bytes_read = t.bytes;
    io_batches = t.batches;
    page_cache_hits = t.cache_hits;
    sample_indices = t.indices;
    hash_probe_hits = t.hits;
    hash_probe_misses = t.misses;
    rng_draws = t.draws;
    plan_cache_hits = t.plan_hits;
    plan_cache_misses = t.plan_misses;
    plan_cache_evictions = t.plan_evictions;
    plans_considered = t.plans;
    maintenance_ops = t.maint;
    timers = sorted_timers t.timer_table;
  }

let zero =
  {
    tuples_scanned = 0;
    pages_read = 0;
    bytes_read = 0;
    io_batches = 0;
    page_cache_hits = 0;
    sample_indices = 0;
    hash_probe_hits = 0;
    hash_probe_misses = 0;
    rng_draws = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    plan_cache_evictions = 0;
    plans_considered = 0;
    maintenance_ops = 0;
    timers = [];
  }

(* Combine two sorted timer lists label-wise. *)
let combine_timers op a b =
  let rec go a b =
    match (a, b) with
    | [], rest -> List.map (fun (l, s) -> (l, op 0. s)) rest
    | rest, [] -> rest
    | (la, sa) :: ta, (lb, sb) :: tb ->
      let c = String.compare la lb in
      if c = 0 then (la, op sa sb) :: go ta tb
      else if c < 0 then (la, sa) :: go ta b
      else (lb, op 0. sb) :: go a tb
  in
  go a b

let diff later earlier =
  {
    tuples_scanned = later.tuples_scanned - earlier.tuples_scanned;
    pages_read = later.pages_read - earlier.pages_read;
    bytes_read = later.bytes_read - earlier.bytes_read;
    io_batches = later.io_batches - earlier.io_batches;
    page_cache_hits = later.page_cache_hits - earlier.page_cache_hits;
    sample_indices = later.sample_indices - earlier.sample_indices;
    hash_probe_hits = later.hash_probe_hits - earlier.hash_probe_hits;
    hash_probe_misses = later.hash_probe_misses - earlier.hash_probe_misses;
    rng_draws = later.rng_draws - earlier.rng_draws;
    plan_cache_hits = later.plan_cache_hits - earlier.plan_cache_hits;
    plan_cache_misses = later.plan_cache_misses - earlier.plan_cache_misses;
    plan_cache_evictions = later.plan_cache_evictions - earlier.plan_cache_evictions;
    plans_considered = later.plans_considered - earlier.plans_considered;
    maintenance_ops = later.maintenance_ops - earlier.maintenance_ops;
    timers = combine_timers (fun a b -> a -. b) later.timers earlier.timers;
  }

let merge a b =
  {
    tuples_scanned = a.tuples_scanned + b.tuples_scanned;
    pages_read = a.pages_read + b.pages_read;
    bytes_read = a.bytes_read + b.bytes_read;
    io_batches = a.io_batches + b.io_batches;
    page_cache_hits = a.page_cache_hits + b.page_cache_hits;
    sample_indices = a.sample_indices + b.sample_indices;
    hash_probe_hits = a.hash_probe_hits + b.hash_probe_hits;
    hash_probe_misses = a.hash_probe_misses + b.hash_probe_misses;
    rng_draws = a.rng_draws + b.rng_draws;
    plan_cache_hits = a.plan_cache_hits + b.plan_cache_hits;
    plan_cache_misses = a.plan_cache_misses + b.plan_cache_misses;
    plan_cache_evictions = a.plan_cache_evictions + b.plan_cache_evictions;
    plans_considered = a.plans_considered + b.plans_considered;
    maintenance_ops = a.maintenance_ops + b.maintenance_ops;
    timers = combine_timers ( +. ) a.timers b.timers;
  }

let counters s =
  [
    ("tuples_scanned", s.tuples_scanned);
    ("pages_read", s.pages_read);
    ("bytes_read", s.bytes_read);
    ("io_batches", s.io_batches);
    ("page_cache_hits", s.page_cache_hits);
    ("sample_indices", s.sample_indices);
    ("hash_probe_hits", s.hash_probe_hits);
    ("hash_probe_misses", s.hash_probe_misses);
    ("rng_draws", s.rng_draws);
    ("plan_cache_hits", s.plan_cache_hits);
    ("plan_cache_misses", s.plan_cache_misses);
    ("plan_cache_evictions", s.plan_cache_evictions);
    ("plans_considered", s.plans_considered);
    ("maintenance_ops", s.maintenance_ops);
  ]

let counters_equal a b = counters a = counters b

(* --- JSON ------------------------------------------------------------ *)

let escape s =
  let buffer = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '"' | '\\' ->
        Buffer.add_char buffer '\\';
        Buffer.add_char buffer ch
      | ch when Char.code ch < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char buffer ch)
    s;
  Buffer.contents buffer

let json_float x = if Float.is_finite x then Printf.sprintf "%.6f" x else "null"

(* The counters object deliberately fits on one line so runs can be
   compared with line-oriented tools (the --domains determinism test
   greps for it). *)
let counters_line s =
  let field (name, value) = Printf.sprintf "\"%s\": %d" name value in
  "{" ^ String.concat ", " (List.map field (counters s)) ^ "}"

let timers_json buffer timers =
  Buffer.add_string buffer "  \"timers\": [";
  List.iteri
    (fun i (label, seconds) ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_string buffer
        (Printf.sprintf "\n    {\"label\": \"%s\", \"seconds\": %s}" (escape label)
           (json_float seconds)))
    timers;
  if timers <> [] then Buffer.add_string buffer "\n  ";
  Buffer.add_char buffer ']'

let rec span_json buffer indent span =
  Buffer.add_string buffer
    (Printf.sprintf "%s{\"name\": \"%s\", \"seconds\": %s, \"children\": [" indent
       (escape span.name) (json_float span.seconds));
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buffer ',';
      Buffer.add_char buffer '\n';
      span_json buffer (indent ^ "  ") s)
    span.children;
  if span.children <> [] then begin
    Buffer.add_char buffer '\n';
    Buffer.add_string buffer indent
  end;
  Buffer.add_string buffer "]}"

let render ~spans:span_list snap =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "{\n  \"schema\": \"raestat-metrics/1\",\n";
  Buffer.add_string buffer (Printf.sprintf "  \"counters\": %s,\n" (counters_line snap));
  timers_json buffer snap.timers;
  (match span_list with
  | None -> ()
  | Some spans ->
    Buffer.add_string buffer ",\n  \"spans\": [";
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buffer ',';
        Buffer.add_char buffer '\n';
        span_json buffer "    " s)
      spans;
    if spans <> [] then Buffer.add_string buffer "\n  ";
    Buffer.add_char buffer ']');
  Buffer.add_string buffer "\n}";
  Buffer.contents buffer

let snapshot_to_json snap = render ~spans:None snap

let to_json ?(include_spans = false) t =
  render ~spans:(if include_spans then Some (spans t) else None) (snapshot t)
