module Metrics = Obs.Metrics

(* One paged view per relation, retained for the lifetime of this warm
   state: for .raf bindings the pagefile stays open, so its clock page
   cache persists across requests (repeat --pages estimates hit the
   cache instead of re-reading — the metrics sink shows the saved I/O
   as page_cache_hits).  The paged reader reuses decode buffers, so
   concurrent workers serialize on the per-relation io_lock. *)
type paged_entry = {
  paged : Relational.Paged.t;
  pagefile : Relational.Pagefile.t option;  (* kept open for .raf bindings *)
  io_lock : Mutex.t;
}

(* Intrusive LRU node of the backing-sample cache. *)
type snode = {
  skey : string;
  sindices : int array;
  mutable sprev : snode option; (* toward most recently used *)
  mutable snext : snode option; (* toward least recently used *)
}

(* One maintained stream per written-to relation.  The entry owns the
   stream's metrics sink (maintenance deltas are attributed to the
   requests that caused them via snapshot/diff under the stream lock)
   and the mutex that serializes all access — writes draw from the
   stream's RNG at write time, so serialized writes + draw-free reads
   are what make served responses worker-count-invariant. *)
type stream_entry = {
  stream : Raestat.Stream_relation.t;
  stream_lock : Mutex.t;
  stream_sink : Metrics.t;
}

type stream_info = {
  stream_name : string;
  stream_epoch : int;
  stream_population : int;
  stream_sample_size : int;
  stream_fill_ratio : float;
  stream_needs_rescan : bool;
}

type t = {
  catalog : Relational.Catalog.t;
  paged_tbl : (string, paged_entry) Hashtbl.t;  (* immutable after load *)
  sample_cap : int;
  lock : Mutex.t;  (* guards the sample LRU, its counters and refs *)
  sample_tbl : (string, snode) Hashtbl.t;
  mutable smru : snode option;
  mutable slru : snode option;
  mutable sample_hits : int;
  mutable sample_misses : int;
  mutable sample_evictions : int;
  mutable refs : int;  (* owner ref + one per in-flight reader *)
  streams : (string, stream_entry) Hashtbl.t;
  streams_lock : Mutex.t;  (* guards the stream table, not the streams *)
}

type sample_stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let close_pagefiles paged_tbl =
  Hashtbl.iter
    (fun _ entry ->
      match entry.pagefile with
      | Some pf -> ( try Relational.Pagefile.close pf with _ -> ())
      | None -> ())
    paged_tbl

let load ?metrics ?(sample_capacity = 128)
    ?(page_capacity = Relational.Pagefile.default_page_capacity) bindings =
  if sample_capacity < 0 then
    invalid_arg "Warm.load: sample_capacity must be >= 0";
  let paged_tbl = Hashtbl.create (max 4 (List.length bindings)) in
  let entries =
    try
      List.map
        (fun (name, path) ->
          let relation, entry =
            if Engine.is_pagefile path then begin
              let pf = Relational.Pagefile.openfile path in
              match Relational.Pagefile.to_relation ?metrics pf with
              | relation ->
                ( relation,
                  {
                    paged = Relational.Paged.of_pagefile pf;
                    pagefile = Some pf;
                    io_lock = Mutex.create ();
                  } )
              | exception e ->
                (try Relational.Pagefile.close pf with _ -> ());
                raise e
            end
            else begin
              let relation = Relational.Csv.load path in
              ( relation,
                {
                  paged = Relational.Paged.make ~page_capacity relation;
                  pagefile = None;
                  io_lock = Mutex.create ();
                } )
            end
          in
          (* Create the columnar view now (it encodes nothing): samples
             of this relation are then read in place on its columns,
             each encoded once, on first touch, and memoized. *)
          Relational.Relation.warm_view relation;
          Hashtbl.replace paged_tbl name entry;
          (name, relation))
        bindings
    with e ->
      close_pagefiles paged_tbl;
      raise e
  in
  {
    catalog = Relational.Catalog.of_list entries;
    paged_tbl;
    sample_cap = sample_capacity;
    lock = Mutex.create ();
    sample_tbl = Hashtbl.create (min (max 16 sample_capacity) 64);
    smru = None;
    slru = None;
    sample_hits = 0;
    sample_misses = 0;
    sample_evictions = 0;
    refs = 1;
    streams = Hashtbl.create 8;
    streams_lock = Mutex.create ();
  }

let catalog t = t.catalog

(* --- lifecycle -------------------------------------------------------- *)

let retain t =
  Mutex.lock t.lock;
  t.refs <- t.refs + 1;
  Mutex.unlock t.lock

let release t =
  Mutex.lock t.lock;
  t.refs <- t.refs - 1;
  let dead = t.refs = 0 in
  Mutex.unlock t.lock;
  if dead then close_pagefiles t.paged_tbl

(* --- backing-sample cache --------------------------------------------- *)

let s_unlink t node =
  (match node.sprev with
  | Some p -> p.snext <- node.snext
  | None -> t.smru <- node.snext);
  (match node.snext with
  | Some n -> n.sprev <- node.sprev
  | None -> t.slru <- node.sprev);
  node.sprev <- None;
  node.snext <- None

let s_push_front t node =
  node.snext <- t.smru;
  node.sprev <- None;
  (match t.smru with
  | Some m -> m.sprev <- Some node
  | None -> t.slru <- Some node);
  t.smru <- Some node

(* The key carries everything the SRSWOR draw is a function of — the
   cached set IS the set any request with these parameters would draw,
   which is what makes serving it bit-identical. *)
let sample_key ~relation ~seed ~n ~universe =
  Printf.sprintf "%s|srswor|n=%d|u=%d|seed=%d" relation n universe seed

let sample_indices t ~relation ~seed ~n ~universe draw =
  if t.sample_cap = 0 then draw ()
  else begin
    let key = sample_key ~relation ~seed ~n ~universe in
    Mutex.lock t.lock;
    match Hashtbl.find_opt t.sample_tbl key with
    | Some node ->
      t.sample_hits <- t.sample_hits + 1;
      s_unlink t node;
      s_push_front t node;
      Mutex.unlock t.lock;
      node.sindices
    | None -> (
      (* Draw outside the lock: a concurrent same-key request may draw
         too, but both draws are the identical array, so whoever
         publishes first wins and the other shares it. *)
      Mutex.unlock t.lock;
      let arr = draw () in
      Mutex.lock t.lock;
      match Hashtbl.find_opt t.sample_tbl key with
      | Some node ->
        t.sample_misses <- t.sample_misses + 1;
        s_unlink t node;
        s_push_front t node;
        Mutex.unlock t.lock;
        node.sindices
      | None ->
        let node = { skey = key; sindices = arr; sprev = None; snext = None } in
        Hashtbl.replace t.sample_tbl key node;
        s_push_front t node;
        t.sample_misses <- t.sample_misses + 1;
        (if Hashtbl.length t.sample_tbl > t.sample_cap then
           match t.slru with
           | Some victim ->
             s_unlink t victim;
             Hashtbl.remove t.sample_tbl victim.skey;
             t.sample_evictions <- t.sample_evictions + 1
           | None -> ());
        Mutex.unlock t.lock;
        arr)
  end

let index_source t ~relation ~seed : Raestat.Estplan.index_source =
 fun ~n ~universe draw -> sample_indices t ~relation ~seed ~n ~universe draw

let sample_stats t =
  Mutex.lock t.lock;
  let stats =
    {
      hits = t.sample_hits;
      misses = t.sample_misses;
      evictions = t.sample_evictions;
      size = Hashtbl.length t.sample_tbl;
      capacity = t.sample_cap;
    }
  in
  Mutex.unlock t.lock;
  stats

(* --- paged views ------------------------------------------------------ *)

(* --- maintained streams ----------------------------------------------- *)

let find_stream_entry t name =
  Mutex.lock t.streams_lock;
  let entry = Hashtbl.find_opt t.streams name in
  Mutex.unlock t.streams_lock;
  entry

let has_stream t name = Option.is_some (find_stream_entry t name)

(* Find-or-create under the table lock: creation is single-flight, so
   converting a bound static relation (inserting every tuple through
   the maintenance path, in relation order) happens exactly once.
   Creation parameters are fixed at first touch; later writers share
   the existing stream whatever parameters they asked for. *)
let ensure_stream t ~relation ~seed ~capacity ?bernoulli ?window ~schema () =
  Mutex.lock t.streams_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.streams_lock)
    (fun () ->
      match Hashtbl.find_opt t.streams relation with
      | Some _ -> (false, Metrics.zero)
      | None ->
        let schema =
          match
            (Relational.Catalog.find_opt t.catalog relation, schema)
          with
          | Some bound, _ -> Relational.Relation.schema bound
          | None, Some schema -> schema
          | None, None ->
            failwith
              (Printf.sprintf
                 "stream %S: relation is not bound and the request carries no tuples to infer a schema from"
                 relation)
        in
        let stream_sink = Metrics.create () in
        let stream =
          Raestat.Stream_relation.create ~capacity ?bernoulli ?window
            ~metrics:stream_sink ~seed ~schema ()
        in
        (match Relational.Catalog.find_opt t.catalog relation with
        | Some bound ->
          ignore
            (Raestat.Stream_relation.ingest stream
               ~inserts:(Relational.Relation.tuples bound)
               ~deletes:[||])
        | None -> ());
        Hashtbl.replace t.streams relation
          { stream; stream_lock = Mutex.create (); stream_sink };
        (* The conversion work (ingesting a bound relation) is the
           creating request's to account for. *)
        (true, Metrics.snapshot stream_sink))

(* Run [f] on the stream under its lock; returns [f]'s result plus the
   maintenance-counter delta the call produced, for attribution to the
   calling request's sink. *)
let with_stream t name f =
  match find_stream_entry t name with
  | None -> failwith (Printf.sprintf "no maintained stream for relation %S" name)
  | Some entry ->
    Mutex.lock entry.stream_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock entry.stream_lock)
      (fun () ->
        let before = Metrics.snapshot entry.stream_sink in
        let result = f entry.stream in
        (result, Metrics.diff (Metrics.snapshot entry.stream_sink) before))

let stream_infos t =
  Mutex.lock t.streams_lock;
  let entries = Hashtbl.fold (fun name entry acc -> (name, entry) :: acc) t.streams [] in
  Mutex.unlock t.streams_lock;
  entries
  |> List.map (fun (name, entry) ->
         Mutex.lock entry.stream_lock;
         let module SR = Raestat.Stream_relation in
         let info =
           {
             stream_name = name;
             stream_epoch = SR.epoch entry.stream;
             stream_population = SR.population entry.stream;
             stream_sample_size = SR.sample_size entry.stream;
             stream_fill_ratio = SR.fill_ratio entry.stream;
             stream_needs_rescan = SR.needs_rescan entry.stream;
           }
         in
         Mutex.unlock entry.stream_lock;
         info)
  |> List.sort (fun a b -> String.compare a.stream_name b.stream_name)

(* --- paged views ------------------------------------------------------ *)

let with_paged t name f =
  match Hashtbl.find_opt t.paged_tbl name with
  | None ->
    (* Same message as Catalog.find, same error contract. *)
    failwith (Printf.sprintf "Catalog.find: unknown relation %S" name)
  | Some entry ->
    Mutex.lock entry.io_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock entry.io_lock) (fun () -> f entry.paged)
