module Relation = Relational.Relation
module Bitset = Relational.Column.Bitset
module Metrics = Obs.Metrics

type id = Backing_sample.id

type counts = { first_id : id; inserted : int; deleted : int }

type t = {
  schema : Relational.Schema.t;
  rng : Sampling.Rng.t;
  (* The live population, exactly, as an id-ordered log: slot [k <
     len] holds id [ids.(k)] and its tuple [rows.(k)], and it is live
     exactly when bit [k] of [alive] is set.  Ids are issued by the
     backing sample (sequential from 0), so appends keep the log
     ascending and liveness checks here are authoritative where the
     sample alone could only guess.  A deleted slot keeps its id and
     tuple until compaction; slots at [len] and beyond hold [[||]] and
     clear bits, and [alive] is as long as [ids].  No row below [len]
     is ever rewritten ([append] writes at [len], [remove] clears a
     bit, [compact] fills fresh arrays), so a snapshot can read [rows]
     as it stands through its own copy of [alive]. *)
  mutable ids : id array;
  mutable rows : Relational.Tuple.t array;
  mutable alive : Bitset.t;
  mutable len : int;
  mutable live : int;
  backing : Backing_sample.t;
  bernoulli : Relational.Tuple.t Sampling.Bernoulli.maintained option;
  window : Relational.Tuple.t Sampling.Window.t option;
  mutable epoch : int;
  (* Epoch-memoized materialization for the exact/query paths: rebuilt
     at most once per epoch. *)
  mutable snap : (int * Relation.t) option;
  metrics : Metrics.t;
}

let create ?(capacity = 1024) ?bernoulli ?window ?(window_chains = 1)
    ?(metrics = Metrics.noop) ~seed ~schema () =
  let rng = Sampling.Rng.create ~seed () in
  {
    schema;
    rng;
    ids = [||];
    rows = [||];
    alive = Bitset.create 0;
    len = 0;
    live = 0;
    backing = Backing_sample.create ~metrics rng ~capacity ~schema;
    bernoulli =
      Option.map (fun p -> Sampling.Bernoulli.maintained ~metrics rng ~p ()) bernoulli;
    window =
      Option.map
        (fun w -> Sampling.Window.create ~k:window_chains ~metrics rng ~window:w ())
        window;
    epoch = 0;
    snap = None;
    metrics;
  }

let schema t = t.schema

let epoch t = t.epoch

let population t = t.live

let sample_size t = Backing_sample.sample_size t.backing

let capacity t = Backing_sample.capacity t.backing

let fill_ratio t = Backing_sample.fill_ratio t.backing

let needs_rescan ?min_ratio t = Backing_sample.needs_rescan ?min_ratio t.backing

(* --- the log ------------------------------------------------------------ *)

(* Array length for [n] slots with room to grow. *)
let room n = max 16 (2 * n)

(* The slot holding [id], live or dead; -1 when the log has none. *)
let find t id =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let k = t.ids.(mid) in
      if k = id then mid else if k < id then search (mid + 1) hi else search lo mid
  in
  search 0 t.len

let mem t id =
  let k = find t id in
  k >= 0 && Bitset.get t.alive k

let append t id tuple =
  if t.len = Array.length t.ids then begin
    let ids = Array.make (room t.len) 0 and rows = Array.make (room t.len) [||] in
    Array.blit t.ids 0 ids 0 t.len;
    Array.blit t.rows 0 rows 0 t.len;
    t.ids <- ids;
    t.rows <- rows;
    t.alive <- Bitset.resize t.alive (room t.len)
  end;
  t.ids.(t.len) <- id;
  t.rows.(t.len) <- tuple;
  Bitset.set t.alive t.len;
  t.len <- t.len + 1;
  t.live <- t.live + 1

(* Copy the live slots, in order, into fresh arrays sized for them:
   snapshots reading the old [rows] keep reading what they read. *)
let compact t =
  let ids = Array.make (room t.live) 0 and rows = Array.make (room t.live) [||] in
  let alive = Bitset.create (room t.live) in
  Array.iteri
    (fun j k ->
      ids.(j) <- t.ids.(k);
      rows.(j) <- t.rows.(k);
      Bitset.set alive j)
    (Bitset.positions ~count:t.live t.alive);
  t.ids <- ids;
  t.rows <- rows;
  t.alive <- alive;
  t.len <- t.live

(* Mark [id]'s slot dead; compact once dead slots outnumber live ones,
   so a delete costs O(log n) plus amortised O(1) slot copies. *)
let remove t id =
  let k = find t id in
  if k < 0 || not (Bitset.get t.alive k) then false
  else begin
    Bitset.clear t.alive k;
    t.live <- t.live - 1;
    if t.len - t.live > t.live then compact t;
    true
  end

(* --- writes ------------------------------------------------------------- *)

(* Every mutation invalidates the memoized materialization; sample
   maintenance already happened inside the callee. *)
let bump t =
  t.epoch <- t.epoch + 1;
  t.snap <- None

let insert_one t tuple =
  let id = Backing_sample.insert t.backing tuple in
  append t id tuple;
  Option.iter (fun m -> Sampling.Bernoulli.insert m ~id tuple) t.bernoulli;
  Option.iter (fun w -> Sampling.Window.add w tuple) t.window;
  id

let delete_one t id =
  if not (remove t id) then false
  else begin
    ignore (Backing_sample.delete t.backing id);
    Option.iter (fun m -> Sampling.Bernoulli.delete m ~id) t.bernoulli;
    true
  end

let insert t tuple =
  let id = insert_one t tuple in
  bump t;
  id

let delete t id =
  let deleted = delete_one t id in
  if deleted then bump t;
  deleted

let ingest t ~inserts ~deletes =
  let first_id = ref (-1) in
  Array.iter
    (fun tuple ->
      let id = insert_one t tuple in
      if !first_id < 0 then first_id := id)
    inserts;
  let deleted = Array.fold_left (fun n id -> if delete_one t id then n + 1 else n) 0 deletes in
  if Array.length inserts > 0 || deleted > 0 then bump t;
  { first_id = !first_id; inserted = Array.length inserts; deleted }

let rescan t =
  Backing_sample.rescan t.backing
    (Array.map (fun k -> (t.ids.(k), t.rows.(k))) (Bitset.positions ~count:t.live t.alive));
  bump t

(* --- reads -------------------------------------------------------------- *)

let estimate_count t predicate = Backing_sample.estimate_count t.backing predicate

let sample t = Backing_sample.sample t.backing

let bernoulli_p t = Option.map Sampling.Bernoulli.prob t.bernoulli

let bernoulli_size t = Option.map Sampling.Bernoulli.size t.bernoulli

let bernoulli_sample t =
  Option.map
    (fun m ->
      Relation.of_array t.schema (Array.map snd (Sampling.Bernoulli.contents m)))
    t.bernoulli

let window_size t = Option.map Sampling.Window.window t.window

let window_sample t = Option.map Sampling.Window.contents t.window

let snapshot t =
  match t.snap with
  | Some (epoch, relation) when epoch = t.epoch -> relation
  | _ ->
    Metrics.add_tuples t.metrics t.live;
    (* The log's rows under a copy of the first [len] liveness bits:
       no tuple is copied and no slot is visited until something reads
       the snapshot's rows, and a sample drawn from it reads only the
       rows it drew.  No [warm_view]: samples of a snapshot are read as
       relations of their own rather than in place on columns this
       epoch would encode whole. *)
    let relation =
      Relation.masked t.schema t.rows (Bitset.resize t.alive t.len) ~live:t.live
    in
    t.snap <- Some (t.epoch, relation);
    relation
