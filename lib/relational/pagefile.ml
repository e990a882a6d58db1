(* Binary pagefile format, version 1.

   Layout:
     header   8 bytes   magic "RAFv" + version (u32 LE)
     pages    page 0, page 1, ... (offsets in the directory)
     footer   schema, string dictionary, page directory, cardinality,
              page capacity (all integers LE)
     trailer  12 bytes  footer offset (u64 LE) + magic "RAFe"

   Page encoding, per attribute in schema order:
     null bitset   ceil(rows/8) bytes, bit r set = row r is NULL
     data          int/float: 8 bytes per row (int64 / IEEE bits LE)
                   bool: ceil(rows/8) bitset
                   string: 4 bytes per row (dictionary code, u32 LE)
                   null-typed: no data segment *)

external pread_stub : Unix.file_descr -> Bytes.t -> int -> int -> int64 -> int
  = "raestat_pread"

external fadvise_willneed : Unix.file_descr -> int64 -> int -> unit
  = "raestat_fadvise_willneed"

let header_magic = "RAFv"
let trailer_magic = "RAFe"
let version = 1
let header_size = 8
let trailer_size = 12
let default_page_capacity = 256

(* Pages fetched by one coalesced pread are bounded so a full scan of a
   large file never allocates one file-sized buffer. *)
let max_batch_pages = 64

let corrupt path what = failwith (Printf.sprintf "Pagefile: %s: %s" path what)

(* --- encoding helpers ------------------------------------------------ *)

let ty_code = function
  | Value.Tnull -> 0
  | Value.Tbool -> 1
  | Value.Tint -> 2
  | Value.Tfloat -> 3
  | Value.Tstr -> 4

let ty_of_code path = function
  | 0 -> Value.Tnull
  | 1 -> Value.Tbool
  | 2 -> Value.Tint
  | 3 -> Value.Tfloat
  | 4 -> Value.Tstr
  | c -> corrupt path (Printf.sprintf "corrupt footer (unknown type code %d)" c)

let add_u32 buffer n = Buffer.add_int32_le buffer (Int32.of_int n)
let add_u64 buffer n = Buffer.add_int64_le buffer (Int64.of_int n)

let bitset_bytes rows = (rows + 7) / 8

let set_bit bytes r = Bytes.unsafe_set bytes (r lsr 3)
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bytes (r lsr 3)) lor (1 lsl (r land 7))))

let get_bit bytes ofs r =
  Char.code (Bytes.unsafe_get bytes (ofs + (r lsr 3))) land (1 lsl (r land 7)) <> 0

(* --- writer ---------------------------------------------------------- *)

type writer = {
  oc : out_channel;
  w_path : string;
  w_schema : Schema.t;
  w_attrs : Schema.attribute array;
  w_page_capacity : int;
  page_buf : Tuple.t array;
  mutable fill : int;
  mutable w_cardinality : int;
  dict : (string, int) Hashtbl.t;
  mutable dict_rev : string list;
  mutable dict_size : int;
  mutable dir_rev : (int * int * int) list; (* offset, length, rows *)
}

let create_writer ?(page_capacity = default_page_capacity) path schema =
  if page_capacity <= 0 then
    invalid_arg "Pagefile: page_capacity must be positive";
  let oc = open_out_bin path in
  output_string oc header_magic;
  let header = Buffer.create 4 in
  add_u32 header version;
  Buffer.output_buffer oc header;
  {
    oc;
    w_path = path;
    w_schema = schema;
    w_attrs = Array.of_list (Schema.attributes schema);
    w_page_capacity = page_capacity;
    page_buf = Array.make page_capacity [||];
    fill = 0;
    w_cardinality = 0;
    dict = Hashtbl.create 64;
    dict_rev = [];
    dict_size = 0;
    dir_rev = [];
  }

let intern w s =
  match Hashtbl.find_opt w.dict s with
  | Some code -> code
  | None ->
    let code = w.dict_size in
    Hashtbl.add w.dict s code;
    w.dict_rev <- s :: w.dict_rev;
    w.dict_size <- code + 1;
    code

let encoding_error w attr v =
  failwith
    (Printf.sprintf "Pagefile: %s: cannot encode %s value in %s column %s" w.w_path
       (Value.ty_to_string (Value.type_of v))
       (Value.ty_to_string attr.Schema.ty)
       attr.Schema.name)

let flush_page w =
  if w.fill > 0 then begin
    let rows = w.fill in
    let buffer = Buffer.create 4096 in
    Array.iteri
      (fun a attr ->
        let nulls = Bytes.make (bitset_bytes rows) '\000' in
        for r = 0 to rows - 1 do
          if w.page_buf.(r).(a) = Value.Null then set_bit nulls r
        done;
        Buffer.add_bytes buffer nulls;
        (match attr.Schema.ty with
        | Value.Tnull -> ()
        | Value.Tbool ->
          let bits = Bytes.make (bitset_bytes rows) '\000' in
          for r = 0 to rows - 1 do
            match w.page_buf.(r).(a) with
            | Value.Bool true -> set_bit bits r
            | Value.Bool false | Value.Null -> ()
            | v -> encoding_error w attr v
          done;
          Buffer.add_bytes buffer bits
        | Value.Tint ->
          for r = 0 to rows - 1 do
            match w.page_buf.(r).(a) with
            | Value.Int i -> Buffer.add_int64_le buffer (Int64.of_int i)
            | Value.Null -> Buffer.add_int64_le buffer 0L
            | v -> encoding_error w attr v
          done
        | Value.Tfloat ->
          for r = 0 to rows - 1 do
            match w.page_buf.(r).(a) with
            | Value.Float f -> Buffer.add_int64_le buffer (Int64.bits_of_float f)
            | Value.Null -> Buffer.add_int64_le buffer 0L
            | v -> encoding_error w attr v
          done
        | Value.Tstr ->
          for r = 0 to rows - 1 do
            match w.page_buf.(r).(a) with
            | Value.Str s -> add_u32 buffer (intern w s)
            | Value.Null -> add_u32 buffer 0
            | v -> encoding_error w attr v
          done))
      w.w_attrs;
    let offset = pos_out w.oc in
    Buffer.output_buffer w.oc buffer;
    w.dir_rev <- (offset, Buffer.length buffer, rows) :: w.dir_rev;
    Array.fill w.page_buf 0 rows [||];
    w.fill <- 0
  end

let append w tuple =
  if Array.length tuple <> Array.length w.w_attrs then
    failwith
      (Printf.sprintf "Pagefile: %s: tuple arity %d, schema arity %d" w.w_path
         (Array.length tuple) (Array.length w.w_attrs));
  w.page_buf.(w.fill) <- tuple;
  w.fill <- w.fill + 1;
  w.w_cardinality <- w.w_cardinality + 1;
  if w.fill = w.w_page_capacity then flush_page w

let close_writer w =
  flush_page w;
  let footer_offset = pos_out w.oc in
  let buffer = Buffer.create 1024 in
  add_u32 buffer (Array.length w.w_attrs);
  Array.iter
    (fun attr ->
      add_u32 buffer (String.length attr.Schema.name);
      Buffer.add_string buffer attr.Schema.name;
      Buffer.add_int8 buffer (ty_code attr.Schema.ty))
    w.w_attrs;
  add_u32 buffer w.dict_size;
  List.iter
    (fun s ->
      add_u32 buffer (String.length s);
      Buffer.add_string buffer s)
    (List.rev w.dict_rev);
  let directory = List.rev w.dir_rev in
  add_u32 buffer (List.length directory);
  List.iter
    (fun (offset, length, rows) ->
      add_u64 buffer offset;
      add_u64 buffer length;
      add_u32 buffer rows)
    directory;
  add_u64 buffer w.w_cardinality;
  add_u32 buffer w.w_page_capacity;
  Buffer.output_buffer w.oc buffer;
  let trailer = Buffer.create trailer_size in
  add_u64 trailer footer_offset;
  Buffer.add_string trailer trailer_magic;
  Buffer.output_buffer w.oc trailer;
  close_out w.oc

(* Writers are atomic: bytes go to [path ^ ".tmp"] and the finished
   file is renamed over [path] only after a successful close, so a
   failure mid-write (bad CSV row, disk full, crash) never leaves a
   partial — or worse, silently truncated — .raf where a reader
   expects a valid one.  The rename is within one directory, so it is
   atomic on POSIX filesystems. *)

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

(* Close and rename into place; on failure drop the temporary. *)
let commit_writer w ~tmp ~path =
  (match close_writer w with
  | () -> ()
  | exception e ->
    remove_quietly tmp;
    raise e);
  match Sys.rename tmp path with
  | () -> ()
  | exception e ->
    remove_quietly tmp;
    raise e

let with_writer ?page_capacity path schema f =
  let tmp = path ^ ".tmp" in
  let w = create_writer ?page_capacity tmp schema in
  match f w with
  | result ->
    commit_writer w ~tmp ~path;
    result
  | exception e ->
    close_out_noerr w.oc;
    remove_quietly tmp;
    raise e

let write_relation ?page_capacity path relation =
  with_writer ?page_capacity path (Relation.schema relation) @@ fun w ->
  Relation.iter (fun tuple -> append w tuple) relation

let pack_csv ?page_capacity ~src ~dst () =
  let tmp = dst ^ ".tmp" in
  let writer = ref None in
  let count = ref 0 in
  (try
     Csv.iter_file src
       ~header:(fun schema -> writer := Some (create_writer ?page_capacity tmp schema))
       ~row:(fun tuple ->
         match !writer with
         | Some w ->
           append w tuple;
           incr count
         | None -> assert false)
   with e ->
     (match !writer with
     | Some w ->
       close_out_noerr w.oc;
       remove_quietly tmp
     | None -> ());
     raise e);
  (match !writer with
  | Some w -> commit_writer w ~tmp ~path:dst
  | None -> failwith "Csv: empty input");
  !count

(* --- page cache (clock eviction) ------------------------------------- *)

type cache = {
  capacity : int;
  slot_page : int array; (* page held by each slot, -1 = empty *)
  slot_tuples : Tuple.t array array;
  refbit : bool array;
  by_page : (int, int) Hashtbl.t; (* page -> slot *)
  mutable hand : int;
}

let cache_create capacity =
  {
    capacity;
    slot_page = Array.make capacity (-1);
    slot_tuples = Array.make capacity [||];
    refbit = Array.make capacity false;
    by_page = Hashtbl.create capacity;
    hand = 0;
  }

let cache_find cache page =
  match Hashtbl.find_opt cache.by_page page with
  | None -> None
  | Some slot ->
    cache.refbit.(slot) <- true;
    Some cache.slot_tuples.(slot)

let cache_insert cache page tuples =
  let rec victim () =
    let slot = cache.hand in
    cache.hand <- (cache.hand + 1) mod cache.capacity;
    if cache.refbit.(slot) then begin
      cache.refbit.(slot) <- false;
      victim ()
    end
    else slot
  in
  let slot = victim () in
  if cache.slot_page.(slot) >= 0 then Hashtbl.remove cache.by_page cache.slot_page.(slot);
  cache.slot_page.(slot) <- page;
  cache.slot_tuples.(slot) <- tuples;
  cache.refbit.(slot) <- true;
  Hashtbl.replace cache.by_page page slot

(* --- reader ----------------------------------------------------------- *)

type page_entry = { p_offset : int; p_length : int; p_rows : int }

type t = {
  fd : Unix.file_descr;
  r_path : string;
  r_schema : Schema.t;
  r_attrs : Schema.attribute array;
  r_dict : string array;
  directory : page_entry array;
  r_cardinality : int;
  r_page_capacity : int;
  cache : cache;
  mutable closed : bool;
}

let pread_exact t buf ofs len fileofs =
  let got = pread_stub t.fd buf ofs len (Int64.of_int fileofs) in
  if got < len then corrupt t.r_path "truncated page data"

(* Sequential cursor over footer bytes with bounds checking. *)
type cursor = { c_bytes : Bytes.t; c_path : string; mutable c_pos : int }

let cursor_need c n =
  if c.c_pos + n > Bytes.length c.c_bytes then corrupt c.c_path "truncated footer"

let read_u32 c =
  cursor_need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.c_bytes c.c_pos) in
  c.c_pos <- c.c_pos + 4;
  if v < 0 then corrupt c.c_path "corrupt footer (negative length)";
  v

let read_u64 c =
  cursor_need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.c_bytes c.c_pos) in
  c.c_pos <- c.c_pos + 8;
  if v < 0 then corrupt c.c_path "corrupt footer (negative offset)";
  v

let read_u8 c =
  cursor_need c 1;
  let v = Char.code (Bytes.get c.c_bytes c.c_pos) in
  c.c_pos <- c.c_pos + 1;
  v

let read_str c =
  let n = read_u32 c in
  cursor_need c n;
  let s = Bytes.sub_string c.c_bytes c.c_pos n in
  c.c_pos <- c.c_pos + n;
  s

(* A signal landing mid-syscall (interval timers, SIGCHLD from a
   harness, a resize) makes open/fstat fail with EINTR; the call is
   safe to retry.  The pread stub handles its own EINTR in C. *)
let rec retry_eintr f =
  match f () with
  | value -> value
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let openfile ?(cache_pages = 64) path =
  if cache_pages <= 0 then invalid_arg "Pagefile: cache_pages must be positive";
  let fd =
    try retry_eintr (fun () -> Unix.openfile path [ Unix.O_RDONLY ] 0)
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  match
    let size = (retry_eintr (fun () -> Unix.fstat fd)).Unix.st_size in
    if size < header_size + trailer_size then
      corrupt path "truncated (too short to be a pagefile)";
    let scratch = Bytes.create header_size in
    let got = pread_stub fd scratch 0 header_size 0L in
    if got < header_size then corrupt path "truncated (too short to be a pagefile)";
    if Bytes.sub_string scratch 0 4 <> header_magic then
      corrupt path "bad magic (not a raestat pagefile)";
    let file_version = Int32.to_int (Bytes.get_int32_le scratch 4) in
    if file_version <> version then
      corrupt path
        (Printf.sprintf "unsupported format version %d (expected %d)" file_version
           version);
    let trailer = Bytes.create trailer_size in
    let got = pread_stub fd trailer 0 trailer_size (Int64.of_int (size - trailer_size)) in
    if got < trailer_size then corrupt path "truncated or corrupt (bad trailer)";
    if Bytes.sub_string trailer 8 4 <> trailer_magic then
      corrupt path "truncated or corrupt (bad trailer)";
    let footer_offset = Int64.to_int (Bytes.get_int64_le trailer 0) in
    let footer_length = size - trailer_size - footer_offset in
    if footer_offset < header_size || footer_length < 0 then
      corrupt path "truncated or corrupt (bad trailer)";
    let footer = Bytes.create footer_length in
    let got = pread_stub fd footer 0 footer_length (Int64.of_int footer_offset) in
    if got < footer_length then corrupt path "truncated footer";
    let c = { c_bytes = footer; c_path = path; c_pos = 0 } in
    let arity = read_u32 c in
    let attrs =
      Array.init arity (fun _ ->
          let name = read_str c in
          let ty = ty_of_code path (read_u8 c) in
          { Schema.name; ty })
    in
    let dict = Array.init (read_u32 c) (fun _ -> read_str c) in
    let directory =
      Array.init (read_u32 c) (fun _ ->
          let p_offset = read_u64 c in
          let p_length = read_u64 c in
          let p_rows = read_u32 c in
          if p_offset + p_length > footer_offset then
            corrupt path "corrupt footer (page outside data region)";
          { p_offset; p_length; p_rows })
    in
    let cardinality = read_u64 c in
    let page_capacity = read_u32 c in
    if page_capacity <= 0 then corrupt path "corrupt footer (bad page capacity)";
    {
      fd;
      r_path = path;
      r_schema = Schema.make (Array.to_list attrs);
      r_attrs = attrs;
      r_dict = dict;
      directory;
      r_cardinality = cardinality;
      r_page_capacity = page_capacity;
      cache = cache_create cache_pages;
      closed = false;
    }
  with
  | t -> t
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let path t = t.r_path
let schema t = t.r_schema
let cardinality t = t.r_cardinality
let page_count t = Array.length t.directory
let page_capacity t = t.r_page_capacity

let check_page t i =
  if i < 0 || i >= Array.length t.directory then
    invalid_arg
      (Printf.sprintf "Pagefile: page %d out of range [0, %d)" i
         (Array.length t.directory))

let page_rows t i =
  check_page t i;
  t.directory.(i).p_rows

let data_bytes t =
  Array.fold_left (fun acc e -> acc + e.p_length) 0 t.directory

(* Decode one page from [bytes] starting at [ofs] into fresh tuples. *)
let decode_page t bytes ofs rows =
  let arity = Array.length t.r_attrs in
  let tuples = Array.init rows (fun _ -> Array.make arity Value.Null) in
  let pos = ref ofs in
  Array.iteri
    (fun a attr ->
      let nulls_ofs = !pos in
      pos := !pos + bitset_bytes rows;
      (match attr.Schema.ty with
      | Value.Tnull -> ()
      | Value.Tbool ->
        let bits_ofs = !pos in
        pos := !pos + bitset_bytes rows;
        for r = 0 to rows - 1 do
          if not (get_bit bytes nulls_ofs r) then
            tuples.(r).(a) <- Value.Bool (get_bit bytes bits_ofs r)
        done
      | Value.Tint ->
        for r = 0 to rows - 1 do
          if not (get_bit bytes nulls_ofs r) then
            tuples.(r).(a) <-
              Value.Int (Int64.to_int (Bytes.get_int64_le bytes (!pos + (8 * r))))
        done;
        pos := !pos + (8 * rows)
      | Value.Tfloat ->
        for r = 0 to rows - 1 do
          if not (get_bit bytes nulls_ofs r) then
            tuples.(r).(a) <-
              Value.Float (Int64.float_of_bits (Bytes.get_int64_le bytes (!pos + (8 * r))))
        done;
        pos := !pos + (8 * rows)
      | Value.Tstr ->
        for r = 0 to rows - 1 do
          if not (get_bit bytes nulls_ofs r) then begin
            let code = Int32.to_int (Bytes.get_int32_le bytes (!pos + (4 * r))) in
            if code < 0 || code >= Array.length t.r_dict then
              corrupt t.r_path "corrupt page (dictionary code out of range)";
            tuples.(r).(a) <- Value.Str t.r_dict.(code)
          end
        done;
        pos := !pos + (4 * rows)))
    t.r_attrs;
  tuples

(* Parsed [RAESTAT_MEMORY_CAP] (bytes), if set and a positive integer. *)
let memory_cap () =
  match Sys.getenv_opt "RAESTAT_MEMORY_CAP" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some cap when cap > 0 -> Some cap
    | _ -> failwith (Printf.sprintf "Pagefile: RAESTAT_MEMORY_CAP=%S is not a positive byte count" s))

let read_pages ?(metrics = Obs.Metrics.noop) t indices ~f =
  if t.closed then failwith (Printf.sprintf "Pagefile: %s: file is closed" t.r_path);
  Array.iter (fun i -> check_page t i) indices;
  let sorted = Array.copy indices in
  Array.sort compare sorted;
  (* Unique requested pages, increasing. *)
  let requested = ref [] in
  Array.iter
    (fun i ->
      match !requested with
      | j :: _ when j = i -> ()
      | _ -> requested := i :: !requested)
    sorted;
  let requested = Array.of_list (List.rev !requested) in
  (* Partition into cache hits and misses — capturing hit pages now,
     before run fetches can evict them — then coalesce the misses into
     adjacent runs (bounded by [max_batch_pages]) and fetch each run
     with one positioned read. *)
  let serve = Hashtbl.create (max 8 (Array.length requested)) in
  let missing_rev = ref [] in
  Array.iter
    (fun i ->
      match cache_find t.cache i with
      | Some tuples ->
        Obs.Metrics.add_page_cache_hits metrics 1;
        Hashtbl.replace serve i tuples
      | None -> missing_rev := i :: !missing_rev)
    requested;
  let missing = List.rev !missing_rev in
  let rec runs = function
    | [] -> []
    | first :: rest ->
      let rec extend last n = function
        | next :: rest when next = last + 1 && n < max_batch_pages ->
          extend next (n + 1) rest
        | rest -> (last, rest)
      in
      let last, rest = extend first 1 rest in
      (first, last) :: runs rest
  in
  List.iter
    (fun (first, last) ->
      let start_ofs = t.directory.(first).p_offset in
      let last_entry = t.directory.(last) in
      let length = last_entry.p_offset + last_entry.p_length - start_ofs in
      fadvise_willneed t.fd (Int64.of_int start_ofs) length;
      let buf = Bytes.create length in
      pread_exact t buf 0 length start_ofs;
      Obs.Metrics.add_pages metrics (last - first + 1);
      Obs.Metrics.add_bytes_read metrics length;
      Obs.Metrics.add_io_batches metrics 1;
      for i = first to last do
        let entry = t.directory.(i) in
        let tuples = decode_page t buf (entry.p_offset - start_ofs) entry.p_rows in
        Hashtbl.replace serve i tuples;
        cache_insert t.cache i tuples
      done)
    (runs missing);
  Array.iter (fun i -> f i (Hashtbl.find serve i)) requested

let to_relation ?metrics t =
  (match memory_cap () with
  | Some cap when data_bytes t > cap ->
    failwith
      (Printf.sprintf
         "Pagefile: %s: full materialization needs %d bytes of page data but \
          RAESTAT_MEMORY_CAP=%d; estimate with page sampling instead"
         t.r_path (data_bytes t) cap)
  | _ -> ());
  let pages = Array.make (page_count t) [||] in
  read_pages ?metrics t
    (Array.init (page_count t) (fun i -> i))
    ~f:(fun i tuples -> pages.(i) <- tuples);
  Relation.of_array t.r_schema (Array.concat (Array.to_list pages))
