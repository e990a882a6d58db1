(** Binary on-disk columnar relation storage ([.raf] pagefiles).

    The 1988 cost model charges estimators per page fetched; this module
    makes that cost physical.  A pagefile stores a relation as a run of
    fixed-capacity pages, each holding per-attribute segments:

    - a null bitset per attribute (one bit per row),
    - unboxed little-endian data: [int] and [float] as 8 bytes per row,
      [bool] as a bitset, [string] as 4-byte codes into a file-level
      dictionary ([null]-typed columns carry no data segment).

    A footer holds the schema, the string dictionary, the page directory
    (offset/length/rows per page), the cardinality and the page
    capacity; the file ends with an 8-byte footer offset plus magic so a
    reader can locate the footer without scanning.  Opening a file reads
    only the footer — pages are fetched on demand with [pread(2)].

    {2 Reader I/O discipline}

    {!read_pages} serves each requested page from a small bounded page
    cache (clock eviction) when possible; the missing pages are sorted,
    coalesced into maximal adjacent runs (capped at a fixed batch size)
    and each run is fetched with a single positioned read, preceded by a
    [posix_fadvise(WILLNEED)] hint where the platform supports it.  The
    [metrics] sink records {e real} I/O only: [pages_read]/[bytes_read]
    count pages fetched from disk, [io_batches] counts read syscalls,
    and cache-served pages count under [page_cache_hits].

    {2 Errors}

    All format violations raise [Failure] with a ["Pagefile: ..."]
    message (the CLI maps these to the [raestat: error:] / exit-3
    contract); opening a missing file raises [Sys_error] like the CSV
    loader. *)

(** {1 Writing} *)

(** Default tuples per page (256). *)
val default_page_capacity : int

(** [write_relation ?page_capacity path relation] encodes an in-memory
    relation.  The write is atomic: bytes stream to [path ^ ".tmp"],
    renamed over [path] only on success, so a failure never leaves a
    partial pagefile behind.
    @raise Invalid_argument if [page_capacity <= 0]. *)
val write_relation : ?page_capacity:int -> string -> Relation.t -> unit

(** [pack_csv ?page_capacity ~src ~dst] streams a CSV file into a
    pagefile without materializing the relation (memory is bounded by
    one page buffer plus the string dictionary).  Returns the number of
    tuples written.  Errors from the CSV layer propagate unchanged.
    Atomic like {!write_relation}: on failure [dst] is untouched and
    the [dst ^ ".tmp"] staging file is removed. *)
val pack_csv : ?page_capacity:int -> src:string -> dst:string -> unit -> int

(** {1 Reading} *)

type t

(** [openfile ?cache_pages path] validates the header and trailer and
    loads the footer; no page data is read.  [cache_pages] bounds the
    page cache (default 64 pages).
    @raise Failure on bad magic, unsupported version or truncation.
    @raise Sys_error if the file cannot be opened. *)
val openfile : ?cache_pages:int -> string -> t

val close : t -> unit

val path : t -> string

val schema : t -> Schema.t

val cardinality : t -> int

val page_count : t -> int

val page_capacity : t -> int

(** Number of tuples on page [i].
    @raise Invalid_argument if [i] is out of range. *)
val page_rows : t -> int -> int

(** Total bytes of page data (excludes header/footer): what a full
    materialization must fetch. *)
val data_bytes : t -> int

(** [read_pages ?metrics t indices ~f] decodes each requested page and
    passes it to [f page_index tuples], in increasing page order
    (duplicates visited once).  The tuple arrays are fresh unless served
    from the cache — treat them as read-only.
    @raise Invalid_argument if an index is out of range. *)
val read_pages :
  ?metrics:Obs.Metrics.t -> t -> int array -> f:(int -> Tuple.t array -> unit) -> unit

(** Full materialization through {!read_pages} (so the exact baseline
    pays the real page I/O).
    @raise Failure when [RAESTAT_MEMORY_CAP] is set and {!data_bytes}
    exceeds it: out-of-core datasets must use page sampling instead. *)
val to_relation : ?metrics:Obs.Metrics.t -> t -> Relation.t
