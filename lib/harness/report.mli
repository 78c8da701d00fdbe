(** Plain-text table rendering for benchmark output. Tables are also
    written as CSV files when the MP_BENCH_CSV_DIR environment variable
    names a directory. *)

val table : title:string -> header:string list -> string list list -> unit
val fmt_throughput : float -> string

(** Format an [alloc_words_per_op] telemetry value for a table cell. *)
val fmt_words_per_op : float -> string

(** {2 JSON rows} *)

(** A measured value; [Null] marks a field its producer could not
    measure. Non-finite floats render as [null] too. *)
type value = Int of int | Float of float | Bool of bool | Str of string | Ints of int list | Null

(** One JSON object: the fields its producer measured, in order. *)
type row = (string * value) list

(** [{"schema_version":3,"results":[...]}]: the one layout bench, soak
    and mpbench reports share. *)
val envelope : row list -> string

(** [lat_p50_ns], [lat_p99_ns], [lat_p999_ns] and [lat_max_ns] of a
    latency histogram; all [Null] when none was recorded. *)
val latency : Mp_util.Histogram.t option -> row
