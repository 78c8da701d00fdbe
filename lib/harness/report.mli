(** Plain-text table rendering for benchmark output. Tables are also
    written as CSV files when the MP_BENCH_CSV_DIR environment variable
    names a directory. *)

val table : title:string -> header:string list -> string list list -> unit
val fmt_throughput : float -> string

(** Format an [alloc_words_per_op] telemetry value for a table cell. *)
val fmt_words_per_op : float -> string
