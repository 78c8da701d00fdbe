(** Per-domain GC/allocation sampling around a measured window (see
    gcstat.ml). Shared by the harness runner and bench/main so the two
    measurement loops account for self-allocation identically. *)

type sample = { minor_words : float; promoted_words : float; major_words : float }

(** Sample the calling domain's own allocation counters
    ([Gc.minor_words], [Gc.counters]); other domains' allocation never
    shows up here. *)
val sample : unit -> sample

(** Words allocated between [before] and [after] (minor + direct major,
    promotions not double-counted). *)
val alloc_words : before:sample -> after:sample -> float

val promoted_words : before:sample -> after:sample -> float

(** Minor collections so far, process-wide: every minor collection stops
    every domain, so one delta on the sampling domain covers a window. *)
val minor_collections : unit -> int

(** All-zero sample, for initializing slots before workers report. *)
val zero : sample
