(** GC/allocation sampling around a measured window.

    Every word count is the calling domain's own, so each benchmark
    worker samples its own allocation before and after its timed loop and
    the deltas are summed across workers. Minor words come from
    [Gc.minor_words], which is exact; [Gc.counters] supplies promoted and
    major words but, on OCaml 5.1, advances its minor count only at a
    minor collection. The quick-stat record is no substitute: on OCaml
    5.1 it sums every domain's counters (and counts a domain that exits
    inside the window twice), so a per-worker sum of its deltas counts
    each word once per domain. Minor collections stop every domain at once, so they
    are one process-wide count read on the sampling domain. Both the
    harness runner and bench/main's hand-rolled loop (the pipe benchmark)
    go through this module, so the "how much did the measurement loop
    itself allocate" accounting cannot drift between them. *)

type sample = { minor_words : float; promoted_words : float; major_words : float }

let sample () =
  let _, promoted_words, major_words = Gc.counters () in
  { minor_words = Gc.minor_words (); promoted_words; major_words }

(** Words allocated between the two samples: minor allocations plus
    direct-to-major allocations, minus promotions (which [major_words]
    double-counts). *)
let alloc_words ~before ~after =
  after.minor_words -. before.minor_words
  +. (after.major_words -. before.major_words)
  -. (after.promoted_words -. before.promoted_words)

let promoted_words ~before ~after = after.promoted_words -. before.promoted_words
let minor_collections () = (Gc.quick_stat ()).Gc.minor_collections
let zero = { minor_words = 0.0; promoted_words = 0.0; major_words = 0.0 }
