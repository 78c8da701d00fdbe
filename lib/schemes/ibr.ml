(** Interval-based reclamation (Wen et al., 2018) — 2GE variant.

    No per-reference PPVs at all: each thread maintains one epoch interval
    [lower, upper] covering the birth epochs of every node it may hold. A
    retired node is reclaimable if, for every thread, its whole lifetime
    lies outside the thread's interval. Cheaper than HE (an era change
    updates one interval, not every PPV); robust but not bounded.

    Built on the {!Smr_core.Reservation}/{!Smr_core.Reclaimer} kernel:
    the interval endpoints live in two single-slot reservation tables,
    snapshotted flat (per-tid) once per scan. *)

open Smr_core

type shared = {
  pool : Mempool.Core.t;
  counters : Counters.t;
  epoch : Epoch.t;
  lower : Reservation.t; (* one slot per thread, [idle_lower] = idle *)
  upper : Reservation.t; (* one slot per thread, [idle_upper] = idle *)
  epoch_freq : int;
  threads : int;
}

type thread = {
  shared : shared;
  tid : int;
  rsv : Reclaimer.t;
  snap_lo : Reservation.snapshot;
  snap_hi : Reservation.snapshot;
  mutable alloc_count : int;
  mutable in_batch : bool;
      (* batch window: keep one interval published across several ops *)
}

type t = { s : shared; per_thread : thread array }

let name = "ibr"

(* Idle interval: empty (lower = +inf, upper = -1) so every node passes. *)
let idle_lower = max_int
let idle_upper = -1

let properties =
  {
    Smr_intf.full_name = "Interval-based reclamation (2GE)";
    wasted_memory = Smr_intf.Robust;
    per_node_words = 3;
    self_contained = true;
    needs_per_reference_calls = false;
  }

let create ~pool ~threads (config : Config.t) =
  let config = Config.validate config in
  let counters = Counters.create ~threads in
  let s =
    { pool; counters; epoch = Epoch.create ~threads;
      lower = Reservation.create ~counters ~threads ~slots:1 ~empty:idle_lower;
      upper = Reservation.create ~counters ~threads ~slots:1 ~empty:idle_upper;
      epoch_freq = config.epoch_freq; threads }
  in
  (* One announcement (the interval) per thread, regardless of the
     configured per-reference slot count. *)
  let threshold = Reclaimer.scan_threshold ~empty_freq:config.empty_freq ~slots:1 ~threads in
  let per_thread =
    Array.init threads (fun tid ->
        { shared = s; tid; rsv = Reclaimer.create ~pool ~counters ~tid ~threshold;
          snap_lo = Reservation.snapshot_create (); snap_hi = Reservation.snapshot_create ();
          alloc_count = 0; in_batch = false })
  in
  { s; per_thread }

let thread t ~tid = t.per_thread.(tid)
let tid th = th.tid

(* Both endpoint writes publish under the one fence counted per
   operation start, as in the original. *)
let publish_interval th =
  let s = th.shared in
  let e = Epoch.current s.epoch in
  Reservation.set s.lower ~tid:th.tid ~refno:0 e;
  Reservation.set s.upper ~tid:th.tid ~refno:0 e;
  Counters.on_fence s.counters ~tid:th.tid;
  (* Interval published; a crash here pins [e, e] forever. *)
  Mp_util.Fault.hit ~tid:th.tid Mp_util.Fault.Protect_validate

let start_op th = if not th.in_batch then publish_interval th

let end_op th =
  if not th.in_batch then begin
    let s = th.shared in
    Reservation.clear s.lower ~tid:th.tid ~refno:0;
    Reservation.clear s.upper ~tid:th.tid ~refno:0
  end

(* Batch window: one interval published for the whole batch. The lower
   endpoint stays at the batch-start epoch (in-batch [start_op] must NOT
   re-publish it — that would drop protection of nodes whose birth
   precedes the new epoch) and the upper endpoint keeps stretching
   through [read], so the batch behaves exactly like one long operation:
   the robust bound already quantifies over operation length. *)
let batch_enter th =
  th.in_batch <- true;
  publish_interval th

let batch_exit th =
  th.in_batch <- false;
  let s = th.shared in
  Reservation.clear s.lower ~tid:th.tid ~refno:0;
  Reservation.clear s.upper ~tid:th.tid ~refno:0

let alloc th =
  th.alloc_count <- th.alloc_count + 1;
  if th.alloc_count mod th.shared.epoch_freq = 0 then Epoch.advance th.shared.epoch;
  let id = Mempool.Core.alloc th.shared.pool ~tid:th.tid in
  Mempool.Core.set_birth th.shared.pool id (Epoch.current th.shared.epoch);
  id

let alloc_with_index th ~index =
  let id = alloc th in
  Mempool.Core.set_index th.shared.pool id index;
  id

(** Reads stretch the upper endpoint to cover the target's birth epoch
    (the role of IBR's pointer tag); the update only fires when the epoch
    moved, so the overhead is per-operation, not per-dereference. Safety
    for retired chains follows from the structures' "a retired node points
    only at nodes retired no earlier" invariant, as in the IBR paper. *)
let read th ~refno:(_ : int) link =
  let s = th.shared in
  let w = Atomic.get link in
  if not (Handle.is_null w) then begin
    let birth = Mempool.Core.birth s.pool (Handle.id w) in
    let up = Reservation.slot s.upper ~tid:th.tid ~refno:0 in
    (* Own-slot mirror (Relaxed): only this thread writes its upper
       endpoint, so the plain read of its own last write is exact. The
       epoch poll below is heuristic (monotonic clock, stale = smaller)
       and is clamped by [max] against [birth], which came from an SC
       link read — the published endpoint is >= birth either way, which
       is all the interval-conflict filter needs. *)
    if Mp_util.Relaxed.get up < birth then begin
      Atomic.set up (max birth (Epoch.current_relaxed s.epoch));
      Counters.on_fence s.counters ~tid:th.tid;
      (* Stretched endpoint visible, target not yet dereferenced. *)
      Mp_util.Fault.hit ~tid:th.tid Mp_util.Fault.Protect_validate
    end
  end;
  w

let unprotect (_ : thread) ~refno:(_ : int) = ()
let update_lower_bound (_ : thread) (_ : int) = ()
let update_upper_bound (_ : thread) (_ : int) = ()
let handle_of th id = Mempool.Core.handle th.shared.pool id

(* Node [birth, death] conflicts with interval [lo, hi] unless
   death < lo or birth > hi; idle intervals are empty and never
   conflict. Flat snapshots index endpoint values by tid, so thread [t]'s
   interval is [lo.(t), hi.(t)]. Top-level, so judging a node builds no
   closure. *)
let rec conflict th ~birth ~death t =
  t < th.shared.threads
  && ((not
         (death < Array.unsafe_get th.snap_lo.Reservation.vals t
         || birth > Array.unsafe_get th.snap_hi.Reservation.vals t))
     || conflict th ~birth ~death (t + 1))

let keep th id =
  let pool = th.shared.pool in
  conflict th ~birth:(Mempool.Core.birth pool id) ~death:(Mempool.Core.death pool id) 0

let empty th =
  let s = th.shared in
  Reservation.snapshot_flat s.lower th.snap_lo;
  Reservation.snapshot_flat s.upper th.snap_hi;
  Reclaimer.scan th.rsv ~keep:(keep th);
  (* Arena detach barrier. Stamp-and-advance at full park; the arena is
     unmappable once every active reader's lower endpoint postdates the
     stamp (idle intervals are empty and filtered from the occupied-only
     snapshot): such readers started after every arena slot was freed,
     and parked slots are never re-allocated. *)
  Detach.poll s.pool
    ~stamp:(fun () ->
      let e = Epoch.current s.epoch in
      Epoch.advance s.epoch;
      e)
    ~quiescent:(fun ~base:_ ~size:_ ~stamp ->
      Reservation.snapshot s.lower th.snap_lo;
      let ok = ref true in
      for i = 0 to th.snap_lo.Reservation.len - 1 do
        if th.snap_lo.Reservation.vals.(i) <= stamp then ok := false
      done;
      !ok)

let retire th id =
  let s = th.shared in
  Mempool.Core.set_death s.pool id (Epoch.current s.epoch);
  Reclaimer.retire th.rsv id;
  if Reclaimer.scan_due th.rsv then empty th

let flush th = empty th

(* Crash recovery (see {!Smr_core.Smr_intf.S.adopt}): quarantining both
   endpoint tables resets the dead tid's interval to the empty idle
   interval (lower = +inf, upper = -1), so no node lifetime conflicts
   with it any more; the scan drains its retired backlog. The scheme's
   own in-batch flag is forced off too — the dead thread may have died
   inside a batch window. *)
let adopt t ~tid =
  Reservation.quarantine t.s.lower ~tid;
  Reservation.quarantine t.s.upper ~tid;
  let th = t.per_thread.(tid) in
  th.in_batch <- false;
  empty th;
  Reservation.adopt t.s.lower ~tid;
  Reservation.adopt t.s.upper ~tid

let stats t = Counters.stats t.s.counters
let pinning_tids t = Reservation.occupied_tids t.s.lower
