(** Margin pointers (the paper's contribution, Listing 10 in full).

    MP is pointer-based like HP, but each protection slot announces a key
    *index* instead of a node address: the slot protects every node whose
    index lies within [margin/2] of the announced value. Indices are
    assigned at insertion as the midpoint of the search interval's
    endpoints, so physically close nodes get close indices and one
    published margin pointer covers many consecutive dereferences — most
    reads are fence-free. Wasted memory stays bounded because an interval
    of width [margin] can only cover [margin] distinct indices, linked
    MP-protected nodes have unique indices, and an HE-style epoch filter
    caps how many dead same-index generations a stalled thread can pin.

    Index collisions (no free index between predecessor and successor) are
    stamped [USE_HP] and protected through a per-thread hazard-pointer
    table instead, so MP degrades gracefully to HP and never loses safety.
    Both announcement tables (margins and fallback hazards) and the
    retire-side batching live in the {!Smr_core.Reservation} /
    {!Smr_core.Reclaimer} kernel.

    Deviations from the paper's pseudocode (see DESIGN.md):
    - the margin-coverage fast path re-reads the global epoch, so a thread
      reliably *observes* epoch changes and switches to HPs (§4.3.2 says it
      must; Listing 10 only checks after publishing a new MP);
    - [empty] checks hazard-pointer slots unconditionally and applies the
      birth–death epoch filter only to the margin check (the filter is
      sound only for index-based protection);
    - the epoch filter uses the closed interval [birth, death]. *)

open Smr_core

let no_margin = -1
let no_hazard = -1
let use_hp = Config.use_hp
let precision_range = 1 lsl Handle.precision

type shared = {
  pool : Mempool.Core.t;
  counters : Counters.t;
  epoch : Epoch.t;
  mps : Reservation.t; (* announced indices, [no_margin] = empty *)
  hps : Reservation.t; (* fallback node ids, [no_hazard] = empty *)
  margin : int;
  max_index : int;
  index_policy : Config.index_policy;
  epoch_freq : int;
  n_slots : int;
}

type thread = {
  shared : shared;
  tid : int;
  rng : Mp_util.Rng.t; (* for the Randomized index policy *)
  rsv : Reclaimer.t;
  mutable unlink_count : int;
  mutable lower_bound : int; (* -1 = not reported this operation *)
  mutable upper_bound : int; (* -1 = not reported this operation *)
  mutable local_epoch : int;
  mutable use_hp_mode : bool; (* epoch moved mid-operation: protect with HPs *)
  mutable in_batch : bool;
      (* batch window: margins, hazards and the epoch announcement
         persist across the ops of the batch; end-of-op teardown is
         deferred to [batch_exit] *)
  (* Thread-local mirrors of this thread's own slots. Only the owner
     writes its slots, so the mirrors are exact; the read fast path tests
     them with plain loads instead of re-deriving coverage from the
     atomics. cover_lo/cover_hi hold the inclusive idx16 range whose whole
     precision range fits inside the published margin (empty when
     lo > hi); hp_mirror holds the protected node id or -1. *)
  cover_lo : int array;
  cover_hi : int array;
  hp_mirror : int array;
  (* Reusable scan buffers: margin and hazard snapshots plus the paired
     per-thread epoch announcements. *)
  mp_snap : Reservation.snapshot;
  hp_snap : Reservation.snapshot;
  epoch_snap : int array;
  (* Per-pass margin table, rebuilt by [empty] from the snapshots: entry
     i holds snapshot margin i's idx16 coverage interval and its owner's
     announced epoch, so judging a node costs two compares per margin.
     Reused across passes; grows only with the snapshot buffer. *)
  mutable tab_lo : int array;
  mutable tab_hi : int array;
  mutable tab_epoch : int array;
  mutable tab_len : int;
}

type t = {
  s : shared;
  per_thread : thread array;
}

let name = "mp"

let properties =
  {
    Smr_intf.full_name = "Margin pointers";
    wasted_memory = Smr_intf.Bounded;
    per_node_words = 3;
    self_contained = true;
    needs_per_reference_calls = true;
  }

let create ~pool ~threads (config : Config.t) =
  let config = Config.validate config in
  let counters = Counters.create ~threads in
  let s =
    {
      pool;
      counters;
      epoch = Epoch.create ~threads;
      mps = Reservation.create ~counters ~threads ~slots:config.slots ~empty:no_margin;
      hps = Reservation.create ~counters ~threads ~slots:config.slots ~empty:no_hazard;
      margin = config.margin;
      max_index = config.max_index;
      index_policy = config.index_policy;
      epoch_freq = config.epoch_freq;
      n_slots = config.slots;
    }
  in
  (* Two announcement tables (margins + fallback hazards) back one scan. *)
  let threshold =
    Reclaimer.scan_threshold ~empty_freq:config.empty_freq ~slots:(2 * config.slots) ~threads
  in
  let per_thread =
    Array.init threads (fun tid ->
        {
          shared = s;
          tid;
          rng = Mp_util.Rng.split ~seed:0x1D8 ~tid;
          rsv = Reclaimer.create ~pool ~counters ~tid ~threshold;
          unlink_count = 0;
          lower_bound = 0;
          upper_bound = 0;
          local_epoch = Epoch.inactive;
          use_hp_mode = false;
          in_batch = false;
          cover_lo = Array.make config.slots 1;
          cover_hi = Array.make config.slots 0;
          hp_mirror = Array.make config.slots no_hazard;
          mp_snap = Reservation.snapshot_create ();
          hp_snap = Reservation.snapshot_create ();
          epoch_snap = Array.make threads Epoch.inactive;
          tab_lo = [||];
          tab_hi = [||];
          tab_epoch = [||];
          tab_len = 0;
        })
  in
  { s; per_thread }

let thread t ~tid = t.per_thread.(tid)
let tid th = th.tid

(* The search-interval bounds start *unset* each operation. Listing 10
   initializes them to (0, 0), which serves two purposes we keep apart:
   a client that never reports bounds (a non-search structure) must get
   USE_HP stamps — the paper's fall-back-to-HP story — while a search
   traversal that only ever tightened ONE endpoint (e.g. inserting a
   maximal key in the NM tree, where seek never visits a larger key) must
   still get an in-between index, which the pseudocode's 0 would place
   *below* the predecessor. An unset endpoint therefore defaults to its
   extreme (0 / max_index) only when the other one was reported. *)
let announce th =
  th.local_epoch <- Epoch.announce th.shared.epoch ~tid:th.tid;
  Counters.on_fence th.shared.counters ~tid:th.tid;
  (* Epoch announced; a crash here freezes the announcement the scan's
     epoch filter pairs with this thread's margins. *)
  Mp_util.Fault.hit ~tid:th.tid Mp_util.Fault.Protect_validate

let start_op th =
  if not th.in_batch then announce th;
  (* The search-interval bounds reset every operation even inside a
     batch — each request derives its own insertion index. *)
  th.lower_bound <- -1;
  th.upper_bound <- -1;
  if not th.in_batch then th.use_hp_mode <- false

let teardown th =
  let s = th.shared in
  for refno = 0 to s.n_slots - 1 do
    if th.cover_lo.(refno) <= th.cover_hi.(refno) then begin
      Reservation.clear s.mps ~tid:th.tid ~refno;
      th.cover_lo.(refno) <- 1;
      th.cover_hi.(refno) <- 0
    end;
    if th.hp_mirror.(refno) <> no_hazard then begin
      Reservation.clear s.hps ~tid:th.tid ~refno;
      th.hp_mirror.(refno) <- no_hazard
    end
  done;
  (* Batched clearing costs one publication fence, as in the paper's
     optimized HP/HE/MP implementations (§6). *)
  Counters.on_fence s.counters ~tid:th.tid;
  Epoch.retire_announcement s.epoch ~tid:th.tid;
  th.local_epoch <- Epoch.inactive

let end_op th = if not th.in_batch then teardown th

(* Batch window: one epoch announcement and one teardown for the whole
   batch; margins, their coverage mirrors and fallback hazards persist
   across the batch's operations, so a read whose index range is already
   covered stays on the fence-free fast path op after op. Safety is the
   per-operation argument unchanged: the batch behaves like one long
   operation (Theorem 4.2 quantifies over operations of any length). If
   the global epoch advances mid-batch, [local_epoch] goes stale and
   every subsequent protection in the batch takes the HP fallback —
   slower, never unsafe; the next batch re-announces. *)
let batch_enter th =
  th.in_batch <- true;
  announce th;
  th.lower_bound <- -1;
  th.upper_bound <- -1;
  th.use_hp_mode <- false

let batch_exit th =
  th.in_batch <- false;
  teardown th

(* -- index creation (Listing 5 + alloc of Listing 10) -------------------- *)

let update_lower_bound th id = th.lower_bound <- Mempool.Core.index th.shared.pool id
let update_upper_bound th id = th.upper_bound <- Mempool.Core.index th.shared.pool id

(** Allocate and stamp the node with an index inside the search interval
    chosen by the configured policy (Listing 5 uses the midpoint). A
    collision — no free index strictly between the bounds, or a bound that
    is itself a collided node — yields the [USE_HP] stamp. *)
let alloc th =
  let s = th.shared in
  let id = Mempool.Core.alloc s.pool ~tid:th.tid in
  let index =
    if th.lower_bound < 0 && th.upper_bound < 0 then use_hp (* non-search client *)
    else begin
      let lb = if th.lower_bound < 0 then 0 else th.lower_bound in
      let ub = if th.upper_bound < 0 then s.max_index else th.upper_bound in
      if lb = use_hp || ub = use_hp || abs (ub - lb) <= 1 then use_hp
      else
        match s.index_policy with
        | Config.Midpoint -> (lb + ub) / 2
        | Config.Golden -> lb + (((ub - lb) * 382) / 1000) |> max (lb + 1) |> min (ub - 1)
        | Config.Randomized -> lb + 1 + Mp_util.Rng.below th.rng (ub - lb - 1)
    end
  in
  Mempool.Core.set_index s.pool id index;
  Mempool.Core.set_birth s.pool id (Epoch.current s.epoch);
  id

let alloc_with_index th ~index =
  let s = th.shared in
  let id = Mempool.Core.alloc s.pool ~tid:th.tid in
  Mempool.Core.set_index s.pool id index;
  Mempool.Core.set_birth s.pool id (Epoch.current s.epoch);
  id

(* -- coverage (Appendix A items 6-7) ------------------------------------- *)

(** Store in [lo.(i)] and [hi.(i)] the inclusive idx16 interval a margin
    announced at [v] covers: the idx16s whose whole 16-bit precision
    range lies inside [v ± margin/2], clamped below the USE_HP idx16 so
    coverage never vouches for a USE_HP node. With [margin >= 2^16] it is
    never empty. The reader's mirror and the reclamation pass's table
    both fill through this one function, so they cannot disagree. *)
let cover_interval ~margin v lo hi i =
  let half = margin / 2 in
  lo.(i) <- Int.max 0 ((v - half + precision_range - 1) asr Handle.precision);
  hi.(i) <-
    Int.min (Handle.idx16_mask - 1) ((v + half - (precision_range - 1)) asr Handle.precision)

(* -- protection (read of Listing 10) ------------------------------------- *)

(* The slow-path helpers live at top level with explicit arguments so a
   read call allocates nothing (a per-call closure pair costs more than
   the protection protocol itself on the read-heavy paths). *)

(* Publish a hazard pointer for [w]'s target and validate. *)
let rec protect_with_hp th refno link w =
  let s = th.shared in
  Reservation.publish s.hps ~tid:th.tid ~refno (Handle.id w);
  th.hp_mirror.(refno) <- Handle.id w;
  Mp_util.Striped_counter.incr s.counters.Counters.hp_fallbacks ~tid:th.tid;
  (* Fallback hazard visible, link not yet re-read. *)
  Mp_util.Fault.hit ~tid:th.tid Mp_util.Fault.Protect_validate;
  let w' = Atomic.get link in
  if w' = w then w else read_slow th refno link w'

and read_slow th refno link w =
  if Handle.is_null w then w
  else begin
    let s = th.shared in
    let idx16 = Handle.idx16 w in
    if idx16 >= th.cover_lo.(refno) && idx16 <= th.cover_hi.(refno) then
      (* Covered: re-check the epoch so a stalled-and-resumed thread
         observes the change and stops trusting new nodes to its margins
         (they may be born after its announced epoch). *)
      if Epoch.current s.epoch = th.local_epoch then w
      else begin
        th.use_hp_mode <- true;
        protect_with_hp th refno link w
      end
    else if idx16 = Handle.idx16_mask then
      (* USE_HP-stamped node (or an index colliding with the sentinel
         range): margin protection is meaningless, use a hazard pointer.
         Skip the publish+fence when the slot already protects this node. *)
      if th.hp_mirror.(refno) = Handle.id w then w else protect_with_hp th refno link w
    else if th.hp_mirror.(refno) = Handle.id w then w
    else if th.use_hp_mode then protect_with_hp th refno link w
    else begin
      (* Publish a new margin pointer at the midpoint of the node's
         precision range, fence, and validate the link. Cache the idx16
         interval the margin covers (see [cover_interval]). *)
      let v = Handle.idx_lower_bound w + (precision_range / 2) in
      Reservation.publish s.mps ~tid:th.tid ~refno v;
      cover_interval ~margin:s.margin v th.cover_lo th.cover_hi refno;
      (* Margin visible, link and epoch not yet re-validated — the
         interleaving Thm 4.2 must survive. *)
      Mp_util.Fault.hit ~tid:th.tid Mp_util.Fault.Protect_validate;
      let w' = Atomic.get link in
      if w' = w then
        if Epoch.current s.epoch = th.local_epoch then w
        else begin
          (* Epoch advanced: previously published MPs stay valid, but new
             protections must use HPs (§4.3.2). Re-protect this node. *)
          th.use_hp_mode <- true;
          protect_with_hp th refno link w
        end
      else read_slow th refno link w'
    end
  end

let read th ~refno link =
  let w0 = Atomic.get link in
  (* Fast path: the node's idx16 sits inside this refno's cached coverage
     (an exact thread-local mirror of the published margin) and the epoch
     has not moved. Two compares and one shared load — the fence-free read
     that gives MP its edge over HP. The mirror arrays are sized by the
     validated config and [refno] is a structure-internal constant, so the
     unchecked accesses are in bounds.

     The epoch re-check must remain an SC [Atomic.get] — it is NOT a
     candidate for [Mp_util.Relaxed]. Thm 4.2's argument for trusting
     the coverage mirror needs the SC total order: if this load returns
     [local_epoch], it is ordered before any later advance, hence before
     the birth-stamp of any node born in a newer epoch, hence before the
     link write that made such a node reachable — contradicting the link
     read above having returned it. A stale (relaxed) epoch read would
     let a stalled-and-resumed thread vouch for a node the reclaimer's
     epoch filter already considers unprotected. The coverage bounds
     themselves are plain thread-local arrays (own-slot mirrors), which
     is the fenceless idiom taken to its conclusion. *)
  let idx16 = Handle.idx16 w0 in
  if
    idx16 >= Array.unsafe_get th.cover_lo refno
    && idx16 <= Array.unsafe_get th.cover_hi refno
    && Epoch.current th.shared.epoch = th.local_epoch
  then w0
  else read_slow th refno link w0

(* Margins deliberately persist until end_op so they keep protecting
   future accesses (paper: "unprotect is a no-op"). *)
let unprotect (_ : thread) ~refno:(_ : int) = ()

let handle_of th id = Mempool.Core.handle th.shared.pool id

(* -- reclamation (empty of Listing 10) ----------------------------------- *)

(* Fill the margin table from the current snapshots, in snapshot order. *)
let build_table th =
  let snap = th.mp_snap in
  let n = snap.Reservation.len in
  if Array.length th.tab_lo < Array.length snap.Reservation.vals then begin
    let cap = Array.length snap.Reservation.vals in
    th.tab_lo <- Array.make cap 0;
    th.tab_hi <- Array.make cap 0;
    th.tab_epoch <- Array.make cap 0
  end;
  for i = 0 to n - 1 do
    cover_interval ~margin:th.shared.margin snap.Reservation.vals.(i) th.tab_lo th.tab_hi i;
    th.tab_epoch.(i) <- th.epoch_snap.(snap.Reservation.owners.(i))
  done;
  th.tab_len <- n

(* Does table entry [i] or a later one cover [idx16] with an owner epoch
   inside the node's closed lifetime [birth, death]? The epoch filter: a
   thread whose announced epoch misses the lifetime cannot have
   margin-protected the node (Thm 4.2). *)
let rec margin_covers th idx16 ~birth ~death i =
  i < th.tab_len
  && ((idx16 >= Array.unsafe_get th.tab_lo i
      && idx16 <= Array.unsafe_get th.tab_hi i
      &&
      let e = Array.unsafe_get th.tab_epoch i in
      e >= birth && e <= death)
     || margin_covers th idx16 ~birth ~death (i + 1))

let keep th id =
  let pool = th.shared.pool in
  Reservation.mem th.hp_snap id
  ||
  let idx = Mempool.Core.index pool id in
  idx <> use_hp
  && margin_covers th (idx lsr Handle.precision) ~birth:(Mempool.Core.birth pool id)
       ~death:(Mempool.Core.death pool id) 0

let empty th =
  let s = th.shared in
  (* Snapshot the PPV slots strictly BEFORE the per-thread epochs. A reader
     announces its epoch before publishing margins (start_op then read), so
     a margin captured in the slot snapshot always pairs with an
     up-to-date announcement; the reverse order could pair a fresh margin
     with a stale "inactive" epoch and skip a live protection. The table
     is derived from the snapshots afterwards and changes no order. *)
  Reservation.snapshot s.mps th.mp_snap;
  Reservation.snapshot s.hps th.hp_snap;
  Reservation.sort th.hp_snap;
  Epoch.snapshot_announced s.epoch th.epoch_snap;
  build_table th;
  Reclaimer.scan th.rsv ~keep:(keep th);
  (* Arena detach barrier. MP pins through two channels: fallback hazards
     name node ids directly (checked against a fresh snapshot), while a
     margin only protects a node when its owner's announced epoch covers
     the node's lifetime (Thm 4.2). Every node of a fully-parked arena
     died at or before the stamp, so once every announcement postdates
     the stamp no margin/epoch pair can vouch for one — the margins
     themselves need no per-arena test. *)
  Detach.poll s.pool
    ~stamp:(fun () ->
      let e = Epoch.current s.epoch in
      Epoch.advance s.epoch;
      e)
    ~quiescent:(fun ~base ~size ~stamp ->
      Epoch.min_announced s.epoch > stamp
      && begin
           Reservation.snapshot s.hps th.hp_snap;
           Reservation.sort th.hp_snap;
           not (Reservation.exists_in_range th.hp_snap ~lo:base ~hi:(base + size - 1))
         end)

let retire th id =
  let s = th.shared in
  Mempool.Core.set_death s.pool id (Epoch.current s.epoch);
  Reclaimer.retire th.rsv id;
  (* Every [epoch_freq] unlinks, advance the global epoch — the clock that
     bounds how many dead same-index generations one thread can pin. *)
  th.unlink_count <- th.unlink_count + 1;
  if th.unlink_count mod s.epoch_freq = 0 then Epoch.advance s.epoch;
  if Reclaimer.scan_due th.rsv then empty th

let flush th = empty th

(* Crash recovery (see {!Smr_core.Smr_intf.S.adopt}): MP's dead thread
   pins through three channels — its margins (paired with its frozen
   epoch announcement), its fallback hazards, and the announcement's
   veto on the epoch filter. Quarantining both reservation tables and
   releasing the announcement cuts all three; the thread-local mirrors
   are reset to match the now-empty rows (the mirrors are owner-private,
   and after the owning domain was joined, the supervisor is the owner).
   The scan then drains the dead tid's retired backlog as its own next
   [empty] would have. *)
let adopt t ~tid =
  let th = t.per_thread.(tid) in
  let s = t.s in
  Reservation.quarantine s.mps ~tid;
  Reservation.quarantine s.hps ~tid;
  for refno = 0 to s.n_slots - 1 do
    th.cover_lo.(refno) <- 1;
    th.cover_hi.(refno) <- 0;
    th.hp_mirror.(refno) <- no_hazard
  done;
  Epoch.retire_announcement s.epoch ~tid;
  th.local_epoch <- Epoch.inactive;
  th.use_hp_mode <- false;
  th.in_batch <- false;
  th.lower_bound <- -1;
  th.upper_bound <- -1;
  empty th;
  Reservation.adopt s.mps ~tid;
  Reservation.adopt s.hps ~tid

let stats t = Counters.stats t.s.counters

(* Either announcement table pins: a dead thread's margins keep every
   covered index generation its epoch spans, its fallback hazards keep
   exact nodes. *)
let pinning_tids t =
  List.sort_uniq Int.compare
    (Reservation.occupied_tids t.s.mps @ Reservation.occupied_tids t.s.hps)

(** Introspection hooks for tests and the wasted-memory bound experiment. *)
module Debug = struct
  let epoch t = t.s.epoch
  let current_epoch t = Epoch.current t.s.epoch
  let local_epoch th = th.local_epoch
  let use_hp_mode th = th.use_hp_mode
  let bounds th = (th.lower_bound, th.upper_bound)
  let mp_slot t ~tid ~refno = Reservation.get t.s.mps ~tid ~refno
  let hp_slot t ~tid ~refno = Reservation.get t.s.hps ~tid ~refno
  let retired_length th = Reclaimer.pending th.rsv
end
