(** Per-thread announcement-slot table — the shared half of the
    reservation/reclamation kernel.

    Every scheme in the paper's protect/retire/scan family announces
    *something* in a per-thread slot before touching shared memory: HP
    announces node ids, HE announces eras, IBR announces an epoch
    interval, MP announces key indices (plus node ids on its HP
    fallback). This module owns that table and the snapshotting a
    reclamation pass needs, so a scheme is reduced to its announce /
    validate policy.

    Fence accounting is folded in: {!publish} counts one publication
    fence and {!clear_all} counts one for the whole batch (the paper's
    §6 "optimized" accounting for end-of-operation clearing). {!set}
    and {!clear} are silent so schemes that batch several slot writes
    under a single fence (IBR's interval endpoints, MP's end_op) can
    keep their exact fence counts.

    The snapshot buffers are owned by the caller and reused across
    passes, so a reclamation scan allocates nothing once warm; sorted
    membership tests are binary search with [Int] comparisons — no
    polymorphic [compare] on the hot path. *)

type t = {
  counters : Counters.t;
  table : int Atomic.t array array; (* [tid].[refno] *)
  empty : int; (* sentinel for an unoccupied slot *)
  slots : int;
  threads : int;
  in_batch : bool array;
      (* [tid]: inside a batch window, end-of-operation {!clear_all} is
         deferred until {!batch_exit}. Owner-written plain cells: only
         tid itself reads or writes its flag, so no atomicity needed;
         spacing is unnecessary because the cells are written once per
         batch, not per op. *)
  quarantined : bool array;
      (* [tid]: fenced off by {!quarantine} after its owning domain died;
         the row is cleared and must not be republished until {!adopt}
         hands the tid back. Written only by the (single) supervisor, so
         plain cells suffice; the asserts in {!publish}/{!batch_enter}
         are the debug-build tripwire against a zombie owner. *)
}

let create ~counters ~threads ~slots ~empty =
  {
    counters;
    table = Array.init threads (fun _ -> Array.init slots (fun _ -> Atomic.make empty));
    empty;
    slots;
    threads;
    in_batch = Array.make threads false;
    quarantined = Array.make threads false;
  }

let threads t = t.threads
let slots_per_thread t = t.slots
let capacity t = t.threads * t.slots

(* Hot read paths hoist the slot atomic once per protection loop instead
   of re-indexing the table on every iteration. *)
let[@inline] slot t ~tid ~refno = t.table.(tid).(refno)
let[@inline] get t ~tid ~refno = Atomic.get t.table.(tid).(refno)

(** Plain slot write, no fence counted (for multi-slot updates that the
    scheme accounts as one fence). *)
let[@inline] set t ~tid ~refno v = Atomic.set t.table.(tid).(refno) v

(** Publish an announcement: one slot write, one publication fence. The
    fault point fires {e after} the write, inside the window where the
    announcement is visible but not yet validated — a crash here leaves
    the slot published forever. *)
let publish t ~tid ~refno v =
  assert (not t.quarantined.(tid));
  Atomic.set t.table.(tid).(refno) v;
  Counters.on_fence t.counters ~tid;
  Mp_util.Fault.hit ~tid Mp_util.Fault.Reservation_publish

let clear t ~tid ~refno =
  Mp_util.Fault.hit ~tid Mp_util.Fault.Reservation_clear;
  Atomic.set t.table.(tid).(refno) t.empty

(** Clear every occupied slot of [tid]; the batch costs one fence. The
    fault point fires before any slot is cleared, so a crash leaves the
    whole row published. Inside a batch window ({!batch_enter}) this is
    a no-op — the row stays published until {!batch_exit}, which is what
    lets a shard pay one publish + one clear fence per B operations. *)
let clear_all t ~tid =
  if not t.in_batch.(tid) then begin
    Mp_util.Fault.hit ~tid Mp_util.Fault.Reservation_clear;
    let mine = t.table.(tid) in
    for refno = 0 to t.slots - 1 do
      if Atomic.get mine.(refno) <> t.empty then Atomic.set mine.(refno) t.empty
    done;
    Counters.on_fence t.counters ~tid
  end

(* -- batch windows ------------------------------------------------------- *)

let[@inline] in_batch t ~tid = t.in_batch.(tid)

(** Open a batch window for [tid]: subsequent {!clear_all} calls (the
    end-of-operation path of HP/HE-class schemes) are suppressed, so
    announcements accumulate and stay published across every operation
    of the batch. The protected window widens accordingly — see
    DESIGN.md "Service layer and batch amortization" for the per-class
    waste-bound argument. A batch of size 1 costs exactly the un-batched
    protocol: the same publishes, and the one deferred clear happens in
    {!batch_exit}. *)
let batch_enter t ~tid =
  assert (not t.quarantined.(tid));
  t.in_batch.(tid) <- true

(** Close [tid]'s batch window and perform the single deferred
    {!clear_all} — one fence for the whole batch. *)
let batch_exit t ~tid =
  t.in_batch.(tid) <- false;
  clear_all t ~tid

(* -- crash recovery: the second reservation lifecycle -------------------- *)

(** Fence off a dead [tid]'s row: force the batch window shut (the owner
    died without running {!batch_exit}, so the deferred-clear suppression
    must not outlive it), clear every slot, and mark the tid quarantined
    so {!publish}/{!batch_enter} trip an assert until {!adopt}.

    Safety precondition (the caller's obligation, typically a service
    supervisor): the domain that owned [tid] has terminated and been
    joined. The join gives the happens-before edge that makes this
    sequential hand-off an instance of the interface's "each tid used by
    at most one domain at a time" rule — the supervisor is simply the
    tid's next (briefly) owning domain. Concurrent scanners see the row
    empty out exactly as if the dead thread had cleared it itself, which
    is always safe: clearing only ever unpins. One fence, charged to the
    dead tid — the §4.4 "wasted memory is bounded" argument pays one
    publication fence to stop paying the bound forever. *)
let quarantine t ~tid =
  assert (not t.quarantined.(tid));
  t.quarantined.(tid) <- true;
  t.in_batch.(tid) <- false;
  let mine = t.table.(tid) in
  for refno = 0 to t.slots - 1 do
    if Atomic.get mine.(refno) <> t.empty then Atomic.set mine.(refno) t.empty
  done;
  Counters.on_fence t.counters ~tid

(** Lift [tid]'s quarantine, handing the (now-unpinned) row to its next
    owner. The row is already clear — {!quarantine} did that — so this is
    pure bookkeeping; it exists as a separate step so the window between
    fencing and reuse is explicit and assertable. *)
let adopt t ~tid =
  assert (t.quarantined.(tid));
  t.quarantined.(tid) <- false

let[@inline] quarantined t ~tid = t.quarantined.(tid)

(** Tids with at least one occupied slot — the threads whose (possibly
    stalled or dead) announcements are currently pinning memory. *)
let occupied_tids t =
  let rec occupied row refno =
    refno < t.slots && (Atomic.get row.(refno) <> t.empty || occupied row (refno + 1))
  in
  List.filter (fun tid -> occupied t.table.(tid) 0) (List.init t.threads Fun.id)

(* -- snapshots ----------------------------------------------------------- *)

type snapshot = {
  mutable vals : int array;
  mutable owners : int array;
  mutable len : int;
}

let snapshot_create () = { vals = [||]; owners = [||]; len = 0 }

let ensure t snap =
  let cap = capacity t in
  if Array.length snap.vals < cap then begin
    snap.vals <- Array.make cap t.empty;
    snap.owners <- Array.make cap 0
  end

(** Fill [snap] with every occupied slot's value, paired with the owning
    tid in [owners]. Order is table order. *)
let snapshot t snap =
  ensure t snap;
  let k = ref 0 in
  for tid = 0 to t.threads - 1 do
    let row = t.table.(tid) in
    for refno = 0 to t.slots - 1 do
      let v = Atomic.get row.(refno) in
      if v <> t.empty then begin
        snap.vals.(!k) <- v;
        snap.owners.(!k) <- tid;
        incr k
      end
    done
  done;
  snap.len <- !k

(** Fill [snap] with {e every} slot value — sentinels included — in flat
    [(tid * slots) + refno] position order, so a scheme whose scan wants
    per-thread values (IBR's interval endpoints) can index by tid. *)
let snapshot_flat t snap =
  ensure t snap;
  let k = ref 0 in
  for tid = 0 to t.threads - 1 do
    let row = t.table.(tid) in
    for refno = 0 to t.slots - 1 do
      snap.vals.(!k) <- Atomic.get row.(refno);
      snap.owners.(!k) <- tid;
      incr k
    done
  done;
  snap.len <- !k

(* Restore the max-heap property of [a.(0 .. n-1)] below position [i]. *)
let rec sift_down (a : int array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    let x = a.(i) in
    if a.(c) > x then begin
      a.(i) <- a.(c);
      a.(c) <- x;
      sift_down a c n
    end
  end

(** Sort the snapshot's [len] prefix in place so membership queries are
    binary search. A top-level heap sort: no closure, no exception, no
    allocation. Invalidates [owners]. *)
let sort snap =
  let a = snap.vals and n = snap.len in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift_down a 0 last
  done

(* First position in the sorted prefix holding a value >= [v]
   ([snap.len] if none). *)
let lower_bound snap v =
  let lo = ref 0 and hi = ref snap.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if snap.vals.(mid) < v then lo := mid + 1 else hi := mid
  done;
  !lo

(** Sorted membership: is [v] announced in the snapshot? *)
let mem snap v =
  let i = lower_bound snap v in
  i < snap.len && snap.vals.(i) = v

(** Sorted range query: does the snapshot hold any value in
    [\[lo, hi\]]? (HE: "does any published era fall inside the node's
    birth–death interval?") *)
let exists_in_range snap ~lo ~hi =
  let i = lower_bound snap lo in
  i < snap.len && snap.vals.(i) <= hi
