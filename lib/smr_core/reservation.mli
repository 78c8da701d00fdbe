(** Per-thread announcement-slot table shared by every SMR scheme: HP
    announces node ids, HE eras, IBR interval endpoints, MP key indices
    (and node ids on its HP fallback). Owns the slots and the reusable
    snapshot buffers a reclamation pass reads, so scheme modules keep
    only their announce/validate policy. *)

type t

(** [create ~counters ~threads ~slots ~empty] builds a [threads × slots]
    table with every slot holding the sentinel [empty]. Fences issued by
    {!publish}/{!clear_all} are charged to [counters]. *)
val create : counters:Counters.t -> threads:int -> slots:int -> empty:int -> t

val threads : t -> int
val slots_per_thread : t -> int

(** Total slot count ([threads × slots]) — the snapshot capacity. *)
val capacity : t -> int

(** The raw slot atomic, for protection loops that hoist it once. *)
val slot : t -> tid:int -> refno:int -> int Atomic.t

val get : t -> tid:int -> refno:int -> int

(** Plain slot write, {e no} fence counted — for multi-slot updates the
    scheme accounts as a single fence. *)
val set : t -> tid:int -> refno:int -> int -> unit

(** Announce a value: slot write plus one counted publication fence. *)
val publish : t -> tid:int -> refno:int -> int -> unit

(** Reset one slot to the sentinel (uncounted, like HP's unprotect). *)
val clear : t -> tid:int -> refno:int -> unit

(** Clear all of [tid]'s occupied slots, counted as one batched fence
    (the paper's §6 end-of-operation accounting). No-op while [tid] is
    inside a {!batch_enter} window — the clear is deferred to
    {!batch_exit}. *)
val clear_all : t -> tid:int -> unit

(** Open a batch window for [tid]: {!clear_all} is suppressed until
    {!batch_exit}, so announcements persist across the operations of a
    batch and the end-of-operation clear fence is paid once per batch
    instead of once per op. Widens the protected window to the whole
    batch; a batch of size 1 costs exactly the un-batched protocol. *)
val batch_enter : t -> tid:int -> unit

(** Close the window and perform the single deferred {!clear_all}. *)
val batch_exit : t -> tid:int -> unit

(** Is [tid] currently inside a batch window? *)
val in_batch : t -> tid:int -> bool

(** {2 Crash recovery}

    The second reservation lifecycle: when the domain owning a tid dies
    mid-operation its announcements stay published and pin memory
    (paper §4.4). A supervisor that has {e joined} the dead domain may
    {!quarantine} the tid — forcing its batch window shut and clearing
    every slot, which releases everything only that tid pinned — and
    later {!adopt} it, handing the row to a replacement domain. The
    join is the safety precondition: it serializes the hand-off, so the
    "each tid used by at most one domain at a time" rule is preserved. *)

(** Fence off a dead [tid]: close its batch window, clear its row (one
    counted fence), and block {!publish}/{!batch_enter} (debug asserts)
    until {!adopt}. Caller must have joined the owning domain. *)
val quarantine : t -> tid:int -> unit

(** Lift the quarantine set by {!quarantine}; the tid is reusable. *)
val adopt : t -> tid:int -> unit

val quarantined : t -> tid:int -> bool

(** Tids with at least one occupied slot — the threads whose (possibly
    stalled or dead) announcements are currently pinning memory. *)
val occupied_tids : t -> int list

(** A reusable scan buffer. [vals]/[owners]/[len] are readable by scheme
    scan predicates; only this module mutates them. After {!sort},
    [owners] is meaningless. *)
type snapshot = private {
  mutable vals : int array;
  mutable owners : int array;
  mutable len : int;
}

val snapshot_create : unit -> snapshot

(** Fill [snap] with every occupied slot (sentinels filtered out),
    pairing each value with its owner tid. Grows the buffer on first
    use; allocation-free thereafter. *)
val snapshot : t -> snapshot -> unit

(** Fill [snap] with every slot value — sentinels included — in flat
    [(tid × slots) + refno] order, for scans indexed by thread. *)
val snapshot_flat : t -> snapshot -> unit

(** In-place integer sort of the snapshot's [len] prefix (no closure,
    no polymorphic compare, no allocation); enables
    {!mem}/{!exists_in_range}. Invalidates [owners]. *)
val sort : snapshot -> unit

(** Binary-search membership in a sorted snapshot. *)
val mem : snapshot -> int -> bool

(** Does a sorted snapshot hold any value in [\[lo, hi\]]? *)
val exists_in_range : snapshot -> lo:int -> hi:int -> bool
