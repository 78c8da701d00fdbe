(** Manual-memory node pool — the substrate that makes the SMR problem
    real in a garbage-collected language. Payloads are pre-allocated;
    [alloc]/[free] recycle slot ids; with [check_access] armed, touching a
    freed slot's payload is recorded (or trapped) as a use-after-free.
    Thread-local free-list magazines exchange whole [fair_share]-length
    chains with per-arena free lists in one CAS each way.

    Memory is elastic: up to [max_arenas] fixed-size arenas of [capacity]
    slots each, a slot's id being [(arena lsl off_bits) lor offset] (see
    {!Handle.arena_of_id}). Exhaustion below [max_arenas] attaches a fresh
    arena online; an idle arena is drained (its slots routed out of
    circulation) and detached through the SMR layer once no reservation
    can reach it ({!Smr_core.Detach}). With the default [max_arenas = 1]
    the pool is exactly the fixed-size pool of earlier revisions. See the
    implementation header and [docs/mempool.md] for the full design. *)

exception Exhausted

(** Slot life-cycle states. *)
val state_free : int

val state_live : int
val state_retired : int

(** Payload-agnostic layer: slot states, free lists, arena lifecycle and
    the per-node metadata words SMR schemes piggyback on nodes (MP index,
    birth and death epochs). *)
module Core : sig
  type t

  exception Use_after_free of int

  (** When true (or [MP_TRAP_UAF=1]), a detected use-after-free raises
      {!Use_after_free} instead of only counting. *)
  val trap_on_violation : bool ref

  (** [?fair_share] overrides the magazine/chain size (default
      [max 64 (capacity / (threads * 2))]). [?max_arenas] (default 1)
      bounds online growth; [capacity] is the per-arena slot count. *)
  val create :
    capacity:int ->
    threads:int ->
    ?fair_share:int ->
    ?check_access:bool ->
    ?max_arenas:int ->
    unit ->
    t

  val capacity : t -> int
  val threads : t -> int

  (** Magazine size: the chain length moved per global CAS. *)
  val fair_share : t -> int

  (** {2 Arena geometry and elasticity} *)

  (** Width of the offset field: a slot id is
      [(arena lsl off_bits) lor offset]. *)
  val off_bits : t -> int

  (** Growth bound given at {!create} (1 = fixed-size pool). *)
  val max_arenas : t -> int

  (** Arenas currently attached (ids [0, attached_arenas)). *)
  val attached_arenas : t -> int

  (** Cumulative count of arena attaches beyond the initial arena. *)
  val arenas_attached : t -> int

  (** Cumulative count of completed arena detaches. *)
  val arenas_detached : t -> int

  (** Slots of currently attached arenas
      ([attached_arenas * capacity]). *)
  val resident_slots : t -> int

  (** Slots of the draining arena already routed out of circulation
      (counts as wasted memory until the detach completes); 0 when no
      drain is in flight. *)
  val detaching_slots : t -> int

  (** Start draining the highest attached arena: its free slots leave
      circulation as they surface, and once all of them have, the SMR
      layer may complete the detach ({!detach_ready} →
      {!complete_detach}). Arena 0 never detaches. Returns the elected
      arena's index; [None] if the pool cannot shrink now (single arena,
      a drain already in flight, or a grow holds the election lock). *)
  val request_shrink : t -> int option

  (** Abort an in-flight drain, returning parked slots to circulation.
      Allocation pressure calls this automatically (a spike mid-shrink
      wins). False if no drain was in flight or the detach already
      entered completion. *)
  val cancel_shrink : t -> bool

  (** [(token, base, size)] of the draining arena once every one of its
      slots is parked — the point at which the SMR quiescence protocol
      may start; [None] before that. The token names this particular
      drain (generation + arena, see {!drain_arena}); stamping and
      completion take it back, so evidence gathered under one drain can
      never complete a later drain of the same arena. *)
  val detach_ready : t -> (int * int * int) option

  (** Arena index carried by a drain token; -1 for the non-drain words. *)
  val drain_arena : int -> int

  (** Epoch stamp recorded for [token]'s grace period; -1 until a scheme
      stamps it via {!set_detach_stamp} (first writer wins, once per
      drain). A stamp recorded under a different token reads as unset. *)
  val detach_stamp : t -> token:int -> int

  val set_detach_stamp : t -> token:int -> int -> unit

  (** Unmap the drained arena named by [token] (payloads and free-list
      arrays dropped; the metadata shim persists so stale handles keep
      failing validation). To be called by the SMR layer only, after its
      quiescence check passed against [token]'s stamp. False if the drain
      was cancelled concurrently or [token] no longer names the current
      drain. *)
  val complete_detach : t -> int -> bool

  (** Payload attach/drop callbacks, installed by the ['a t] layer.
      [grow_hook k] runs before arena [k]'s slots are published;
      [detach_hook k] runs as arena [k] is unmapped. *)
  val set_grow_hook : t -> (int -> unit) -> unit

  val set_detach_hook : t -> (int -> unit) -> unit

  (** Pop a free slot for [tid]; raises {!Exhausted} when neither the
      thread's local magazines nor any reachable arena stack has one
      (attaching a fresh arena first when below [max_arenas]). *)
  val alloc : t -> tid:int -> int

  (** Non-raising {!alloc}: [None] when no slot is reachable, so callers
      can degrade into backpressure (retry with backoff, count the
      stall) instead of unwinding through {!Exhausted}. *)
  val alloc_opt : t -> tid:int -> int option

  (** Was [tid]'s last exhaustion {e hard} — the pool at [max_arenas]
      with no grow or drain in flight, so backoff cannot be satisfied by
      an arena attach? Always false for [max_arenas = 1] pools, whose
      exhaustion is plain backpressure. Callers use it to fail fast to
      an out-of-memory reply instead of burning the retry budget. *)
  val last_alloc_hard : t -> tid:int -> bool

  (** Return a slot; spills a full spare magazine to its arena's chain
      stack when both local magazines fill up. *)
  val free : t -> tid:int -> int -> unit

  (** Return [tid]'s magazines to shared circulation — for an exiting
      worker: a drain cannot complete while free slots of the draining
      arena sit in a magazine no thread will ever pop again. Call from
      the exiting thread itself, or from a successor strictly after the
      owner stopped (e.g. after joining its domain). Idempotent. *)
  val release_local : t -> tid:int -> unit

  val state : t -> int -> int
  val is_free : t -> int -> bool

  (** Live → Retired transition (asserts the slot was live). *)
  val mark_retired : t -> int -> unit

  val index : t -> int -> int
  val set_index : t -> int -> int -> unit
  val birth : t -> int -> int
  val set_birth : t -> int -> int -> unit
  val death : t -> int -> int
  val set_death : t -> int -> int -> unit

  (** Reuse counter of the slot; embedded in handles as the ABA tag. *)
  val incarnation : t -> int -> int

  (** Canonical unmarked handle for a slot (id, idx16 of its index,
      current incarnation). *)
  val handle : t -> int -> Handle.t

  (** Record (and possibly trap) a use-after-free if the slot is free. *)
  val note_access : t -> int -> unit

  val violations : t -> int
  val live_count : t -> int

  (** High-water mark of {!live_count}, maintained on the alloc path so
      peaks between sampler ticks are visible. Summed over per-thread
      peaks — a conservative (never-under) bound on the true peak. *)
  val live_peak : t -> int

  val alloc_count : t -> int
  val free_count : t -> int

  (** {2 Testing hooks}

      Direct access to arena 0's chain stack for invariant and ABA
      regression tests. Not for production use: popping a chain makes its
      slots unreachable until pushed back. *)

  (** The raw version-tagged top word. *)
  val debug_top_word : t -> int

  (** Claim one whole chain: [(head, tail, len)], or [None] if empty. *)
  val debug_pop_chain : t -> (int * int * int) option

  (** Publish a chain (its slots must be [stack_next]-linked, [tail]'s
      link -1). *)
  val debug_push_chain : t -> head:int -> tail:int -> len:int -> unit

  (** The free-list link of a slot. *)
  val debug_next_free : t -> int -> int
end

(** A pool with client payloads of type ['a] attached to each slot.
    Payloads are per arena: allocated when an arena attaches, dropped
    when it detaches (after which accessing a slot of that arena raises —
    the analog of touching an unmapped page; the SMR detach gate makes
    such slots unreachable from correct clients). *)
type 'a t

(** [create ~capacity ~threads ?fair_share ?check_access
    ?max_arenas make_payload] pre-allocates arena 0's [capacity] payloads
    with [make_payload slot_id]; later arenas allocate theirs on
    attach. *)
val create :
  capacity:int ->
  threads:int ->
  ?fair_share:int ->
  ?check_access:bool ->
  ?max_arenas:int ->
  (int -> 'a) ->
  'a t

val core : 'a t -> Core.t
val capacity : 'a t -> int

(** Payload access with use-after-free detection. *)
val get : 'a t -> int -> 'a

(** Payload access without the check (for code that provably touches only
    live or self-retired slots, and for test forensics). *)
val unsafe_get : 'a t -> int -> 'a

val alloc : 'a t -> tid:int -> int
val alloc_opt : 'a t -> tid:int -> int option
val free : 'a t -> tid:int -> int -> unit
val handle : 'a t -> int -> Handle.t
val violations : 'a t -> int
val live_count : 'a t -> int

(** See {!Core.live_peak}. *)
val live_peak : 'a t -> int
