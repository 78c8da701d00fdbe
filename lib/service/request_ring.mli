(** Bounded MPSC request/reply ring: many client domains submit
    requests, one shard domain serves them and completes each with an
    integer reply through the same slot. Allocation-free on every path;
    [-1] sentinels instead of options. See the implementation header
    for the slot lifecycle (free → submitted → completed | cancelled →
    acked) and the incarnation (generation) tag recovery rides on. *)

type t

(** [create ~capacity] — rounded up to a power of two, minimum 4. *)
val create : capacity:int -> t

val capacity : t -> int

(** {2 Incarnations (recovery supervisor)} *)

(** The current ring generation; requests are stamped with it at submit
    time. *)
val generation : t -> int

(** Bump the generation: the respawn takeover edge. Call after joining
    the dead consumer domain, before starting the replacement — the
    replacement answers requests stamped below the new generation with
    a rejection instead of executing them. *)
val bump_generation : t -> unit

(** {2 Producers (any domain)} *)

(** Claim a slot and publish a request (ringing the consumer's bell if
    it is parked): returns a ticket [>= 0], or [-1] when the ring is
    full. [deadline_us] is an absolute deadline
    in integer microseconds, [0] = none; the consumer sheds requests it
    picks up past their deadline (answering busy) instead of executing
    them. *)
val try_submit : ?deadline_us:int -> t -> op:int -> key:int -> value:int -> int

(** Claim [n] consecutive slots with a single tail CAS and publish a
    whole request chain read from [ops/keys/values.(off + i)],
    [i = 0 .. n-1]. Returns the first ticket (the chain occupies
    tickets [ticket .. ticket + n - 1]) or [-1] when the ring lacks [n]
    free contiguous slots. Published head-last: a consumer that sees
    the head sees the whole chain. At [n = 1] the slot protocol is
    byte-for-byte {!try_submit}'s. Raises [Invalid_argument] when [n]
    is outside [1, capacity/2]. Wait for the chain with {!await_chain}
    (or poll {!chain_done}) and collect replies with {!harvest_chain} —
    never with per-slot {!poll}/{!cancel}. *)
val try_submit_chain :
  ?deadline_us:int ->
  t ->
  n:int ->
  ops:int array ->
  keys:int array ->
  values:int array ->
  off:int ->
  int

(** Reply for [ticket] ([>= 0], frees the slot) or [-1] while pending.
    Poll each ticket to completion exactly once — or abandon it with
    {!cancel}, never both. *)
val poll : t -> ticket:int -> int

(** Abandon [ticket] (the client-side deadline path): [-1] if the
    cancel won — the consumer discards the slot, the request may or may
    not execute, and the ticket must never be polled again — or the
    reply code [>= 0] if the consumer completed first (the cancel then
    acted as the final poll and freed the slot). *)
val cancel : t -> ticket:int -> int

(** {2 Coalesced chain completion (the submitting client)}

    One wait per chain instead of one per slot: the single consumer
    completes slots in cursor order, so the chain's last slot completed
    implies every slot completed, and the acquire read of that one
    sequence word orders the client after every reply write in the
    chain. *)

(** Has the whole chain [ticket .. ticket + n - 1] completed? *)
val chain_done : t -> ticket:int -> n:int -> bool

(** Copy the [n] replies into [replies.(off + i)] and ack all slots.
    Only after {!chain_done} is [true] / {!await_chain} returned. *)
val harvest_chain : t -> ticket:int -> n:int -> replies:int array -> off:int -> unit

(** {2 Blocking waits}

    Tight reads, then [Domain.cpu_relax], then a park on one of
    [min capacity 64] lots chosen by the awaited slot; {!complete}
    wakes the lot when it completes a chain's last slot (every single
    submit included) and the lot has waiters. Tallied into {!stats}. *)

(** Block until [ticket] completes; returns the reply and acks the slot
    (a blocking {!poll}). *)
val await : t -> ticket:int -> int

(** Block until the whole chain completes; follow with
    {!harvest_chain}. *)
val await_chain : t -> ticket:int -> n:int -> unit

(** {2 Wait telemetry} *)

type stats = {
  client_spins : int;  (** [cpu_relax] iterations inside blocking waits *)
  client_backoffs : int;  (** times a blocking wait parked on its lot *)
}

(** Cumulative; exact under concurrent waiters. *)
val stats : t -> stats

(** {2 The consumer (the single shard domain)}

    The consumer owns a cursor [pos], starting at 0 and incremented by
    1 after each {!complete} or {!discard}. *)

val ready : t -> pos:int -> bool

(** Did the producer cancel the request at the cursor position? If so,
    {!discard} it and advance. *)
val cancelled : t -> pos:int -> bool

(** Valid only between [ready t ~pos = true] and [complete t ~pos]. *)
val op : t -> pos:int -> int

val key : t -> pos:int -> int
val value : t -> pos:int -> int

(** The ring generation the request at [pos] was submitted under;
    [stamp < generation] marks a dead incarnation's request. *)
val stamp : t -> pos:int -> int

(** The request's absolute deadline in microseconds (0 = none). *)
val deadline_us : t -> pos:int -> int

(** Requests remaining in the contiguous chain starting at [pos]
    (inclusive); [1] for a single submit. Same validity window as
    {!op}. *)
val chain_len : t -> pos:int -> int

(** Publish the reply and hand the slot back to its submitter, waking
    the submitter's lot if [pos] ends its chain. [false] when a racing
    {!cancel} won: the reply was dropped and the slot freed here; the
    consumer just advances. *)
val complete : t -> pos:int -> int -> bool

(** Free a {!cancelled} slot. *)
val discard : t -> pos:int -> unit

(** {2 The consumer's doorbell} *)

(** Park until the slot at cursor [pos] is submitted or cancelled, or
    [stop] is set; [true] if the consumer slept. Counts itself on the
    bell before re-checking the slot, so a concurrent publish is either
    seen or rings the bell. Set [stop] before ringing with
    {!wake_consumer}. *)
val park_consumer : t -> pos:int -> stop:bool Atomic.t -> bool

(** Is the consumer parked (or parking)? Its heartbeat stops while it
    is. *)
val consumer_parked : t -> bool

(** Ring the bell unconditionally (producers ring it themselves when
    they see the consumer parked); the shutdown path calls it after
    raising the stop flag. *)
val wake_consumer : t -> unit
