(** Sharded in-process request service: keys hash-partition across N
    shard domains, each draining a bounded MPSC {!Request_ring} and
    executing up to B SET operations per SMR batch window
    ({!Dstruct.Set_intf.SET.batch_enter}). Crashed shards (armed fault
    plans) degrade into rejectors — or, with a {!Recovery.config}, are
    detected by a supervisor domain, joined, respawned on a fresh SMR
    tid and their dead tid adopted, releasing everything it pinned. *)

type t

(** {2 Wire protocol} *)

val op_contains : int
val op_insert : int
val op_remove : int

(** Multi-get: [key] = first key, [value] = count [n >= 1]; the shard
    runs [contains] on the [n] consecutive keys and replies
    {!reply_mget_base}[ + hits]. Each get counts against the batch
    window's op budget (the window rolls over mid-request when full). *)
val op_mget : int

val reply_false : int
val reply_true : int

(** Not (or not provably) executed: the owning shard crashed with the
    request in flight, the request was queued to a dead incarnation, or
    it hit the shutdown drain. Ambiguous for writes — only idempotent
    retries are safe. *)
val reply_rejected : int

(** Pool exhausted; the request was not executed. *)
val reply_oom : int

(** Backpressure: picked up past its deadline and definitely not
    executed — safely retryable for any operation. *)
val reply_busy : int

(** A {!op_mget} reply is [reply_mget_base + hits], so hit counts never
    collide with the status codes above. *)
val reply_mget_base : int

(** {2 Lifecycle} *)

(** Elastic-pool autoscale policy: a policy domain samples the pool's
    live count every [sample_interval_s], folds a high-water mark per
    window of [decay_ticks] samples, and sets [arena_target] = arenas
    needed for that peak plus [headroom_pct] percent. When the pool
    holds more arenas than the target it requests a drain of the
    topmost arena (SMR-gated completion; allocation pressure
    auto-cancels). Growth needs no policy — it is demand-driven on the
    alloc path. Ignored unless the structure's pool has
    [max_arenas > 1]. *)
type autoscale = {
  sample_interval_s : float;
  decay_ticks : int;
  headroom_pct : int;
}

(** [sample_interval_s = 1ms], [decay_ticks = 100] (one decision per
    ~100 ms window), [headroom_pct = 25]. *)
val default_autoscale : autoscale

(** [create (module SET) set ~shards ~batch ~ring_capacity] builds the
    service over an existing structure. [batch] is the maximum SET
    operations per batch window (1 = exactly the un-batched
    per-operation protocol).

    Without [?recovery], [set] must have been created with
    [threads >= shards]: shard [i] runs as SMR tid [i] and a crashed
    shard degrades into a rejector forever. With [?recovery], [set]
    needs [threads >= shards + recovery.spare_tids] and a supervisor
    domain recovers crashed shards: join, ring-generation bump (the
    dead incarnation's queued requests are rejected exactly once by the
    replacement), respawn on a pool tid, and adoption of the dead tid
    ({!Dstruct.Set_intf.SET.adopt}). The shards (plus, transiently, the
    supervisor during adoption) remain the only users of the structure's
    tids. *)
val create :
  ?recovery:Recovery.config ->
  ?autoscale:autoscale ->
  (module Dstruct.Set_intf.SET with type t = 'a) ->
  'a ->
  shards:int ->
  batch:int ->
  ring_capacity:int ->
  t

(** Spawn the shard domains (and the supervisor, if configured). *)
val start : t -> unit

(** Stop and join the supervisor and shards: raise the stop flag, then
    ring every ring's doorbell so parked shards wake. Requests still in
    flight are answered ({!reply_rejected}) before the shards exit, so
    concurrent awaiters terminate; submissions racing past [stop] may
    remain unanswered — stop clients first. *)
val stop : t -> unit

val shards : t -> int
val batch : t -> int

(** Per-shard request-ring capacity ({!try_submit_chain}'s chains
    must stay ≤ half of it; {!execute} splits longer batches). *)
val ring_capacity : t -> int

(** {2 Client side (any domain)} *)

(** The shard owning [key]. *)
val shard_of_key : t -> int -> int

(** {2 The shard-batch executor}

    The one client request path: a batch of requests in any shard mix,
    split into one ring chain per shard. *)

(** A client's reusable scratch for {!execute}; one per client domain
    (or connection), never shared between domains. *)
type client

val client : t -> client

(** [execute ?deadline_us c ~n ~ops ~keys ~values ~replies] runs the
    [n] requests [ops/keys/values.(i)], [i < n], and writes each reply
    to [replies.(i)]. Requests are routed by {!shard_of_key} (so per-key
    order holds within the batch), counting-sorted into per-shard
    buckets and submitted as chains of at most half a ring — every
    shard's chain before the wait on any, in ascending shard order, which
    keeps concurrent clients deadlock-free when rings fill. Blocks until
    every reply is in. [deadline_us] (absolute, microseconds, 0 or
    absent = none): a shard answers {!reply_busy} without executing any
    request it picks up past the deadline. Returns how many submits
    found a ring full and were retried. *)
val execute :
  ?deadline_us:int ->
  client ->
  n:int ->
  ops:int array ->
  keys:int array ->
  values:int array ->
  replies:int array ->
  int

(** {2 Chains on one shard}

    The ring protocol underneath {!execute}, for clients that keep
    several requests in flight and reap them one by one. *)

(** Submit a whole chain to one shard with a single tail CAS: requests
    [i = 0 .. n-1] read from [ops/keys/values.(off + i)], all routed to
    [shard]. First ticket, or [-1] when the ring lacks [n] contiguous
    free slots. [deadline_us] as for {!execute}. Chains complete as a
    unit: wait with {!await_chain} (or poll {!chain_done}) and collect
    all replies with {!harvest_chain}. Route with {!shard_of_key} — a
    request for a key submitted to the wrong shard is answered, but
    breaks per-key serialization. *)
val try_submit_chain :
  ?deadline_us:int ->
  t ->
  shard:int ->
  n:int ->
  ops:int array ->
  keys:int array ->
  values:int array ->
  off:int ->
  int

(** Has the whole chain completed? (One read of the last slot's
    sequence word — reply coalescing.) *)
val chain_done : t -> shard:int -> ticket:int -> n:int -> bool

(** Copy the chain's [n] replies into [replies.(off + i)] and free all
    slots. Only after {!chain_done} / {!await_chain}. *)
val harvest_chain :
  t -> shard:int -> ticket:int -> n:int -> replies:int array -> off:int -> unit

(** Block (spin, then park on the reply slot's ring lot) until the
    whole chain completes. *)
val await_chain : t -> shard:int -> ticket:int -> n:int -> unit

(** Abandon a 1-chain (the client deadline path): [-1] if the cancel
    won — never touch the ticket again; the request may or may not
    execute — or the reply code if the shard completed first (the
    cancel then acted as the harvest). Longer chains cannot be
    cancelled. *)
val cancel : t -> shard:int -> ticket:int -> int

(** {2 Post-run statistics} (read after {!stop}) *)

type stats = {
  ops : int; (* SET operations executed inside batch windows *)
  batches : int; (* batch windows opened *)
  max_batch : int; (* most operations any single window served *)
  rejected : int;
  oom : int; (* requests refused on (hard or budget-exhausted) pool exhaustion *)
  alloc_stalls : int; (* transient-exhaustion retries absorbed as backpressure *)
  stale_rejected : int; (* dead-incarnation requests rejected by replacements *)
  shed_busy : int; (* past-deadline requests answered busy, not executed *)
  cancelled : int; (* producer-cancelled slots discarded by consumers *)
  crash_events : int; (* shard crashes over the run (recovered or not) *)
  crashed_shards : int; (* shards dead right now (unrecovered) *)
  client_spins : int; (* cpu_relax iterations inside client await waits *)
  client_backoffs : int; (* times a client await wait parked *)
  live_peak : int; (* pool live-count high-water mark over the run *)
  arenas_attached : int; (* elastic pool: arenas attached under load *)
  arenas_detached : int; (* elastic pool: arena detaches completed *)
  resident_slots : int; (* pool slots still mapped *)
  arena_target : int; (* last autoscale decision (attached count without one) *)
}

val stats : t -> stats

(** Recovery telemetry; [None] without a recovery config. *)
val recovery_stats : t -> Recovery.stats option
