(** Bounded MPSC request/reply ring — the mailbox of a service shard.

    Vyukov-style bounded queue adapted to a request/reply lifecycle: the
    producers are client domains submitting requests, the single
    consumer is the shard domain owning the ring. Each slot carries a
    version-tagged sequence word (the same monotonic-tag-against-ABA
    idea as the mempool's chain stack) that walks through one lap of
    the ring as

      [pos]            free — claimable by the producer holding ticket [pos]
      [pos + 1]        submitted — payload valid, awaiting the consumer
      [pos + 2]        completed — reply valid, awaiting the producer's ack
      [pos + 3]        cancelled — the producer abandoned the request
                       ({!cancel}) before the consumer took it; the
                       consumer discards the slot when its cursor arrives
      [pos + capacity] acked — free for the next lap

    Every submission is a {e chain} of [n >= 1] requests: a producer
    claims [n] consecutive tickets with one CAS on the tail word;
    everything after that is wait-free for the claimant. The consumer
    owns its cursor and advances it privately, reading each slot's
    payload only after observing [pos + 1] in the sequence word. The
    submitted → completed and submitted → cancelled transitions race (a
    client may abandon a request the consumer is just taking), so both
    sides take that edge with a CAS on the sequence word — whoever wins
    owns the slot's fate, and the loser backs off through the winner's
    state. Only a chain of one (a 1-chain) may be cancelled.
    [capacity >= 4] keeps [pos + 3] distinct from [pos + capacity].

    Each slot additionally records the ring {e generation} it was
    submitted under ({!val-generation}): a recovery supervisor bumps the
    generation before respawning a crashed shard's consumer, so the
    replacement can recognize — and reject exactly once — requests
    submitted to the dead incarnation. The seq-word lifecycle is what
    guarantees exactly-once: whichever incarnation's consumer reaches
    the slot first takes the submitted → completed edge, and a joined
    domain cannot reach anything afterwards.

    The payload (op, key, value, reply, generation, deadline) lives in
    plain [int] arrays; every access is ordered by an [Atomic] read or
    write of the slot's sequence word, so the usual publication argument
    applies — the reader that observed the advanced sequence value also
    observes the payload writes that preceded it. Sequence atomics are
    spaced a cache line apart ({!Mp_util.Padding.atomic_int_array}) so a
    producer spinning on its reply does not steal the line the consumer
    is completing a neighbouring slot through.

    {e Chains.} The [n] slots of one submission ({!try_submit_chain})
    move together — the magazine idiom of the mempool's chain-batched
    free list, applied to requests. The chain's slots are published in
    {e reverse} order, head last, so a consumer that observes the head
    submitted observes the whole chain submitted and can drain it in
    one wakeup; each slot carries a "remaining in chain" word ([n - i]
    at the i-th slot) telling the consumer how far the contiguous run
    extends even if it takes the chain over mid-way (crash recovery). Replies are {e coalesced}: because the single
    consumer completes slots in cursor order, the chain's {e last} slot
    completing implies every earlier slot completed — the client waits
    on one sequence word per chain ({!chain_done} / {!await_chain})
    instead of spinning per slot, then harvests all replies and acks all
    slots at once ({!harvest_chain}). The memory-ordering argument: the
    consumer's payload write of reply [i] precedes (program order, one
    domain) its seq-word release of slot [i], which precedes its CAS on
    the last slot; the client's acquire read of the last slot's seq word
    therefore orders after every reply write in the chain. Across a
    crash takeover the same holds through the [Domain.join] edge: the
    replacement's completions happen-after everything the corpse wrote.

    {e Doorbells.} Neither side sleep-polls. An idle consumer parks on
    the ring's bell ({!park_consumer}): it counts itself as a sleeper,
    re-checks its cursor slot, and only then waits on the bell's
    [Condition]; a producer that sees a sleeper counted after
    publishing a chain's head rings the bell. A client's blocking wait
    ({!await_chain}) does a short phase of tight reads, then
    [Domain.cpu_relax], then parks on one of [min capacity 64] {e lots}
    chosen by the slot it waits on; {!complete} wakes that lot only
    when it completes a chain's last slot (chain-remaining word [= 1])
    and the lot has sleepers. Both handshakes are store-then-load on
    sequentially consistent atomics: each side stores its own word (the
    sleeper count; the slot's sequence word) before loading the
    other's, so at least one of them sees the other, and the waker
    broadcasts under the same mutex the sleeper re-checks under, so the
    wake-up cannot fall between re-check and wait. Spin iterations and
    parks are tallied into the ring's {!stats}
    ([client_spins]/[client_backoffs]).

    Submitting, serving, waiting, harvesting and cancelling allocate
    nothing ([-1] sentinels instead of options): the reply path of a
    request is a "reply slot", not a message. *)

(* Payload words per slot. *)
let stride = 7

(* A place to sleep. A sleeper counts itself in [sleepers], then
   re-checks its condition under [lock] before each wait; a waker makes
   its own store first, then loads [sleepers] and broadcasts under
   [lock] only if it is non-zero. *)
type lot = { lock : Mutex.t; cond : Condition.t; sleepers : int Atomic.t }

let new_lot () = { lock = Mutex.create (); cond = Condition.create (); sleepers = Atomic.make 0 }

let wake lot =
  Mutex.lock lot.lock;
  Condition.broadcast lot.cond;
  Mutex.unlock lot.lock

let[@inline] wake_sleepers lot = if Atomic.get lot.sleepers > 0 then wake lot

type t = {
  capacity : int;
  mask : int;
  seq : int Atomic.t array; (* spaced: slot i at [Padding.spaced_index i] *)
  payload : int array;
      (* [stride] plain ints per slot:
         op, key, value, reply, generation, deadline_us, chain-remaining *)
  tail : int Atomic.t; (* producers' ticket counter *)
  generation : int Atomic.t; (* bumped by the recovery supervisor *)
  wait_stats : int Atomic.t array;
      (* spaced; [0] = client spins (relax iterations), [1] = client
         parks — flushed once per completed blocking wait *)
  bell : lot; (* the consumer's doorbell *)
  lots : lot array; (* [min capacity 64] client lots, by [pos land lot_mask] *)
  lot_mask : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(** [create ~capacity] builds a ring of at least [capacity] slots
    (rounded up to a power of two, minimum 4 so the in-flight sequence
    states of one lap — including the cancelled state [pos + 3] —
    cannot collide with the next lap's). *)
let create ~capacity =
  let capacity = pow2_at_least (max 4 capacity) 4 in
  {
    capacity;
    mask = capacity - 1;
    seq =
      (let a = Mp_util.Padding.atomic_int_array capacity in
       for i = 0 to capacity - 1 do
         Atomic.set a.(Mp_util.Padding.spaced_index i) i
       done;
       a);
    payload = Array.make (capacity * stride) 0;
    tail = Atomic.make 0;
    generation = Atomic.make 0;
    wait_stats = Mp_util.Padding.atomic_int_array 2;
    bell = new_lot ();
    lots = Array.init (min capacity 64) (fun _ -> new_lot ());
    lot_mask = min capacity 64 - 1;
  }

let capacity t = t.capacity

let[@inline] seq_at t pos =
  Array.unsafe_get t.seq (Mp_util.Padding.spaced_index (pos land t.mask))

let[@inline] base t pos = (pos land t.mask) * stride

(* -- incarnations --------------------------------------------------------- *)

(** The current ring generation. Requests are stamped with it at submit
    time; a consumer serving a request stamped below the current
    generation is looking at a dead incarnation's mail. *)
let[@inline] generation t = Atomic.get t.generation

(** Bump the generation — the recovery supervisor's takeover edge. Must
    happen after the dead consumer was joined and before the replacement
    consumer starts. *)
let bump_generation t = Atomic.incr t.generation

(** Ring the consumer's bell unconditionally: the shutdown path, after
    raising its stop flag. (Producers ring it through
    [wake_sleepers] after each publish.) *)
let wake_consumer t = wake t.bell

(* -- producers ----------------------------------------------------------- *)

(* Is every slot of [pos, pos + n) free this lap? [0] yes; [-1] one
   still holds an unacked previous lap (the ring is full for this
   chain); [1] the tail read was stale. Slots ack out of order (each
   producer acks its own), so the whole span is checked, not just the
   head. Top-level rather than a closure over [pos] and [n], so a
   submit allocates nothing. *)
let rec scan_free t ~pos ~n i =
  if i >= n then 0
  else
    let v = Atomic.get (seq_at t (pos + i)) in
    if v = pos + i then scan_free t ~pos ~n (i + 1)
    else if v < pos + i then -1
    else 1

let rec submit_chain t ~deadline_us ~n ~ops ~keys ~values ~off =
  let pos = Atomic.get t.tail in
  match scan_free t ~pos ~n 0 with
  | -1 -> -1
  | 1 -> submit_chain t ~deadline_us ~n ~ops ~keys ~values ~off
  | _ ->
    if Atomic.compare_and_set t.tail pos (pos + n) then begin
      (* The span is ours: a slot observed free can only be claimed
         through a tail CAS, and ours won. Publish tail-first so the
         head's submitted edge is the last write the consumer can see. *)
      let gen = Atomic.get t.generation in
      for i = n - 1 downto 0 do
        let p = pos + i in
        let b = base t p in
        t.payload.(b) <- ops.(off + i);
        t.payload.(b + 1) <- keys.(off + i);
        t.payload.(b + 2) <- values.(off + i);
        t.payload.(b + 4) <- gen;
        t.payload.(b + 5) <- deadline_us;
        t.payload.(b + 6) <- n - i;
        Atomic.set (seq_at t p) (p + 1)
      done;
      wake_sleepers t.bell;
      pos
    end
    else submit_chain t ~deadline_us ~n ~ops ~keys ~values ~off

(** Claim [n] consecutive slots with one tail CAS and publish a whole
    request chain: requests [i = 0 .. n-1] are read from
    [ops.(off + i)] / [keys.(off + i)] / [values.(off + i)]. Returns
    the first ticket ([>= 0]; the chain occupies tickets
    [ticket .. ticket + n - 1]), or [-1] when the ring does not have
    [n] free contiguous slots. Slots are published head-last, so the
    consumer sees either no chain or the whole chain. [deadline_us] is
    an absolute deadline in integer microseconds ([0] = none): the
    consumer answers a request it picks up past its deadline with the
    service's busy code instead of executing it. [n] must be at most
    half the capacity, so one chain can never deadlock against its own
    unacked previous lap. Lock-free: a failed CAS means another
    producer claimed the span and made progress. *)
let try_submit_chain ?(deadline_us = 0) t ~n ~ops ~keys ~values ~off =
  if n < 1 || n > t.capacity / 2 then
    invalid_arg "Request_ring.try_submit_chain: n outside [1, capacity/2]";
  submit_chain t ~deadline_us ~n ~ops ~keys ~values ~off

(** Abandon the 1-chain at [ticket]: the deadline path of a client that
    will not wait for the reply. Returns [-1] if the cancel won — the
    slot is now the consumer's to discard, the request may or may not
    execute, and the ticket must never be waited on or harvested again
    — or the reply code ([>= 0], slot acked) if the consumer completed
    first, in which case the cancel degenerated into the harvest. A
    longer chain cannot be cancelled: its coalesced wait watches the
    last slot, which a cancel would leave uncompleted. Races only with
    the consumer: the submitting client is the only caller for its own
    ticket. *)
let cancel t ~ticket =
  let s = seq_at t ticket in
  let v = Atomic.get s in
  if v = ticket + 1 && Atomic.compare_and_set s (ticket + 1) (ticket + 3) then -1
  else if Atomic.get s = ticket + 2 then begin
    (* Completed (either before the first read or by winning the race
       against our CAS): take the reply and ack, exactly like a
       harvest. *)
    let r = t.payload.(base t ticket + 3) in
    Atomic.set s (ticket + t.capacity);
    r
  end
  else -1 (* already past this lap: tolerate a stray double-cancel *)

(* -- the consumer (one domain) ------------------------------------------- *)

(** Is the request at the consumer's cursor position submitted? *)
let[@inline] ready t ~pos = Atomic.get (seq_at t pos) = pos + 1

(** Did the producer cancel the request at the cursor position? *)
let[@inline] cancelled t ~pos = Atomic.get (seq_at t pos) = pos + 3

(* Payload accessors: valid only between [ready] and [complete]. *)
let[@inline] op t ~pos = t.payload.(base t pos)
let[@inline] key t ~pos = t.payload.(base t pos + 1)
let[@inline] value t ~pos = t.payload.(base t pos + 2)

(** The ring generation the request at [pos] was submitted under. *)
let[@inline] stamp t ~pos = t.payload.(base t pos + 4)

(** The request's absolute deadline in microseconds (0 = none). *)
let[@inline] deadline_us t ~pos = t.payload.(base t pos + 5)

(** Publish the reply for the request at [pos] and hand the slot back to
    its submitter, waking the submitter's lot when [pos] ends its chain.
    Returns [false] when the producer's {!cancel} won the race instead —
    the reply is dropped, the slot is freed here (the canceller never
    touches it again), and the consumer simply moves on. *)
let[@inline] complete t ~pos reply =
  let b = base t pos in
  t.payload.(b + 3) <- reply;
  (* Read before the CAS: once the slot is completed its submitter may
     ack it and a next-lap producer rewrite the payload. *)
  let chain_end = t.payload.(b + 6) = 1 in
  let s = seq_at t pos in
  if Atomic.compare_and_set s (pos + 1) (pos + 2) then begin
    if chain_end then wake_sleepers t.lots.(pos land t.lot_mask);
    true
  end
  else begin
    (* Only cancel takes submitted → cancelled; free the slot. *)
    Atomic.set s (pos + t.capacity);
    false
  end

(** Free a {!cancelled} slot at the cursor position. *)
let[@inline] discard t ~pos = Atomic.set (seq_at t pos) (pos + t.capacity)

(* Has the slot at the cursor left the free state — submitted or
   cancelled, the two states the consumer acts on? *)
let[@inline] arrived t ~pos =
  let v = Atomic.get (seq_at t pos) in
  v = pos + 1 || v = pos + 3

(** Park the consumer on the ring's bell until the slot at its cursor
    [pos] is submitted or cancelled, or [stop] is set; returns whether
    it slept. A producer publishing concurrently either is seen by the
    re-check or sees the consumer counted on the bell and rings (see
    {!type-lot}). [stop] must be set before the bell is rung
    ({!wake_consumer}). *)
let park_consumer t ~pos ~stop =
  let b = t.bell in
  Atomic.incr b.sleepers;
  Mutex.lock b.lock;
  let slept = ref false in
  while not (arrived t ~pos || Atomic.get stop) do
    slept := true;
    Condition.wait b.cond b.lock
  done;
  Mutex.unlock b.lock;
  Atomic.decr b.sleepers;
  !slept

(** Is the consumer parked (or parking)? Its heartbeat stops while it
    is, so a liveness monitor must count it as live. *)
let consumer_parked t = Atomic.get t.bell.sleepers > 0

(** How many requests remain in the contiguous chain starting at the
    cursor position (inclusive): [n - i] at the i-th slot of an
    n-chain, so [1] for a 1-chain. Valid under the same window as {!op}. A
    consumer may use it to widen one wakeup's drain to the whole chain. *)
let[@inline] chain_len t ~pos = t.payload.(base t pos + 6)

(* -- coalesced chain completion ------------------------------------------- *)

(** Has the whole chain [ticket .. ticket + n - 1] been completed? Only
    the {e last} slot's sequence word is read: the single consumer
    completes slots in cursor order, so the last slot completed implies
    every slot completed (and the acquire read here orders the caller
    after every reply write in the chain — see the header). Sound across
    crash takeover because the replacement consumer starts after
    [Domain.join] on the corpse. *)
let[@inline] chain_done t ~ticket ~n =
  Atomic.get (seq_at t (ticket + n - 1)) = ticket + n + 1

(** Harvest a completed chain: copy the [n] replies into
    [replies.(off + i)] and ack all [n] slots for the ring's next lap.
    Call only after {!chain_done} returned [true] (or {!await_chain}
    returned). Replies are read before any slot is acked, so a racing
    next-lap producer can never overwrite an unread reply. *)
let harvest_chain t ~ticket ~n ~replies ~off =
  for i = 0 to n - 1 do
    replies.(off + i) <- t.payload.(base t (ticket + i) + 3)
  done;
  for i = 0 to n - 1 do
    let p = ticket + i in
    Atomic.set (seq_at t p) (p + t.capacity)
  done

(* -- blocking waits ------------------------------------------------------ *)

(* Wait phases: [spin_reads] tight re-reads, then [relax_budget]
   iterations of [Domain.cpu_relax], then a park on the slot's lot. A
   reply that lands within the spin phases costs no system call; past
   them the waiter yields its core to the shard it is waiting on. *)
let spin_reads = 64
let relax_budget = 512

(* Park on [pos]'s lot until the slot word [s] reads [target], which
   {!complete} stores before it rings the lot; returns whether the
   waiter slept. *)
let park_client t ~pos s ~target =
  let lot = t.lots.(pos land t.lot_mask) in
  Atomic.incr lot.sleepers;
  Mutex.lock lot.lock;
  let slept = ref false in
  while Atomic.get s <> target do
    slept := true;
    Condition.wait lot.cond lot.lock
  done;
  Mutex.unlock lot.lock;
  Atomic.decr lot.sleepers;
  !slept

(* Wait until the chain-ending slot at [pos] reaches [target]: up to
   [spin_reads] tight reads, then up to [relax_budget] [cpu_relax]
   rounds, then a park; tally the relax rounds and the park into
   [wait_stats]. Plain loops rather than local recursive functions: a
   closure over the slot would allocate on every wait. *)
let wait_seq t ~pos ~target =
  let s = seq_at t pos in
  let reads = ref spin_reads in
  while Atomic.get s <> target && !reads > 0 do
    decr reads
  done;
  let relaxes = ref 0 in
  if !reads = 0 then begin
    while Atomic.get s <> target && !relaxes < relax_budget do
      Domain.cpu_relax ();
      incr relaxes
    done;
    if !relaxes >= relax_budget && park_client t ~pos s ~target then
      ignore (Atomic.fetch_and_add t.wait_stats.(Mp_util.Padding.spaced_index 1) 1 : int)
  end;
  if !relaxes > 0 then
    ignore (Atomic.fetch_and_add t.wait_stats.(Mp_util.Padding.spaced_index 0) !relaxes : int)

(** Block until the whole chain [ticket .. ticket + n - 1] is completed
    (one wait on the last slot's sequence word — see {!chain_done});
    follow with {!harvest_chain}. *)
let await_chain t ~ticket ~n =
  let last = ticket + n - 1 in
  wait_seq t ~pos:last ~target:(last + 2)

(* -- stats ---------------------------------------------------------------- *)

type stats = {
  client_spins : int;  (** [Domain.cpu_relax] iterations inside waits *)
  client_backoffs : int;  (** times a waiter parked on its lot *)
}

(** Cumulative wait tallies, exact under concurrent waiters (each
    blocking wait adds its counts with one [fetch_and_add]). *)
let stats t =
  {
    client_spins = Atomic.get t.wait_stats.(Mp_util.Padding.spaced_index 0);
    client_backoffs = Atomic.get t.wait_stats.(Mp_util.Padding.spaced_index 1);
  }
