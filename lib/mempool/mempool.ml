(** Manual-memory node pool — now an elastic multi-arena allocator.

    OCaml is garbage-collected, so this pool simulates the C/C++ manual
    memory management environment the SMR problem lives in: node payloads
    are pre-allocated once, [alloc] hands out slot ids, and [free] makes a
    slot reusable. A freed slot that is still reachable through a stale
    reference is exactly a use-after-free; with [check_access] enabled,
    every payload access verifies the slot is not free and counts
    violations, turning silent memory corruption into a measurable signal.

    The pool is split in two layers. {!Core} is payload-agnostic: slot
    life-cycle state, free lists, and the per-node metadata words SMR
    schemes need (MP index, birth and death epochs) — mirroring the paper's
    practice of reserving extra space during node allocation. ['a t] adds
    the client data structure's node payloads on top.

    {2 Arenas}

    Memory is organized as a chain of up to [max_arenas] fixed-size arenas
    of [capacity] slots each, in the style of Blelloch & Wei's
    constant-time fixed-size allocator: a slot's id is
    [(arena lsl off_bits) lor offset] (see {!Handle.arena_of_id}), so link
    words, idx16 packing, UAF checking and the incarnation ABA tag are
    exactly as in the single-arena pool. With the default [max_arenas = 1]
    the pool behaves identically to its fixed-size predecessor.

    Elasticity is online. When allocation finds every reachable free list
    empty and the pool is below [max_arenas], one thread attaches a fresh
    arena (payload hook first, then its slots are published as chains) and
    allocation continues — no locks on the hot path, the attach and the
    drain {e election} are serialized by a single CAS flag. Shrinking is a
    two-phase drain: {!Core.request_shrink} publishes a generation-tagged
    drain {e token} naming the highest arena, after which
    its slots are routed out of circulation ("parked") as they surface —
    the arena's own chain stack is scrubbed, and the alloc/free fast paths
    lazily capture strays for the cost of one predictable branch. Once
    every slot of the arena is parked, the arena is *detachable*; actually
    unmapping it (dropping payloads and free-list arrays) is gated through
    the SMR layer ({!Smr_core.Detach}): a scheme completes the detach from
    its scan path exactly when no reservation can still reach a node in the
    arena. Each slot's metadata record (state, index, birth, death,
    incarnation: one interleaved run of words in the arena's [meta]
    array) persists as a shim after detach, so stale handles keep failing
    validation and the UAF detector keeps counting.

    {2 Free lists}

    Allocation is thread-partitioned for scalability: each thread owns two
    private free-list magazines (no synchronization) and exchanges whole
    [fair_share]-length chains with per-arena lock-free stacks of chains
    whose top words carry ABA version tags. A spill publishes an entire
    chain with one CAS and a refill claims one with one CAS — magazine
    batching in the style of Blelloch & Wei — instead of one CAS per slot.
    Chains on an arena's stack are homogeneous (all slots of that arena),
    which is what makes a drain complete: a magazine that mixed slots from
    several arenas is partitioned at spill time (amortized O(1) per free;
    single-arena pools never mix and keep the one-CAS spill). Refill scans
    arenas lowest-first, concentrating load in low arenas so high arenas
    go idle and become drainable. Slots are linked through side arrays, so
    free lists and chains allocate nothing (`bench/main.exe pipe`
    measures the transfer path). *)

exception Exhausted

(* Slot life cycle; single-word ints, so reads cannot tear. *)
let state_free = 0
let state_live = 1
let state_retired = 2

module Core = struct
  (* Magazine arena tags: which arena the magazine's slots belong to.
     [tag_none] while empty, [tag_mixed] once slots of two arenas met —
     a mixed spill partitions the chain per arena (the rare path). *)
  let tag_none = -1
  let tag_mixed = -2

  (* The [draining] word: [drain_idle] when no drain is in flight;
     [drain_sealed] while a cancel or a detach completion owns the word
     (clearing the stamp, rescuing or unmapping — growers and new
     elections must back off until the owner publishes [drain_idle]);
     otherwise a {e token} [(gen lsl drain_arena_bits) lor arena]. The
     generation makes every elected drain unique, so a stale poller that
     judged quiescence against an earlier drain of the same arena fails
     its completion CAS instead of unmapping the re-drained arena (ABA
     across cancel + re-drain). *)
  let drain_idle = -1
  let drain_sealed = -2
  let drain_arena_bits = 16
  let drain_arena_mask = (1 lsl drain_arena_bits) - 1
  let[@inline] drain_token ~gen k = (gen lsl drain_arena_bits) lor k

  (* Arena index of a drain token; -1 for [drain_idle]/[drain_sealed],
     so hot-path "is my arena draining" compares stay one branch. *)
  let[@inline] drain_arena d = if d < 0 then -1 else d land drain_arena_mask

  (* Per-thread free lists: an active magazine ([head]) that alloc pops
     and free pushes, plus a full spare magazine that delays the global
     round-trip. Rotating a full active list into the spare keeps its
     (head, tail, count) known, so spilling it later is a single chain
     push — no walk, no per-slot CAS. The trailing [pad_] fields fatten
     the record past a cache line (per-stripe dummy fields idiom,
     {!Mp_util.Padding}) so neighbouring threads' records cannot
     false-share under the stats sampler. *)
  type local = {
    mutable head : int; (* active magazine, -1 = empty *)
    mutable count : int;
    mutable tail : int; (* last slot of the active magazine, -1 when empty *)
    mutable arena : int; (* arena tag of the active magazine *)
    mutable spare_head : int; (* full spare magazine, -1 = none *)
    mutable spare_count : int;
    mutable spare_tail : int;
    mutable spare_arena : int;
    mutable last_hard : bool;
        (* the last exhaustion this thread saw was *hard*: the pool is at
           [max_arenas] with no grow or drain in flight, so backoff-and-
           retry cannot be satisfied by an arena attach (see
           {!last_alloc_hard}) *)
    mutable allocs : int; (* slots this thread allocated *)
    mutable live : int; (* this thread's allocs - frees; may go negative *)
    mutable peak : int;
        (* high-water mark of [live]; mirrored into the shared
           [live_peak] stripe only when it rises, so steady-state allocs
           pay plain field updates instead of striped-counter reads *)
    (* scratch for partitioning a mixed chain at spill time; owned by the
       magazine's thread, so plain arrays *)
    scr_head : int array;
    scr_tail : int array;
    scr_len : int array;
    mutable pad_0 : int;
    mutable pad_1 : int;
  }

  (* A slot's persistent metadata is one record of [meta_words]
     consecutive words at [off * meta_words] in its arena's [meta], so
     the words a reclamation pass reads to judge a node and [free]
     writes to release it share one cache line. All-zero is a free slot
     ([state_free] = 0) with index, epochs and incarnation 0. *)
  let meta_words = 5
  let m_state = 0
  let m_index = 1 (* 32-bit MP index *)
  let m_birth = 2 (* birth epoch *)
  let m_death = 3 (* retirement epoch *)
  let m_incarnation = 4 (* bumped on every free; detects slot reuse *)

  (* One fixed-size arena. [meta] is the post-detach shim: it persists
     for the life of the pool so stale ids keep resolving to
     validating-but-failing metadata (and the incarnation clock never
     rewinds across a detach/re-attach cycle). The free-list arrays and
     the payloads (held by ['a t]) are what a detach actually unmaps. *)
  type arena = {
    base : int; (* first slot id of this arena *)
    size : int;
    meta : int array; (* [size * meta_words] words, see [meta_words] *)
    mutable stack_next : int array; (* free-list links (full ids), -1 terminated *)
    mutable chain_next : int array; (* by chain-head offset: next chain head id *)
    mutable chain_len : int array; (* by chain-head offset: slots in this chain *)
    mutable chain_tail : int array; (* by chain-head offset: last slot id *)
    top : int Atomic.t; (* (version << 33) lor (head + 1); 0 in low bits = empty *)
    parked_top : int Atomic.t; (* Treiber list of parked slots (id + 1); 0 = empty *)
    parked : int Atomic.t; (* slots routed out of circulation by a drain *)
  }

  type t = {
    capacity : int; (* slots per arena *)
    threads : int;
    max_arenas : int;
    elastic : bool;
        (* [max_arenas > 1]. A fixed pool can never grow or drain, so
           the hot paths skip every draining check behind this immutable
           branch — alloc/free in the single-arena steady state cost
           what they did before elasticity existed. *)
    off_bits : int; (* id = (arena lsl off_bits) lor offset *)
    off_mask : int;
    arenas : arena array; (* length max_arenas; a shared dummy until attached *)
    attached : int Atomic.t; (* arenas [0, attached) are attached *)
    growing : bool Atomic.t; (* election lock: arena attach AND drain election *)
    draining : int Atomic.t; (* drain token, or drain_idle / drain_sealed *)
    drain_gen : int Atomic.t; (* monotonic; a fresh generation per elected drain *)
    detach_stamp : (int * int) option Atomic.t;
        (* [(token, epoch)] stamped at full park, [None] unset. Tagging
           the stamp with its drain token keeps a stamp from ever gating
           a different drain: a poller that stalls across a cancel and
           re-drain of the same arena either reads a stamp whose token
           mismatches (and restamps fresh) or completes with a stale
           token (and fails the completion CAS). *)
    mutable grow_hook : int -> unit; (* payload attach, before slots publish *)
    mutable detach_hook : int -> unit; (* payload drop, at detach *)
    grows : int Atomic.t; (* arenas attached beyond the initial one *)
    shrinks : int Atomic.t; (* arenas detached *)
    resident : int Atomic.t; (* slots of currently attached arenas *)
    locals : local array;
    fair_share : int; (* magazine size: chain length and overflow trigger *)
    check_access : bool;
    violations : int Atomic.t;
    live_peak : Mp_util.Striped_counter.t;
        (* per-thread high-water mark of (allocs - frees); the summed
           peak is a conservative upper bound on the true peak live
           count (see [live_peak] below) *)
  }

  let id_plus1_mask = (1 lsl 33) - 1
  let top_pack ~version ~id_plus1 = (version lsl 33) lor id_plus1
  let top_id_plus1 top = top land id_plus1_mask
  let top_version top = top lsr 33

  let[@inline] arena_of t id = Array.unsafe_get t.arenas (id lsr t.off_bits)
  let[@inline] off_of t id = id land t.off_mask

  (* Position of slot [id]'s metadata record in its arena's [meta]. *)
  let[@inline] meta_of t id = off_of t id * meta_words

  (* -- per-arena stacks of chains (version-tagged against ABA) ------------ *)

  (* A chain is a [stack_next]-linked slot list, [head] through [tail]
     (whose link is -1), with its length and tail memoized at the head.
     Pushing or popping one is a single CAS on the tagged top word
     regardless of length. Chains on an arena's stack hold only that
     arena's slots (the homogeneity invariant a drain relies on). *)

  let rec arena_push_chain t a ~head ~tail ~len =
    let off = off_of t head in
    let top = Atomic.get a.top in
    a.chain_next.(off) <- top_id_plus1 top - 1;
    a.chain_len.(off) <- len;
    a.chain_tail.(off) <- tail;
    let top' = top_pack ~version:(top_version top + 1) ~id_plus1:(head + 1) in
    if not (Atomic.compare_and_set a.top top top') then arena_push_chain t a ~head ~tail ~len

  (* Publish slots one at a time as [fair_share]-length chains on arena
     [a]'s stack: [iter add] calls [add id] once per slot, which links it
     into the chain under construction and pushes the chain when full.
     Seeding, an arena attach and a parked-list rescue publish through
     this, so every chain on a stack has a spill's length. *)
  let push_chains t a iter =
    let head = ref (-1) and tail = ref (-1) and len = ref 0 in
    let flush () =
      if !len > 0 then begin
        arena_push_chain t a ~head:!head ~tail:!tail ~len:!len;
        head := -1;
        tail := -1;
        len := 0
      end
    in
    iter (fun id ->
        a.stack_next.(off_of t id) <- !head;
        if !head < 0 then tail := id;
        head := id;
        incr len;
        if !len >= t.fair_share then flush ());
    flush ()

  (* Pop a whole chain; returns its head or -1. [chain_len]/[chain_tail]
     at the head stay valid for the winner: they are only rewritten by the
     next push of that head, which requires winning it first. Reading
     [chain_next] of a head another thread already claimed may yield a
     stale link, but then the top word moved and the CAS fails. *)
  let rec arena_pop_chain t a =
    let top = Atomic.get a.top in
    let head_plus1 = top_id_plus1 top in
    if head_plus1 = 0 then -1
    else begin
      let head = head_plus1 - 1 in
      let next = a.chain_next.(off_of t head) in
      let top' = top_pack ~version:(top_version top + 1) ~id_plus1:(next + 1) in
      if Atomic.compare_and_set a.top top top' then head else arena_pop_chain t a
    end

  (* -- drain/park machinery ------------------------------------------------ *)

  (* Push the parked list back onto the arena's chain stack. Used when a
     drain is cancelled, and by a parker that lost a race with the
     cancellation (see [park]): whoever exchanges the list owns its
     slots, so each slot is re-published exactly once. *)
  let rescue_parked t a =
    let rescued = ref 0 in
    push_chains t a (fun add ->
        let id = ref (Atomic.exchange a.parked_top 0 - 1) in
        while !id >= 0 do
          let next = a.stack_next.(off_of t !id) in
          add !id;
          incr rescued;
          id := next
        done);
    if !rescued > 0 then ignore (Atomic.fetch_and_add a.parked (- !rescued) : int)

  (* Route one free slot of a draining arena out of circulation. The
     caller owns the slot (it popped it, freed it, or claimed its chain),
     so each slot parks at most once. The post-park re-check closes the
     cancellation race: a parker that read [draining = k] before a
     concurrent cancel re-publishes the list itself, so no slot is ever
     stranded. *)
  let rec park t a id =
    let top = Atomic.get a.parked_top in
    a.stack_next.(off_of t id) <- top - 1;
    if Atomic.compare_and_set a.parked_top top (id + 1) then begin
      Atomic.incr a.parked;
      if drain_arena (Atomic.get t.draining) <> id lsr t.off_bits then rescue_parked t a
    end
    else park t a id

  (* Capture every chain still on a draining arena's stack. Called by
     [request_shrink] and re-run on every detach poll, so chains spilled
     concurrently with the drain request are captured too. *)
  let scrub_stack t a =
    let head = ref (arena_pop_chain t a) in
    while !head >= 0 do
      let id = ref !head in
      while !id >= 0 do
        let next = a.stack_next.(off_of t !id) in
        park t a !id;
        id := next
      done;
      head := arena_pop_chain t a
    done

  (* -- spill --------------------------------------------------------------- *)

  (* Publish a chain known to hold only arena [head lsr off_bits] slots
     with one CAS. A chain of a draining arena leaves circulation
     instead. *)
  let spill_chain t ~head ~tail ~len =
    let a = arena_of t head in
    if t.elastic && drain_arena (Atomic.get t.draining) = head lsr t.off_bits then begin
      let id = ref head in
      while !id >= 0 do
        let next = a.stack_next.(off_of t !id) in
        park t a !id;
        id := next
      done
    end
    else arena_push_chain t a ~head ~tail ~len

  (* Spill a magazine. Homogeneous (the overwhelmingly common case, and
     the only case for a single-arena pool): one chain push. Mixed:
     partition the chain per arena through the thread-local scratch
     arrays — one extra touch per slot, amortized over the [fair_share]
     frees that filled the magazine — then push each part. *)
  let spill t l ~head ~tail ~len ~tag =
    if tag >= 0 then spill_chain t ~head ~tail ~len
    else begin
      Array.fill l.scr_head 0 t.max_arenas (-1);
      Array.fill l.scr_len 0 t.max_arenas 0;
      let id = ref head in
      while !id >= 0 do
        let a = arena_of t !id in
        let next = a.stack_next.(off_of t !id) in
        let k = !id lsr t.off_bits in
        if l.scr_head.(k) < 0 then l.scr_tail.(k) <- !id;
        a.stack_next.(off_of t !id) <- l.scr_head.(k);
        l.scr_head.(k) <- !id;
        l.scr_len.(k) <- l.scr_len.(k) + 1;
        id := next
      done;
      for k = 0 to t.max_arenas - 1 do
        if l.scr_head.(k) >= 0 then
          spill_chain t ~head:l.scr_head.(k) ~tail:l.scr_tail.(k) ~len:l.scr_len.(k)
      done
    end

  (** When set, a detected use-after-free raises instead of counting, so
      tests can pinpoint the offending access (set via MP_TRAP_UAF=1). *)
  let trap_on_violation =
    ref (match Sys.getenv_opt "MP_TRAP_UAF" with Some ("1" | "true") -> true | _ -> false)

  exception Use_after_free of int

  (* Debug-only: remember who retired/freed each slot last, so a trapped
     use-after-free can print the other side of the race. *)
  let history : (int, string) Hashtbl.t = Hashtbl.create 64
  let history_lock = Mutex.create ()

  let record_history id what =
    if !trap_on_violation then begin
      let bt = Printexc.get_callstack 12 in
      Mutex.lock history_lock;
      Hashtbl.replace history id
        (Printf.sprintf "--- last %s of slot %d ---\n%s" what id
           (Printexc.raw_backtrace_to_string bt));
      Mutex.unlock history_lock
    end

  let mk_arena ~base ~size =
    {
      base;
      size;
      meta = Array.make (size * meta_words) 0;
      stack_next = Array.make size (-1);
      chain_next = Array.make size (-1);
      chain_len = Array.make size 0;
      chain_tail = Array.make size (-1);
      top = Atomic.make (top_pack ~version:0 ~id_plus1:0);
      parked_top = Atomic.make 0;
      parked = Atomic.make 0;
    }

  let create ~capacity ~threads ?fair_share ?(check_access = false) ?(max_arenas = 1) () =
    if capacity > Handle.max_id then invalid_arg "Mempool.create: capacity too large";
    if capacity < threads then invalid_arg "Mempool.create: capacity < threads";
    if max_arenas < 1 then invalid_arg "Mempool.create: max_arenas must be >= 1";
    (* Smallest offset field holding one arena. *)
    let off_bits =
      let b = ref 0 in
      while 1 lsl !b < capacity do
        incr b
      done;
      !b
    in
    if max_arenas > Handle.max_arenas_for ~off_bits ~arena_slots:capacity then
      invalid_arg "Mempool.create: max_arenas * capacity exceeds the handle id space";
    if max_arenas > 1 lsl drain_arena_bits then
      invalid_arg "Mempool.create: max_arenas exceeds the drain-token arena field";
    let fair_share =
      match fair_share with
      | Some f when f >= 1 -> f
      | Some _ -> invalid_arg "Mempool.create: fair_share must be positive"
      | None -> max 64 (capacity / (threads * 2))
    in
    let arena0 = mk_arena ~base:0 ~size:capacity in
    let dummy = mk_arena ~base:0 ~size:0 in
    let t =
      {
        capacity;
        threads;
        max_arenas;
        elastic = max_arenas > 1;
        off_bits;
        off_mask = (1 lsl off_bits) - 1;
        arenas = Array.init max_arenas (fun k -> if k = 0 then arena0 else dummy);
        attached = Atomic.make 1;
        growing = Atomic.make false;
        draining = Atomic.make drain_idle;
        drain_gen = Atomic.make 0;
        detach_stamp = Atomic.make None;
        grow_hook = ignore;
        detach_hook = ignore;
        grows = Atomic.make 0;
        shrinks = Atomic.make 0;
        resident = Atomic.make capacity;
        locals =
          Array.init threads (fun _ ->
              {
                head = -1;
                count = 0;
                tail = -1;
                arena = tag_none;
                spare_head = -1;
                spare_count = 0;
                spare_tail = -1;
                spare_arena = tag_none;
                last_hard = false;
                allocs = 0;
                live = 0;
                peak = 0;
                scr_head = Array.make max_arenas (-1);
                scr_tail = Array.make max_arenas (-1);
                scr_len = Array.make max_arenas 0;
                pad_0 = 0;
                pad_1 = 0;
              });
        fair_share;
        check_access;
        violations = Atomic.make 0;
        live_peak = Mp_util.Striped_counter.create ~threads;
      }
    in
    (* Seed each local free list with its fair share; everything else goes
       to arena 0's stack — as fair_share-length chains — so any thread
       can reach it. A slot parked in another thread's local magazines is
       still unreachable until that thread spills, so [Exhausted] is a
       per-thread-visibility condition, not a global-emptiness one. *)
    let seeded = ref 0 in
    push_chains t arena0 (fun add ->
        for id = capacity - 1 downto 0 do
          let l = t.locals.(!seeded mod threads) in
          if l.count < t.fair_share && !seeded < threads * t.fair_share then begin
            arena0.stack_next.(id) <- l.head;
            if l.head < 0 then l.tail <- id;
            l.head <- id;
            l.count <- l.count + 1;
            l.arena <- 0;
            incr seeded
          end
          else add id
        done);
    t

  let capacity t = t.capacity
  let threads t = t.threads
  let fair_share t = t.fair_share
  let off_bits t = t.off_bits
  let max_arenas t = t.max_arenas
  let attached_arenas t = Atomic.get t.attached
  let arenas_attached t = Atomic.get t.grows
  let arenas_detached t = Atomic.get t.shrinks
  let resident_slots t = Atomic.get t.resident

  let detaching_slots t =
    let d = Atomic.get t.draining in
    if d < 0 then 0 else Atomic.get t.arenas.(drain_arena d).parked

  let set_grow_hook t f = t.grow_hook <- f
  let set_detach_hook t f = t.detach_hook <- f

  (* -- grow ---------------------------------------------------------------- *)

  (* Attach arena [k]: payloads first (via the hook), slots published as
     chains after, so a popper that reaches a new slot through the stack's
     release/acquire pair always finds its payload and metadata in place.
     A re-attached arena (grown back after a detach) keeps its metadata
     shim — the incarnation clock continues, so handles minted before the
     detach still fail validation against post-re-attach incarnations
     exactly as they would across an ordinary free/re-alloc. *)
  let attach_arena t k =
    let base = k lsl t.off_bits in
    let a =
      let existing = t.arenas.(k) in
      if existing.size > 0 then begin
        existing.stack_next <- Array.make existing.size (-1);
        existing.chain_next <- Array.make existing.size (-1);
        existing.chain_len <- Array.make existing.size 0;
        existing.chain_tail <- Array.make existing.size (-1);
        existing
      end
      else begin
        let a = mk_arena ~base ~size:t.capacity in
        t.arenas.(k) <- a;
        a
      end
    in
    t.grow_hook k;
    push_chains t a (fun add ->
        for off = a.size - 1 downto 0 do
          add (base + off)
        done);
    ignore (Atomic.fetch_and_add t.resident a.size : int);
    Atomic.incr t.grows;
    (* Publish last: threads iterate stacks [0, attached). *)
    Atomic.incr t.attached

  (* One thread attaches; contenders see a transient exhaustion and back
     off into their retry schedule. [growing] is the election lock shared
     with {!request_shrink}, so no drain can be elected while an attach is
     in flight; an already-elected drain (token) — or a cancel/detach
     mid-completion ([drain_sealed]) — excludes the attach instead:
     allocation pressure first cancels the drain, then grows on retry.
     Requiring strictly [drain_idle] (not merely negative) is what keeps
     an attach from running concurrently with [complete_detach]'s unmap:
     the completion publishes [drain_idle] only after [attached] and the
     arena arrays are consistent. *)
  let try_grow t =
    if t.max_arenas = 1 then false
    else if Atomic.get t.attached >= t.max_arenas then false
    else if not (Atomic.compare_and_set t.growing false true) then false
    else begin
      let ok = Atomic.get t.draining = drain_idle && Atomic.get t.attached < t.max_arenas in
      if ok then attach_arena t (Atomic.get t.attached);
      Atomic.set t.growing false;
      ok
    end

  (* -- shrink -------------------------------------------------------------- *)

  (** Start draining the highest attached arena (arena 0 never detaches:
      sentinels live there). At most one drain at a time; returns the
      draining arena's index, or [None] if the pool cannot shrink right
      now. The drain completes asynchronously through the SMR detach
      barrier ({!detach_ready}/{!complete_detach}). *)
  let request_shrink t =
    if Atomic.get t.attached <= 1 then None
    else if not (Atomic.compare_and_set t.growing false true) then None
    else begin
      (* Election runs under the [growing] lock, so no attach is in
         flight and none can start before the token is published. Read
         [draining] before [attached]: once the word reads idle no detach
         completion is in flight either (completions publish [drain_idle]
         only after decrementing [attached]), and no new drain can be
         elected while we hold the lock — so the topmost arena we elect
         is stable and the undo dance of racing a concurrent grow is
         gone. From [drain_idle] the only possible writer of [draining]
         is this election, hence the plain set. *)
      let idle = Atomic.get t.draining = drain_idle in
      let n = Atomic.get t.attached in
      let r =
        if (not idle) || n <= 1 then None
        else begin
          let k = n - 1 in
          Atomic.set t.draining (drain_token ~gen:(Atomic.fetch_and_add t.drain_gen 1) k);
          Some k
        end
      in
      Atomic.set t.growing false;
      (match r with Some k -> scrub_stack t t.arenas.(k) | None -> ());
      r
    end

  (** Abort an in-flight drain, returning every parked slot to
      circulation. Called on allocation pressure (a spike mid-shrink must
      win) and available to policy code. False if no drain was in flight
      or the detach already entered completion. *)
  let cancel_shrink t =
    let d = Atomic.get t.draining in
    if d < 0 then false
    else if not (Atomic.compare_and_set t.draining d drain_sealed) then false
    else begin
      (* Owning the sealed word excludes a concurrent completion (its
         token CAS fails) and any new election (the word is not idle).
         Clear the stamp and return the parked slots before publishing
         idle, so the next elected drain starts from a clean slate. *)
      Atomic.set t.detach_stamp None;
      rescue_parked t t.arenas.(drain_arena d);
      Atomic.set t.draining drain_idle;
      true
    end

  (** The draining arena once every one of its slots is parked:
      [(token, base, size)], the token naming this particular drain (its
      arena is {!drain_arena}[ token]). Re-scrubs the arena's stack
      first, so chains that raced the drain request are captured by
      whoever polls. This is the condition under which the SMR layer may
      start its quiescence protocol; [None] while slots are still in
      circulation (live, retired, or hiding in magazines). *)
  let detach_ready t =
    let d = Atomic.get t.draining in
    if d < 0 then None
    else begin
      let a = t.arenas.(drain_arena d) in
      scrub_stack t a;
      if Atomic.get a.parked = a.size then Some (d, a.base, a.size) else None
    end

  (** Epoch stamp for [token]'s detach grace period: -1 until an SMR
      scheme stamps it (once per drain) after observing {!detach_ready}.
      A stamp recorded for a different token reads as unset — a stamp
      never gates a drain it was not taken under. *)
  let detach_stamp t ~token =
    match Atomic.get t.detach_stamp with
    | Some (tok, s) when tok = token -> s
    | _ -> -1

  (* First writer wins per token. A stale poller (its token no longer
     current) may clobber the record with its own tag; the current
     drain's pollers then see a token mismatch and restamp with a later
     epoch — a conservative delay, never an early completion, since
     completing still requires the matching token below. *)
  let set_detach_stamp t ~token v =
    let cur = Atomic.get t.detach_stamp in
    match cur with
    | Some (tok, _) when tok = token -> ()
    | _ -> ignore (Atomic.compare_and_set t.detach_stamp cur (Some (token, v)) : bool)

  (** Finish the detach of the drain named by [token]: unmap the arena
      (payload hook + free-list arrays dropped; the metadata shim
      persists) and retire its index from the attached range. Caller is
      the SMR layer, after its quiescence check passed against [token]'s
      stamp. False if the drain was cancelled concurrently — or if
      [token] is stale (the drain it names was cancelled and the arena
      re-drained): the CAS below fails for every token but the current
      one, so a quiescence verdict computed under an earlier drain can
      never unmap the arena of a later one. *)
  let complete_detach t token =
    if token < 0 || not (Atomic.compare_and_set t.draining token drain_sealed) then false
    else begin
      let k = drain_arena token in
      let a = t.arenas.(k) in
      (* Structural invariants, not races: while a token is in flight no
         attach can start ([try_grow] requires idle) and the electing
         [request_shrink] saw no attach in flight (election holds the
         [growing] lock), so [attached] is pinned at [k + 1]; full park
         ([detach_ready]) is what let the caller stamp. *)
      assert (Atomic.get t.attached = k + 1);
      assert (Atomic.get a.parked = a.size);
      (* Retire the index first: refills stop visiting the arena, and the
         stack is empty (every slot is parked), so nothing races the
         array drops below. *)
      Atomic.set t.attached k;
      Atomic.set a.parked_top 0;
      Atomic.set a.parked 0;
      a.stack_next <- [||];
      a.chain_next <- [||];
      a.chain_len <- [||];
      a.chain_tail <- [||];
      t.detach_hook k;
      ignore (Atomic.fetch_and_add t.resident (-a.size) : int);
      Atomic.incr t.shrinks;
      Atomic.set t.detach_stamp None;
      Atomic.set t.draining drain_idle;
      true
    end

  (* -- alloc / free ------------------------------------------------------ *)

  (* Make the active magazine non-empty: promote the spare, else claim a
     whole chain (one CAS) from the lowest-numbered arena stack holding
     one — the low-first bias that lets high arenas go idle. False when
     both local magazines and every reachable stack are empty. *)
  let try_refill t l =
    if l.spare_head >= 0 then begin
      l.head <- l.spare_head;
      l.count <- l.spare_count;
      l.tail <- l.spare_tail;
      l.arena <- l.spare_arena;
      l.spare_head <- -1;
      l.spare_count <- 0;
      l.spare_tail <- -1;
      l.spare_arena <- tag_none;
      true
    end
    else begin
      let n = if t.elastic then Atomic.get t.attached else 1 in
      let d = if t.elastic then drain_arena (Atomic.get t.draining) else -1 in
      let rec go k =
        if k >= n then false
        else if k = d then go (k + 1)
        else begin
          let a = t.arenas.(k) in
          let head = arena_pop_chain t a in
          if head < 0 then go (k + 1)
          else begin
            l.head <- head;
            l.count <- a.chain_len.(off_of t head);
            l.tail <- a.chain_tail.(off_of t head);
            l.arena <- k;
            true
          end
        end
      in
      go 0
    end

  (* Pop the head of a non-empty active magazine and mark it live.
     Returns -1 if the magazine drained away under parking (every popped
     slot belonged to the draining arena) — the caller falls back to the
     refill path. *)
  let rec take t ~tid l =
    let id = l.head in
    let a = arena_of t id in
    let off = off_of t id in
    l.head <- a.stack_next.(off);
    l.count <- l.count - 1;
    if l.head < 0 then l.tail <- -1;
    if t.elastic && drain_arena (Atomic.get t.draining) = id lsr t.off_bits then begin
      (* Stray slot of a draining arena surfacing from a magazine: it
         leaves circulation here instead of being handed out. *)
      park t a id;
      if l.head >= 0 then take t ~tid l else -1
    end
    else begin
      let m = off * meta_words in
      assert (a.meta.(m + m_state) = state_free);
      a.meta.(m + m_state) <- state_live;
      a.meta.(m + m_index) <- 0;
      l.allocs <- l.allocs + 1;
      (* Live count can only rise on an alloc, so this is the one place
         the high-water mark needs lifting. The per-tid difference may go
         negative (slots are freed by the retiring thread, not always the
         allocating one); [l.peak] floors at 0 and the sum of per-thread
         peaks still dominates every instantaneous global live count —
         the right direction for a capacity ceiling. The shared stripe
         the sampler reads is written only when the peak actually rises
         (a plateau in steady state), keeping the hot path to plain field
         updates. *)
      l.live <- l.live + 1;
      if l.live > l.peak then begin
        l.peak <- l.live;
        Mp_util.Striped_counter.max_to t.live_peak ~tid l.live
      end;
      id
    end

  (* Every reachable free list is empty. Try, in order: cancelling an
     in-flight drain (a spike mid-shrink reclaims the parked slots),
     attaching a fresh arena. If neither applies the exhaustion is hard —
     no pool-side event can produce a slot; only another thread spilling
     its magazines can. *)
  let rec alloc_slow t ~tid l =
    if try_refill t l then begin
      let id = take t ~tid l in
      if id >= 0 then id else alloc_slow t ~tid l
    end
    else begin
      let progressed =
        (Atomic.get t.draining >= 0 && cancel_shrink t) || try_grow t
      in
      if progressed then alloc_slow t ~tid l
      else begin
        (* Strictly [drain_idle]: a detach mid-completion ([drain_sealed])
           is about to lower [attached], after which a grow can satisfy
           the retry — still a transient exhaustion. *)
        l.last_hard <-
          t.max_arenas > 1
          && Atomic.get t.attached >= t.max_arenas
          && (not (Atomic.get t.growing))
          && Atomic.get t.draining = drain_idle;
        raise Exhausted
      end
    end

  (** Pop a free slot for thread [tid]; refills a whole chain from an
      arena stack when both local magazines are empty, attaching a fresh
      arena when below [max_arenas]. Raises {!Exhausted} if no slot is
      reachable. *)
  let alloc t ~tid =
    let l = t.locals.(tid) in
    if l.head < 0 then begin
      Mp_util.Fault.hit ~tid Mp_util.Fault.Mempool_refill;
      alloc_slow t ~tid l
    end
    else begin
      let id = take t ~tid l in
      if id >= 0 then id else alloc_slow t ~tid l
    end

  (** Was this thread's last {!Exhausted} a {e hard}
      exhaustion — the pool at [max_arenas] with no grow or drain in
      flight, so waiting out a backoff schedule cannot be satisfied by an
      arena attach? Always false for fixed-size ([max_arenas = 1]) pools,
      whose exhaustion has always been backpressure (slots may be hiding
      in other threads' magazines). Callers use it to fail fast to an
      out-of-memory reply instead of burning the full retry budget. *)
  let last_alloc_hard t ~tid = t.locals.(tid).last_hard

  (** Return slot [id] to thread [tid]'s free lists. A full active
      magazine rotates into the spare; a displaced full spare is spilled
      to its arena's stack as one chain (a single CAS per [fair_share]
      frees on the chained path). A slot of a draining arena leaves
      circulation instead of entering the magazine. *)
  let free t ~tid id =
    let a = arena_of t id in
    let off = off_of t id in
    let m = off * meta_words in
    assert (a.meta.(m + m_state) <> state_free);
    record_history id "free";
    a.meta.(m + m_state) <- state_free;
    a.meta.(m + m_incarnation) <- a.meta.(m + m_incarnation) + 1;
    let l = t.locals.(tid) in
    l.live <- l.live - 1;
    if t.elastic && drain_arena (Atomic.get t.draining) = id lsr t.off_bits then park t a id
    else begin
      if l.count >= t.fair_share then begin
        if l.spare_head >= 0 then begin
          Mp_util.Fault.hit ~tid Mp_util.Fault.Mempool_spill;
          spill t l ~head:l.spare_head ~tail:l.spare_tail ~len:l.spare_count
            ~tag:l.spare_arena
        end;
        l.spare_head <- l.head;
        l.spare_count <- l.count;
        l.spare_tail <- l.tail;
        l.spare_arena <- l.arena;
        l.head <- -1;
        l.count <- 0;
        l.tail <- -1;
        l.arena <- tag_none
      end;
      a.stack_next.(off) <- l.head;
      if l.head < 0 then begin
        l.tail <- id;
        l.arena <- id lsr t.off_bits
      end
      else if l.arena <> id lsr t.off_bits then l.arena <- tag_mixed;
      l.head <- id;
      l.count <- l.count + 1
    end

  (** Return thread [tid]'s magazines to shared circulation. For a worker
      that is exiting: a drain cannot complete while free slots of the
      draining arena sit in a magazine no thread will ever pop again.
      Owner-only discipline — call it from the exiting thread itself, or
      from a successor strictly after the owner stopped (e.g. after
      joining its domain). Idempotent. *)
  let release_local t ~tid =
    let l = t.locals.(tid) in
    if l.head >= 0 then begin
      spill t l ~head:l.head ~tail:l.tail ~len:l.count ~tag:l.arena;
      l.head <- -1;
      l.count <- 0;
      l.tail <- -1;
      l.arena <- tag_none
    end;
    if l.spare_head >= 0 then begin
      spill t l ~head:l.spare_head ~tail:l.spare_tail ~len:l.spare_count ~tag:l.spare_arena;
      l.spare_head <- -1;
      l.spare_count <- 0;
      l.spare_tail <- -1;
      l.spare_arena <- tag_none
    end

  (* -- metadata accessors ------------------------------------------------ *)

  let[@inline] state t id = (arena_of t id).meta.(meta_of t id + m_state)
  let[@inline] is_free t id = state t id = state_free

  let mark_retired t id =
    assert (state t id = state_live);
    record_history id "retire";
    (arena_of t id).meta.(meta_of t id + m_state) <- state_retired

  let[@inline] index t id = (arena_of t id).meta.(meta_of t id + m_index)
  let set_index t id v = (arena_of t id).meta.(meta_of t id + m_index) <- v
  let[@inline] birth t id = (arena_of t id).meta.(meta_of t id + m_birth)
  let set_birth t id v = (arena_of t id).meta.(meta_of t id + m_birth) <- v
  let[@inline] death t id = (arena_of t id).meta.(meta_of t id + m_death)
  let set_death t id v = (arena_of t id).meta.(meta_of t id + m_death) <- v
  let[@inline] incarnation t id = (arena_of t id).meta.(meta_of t id + m_incarnation)

  (** Canonical (unmarked) handle for slot [id], embedding the top 16 bits
      of its MP index. *)
  let handle t id =
    Handle.make ~inc:(incarnation t id) ~id ~idx16:(Handle.idx16_of_index (index t id)) ~mark:0
      ()

  (** Record a use-after-free access to slot [id] if it is free. *)
  let[@inline] note_access t id =
    if t.check_access && state t id = state_free then begin
      Atomic.incr t.violations;
      if !trap_on_violation then begin
        (match Hashtbl.find_opt history id with
        | Some h -> prerr_endline h
        | None -> ());
        raise (Use_after_free id)
      end
    end

  (* -- statistics -------------------------------------------------------- *)

  let violations t = Atomic.get t.violations
  (* The alloc and free counts are the owners' plain [allocs] and [live]
     fields, not striped atomics: a locked RMW per call drains the store
     buffer, so in a reclamation pass every free would wait for the
     previous free's link store to reach the cache. A reader racing the
     owners reads values they stored (OCaml's memory model has no torn or
     invented reads); after the owners stopped, the sums are exact. *)
  let alloc_count t = Array.fold_left (fun acc l -> acc + l.allocs) 0 t.locals
  let live_count t = Array.fold_left (fun acc l -> acc + l.live) 0 t.locals
  let free_count t = alloc_count t - live_count t

  (** High-water mark of the live count, maintained on the alloc path so
      peaks between sampler ticks are visible. Summed over per-thread
      peaks: never under the true peak. *)
  let live_peak t = Mp_util.Striped_counter.sum t.live_peak

  (* -- testing hooks ----------------------------------------------------- *)

  (* The debug chain hooks address arena 0 — the arena the original
     single-stack invariants (ABA tagging, top-word monotonicity) are
     stated over. *)
  let debug_top_word t = Atomic.get t.arenas.(0).top

  let debug_pop_chain t =
    let a = t.arenas.(0) in
    let head = arena_pop_chain t a in
    if head < 0 then None
    else Some (head, a.chain_tail.(off_of t head), a.chain_len.(off_of t head))

  let debug_push_chain t ~head ~tail ~len = arena_push_chain t t.arenas.(0) ~head ~tail ~len
  let debug_next_free t id = (arena_of t id).stack_next.(off_of t id)
end

(* Payloads are per arena, attached and dropped through the Core hooks.
   [payloads.(k)] is published before arena [k]'s slots are pushed (the
   stack CAS pair orders the plain stores), and emptied at detach: a
   use-after-free into a detached arena therefore raises — the honest
   analog of dereferencing an unmapped page. *)
type 'a t = {
  core : Core.t;
  payloads : 'a array array;
  off_bits : int;
  off_mask : int;
}

let create ~capacity ~threads ?fair_share ?(check_access = false) ?(max_arenas = 1)
    make_payload =
  let core = Core.create ~capacity ~threads ?fair_share ~check_access ~max_arenas () in
  let off_bits = Core.off_bits core in
  let payloads = Array.make max_arenas [||] in
  payloads.(0) <- Array.init capacity make_payload;
  Core.set_grow_hook core (fun k ->
      if Array.length payloads.(k) = 0 then begin
        let base = k lsl off_bits in
        payloads.(k) <- Array.init capacity (fun off -> make_payload (base + off))
      end);
  Core.set_detach_hook core (fun k -> payloads.(k) <- [||]);
  { core; payloads; off_bits; off_mask = (1 lsl off_bits) - 1 }

let core t = t.core
let capacity t = Core.capacity t.core

(** Payload of slot [id]. With [check_access], accessing a free slot is
    recorded as a use-after-free violation (the access still returns the
    stale payload, as real hardware would — unless the slot's arena was
    detached, in which case the "page" is gone and the access raises). *)
let[@inline] get t id =
  Core.note_access t.core id;
  t.payloads.(id lsr t.off_bits).(id land t.off_mask)

let[@inline] unsafe_get t id = t.payloads.(id lsr t.off_bits).(id land t.off_mask)

let alloc t ~tid = Core.alloc t.core ~tid
let free t ~tid id = Core.free t.core ~tid id
let handle t id = Core.handle t.core id
let violations t = Core.violations t.core
let live_count t = Core.live_count t.core
let live_peak t = Core.live_peak t.core
