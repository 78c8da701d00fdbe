(** Sharded in-process request service over a concurrent set.

    Keys are hash-partitioned across N shards. Each shard is one domain
    owning one bounded MPSC {!Request_ring} and one SMR session of the
    underlying structure (the shards are the only threads of the
    structure; clients never touch it directly). Shard [i] starts on SMR
    tid [i]; with recovery enabled a respawned shard runs on a fresh tid
    from the free-tid pool, so the tid is carried in the worker, not
    derived from the shard index.

    The shard drains requests inside SMR batch windows
    ([SET.batch_enter] … [SET.batch_exit]) of at most B SET operations
    each: the per-operation reservation-publish + teardown of
    MP/HP/HE-class schemes is paid once per window instead of once per
    operation, at the documented cost of a protected window widened to
    B operations (DESIGN.md "Service layer and batch amortization").
    A {!op_mget} request counts each of its gets against the budget and
    the window rolls over mid-request when it fills, so with
    [batch = 1] every operation runs exactly the un-batched protocol.

    Fault plans ({!Mp_util.Fault}) fire inside the shard domains. A
    shard that draws a [Crash] dies the way the paper's §4.4 thread
    does — its announcements stay published and pin memory. What happens
    next depends on whether the service was created with a
    {!Recovery.config}:

    - {b Without recovery} (the PR-5 behaviour, and the default): the
      dead shard turns into a rejector that answers every subsequent
      request on its ring with {!reply_rejected}, so no client ever
      blocks — the service degrades, the §4.4 waste is paid forever.
    - {b With recovery}: each shard increments a heartbeat word every
      scheduling loop; a supervisor domain samples them. The crashing
      shard completes its in-flight request ({!reply_rejected}), writes
      its stats, stamps the heartbeat with the dead marker and exits its
      domain. The supervisor joins the corpse, bumps the ring's
      generation (so the replacement rejects the dead incarnation's
      queued requests exactly once — the seq-word lifecycle guarantees
      no reply is lost or duplicated across the takeover), respawns a
      replacement worker on a fresh tid for the same shard, and then
      {e adopts} the dead tid ({!Dstruct.Set_intf.SET.adopt}): every
      reservation the corpse left published is released, its retired
      backlog drained, and the tid returned to the pool. Wasted memory
      returns to the no-crash baseline instead of staying pinned.

    Backpressure: a request carries an optional absolute deadline; a
    shard that picks a request up past its deadline answers
    {!reply_busy} without executing it — the signal a client's retry
    loop can act on freely, because a busy reply guarantees
    non-execution (unlike {!reply_rejected}, which is ambiguous: the
    crash may have landed mid-operation).

    Wake-ups are event-driven: an idle shard spins briefly, then parks
    on its ring's doorbell ({!Request_ring.park_consumer}) until a
    producer or {!stop} rings it, and a client's blocking wait parks on
    the ring lot its reply slot maps to. Nothing on the request path
    sleep-polls, and a parked shard gives its core to the domains that
    have work. *)

module Padding = Mp_util.Padding

(* -- wire protocol ------------------------------------------------------- *)

let op_contains = 0
let op_insert = 1
let op_remove = 2

(** Multi-get: [key] is the first key, [value] the count [n >= 1]; the
    shard runs [contains] on the [n] consecutive keys and replies
    [reply_mget_base + hits]. One request, [n] operations — the
    request/reply round trip amortizes over the gets, the way
    memcached's [get_multi] or redis' [MGET] batch reads. *)
let op_mget = 3

let reply_false = 0
let reply_true = 1

(** The request was not (or not provably) executed: the owning shard
    crashed with it in flight, it was queued to a dead incarnation, or
    it hit the shutdown drain. Ambiguous for writes — a crash can land
    mid-operation — so retry loops must treat it as idempotent-only. *)
let reply_rejected = 2

(** The node pool was exhausted; the request was not executed. *)
let reply_oom = 3

(** Backpressure: the shard picked the request up past its deadline and
    did not execute it (definitely-not-executed, so safely retryable
    for any operation — the queue was the problem). *)
let reply_busy = 4

(** Multi-get replies are [reply_mget_base + hits] so hit counts never
    collide with the status codes above. *)
let reply_mget_base = 5

(* -- the service --------------------------------------------------------- *)

(** Heartbeat value a crashing worker leaves behind; live beats count
    up from 1. *)
let dead_hb = -1

(* Bounded backoff a shard spends on a *transient* pool exhaustion
   before answering [reply_oom] — slots may be hiding in other shards'
   magazines, or an arena attach may be in flight. Hard exhaustion (the
   pool at max_arenas with nothing in flight, {!Mempool.Core.last_alloc_hard})
   skips the schedule: waiting cannot produce an arena. *)
let oom_retries = 32

(* [cpu_relax] rounds an idle shard spins on its cursor slot before it
   parks on the ring's doorbell. *)
let idle_spins = 64

(** Elastic-pool autoscale policy ({!create}'s [?autoscale]): a policy
    domain samples the pool's live count every [sample_interval_s],
    folds a high-water mark per decision window of [decay_ticks]
    samples, and derives [arena_target] — the arenas needed to hold that
    windowed live peak plus [headroom_pct] percent. Growth is
    demand-driven on the alloc path and needs no policy; the policy's
    job is the other direction: when the pool holds more arenas than the
    target for a full window, it requests a drain of the topmost arena
    (completion stays gated through the SMR scan barrier, and allocation
    pressure auto-cancels the drain if the spike returns). *)
type autoscale = {
  sample_interval_s : float;
  decay_ticks : int;
  headroom_pct : int;
}

let default_autoscale = { sample_interval_s = 0.001; decay_ticks = 100; headroom_pct = 25 }

type t = {
  shards : int;
  batch : int;
  rings : Request_ring.t array;
  stop : bool Atomic.t;
  worker : int -> int -> unit -> unit; (* shard, tid *)
  adopt_tid : int -> unit;
  mutable domains : unit Domain.t array; (* by shard; entries replaced on respawn *)
  mutable supervisor : unit Domain.t option;
  pool : Mempool.Core.t; (* the structure's node pool (elasticity telemetry/policy) *)
  autoscale : autoscale option;
  mutable scaler : unit Domain.t option;
  arena_target : int Atomic.t; (* last autoscale decision; attached count without one *)
  joined : bool array; (* by shard: supervisor already joined this corpse *)
  recovery : Recovery.t option;
  hb : int Atomic.t array; (* spaced; [dead_hb] = corpse awaiting takeover *)
  cursors : int Atomic.t array;
      (* spaced; each shard's consumer cursor, published after every
         consumed slot so a replacement resumes exactly where the dead
         incarnation stopped (the join orders the hand-off) *)
  shard_tid : int array; (* current tid of each shard; supervisor-written *)
  dead : bool array; (* by shard: crashed and not (yet) recovered *)
  crash_events : int Atomic.t;
  (* per-shard tallies, spaced so concurrent shards don't false-share;
     accumulated with [+=] because shard incarnations never overlap
     (the supervisor joins the corpse before spawning the replacement) *)
  ops : int array;
  batches : int array;
  max_batch : int array;
  rejected : int array;
  oom : int array;
  stalls : int array; (* transient pool-exhaustion retries absorbed as backpressure *)
  stale : int array; (* dead-incarnation requests rejected by a replacement *)
  shed : int array; (* past-deadline requests answered busy *)
  cancelled : int array; (* producer-cancelled slots discarded *)
}

(* SplitMix-style finalizer: full-avalanche key hash so dense key ranges
   spread over shards instead of striping. *)
let[@inline] mix k =
  let h = k lxor (k lsr 30) in
  let h = h * 0x4be98134a5976fd3 land max_int in
  let h = h lxor (h lsr 29) in
  let h = h * 0x3bc8203a9e4037a9 land max_int in
  h lxor (h lsr 32)

let[@inline] shard_of_key t key = mix key mod t.shards

let[@inline] now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* Deadline shedding: only requests that carry a deadline pay the clock
   read. *)
let[@inline] past_deadline ring ~pos =
  let d = Request_ring.deadline_us ring ~pos in
  d > 0 && now_us () > d

let create ?recovery ?autoscale (type a) (module SET : Dstruct.Set_intf.SET with type t = a)
    (set : a) ~shards ~batch ~ring_capacity =
  let recovery = Option.map (fun cfg -> Recovery.create ~shards cfg) recovery in
  let recovery_on = Option.is_some recovery in
  let pool = SET.pool set in
  let rings = Array.init shards (fun _ -> Request_ring.create ~capacity:ring_capacity) in
  let stop = Atomic.make false in
  let dead = Array.make shards false in
  let crash_events = Atomic.make 0 in
  let hb = Padding.atomic_int_array shards in
  let cursors = Padding.atomic_int_array shards in
  let spaced () = Array.make (Padding.spaced_length shards) 0 in
  let ops = spaced () and batches = spaced () and max_batch = spaced () in
  let rejected = spaced () and oom = spaced () and stalls = spaced () in
  let stale = spaced () and shed = spaced () and cancelled = spaced () in
  let worker shard tid () =
    let s = SET.session set ~tid in
    let ring = rings.(shard) in
    let hb = hb.(Padding.spaced_index shard) in
    let cursor = cursors.(Padding.spaced_index shard) in
    let pos = ref (Atomic.get cursor) in
    let spins = ref 0 in
    let beat = ref 0 in
    let my_ops = ref 0 and my_batches = ref 0 and my_max = ref 0 in
    let my_rejected = ref 0 and my_oom = ref 0 and my_stalls = ref 0 in
    let my_stale = ref 0 and my_shed = ref 0 and my_cancelled = ref 0 in
    let oom_backoff = Mp_util.Backoff.create () in
    let alive = ref true in
    (* [exiting] only under recovery: the crashed worker leaves its
       domain so the supervisor can join it and take over; without
       recovery it stays as a rejector (the PR-5 degraded mode). *)
    let exiting = ref false in
    let die () =
      alive := false;
      dead.(shard) <- true;
      Atomic.incr crash_events;
      if recovery_on then exiting := true
    in
    let[@inline] advance () =
      incr pos;
      Atomic.set cursor !pos
    in
    (* Serve one drain: up to B requests ready on the ring, under batch
       windows whose ceiling counts SET *operations* — a multi-get's
       gets each count, and the window rolls over (exit + re-enter)
       mid-request rather than widening the protected window past B.
       With [batch = 1] every operation therefore runs the exact
       un-batched per-operation protocol. A [Crash] fault anywhere in a
       window kills the shard *without* running batch_exit — the §4.4
       scenario needs the dead thread's announcements to stay
       published — but the request being served is still completed
       (rejected) first, so its client does not hang. Cancelled, stale
       and past-deadline slots end the batch loop and fall back to the
       outer loop, which handles them without opening a window. *)
    let serve_batch () =
      match SET.batch_enter s with
      | exception Mp_util.Fault.Crashed _ -> die ()
      | () ->
        (* One wakeup drains at least the whole contiguous chain at the
           cursor (published head-last, so if the head is ready the rest
           is too): the window budget below still rolls every B ops, so
           chains longer than B amortize the wakeup without ever
           widening a protected window past B. *)
        let limit =
          let n = Request_ring.chain_len ring ~pos:!pos in
          if n > batch then n else batch
        in
        let reqs = ref 0 in
        let window_ops = ref 0 in
        let dead_here = ref false in
        let close_window () =
          incr my_batches;
          if !window_ops > !my_max then my_max := !window_ops
        in
        (* Called before each operation: spend one unit of the window's
           op budget, rolling the window when it is full. *)
        let budget () =
          if !window_ops >= batch then begin
            close_window ();
            (try SET.batch_exit s with Mp_util.Fault.Crashed _ -> dead_here := true);
            if not !dead_here then
              (try SET.batch_enter s with Mp_util.Fault.Crashed _ -> dead_here := true);
            window_ops := 0
          end
        in
        while
          (not !dead_here) && !reqs < limit
          && Request_ring.ready ring ~pos:!pos
          && Request_ring.stamp ring ~pos:!pos = Request_ring.generation ring
          && not (past_deadline ring ~pos:!pos)
        do
          let op = Request_ring.op ring ~pos:!pos
          and key = Request_ring.key ring ~pos:!pos
          and value = Request_ring.value ring ~pos:!pos in
          let reply =
            if op = 3 (* op_mget *) then begin
              let n = if value < 1 then 1 else value in
              let hits = ref 0 in
              (try
                 for i = 0 to n - 1 do
                   budget ();
                   if !dead_here then raise Exit;
                   if SET.contains s (key + i) then incr hits;
                   incr window_ops;
                   incr my_ops
                 done
               with
              | Exit -> ()
              | Mp_util.Fault.Crashed _ -> dead_here := true);
              if !dead_here then reply_rejected else reply_mget_base + !hits
            end
            else begin
              budget ();
              if !dead_here then reply_rejected
              else begin
                (* Pool exhaustion: transient exhaustion (slots hiding
                   in other threads' magazines, a grow or drain-cancel
                   in flight) is backpressure — retry under bounded
                   backoff; the failed insert left the structure
                   unchanged. Hard exhaustion (at max_arenas, nothing in
                   flight) answers [reply_oom] immediately: no pool-side
                   event can produce a slot, so burning the schedule
                   would only stall the whole ring behind this
                   request. *)
                let rec exec attempts =
                  match
                    (match op with
                    | 0 (* op_contains *) -> SET.contains s key
                    | 1 (* op_insert *) -> SET.insert s ~key ~value
                    | 2 (* op_remove *) -> SET.remove s key
                    | _ -> false)
                  with
                  | ok ->
                    if attempts > 0 then Mp_util.Backoff.reset oom_backoff;
                    incr window_ops;
                    incr my_ops;
                    if ok then reply_true else reply_false
                  | exception Mempool.Exhausted ->
                    incr my_stalls;
                    if attempts >= oom_retries || Mempool.Core.last_alloc_hard pool ~tid
                    then begin
                      incr my_oom;
                      reply_oom
                    end
                    else begin
                      Mp_util.Backoff.once oom_backoff;
                      exec (attempts + 1)
                    end
                  | exception Mp_util.Fault.Crashed _ ->
                    dead_here := true;
                    reply_rejected
                in
                exec 0
              end
            end
          in
          if not (Request_ring.complete ring ~pos:!pos reply) then incr my_cancelled;
          incr reqs;
          advance ()
        done;
        close_window ();
        if !dead_here then die ()
        else (try SET.batch_exit s with Mp_util.Fault.Crashed _ -> die ())
    in
    while (not (Atomic.get stop)) && not !exiting do
      incr beat;
      Atomic.set hb !beat;
      if Request_ring.cancelled ring ~pos:!pos then begin
        spins := 0;
        Request_ring.discard ring ~pos:!pos;
        incr my_cancelled;
        advance ()
      end
      else if Request_ring.ready ring ~pos:!pos then begin
        spins := 0;
        if not !alive then begin
          (* Dead shard, no recovery: keep answering so clients never
             block. *)
          if not (Request_ring.complete ring ~pos:!pos reply_rejected) then
            incr my_cancelled
          else incr my_rejected;
          advance ()
        end
        else if Request_ring.stamp ring ~pos:!pos < Request_ring.generation ring
        then begin
          (* Mail addressed to the dead incarnation: rejected exactly
             once, never executed. *)
          if not (Request_ring.complete ring ~pos:!pos reply_rejected) then
            incr my_cancelled
          else incr my_stale;
          advance ()
        end
        else if past_deadline ring ~pos:!pos then begin
          (* The request waited in the ring past its deadline: shed it
             with the definitely-not-executed busy signal. *)
          if not (Request_ring.complete ring ~pos:!pos reply_busy) then
            incr my_cancelled
          else incr my_shed;
          advance ()
        end
        else serve_batch ()
      end
      else if !spins < idle_spins then begin
        incr spins;
        Domain.cpu_relax ()
      end
      else ignore (Request_ring.park_consumer ring ~pos:!pos ~stop : bool)
    done;
    (* Crash exit racing [stop], or a clean stop: requests submitted
       before the stop flag landed must still be answered, or their
       clients spin forever. A mid-run crash exit skips the drain — the
       replacement takes the ring over at the published cursor. *)
    if (not !exiting) || Atomic.get stop then begin
      let draining = ref true in
      while !draining do
        if Request_ring.cancelled ring ~pos:!pos then begin
          Request_ring.discard ring ~pos:!pos;
          incr my_cancelled;
          advance ()
        end
        else if Request_ring.ready ring ~pos:!pos then begin
          if not (Request_ring.complete ring ~pos:!pos reply_rejected) then
            incr my_cancelled
          else incr my_rejected;
          advance ()
        end
        else draining := false
      done
    end;
    if !alive then SET.flush s;
    (* Hand the magazines back on the way out: a pending arena drain
       must not stall on free slots no thread will ever pop again. *)
    Mempool.Core.release_local pool ~tid;
    let i = Padding.spaced_index shard in
    ops.(i) <- ops.(i) + !my_ops;
    batches.(i) <- batches.(i) + !my_batches;
    if !my_max > max_batch.(i) then max_batch.(i) <- !my_max;
    rejected.(i) <- rejected.(i) + !my_rejected;
    oom.(i) <- oom.(i) + !my_oom;
    stalls.(i) <- stalls.(i) + !my_stalls;
    stale.(i) <- stale.(i) + !my_stale;
    shed.(i) <- shed.(i) + !my_shed;
    cancelled.(i) <- cancelled.(i) + !my_cancelled;
    (* The dead marker goes last: once the supervisor sees it, the join
       and takeover begin. *)
    if !exiting then Atomic.set hb dead_hb
  in
  {
    shards;
    batch;
    rings;
    stop;
    worker;
    adopt_tid = (fun tid -> SET.adopt set ~tid);
    domains = [||];
    supervisor = None;
    pool;
    autoscale;
    scaler = None;
    arena_target = Atomic.make (Mempool.Core.attached_arenas pool);
    joined = Array.make shards false;
    recovery;
    hb;
    cursors;
    shard_tid = Array.init shards Fun.id;
    dead;
    crash_events;
    ops;
    batches;
    max_batch;
    rejected;
    oom;
    stalls;
    stale;
    shed;
    cancelled;
  }

let shards t = t.shards
let batch t = t.batch
let ring_capacity t = Request_ring.capacity t.rings.(0)

(* -- the supervisor (recovery only) -------------------------------------- *)

(* Reject-drain a dead shard's ring from its published cursor — the
   post-stop path for a corpse no replacement will ever serve. Runs in
   the supervisor domain after joining the corpse, so the shard's stats
   slots and cursor are safely handed over. *)
let drain_reject t shard =
  let ring = t.rings.(shard) in
  let cursor = t.cursors.(Padding.spaced_index shard) in
  let i = Padding.spaced_index shard in
  let pos = ref (Atomic.get cursor) in
  let draining = ref true in
  while !draining do
    if Request_ring.cancelled ring ~pos:!pos then begin
      Request_ring.discard ring ~pos:!pos;
      t.cancelled.(i) <- t.cancelled.(i) + 1;
      incr pos
    end
    else if Request_ring.ready ring ~pos:!pos then begin
      if Request_ring.complete ring ~pos:!pos reply_rejected then
        t.rejected.(i) <- t.rejected.(i) + 1
      else t.cancelled.(i) <- t.cancelled.(i) + 1;
      incr pos
    end
    else draining := false
  done;
  Atomic.set cursor !pos

(* Takeover of a crashed shard: join the corpse (the happens-before edge
   every safety argument below leans on), bump the ring generation so
   the replacement rejects the dead incarnation's queued mail, respawn
   on a fresh tid when the pool has one, then adopt the dead tid —
   releasing everything it pinned — and return it to the pool. With an
   empty pool the order flips: adopt first, reuse the same tid. The
   respawn-first order keeps the shard's downtime at join + spawn; the
   adoption (a reservation clear plus one reclamation pass) runs while
   the replacement is already serving. *)
let recover t st shard =
  let t0 = Unix.gettimeofday () in
  Domain.join t.domains.(shard);
  let dead_tid = t.shard_tid.(shard) in
  Request_ring.bump_generation t.rings.(shard);
  let adopt_and_pool tid =
    t.adopt_tid tid;
    Recovery.note_adoption st;
    Mp_util.Fault.forgive ~tid;
    Recovery.return_tid st tid
  in
  (match Recovery.take_tid st with
  | Some fresh ->
    t.shard_tid.(shard) <- fresh;
    Atomic.set t.hb.(Padding.spaced_index shard) 0;
    t.dead.(shard) <- false;
    t.domains.(shard) <- Domain.spawn (t.worker shard fresh);
    let now = Unix.gettimeofday () in
    Recovery.note_recovery st ~elapsed_s:(now -. t0) ~at:now;
    adopt_and_pool dead_tid
  | None ->
    t.adopt_tid dead_tid;
    Recovery.note_adoption st;
    Mp_util.Fault.forgive ~tid:dead_tid;
    Atomic.set t.hb.(Padding.spaced_index shard) 0;
    t.dead.(shard) <- false;
    t.domains.(shard) <- Domain.spawn (t.worker shard dead_tid);
    let now = Unix.gettimeofday () in
    Recovery.note_recovery st ~elapsed_s:(now -. t0) ~at:now)

let supervise t st () =
  let cfg = Recovery.config st in
  let n = t.shards in
  let last_beat = Array.make n 0 in
  let last_change = Array.make n (Unix.gettimeofday ()) in
  let flagged = Array.make n false in
  while not (Atomic.get t.stop) do
    Unix.sleepf cfg.Recovery.poll_interval_s;
    for shard = 0 to n - 1 do
      let v = Atomic.get t.hb.(Padding.spaced_index shard) in
      if v = dead_hb then recover t st shard
      else begin
        let now = Unix.gettimeofday () in
        (* A parked shard's heartbeat stops until a request rings it
           awake, and the park has no timeout: idle is live. *)
        if v <> last_beat.(shard) || Request_ring.consumer_parked t.rings.(shard)
        then begin
          last_beat.(shard) <- v;
          last_change.(shard) <- now;
          flagged.(shard) <- false
        end
        else if
          (not flagged.(shard))
          && now -. last_change.(shard) > cfg.Recovery.stall_timeout_s
        then begin
          (* Heartbeat stale but not dead: the shard may be stalled on a
             fault or starved of CPU. Telemetry only — a stalled shard
             may wake up and keep using its tid, so adopting it would
             break the one-domain-per-tid rule. *)
          flagged.(shard) <- true;
          Recovery.note_suspected st
        end
      end
    done
  done;
  (* Post-stop sweep: a shard that crashed after the last loop pass has
     no replacement coming; join it and reject-drain its ring so no
     straggling client can hang. *)
  for shard = 0 to n - 1 do
    if Atomic.get t.hb.(Padding.spaced_index shard) = dead_hb && not t.joined.(shard)
    then begin
      Domain.join t.domains.(shard);
      t.joined.(shard) <- true;
      drain_reject t shard
    end
  done

(* -- elastic autoscale (policy domain) ------------------------------------ *)

(* See {!type-autoscale}. One decision per [decay_ticks] samples: derive
   [arena_target] from the window's live-count high-water mark (plus
   headroom) and request a drain when the pool holds more arenas than
   the target. At most one drain runs at a time ([request_shrink] is a
   no-op while one is in flight), detach completion stays gated through
   the SMR scan barrier, and a returning spike auto-cancels the drain on
   the alloc path — so the policy can afford to be simple-minded. The
   window peak re-seeds from the current live count, which is how the
   target decays after a spike even though the pool's own [live_peak]
   counter is a run-wide high-water mark. *)
let autoscale_loop t (cfg : autoscale) () =
  let pool = t.pool in
  let cap = Mempool.Core.capacity pool in
  let max_arenas = Mempool.Core.max_arenas pool in
  let peak = ref 0 in
  let tick = ref 0 in
  while not (Atomic.get t.stop) do
    Unix.sleepf cfg.sample_interval_s;
    let live = Mempool.Core.live_count pool in
    if live > !peak then peak := live;
    incr tick;
    if !tick >= cfg.decay_ticks then begin
      let need = !peak + (!peak * cfg.headroom_pct / 100) in
      let target = min max_arenas (max 1 ((need + cap - 1) / cap)) in
      Atomic.set t.arena_target target;
      if Mempool.Core.attached_arenas pool > target then
        ignore (Mempool.Core.request_shrink pool : int option);
      tick := 0;
      peak := live
    end
  done

let start t =
  t.domains <- Array.init t.shards (fun shard -> Domain.spawn (t.worker shard t.shard_tid.(shard)));
  (match t.autoscale with
  | Some cfg when Mempool.Core.max_arenas t.pool > 1 ->
    t.scaler <- Some (Domain.spawn (autoscale_loop t cfg))
  | _ -> ());
  match t.recovery with
  | Some st -> t.supervisor <- Some (Domain.spawn (supervise t st))
  | None -> ()

let stop t =
  Atomic.set t.stop true;
  (* The flag is set before the bells ring: a shard that re-checks
     under its bell's mutex after the ring sees it. *)
  Array.iter Request_ring.wake_consumer t.rings;
  (match t.scaler with
  | Some d ->
    Domain.join d;
    t.scaler <- None
  | None -> ());
  (match t.supervisor with
  | Some d ->
    Domain.join d;
    t.supervisor <- None
  | None -> ());
  Array.iteri
    (fun shard d -> if not t.joined.(shard) then Domain.join d)
    t.domains;
  t.domains <- [||]

(* -- client side --------------------------------------------------------- *)

let[@inline] try_submit ?(deadline_us = 0) t ~shard ~op ~key ~value =
  Request_ring.try_submit t.rings.(shard) ~op ~key ~value ~deadline_us

(** Submit a whole chain to one shard with a single tail CAS: requests
    [i = 0 .. n-1] read from [ops/keys/values.(off + i)]. Returns the
    first ticket or [-1] (ring lacks [n] contiguous free slots). Wait
    with {!await_chain} / {!chain_done} and collect with
    {!harvest_chain} — never per-slot poll/cancel. *)
let[@inline] try_submit_chain ?(deadline_us = 0) t ~shard ~n ~ops ~keys ~values
    ~off =
  Request_ring.try_submit_chain t.rings.(shard) ~deadline_us ~n ~ops ~keys
    ~values ~off

let[@inline] chain_done t ~shard ~ticket ~n =
  Request_ring.chain_done t.rings.(shard) ~ticket ~n

let[@inline] harvest_chain t ~shard ~ticket ~n ~replies ~off =
  Request_ring.harvest_chain t.rings.(shard) ~ticket ~n ~replies ~off

let[@inline] await_chain t ~shard ~ticket ~n =
  Request_ring.await_chain t.rings.(shard) ~ticket ~n

let[@inline] poll t ~shard ~ticket = Request_ring.poll t.rings.(shard) ~ticket

(** Abandon a ticket (deadline path): [-1] if the cancel won (never
    poll the ticket again; the request may or may not execute), or the
    reply if the shard completed first. *)
let[@inline] cancel t ~shard ~ticket = Request_ring.cancel t.rings.(shard) ~ticket

(** Blocking reply wait — the ring's spin → [cpu_relax] → park wait
    ({!Request_ring.await}), tallied in {!stats.client_spins} /
    {!stats.client_backoffs}. Only meaningful while the service is
    running: shards answer every submitted request before they exit, so
    this cannot hang across a clean [stop]. *)
let await t ~shard ~ticket = Request_ring.await t.rings.(shard) ~ticket

(* -- post-run statistics ------------------------------------------------- *)

type stats = {
  ops : int; (* SET operations executed inside batch windows *)
  batches : int; (* batch windows opened *)
  max_batch : int; (* most operations any single window served *)
  rejected : int; (* requests answered rejected (dead shard, final drain) *)
  oom : int; (* requests refused on pool exhaustion *)
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

let stats t =
  let sum a = Array.init t.shards (fun s -> a.(Padding.spaced_index s))
              |> Array.fold_left ( + ) 0 in
  let maxv a =
    Array.init t.shards (fun s -> a.(Padding.spaced_index s))
    |> Array.fold_left max 0
  in
  {
    ops = sum t.ops;
    batches = sum t.batches;
    max_batch = maxv t.max_batch;
    rejected = sum t.rejected;
    oom = sum t.oom;
    alloc_stalls = sum t.stalls;
    stale_rejected = sum t.stale;
    shed_busy = sum t.shed;
    cancelled = sum t.cancelled;
    crash_events = Atomic.get t.crash_events;
    crashed_shards =
      Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.dead;
    client_spins =
      Array.fold_left
        (fun acc r -> acc + (Request_ring.stats r).Request_ring.client_spins)
        0 t.rings;
    client_backoffs =
      Array.fold_left
        (fun acc r -> acc + (Request_ring.stats r).Request_ring.client_backoffs)
        0 t.rings;
    live_peak = Mempool.Core.live_peak t.pool;
    arenas_attached = Mempool.Core.arenas_attached t.pool;
    arenas_detached = Mempool.Core.arenas_detached t.pool;
    resident_slots = Mempool.Core.resident_slots t.pool;
    arena_target = Atomic.get t.arena_target;
  }

(** Recovery telemetry, [None] when the service was created without a
    recovery config. *)
let recovery_stats t = Option.map Recovery.stats t.recovery
