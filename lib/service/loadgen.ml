(** Client-side load generator for {!Service}.

    Three client modes over the service's two ways in:

    - {b Closed loop}: each client keeps a fixed pipeline of P requests
      outstanding — classic benchmark load, throughput-seeking. End-to-
      end latency is measured from submission.
    - {b Open loop}: arrivals follow a Poisson process at a fixed rate
      per client, independent of completions (bounded by [window]
      outstanding; arrivals that cannot be submitted are counted as
      {!result.drops}, never silently skipped). Latency is measured
      from the {e scheduled} arrival time, so a stalled service shows
      up as queueing delay instead of being hidden by back-pressure
      (the coordinated-omission correction).
    - {b Chained}: each round generates [chain] requests and runs them
      through the shard-batch executor ({!Service.execute}) — one ring
      chain per shard, one coalesced wait per chain. Latency is one
      sample per round.

    The closed and open loops are one {e window client}: requests enter
    the ring as 1-chains ({!Service.try_submit_chain} at [n = 1]) and
    are reaped oldest-first. The two loops differ only in when a request
    is due, which [t0] it carries, and whether a refused arrival counts
    as a drop.

    Resilience (all off by default, so a plain spec behaves exactly like
    the pre-recovery generator):

    - {b Deadlines} ([spec.deadline_s] > 0): each request carries an
      absolute deadline. The service sheds requests it picks up late
      ({!Service.reply_busy}); a window client abandons the head-of-line
      request once it is overdue through {!Service.cancel} and tallies
      it [deadline_exceeded] — distinct from drops and rejections —
      unless the cancel raced a completion, which is then recorded
      normally.
    - {b Retries} ([spec.max_retries] > 0, window clients):
      bounded-exponential-backoff resubmission, idempotence-aware.
      [reply_busy] guarantees the request did not execute, so {e any}
      operation retries on it; [reply_rejected] is ambiguous (the shard
      may have crashed mid-write), so only reads ([contains]/[mget])
      retry on it — writes give up, exactly the at-most-once behaviour
      a correct client needs. Retried requests keep their original
      [t0], so latency covers the whole saga.
    - {b Backpressure telemetry}: every submit that found a ring full
      counts into [ring_full] (open-loop full-ring arrivals also count
      a drop).

    Every client records end-to-end latency into its own
    {!Mp_util.Histogram} (log-bucket, allocation-free) and the run
    merges them: p50/p99/p99.9/max come from one shared-shape
    histogram, the same one the harness runner uses.

    Window clients poll completions oldest-first (tickets on one ring
    complete in FIFO order; across shards this is head-of-line
    conservative — a measured artifact of the bounded client, not of
    the service). Deadlines are likewise enforced head-of-line: a
    retried request re-enters at the tail with its original [t0], so an
    overdue non-head entry is cancelled when it reaches the head. *)

module Histogram = Mp_util.Histogram
module Rng = Mp_util.Rng
module Keygen = Mp_util.Keygen

type mode =
  | Closed of { pipeline : int }
  | Open of { rate : float; window : int }
      (** [rate]: mean arrivals per second {e per client}. *)
  | Chained of { chain : int }

type spec = {
  clients : int;
  duration_s : float;
  warmup_s : float; (* completions before this are executed, not recorded *)
  read_pct : int;
  insert_pct : int; (* remainder = removes *)
  mget : int;
      (* reads are submitted as one [op_mget] of this many consecutive
         keys (1 = plain [op_contains]); [completed] counts the gets *)
  key_range : int;
  zipf_alpha : float option;
  seed : int;
  mode : mode;
  deadline_s : float; (* per-request deadline; 0 = none *)
  max_retries : int; (* retry budget per request (idempotence-aware) *)
}

type result = {
  submitted : int; (* requests that entered a ring in the window (first attempts) *)
  completed : int; (* successful SET ops inside the measured window *)
  completed_reqs : int; (* successful requests (mget counts once here) *)
  rejected : int; (* reply_rejected given up on, in the window *)
  busy : int; (* reply_busy given up on (deadline shed by the service) *)
  oom : int; (* reply_oom in the window *)
  drops : int; (* open loop: arrivals that could not be submitted *)
  deadline_exceeded : int; (* overdue requests abandoned via cancel *)
  ring_full : int; (* submits that found the ring full *)
  retries : int; (* resubmissions (not counted in [submitted]) *)
  elapsed_s : float; (* the measured window (duration - warmup) *)
  throughput : float; (* completed / elapsed_s *)
  latency : Histogram.t; (* merged across clients *)
}

let[@inline] pause spins =
  if !spins < 64 then begin
    incr spins;
    Domain.cpu_relax ()
  end
  else Unix.sleepf 0.0001

(* Per-client outcome tallies, merged after the join. Every submitted
   request lands in exactly one of completed_reqs / rejected / busy /
   oom / deadline_exceeded — the conservation law the chaos soak checks
   across crash–respawn boundaries (with [warmup_s = 0] the gating
   window covers the whole run and the law is exact). *)
type tally = {
  hist : Histogram.t;
  mutable submitted : int;
  mutable completed : int;
  mutable completed_reqs : int;
  mutable rejected : int;
  mutable busy : int;
  mutable oom : int;
  mutable drops : int;
  mutable deadline_exceeded : int;
  mutable ring_full : int;
  mutable retries : int;
}

let tally_create () =
  {
    hist = Histogram.create ();
    submitted = 0;
    completed = 0;
    completed_reqs = 0;
    rejected = 0;
    busy = 0;
    oom = 0;
    drops = 0;
    deadline_exceeded = 0;
    ring_full = 0;
    retries = 0;
  }

(* Count one request's final reply: a success completes [mget] SET
   operations for a multi-get, one otherwise. *)
let tally_reply tl ~mget r =
  if r = Service.reply_busy then tl.busy <- tl.busy + 1
  else if r = Service.reply_oom then tl.oom <- tl.oom + 1
  else if r = Service.reply_rejected then tl.rejected <- tl.rejected + 1
  else begin
    tl.completed <- tl.completed + (if r >= Service.reply_mget_base then mget else 1);
    tl.completed_reqs <- tl.completed_reqs + 1
  end

let[@inline] is_read op = op = Service.op_contains || op = Service.op_mget

(* The absolute wire deadline for a request whose clock started at [t0]. *)
let[@inline] deadline_us_of spec ~t0 =
  if spec.deadline_s > 0.0 then int_of_float ((t0 +. spec.deadline_s) *. 1e6) else 0

(* Bounded exponential backoff before a retry: 20 µs doubling, capped at
   1 ms — enough to let a recovering shard take its ring over without
   turning the client into a busy-spinner. *)
let[@inline] backoff attempts = Unix.sleepf (min 0.001 (ldexp 0.00002 attempts))

(* A client's request stream: its own split of the seed, and the key
   distribution the spec asks for. *)
let stream spec ~idx =
  let rng = Rng.split ~seed:spec.seed ~tid:idx in
  let keys =
    match spec.zipf_alpha with
    | Some alpha -> Keygen.zipf ~range:spec.key_range ~alpha
    | None -> Keygen.uniform ~range:spec.key_range
  in
  (rng, keys)

(* Reads become one [op_mget] of [spec.mget] consecutive keys when the
   spec asks for multi-gets; writes are always single-key. *)
let[@inline] pick_op spec rng =
  let roll = Rng.below rng 100 in
  if roll < spec.read_pct then
    if spec.mget > 1 then Service.op_mget else Service.op_contains
  else if roll < spec.read_pct + spec.insert_pct then Service.op_insert
  else Service.op_remove

(* -- the window client (closed and open loops) ---------------------------- *)

(* A client's outstanding 1-chains in parallel arrays, drained
   oldest-first. Request identity (op/key/value/attempts) rides along so
   the retry path can resubmit without threading state elsewhere, and
   a request is submitted straight from its window slot. *)
type window = {
  tickets : int array;
  shard_of : int array;
  t0 : float array;
  ops : int array;
  keys : int array;
  values : int array;
  attempts : int array;
  reply : int array; (* one cell: the harvest target *)
  cap : int;
  mutable head : int;
  mutable count : int;
}

let window_create cap =
  {
    tickets = Array.make cap 0;
    shard_of = Array.make cap 0;
    t0 = Array.make cap 0.0;
    ops = Array.make cap 0;
    keys = Array.make cap 0;
    values = Array.make cap 0;
    attempts = Array.make cap 0;
    reply = [| 0 |];
    cap;
    head = 0;
    count = 0;
  }

(* Submit a request as a 1-chain from the window's tail slot; [true] if
   it entered its shard's ring (and so the window), [false] on a full
   ring. The caller guarantees window room. *)
let window_submit service spec w ~t0 ~op ~key ~value ~attempts =
  let i = (w.head + w.count) mod w.cap in
  let shard = Service.shard_of_key service key in
  w.ops.(i) <- op;
  w.keys.(i) <- key;
  w.values.(i) <- value;
  let ticket =
    Service.try_submit_chain service ~deadline_us:(deadline_us_of spec ~t0) ~shard ~n:1
      ~ops:w.ops ~keys:w.keys ~values:w.values ~off:i
  in
  if ticket < 0 then false
  else begin
    w.tickets.(i) <- ticket;
    w.shard_of.(i) <- shard;
    w.t0.(i) <- t0;
    w.attempts.(i) <- attempts;
    w.count <- w.count + 1;
    true
  end

let[@inline] window_pop w =
  w.head <- (w.head + 1) mod w.cap;
  w.count <- w.count - 1

(* Classify a reply for a request that left the window. Successes record
   into the histogram (latency is one sample per request — a request
   round-trip time). Retryable failures resubmit with backoff while the
   budget, the deadline and the run clock allow; everything else
   tallies exactly once. *)
let handle_reply service spec w tl ~mget ~t_measure ~t_stop ~t0 ~op ~key ~value
    ~attempts r =
  let now = Unix.gettimeofday () in
  let in_win = now >= t_measure in
  let retryable =
    (* busy = definitely not executed: anything may retry. rejected =
       ambiguous: only idempotent reads retry. oom: give up (the pool
       will not refill by itself). *)
    r = Service.reply_busy || (r = Service.reply_rejected && is_read op)
  in
  if
    retryable && attempts < spec.max_retries && now < t_stop
    && (spec.deadline_s <= 0.0 || now -. t0 < spec.deadline_s)
    && w.count < w.cap
  then begin
    backoff attempts;
    if window_submit service spec w ~t0 ~op ~key ~value ~attempts:(attempts + 1) then begin
      if in_win then tl.retries <- tl.retries + 1
    end
    else if in_win then begin
      tl.ring_full <- tl.ring_full + 1;
      tally_reply tl ~mget r
    end
  end
  else if in_win then begin
    tally_reply tl ~mget r;
    if r <> Service.reply_busy && r <> Service.reply_rejected && r <> Service.reply_oom
    then Histogram.record tl.hist (now -. t0)
  end

(* Poll the oldest outstanding request; true if it left the window
   (completed, retried back to the tail, or abandoned past deadline). *)
let window_poll_oldest service spec w tl ~mget ~t_measure ~t_stop =
  if w.count = 0 then false
  else begin
    let i = w.head in
    let ticket = w.tickets.(i) and shard = w.shard_of.(i) in
    let t0 = w.t0.(i) and op = w.ops.(i) and key = w.keys.(i) in
    let value = w.values.(i) and attempts = w.attempts.(i) in
    if Service.chain_done service ~shard ~ticket ~n:1 then begin
      Service.harvest_chain service ~shard ~ticket ~n:1 ~replies:w.reply ~off:0;
      window_pop w;
      handle_reply service spec w tl ~mget ~t_measure ~t_stop ~t0 ~op ~key ~value
        ~attempts w.reply.(0);
      true
    end
    else if spec.deadline_s > 0.0 && Unix.gettimeofday () -. t0 > spec.deadline_s
    then begin
      (* Overdue: abandon the ticket. If the cancel raced a completion
         the reply is handled normally (handle_reply will not retry — the
         deadline guard fails); a won cancel is a deadline_exceeded,
         distinct from drops and rejections. *)
      let c = Service.cancel service ~shard ~ticket in
      window_pop w;
      if c >= 0 then
        handle_reply service spec w tl ~mget ~t_measure ~t_stop ~t0 ~op ~key ~value
          ~attempts c
      else if Unix.gettimeofday () >= t_measure then
        tl.deadline_exceeded <- tl.deadline_exceeded + 1;
      true
    end
    else false
  end

(* One loop for both arrival models, with at most [window] first
   attempts outstanding. [rate = None] is the closed loop: a request is
   due whenever the window has room, its [t0] is its submit time, and a
   full ring stalls the fill until completions drain it. [Some rate] is
   the open loop: requests are due at Poisson arrival times whether or
   not there is room, [t0] is the scheduled arrival (queueing delay
   behind a slow service is charged to the request), and an arrival
   the window or a ring refuses is a drop — the schedule does not slip,
   which is what makes the loop open. Drops gate on the measurement
   window like every other tally. *)
let window_client service spec ~window ~rate ~idx ~t_start ~t_measure ~t_stop tl =
  let rng, keys = stream spec ~idx in
  let mget = max 1 spec.mget in
  let closed = Option.is_none rate in
  (* cap > window so a retry always finds window room *)
  let w = window_create (window + max 1 spec.max_retries) in
  (* Exponential inter-arrival gap, mean 1/rate; the closed loop's
     arrival clock stays at [t_start], always due. *)
  let next_gap () =
    match rate with Some r -> -.log (1.0 -. Rng.float rng) /. r | None -> 0.0
  in
  let next_arrival = ref (t_start +. next_gap ()) in
  let spins = ref 0 in
  let now = ref (Unix.gettimeofday ()) in
  while !now < t_stop do
    let busy = ref false and blocked = ref false in
    while (not !blocked) && !now >= !next_arrival && not (closed && w.count >= window) do
      let in_win = !now >= t_measure in
      if w.count >= window then begin
        if in_win then tl.drops <- tl.drops + 1
      end
      else begin
        let op = pick_op spec rng in
        let key = Keygen.next keys rng in
        let value = if op = Service.op_mget then mget else key in
        let t0 = if closed then !now else !next_arrival in
        if window_submit service spec w ~t0 ~op ~key ~value ~attempts:0 then begin
          if in_win then tl.submitted <- tl.submitted + 1
        end
        else begin
          if in_win then begin
            tl.ring_full <- tl.ring_full + 1;
            if not closed then tl.drops <- tl.drops + 1
          end;
          blocked := closed
        end
      end;
      if not !blocked then busy := true;
      next_arrival := !next_arrival +. next_gap ();
      now := Unix.gettimeofday ()
    done;
    (* Reap completions oldest-first. *)
    while window_poll_oldest service spec w tl ~mget ~t_measure ~t_stop do
      busy := true
    done;
    if !busy then spins := 0
    else begin
      (* Idle until the next arrival (bounded so completions are still
         reaped promptly). *)
      let gap = !next_arrival -. !now in
      if gap > 0.0002 then Unix.sleepf (min gap 0.0005) else pause spins
    end;
    now := Unix.gettimeofday ()
  done;
  (* Drain whatever is still outstanding (the service is still serving;
     clients stop first, shards after). Bounded when deadlines are armed
     — overdue requests are cancelled — and otherwise relies on the
     service's every-request-answered guarantee. *)
  spins := 0;
  while w.count > 0 do
    if window_poll_oldest service spec w tl ~mget ~t_measure ~t_stop then spins := 0
    else pause spins
  done

(* -- the chained client --------------------------------------------------- *)

(* Each round generates [chain] requests and runs them through
   {!Service.execute}: the per-request transport cost (CAS, wakeup,
   reply spin) is paid once per shard chain. Replies are classified per
   request with the window clients' tallies; there are no client-side
   retries or cancels (wire deadlines still shed busy server-side), so
   the conservation law submitted = completed_reqs + rejected + busy +
   oom holds exactly at [warmup_s = 0]. *)
let chained_client service spec ~chain ~idx ~t_measure ~t_stop tl =
  let rng, keys = stream spec ~idx in
  let mget = max 1 spec.mget in
  let c = Service.client service in
  let ops = Array.make chain 0 and keys_a = Array.make chain 0 in
  let values = Array.make chain 0 and replies = Array.make chain 0 in
  while Unix.gettimeofday () < t_stop do
    for i = 0 to chain - 1 do
      let op = pick_op spec rng in
      let key = Keygen.next keys rng in
      ops.(i) <- op;
      keys_a.(i) <- key;
      values.(i) <- (if op = Service.op_mget then mget else key)
    done;
    let t0 = Unix.gettimeofday () in
    let ring_full =
      Service.execute c ~deadline_us:(deadline_us_of spec ~t0) ~n:chain ~ops ~keys:keys_a
        ~values ~replies
    in
    if t0 >= t_measure then tl.ring_full <- tl.ring_full + ring_full;
    let now = Unix.gettimeofday () in
    if now >= t_measure then begin
      tl.submitted <- tl.submitted + chain;
      for i = 0 to chain - 1 do
        tally_reply tl ~mget replies.(i)
      done;
      Histogram.record tl.hist (now -. t0)
    end
  done

(* -- running clients ------------------------------------------------------ *)

(* Spawn one domain per client, call [tick] every ~2 ms from the calling
   thread until they all finish, and merge their tallies. *)
let run_clients ~tick spec client =
  let clients = max 1 spec.clients in
  let tallies = Array.init clients (fun _ -> tally_create ()) in
  let t_start = Unix.gettimeofday () in
  let t_measure = t_start +. spec.warmup_s in
  let t_stop = t_start +. spec.duration_s in
  let finished = Atomic.make 0 in
  let spawn idx =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.incr finished)
          (fun () -> client ~idx ~t_start ~t_measure ~t_stop tallies.(idx)))
  in
  let domains = Array.init clients spawn in
  while Atomic.get finished < clients do
    Unix.sleepf 0.002;
    tick ()
  done;
  Array.iter Domain.join domains;
  let latency = Histogram.create () in
  let sum f = Array.fold_left (fun acc tl -> acc + f tl) 0 tallies in
  Array.iter (fun tl -> Histogram.merge_into ~into:latency tl.hist) tallies;
  let completed = sum (fun tl -> tl.completed) in
  let elapsed_s = spec.duration_s -. spec.warmup_s in
  {
    submitted = sum (fun tl -> tl.submitted);
    completed;
    completed_reqs = sum (fun tl -> tl.completed_reqs);
    rejected = sum (fun tl -> tl.rejected);
    busy = sum (fun tl -> tl.busy);
    oom = sum (fun tl -> tl.oom);
    drops = sum (fun tl -> tl.drops);
    deadline_exceeded = sum (fun tl -> tl.deadline_exceeded);
    ring_full = sum (fun tl -> tl.ring_full);
    retries = sum (fun tl -> tl.retries);
    elapsed_s;
    throughput = (if elapsed_s > 0.0 then float_of_int completed /. elapsed_s else 0.0);
    latency;
  }

(** Run the generator against a started service; blocks until the
    duration elapses and every outstanding request is answered or
    abandoned. [?tick] is called every ~2 ms from the calling thread
    while the clients run — the hook the soak harness hangs its
    watchdog sampler on. *)
let run ?(tick = fun () -> ()) service spec =
  run_clients ~tick spec (fun ~idx ~t_start ~t_measure ~t_stop tl ->
      match spec.mode with
      | Closed { pipeline } ->
        window_client service spec ~window:(max 1 pipeline) ~rate:None ~idx ~t_start
          ~t_measure ~t_stop tl
      | Open { rate; window } ->
        window_client service spec ~window:(max 1 window) ~rate:(Some rate) ~idx ~t_start
          ~t_measure ~t_stop tl
      | Chained { chain } ->
        chained_client service spec ~chain:(max 1 chain) ~idx ~t_measure ~t_stop tl)

(* -- socket mode (memcached-text front-end) ------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* The reply code a command's terminal line stands for. *)
let reply_of_line l =
  if l = "END" || l = "STORED" || l = "NOT_STORED" || l = "DELETED" || l = "NOT_FOUND"
  then Service.reply_true
  else if String.starts_with ~prefix:"HITS" l then Service.reply_mget_base
  else if l = "SERVER_ERROR out of memory" then Service.reply_oom
  else if l = "SERVER_ERROR busy" then Service.reply_busy
  else Service.reply_rejected

(* One connection's closed loop of pipelined batches: [chain] text
   commands per write, replies drained until every command's terminal
   line arrived. *)
let socket_client ~path spec ~chain ~idx ~t_measure ~t_stop tl =
  let rng, keys = stream spec ~idx in
  let mget = max 1 spec.mget in
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  let out = Buffer.create 4096 in
  let inbuf = Bytes.create 65536 in
  let line = Buffer.create 256 in
  let replies = Array.make chain 0 in
  let expect_data = ref false in
  (try
     while Unix.gettimeofday () < t_stop do
       Buffer.clear out;
       for _ = 1 to chain do
         let op = pick_op spec rng in
         let key = Keygen.next keys rng in
         if op = Service.op_mget then
           Buffer.add_string out (Printf.sprintf "mget %d %d\r\n" key mget)
         else if op = Service.op_contains then
           Buffer.add_string out (Printf.sprintf "get %d\r\n" key)
         else if op = Service.op_insert then begin
           let data = string_of_int key in
           Buffer.add_string out
             (Printf.sprintf "set %d 0 0 %d\r\n%s\r\n" key (String.length data) data)
         end
         else Buffer.add_string out (Printf.sprintf "delete %d\r\n" key)
       done;
       let t0 = Unix.gettimeofday () in
       write_all fd (Buffer.contents out);
       (* Drain until every command's terminal line arrived. A VALUE
          line announces one data line to skip; everything else is one
          command's terminal. *)
       let terminals = ref 0 in
       while !terminals < chain do
         let r = Unix.read fd inbuf 0 (Bytes.length inbuf) in
         if r = 0 then failwith "Loadgen.run_socket: server closed the connection";
         for i = 0 to r - 1 do
           let c = Bytes.get inbuf i in
           if c = '\n' then begin
             let l = Buffer.contents line in
             Buffer.clear line;
             let l =
               let n = String.length l in
               if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l
             in
             if !expect_data then expect_data := false
             else if String.starts_with ~prefix:"VALUE " l then expect_data := true
             else begin
               replies.(!terminals) <- reply_of_line l;
               incr terminals
             end
           end
           else Buffer.add_char line c
         done
       done;
       let now = Unix.gettimeofday () in
       if now >= t_measure then begin
         tl.submitted <- tl.submitted + chain;
         for i = 0 to chain - 1 do
           tally_reply tl ~mget replies.(i)
         done;
         Histogram.record tl.hist (now -. t0)
       end
     done
   with e ->
     Unix.close fd;
     raise e);
  write_all fd "quit\r\n";
  Unix.close fd

(** Closed-loop socket load against a running [mpserver] at [path];
    blocks until the duration elapses. One connection (and one domain)
    per client; [Chained { chain }] is the number of commands per
    batch. *)
let run_socket ~path spec =
  match spec.mode with
  | Chained { chain } ->
    run_clients ~tick:ignore spec (fun ~idx ~t_start:_ ~t_measure ~t_stop tl ->
        socket_client ~path spec ~chain:(max 1 chain) ~idx ~t_measure ~t_stop tl)
  | Closed _ | Open _ -> invalid_arg "Loadgen.run_socket: the mode must be Chained"
