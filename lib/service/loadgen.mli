(** Closed-loop, open-loop (Poisson) and chained load generator for
    {!Service} — in process, or over an [mpserver] socket — recording
    end-to-end latency into a merged log-bucket histogram
    (p50/p99/p99.9/max via {!Mp_util.Histogram.percentile_ns}), with
    optional per-request deadlines, idempotence-aware retries and
    backpressure telemetry. The closed and open loops keep a window of
    1-chains ({!Service.try_submit_chain} at [n = 1]) reaped
    oldest-first; the chained mode runs batches through
    {!Service.execute}. *)

type mode =
  | Closed of { pipeline : int }
      (** Fixed pipeline of outstanding requests per client. *)
  | Open of { rate : float; window : int }
      (** Poisson arrivals at [rate] per second {e per client},
          at most [window] outstanding; un-submittable arrivals are
          counted as drops, and latency is measured from the scheduled
          arrival time (coordinated-omission correction). *)
  | Chained of { chain : int }
      (** Rounds of [chain] requests, each run through
          {!Service.execute} (one ring chain per shard, split at half a
          ring, one coalesced wait per chain). No client-side retries
          or cancels (wire deadlines still shed busy server-side);
          latency is one sample per round. *)

type spec = {
  clients : int;
  duration_s : float;
  warmup_s : float;
      (** Completions earlier than this into the run are executed but
          not recorded. *)
  read_pct : int;
  insert_pct : int; (* remainder = removes *)
  mget : int;
      (** Reads are submitted as one {!Service.op_mget} of this many
          consecutive keys (1 = plain [op_contains]); a completed
          multi-get counts [mget] operations toward [completed]. *)
  key_range : int;
  zipf_alpha : float option;
  seed : int;
  mode : mode;
  deadline_s : float;
      (** Per-request deadline, seconds (0 = none). Requests carry the
          absolute deadline on the wire ({!Service.reply_busy} shedding)
          and overdue head-of-line tickets are abandoned via
          {!Service.cancel}, tallied [deadline_exceeded]. *)
  max_retries : int;
      (** Retry budget per request (0 = none). [reply_busy] retries any
          operation (it guarantees non-execution); [reply_rejected]
          retries reads only (ambiguous for writes). Bounded
          exponential backoff, 20 µs doubling capped at 1 ms; retries
          keep the original [t0] and never start past the run clock or
          the request deadline. *)
}

type result = {
  submitted : int;
      (* first-attempt requests that entered a ring in the window; with
         [warmup_s = 0] the conservation law
         submitted = completed_reqs + rejected + busy + oom +
         deadline_exceeded holds exactly *)
  completed : int; (* successful SET operations in the measured window *)
  completed_reqs : int; (* successful requests (a multi-get counts once) *)
  rejected : int; (* crashed-shard rejections given up on, in the window *)
  busy : int; (* deadline sheds ({!Service.reply_busy}) given up on *)
  oom : int; (* pool-exhaustion refusals in the window *)
  drops : int; (* open loop: arrivals that could not be submitted *)
  deadline_exceeded : int; (* overdue tickets abandoned via cancel *)
  ring_full : int; (* submits that found a ring full *)
  retries : int; (* resubmissions (not counted in [submitted]) *)
  elapsed_s : float; (* the measured window (duration - warmup) *)
  throughput : float; (* completed / elapsed_s *)
  latency : Mp_util.Histogram.t;
}

(** The conservation law above: every first-attempt request was
    answered exactly once. Exact only with [warmup_s = 0]. *)
val conserved : result -> bool

(** Run against a started service; blocks until done. [?tick] runs
    every ~2 ms on the calling thread (watchdog sampler hook). An
    exception raised in a client domain is re-raised here once every
    client has finished. *)
val run : ?tick:(unit -> unit) -> Service.t -> spec -> result

(** {2 Socket mode}

    Drive a running [mpserver] over the memcached-text byte protocol
    ({!Frontend}) instead of the in-process rings: per client, one
    Unix-domain connection running a closed loop of pipelined batches
    of [chain] commands (one write, replies drained to their terminal
    lines). Takes the in-process [spec]; its mode must be
    [Chained { chain }], and [deadline_s]/[max_retries] are not used.
    Tallies map onto {!result}: each terminal is a completed request
    ([HITS] counts [mget] operations), [SERVER_ERROR out of memory] an
    [oom], [SERVER_ERROR busy] a [busy], other error lines [rejected];
    latency is one sample per batch; [drops]/[deadline_exceeded]/
    [ring_full]/[retries] stay 0. Raises [Invalid_argument] for a
    [Closed] or [Open] mode. *)
val run_socket : path:string -> spec -> result
