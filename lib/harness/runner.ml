(** Benchmark runner: spawns one domain per thread, drives the workload mix
    against a structure for a fixed duration, and samples the metrics the
    paper's figures report (throughput, wasted memory, fences/traversals).

    Thread stalls — the phenomenon that separates bounded/robust/unbounded
    schemes — arise naturally here from oversubscription, and can also be
    injected deterministically: the stalling thread periodically runs a
    [contains_paused], sleeping mid-operation while holding SMR
    protection. *)

module Rng = Mp_util.Rng

type stall_spec = {
  stall_tid : int;
  every_ops : int;  (** inject once per this many operations *)
  pause_s : float;  (** sleep duration inside the operation *)
}

type spec = {
  threads : int;
  duration_s : float;
  warmup_s : float;
      (** run the workload this long before the measured window opens:
          ops, GC and SMR counters from the warmup are excluded from every
          reported metric. 0 disables (the unit-test default). *)
  init_size : int;  (** S: keys inserted before the measurement *)
  key_range : int;  (** operations draw keys from [0, key_range) *)
  capacity : int;  (** pool slots; must absorb leaks for leaky schemes *)
  mix : Workload.mix;
  init : Workload.init;
  seed : int;
  stall : stall_spec option;
  config : Smr_core.Config.t;
  check_access : bool;
  record_latency : bool;  (** sampled per-operation histograms *)
  latency_sample : int;
      (** with [record_latency], time one in this many operations (rounded
          up to a power of two) instead of paying two clock reads per op *)
  zipf_alpha : float option;  (** skew operation keys zipfian-ly (extension) *)
  faults : Mp_util.Fault.plan option;
      (** armed after populate, before the workers spawn; disarmed after
          they join. Crashed domains are reported, not fatal. *)
  watchdog : Watchdog.spec option;
      (** evaluate this waste bound on every sampler tick *)
  alloc_retry : int;
      (** pool-exhaustion backpressure: retries (with backoff) per
          operation before the worker gives up and flags [oom] *)
}

(** Paper default: S random keys from a range of size 2S. *)
let default ~threads ~init_size ~mix ~config =
  {
    threads;
    duration_s = 0.5;
    warmup_s = 0.0;
    init_size;
    key_range = 2 * init_size;
    capacity = 0 (* resolved in [run] *);
    mix;
    init = Workload.Uniform_init;
    seed = 0xC0FFEE;
    stall = None;
    config;
    check_access = false;
    record_latency = false;
    latency_sample = 32;
    zipf_alpha = None;
    faults = None;
    watchdog = None;
    alloc_retry = 1_000;
  }

type result = {
  spec_threads : int;
  mix_name : string;
  total_ops : int;
  throughput : float;  (** operations per second *)
  probe : Probe.result;
      (** wasted samples and SMR/traversal deltas of the measured window *)
  wasted_peak : int;
      (** the scheme's own high-water mark, maintained on the retire path
          itself ({!Smr_core.Smr_intf.stats.wasted_peak}) — unlike the
          probe's [wasted_max] it cannot miss a crest between sampler
          ticks. A high-water mark cannot be windowed, so this covers the
          whole run including populate and warmup. *)
  violations : int;
  oom : bool;
      (** a thread starved on the pool past its retry budget (leaky
          schemes, or faults pinning everything) *)
  alloc_stalls : int;  (** pool-exhaustion retries absorbed as backpressure *)
  crashed : int list;  (** tids killed by a fault-plan crash event *)
  pinning_tids : int list;
      (** tids still holding reservations after the run — with faults, the
          dead threads pinning waste *)
  watchdog : Watchdog.verdict option;
  final_size : int;
  latency : Mp_util.Histogram.t option;  (** merged across threads when recorded *)
  alloc_words_per_op : float;
      (** GC-visible words allocated per measured operation, summed over
          surviving workers (each domain samples its own counters). The
          zero-allocation read path shows up here as ~0. *)
  promoted_words_per_op : float;  (** survivors of the minor GC, per op *)
  minor_gcs : int;  (** minor collections (process-wide) in the window *)
  arenas_attached : int;
      (** elastic pool: arenas attached under load during the run (0 for
          fixed-size pools) *)
  arenas_detached : int;  (** elastic pool: arena detaches completed *)
  resident_slots : int;  (** pool slots still mapped at the end of the run *)
}

let run (module SET : Dstruct.Set_intf.SET) (spec : spec) : result =
  let capacity =
    if spec.capacity > 0 then spec.capacity
    else begin
      (* Live nodes (≤ key_range, ×2 for the BST's routers) plus headroom
         for retired-but-unreclaimed nodes. *)
      let live = (spec.key_range * 2) + 1024 in
      live + (spec.threads * 65536)
    end
  in
  let t =
    SET.create ~threads:spec.threads ~capacity ~check_access:spec.check_access spec.config
  in
  (* -- populate ----------------------------------------------------------- *)
  let s0 = SET.session t ~tid:0 in
  (match spec.init with
  | Workload.Ascending_init ->
    for k = 0 to spec.init_size - 1 do
      ignore (SET.insert s0 ~key:k ~value:k : bool)
    done
  | Workload.Uniform_init ->
    let rng = Rng.create spec.seed in
    let inserted = ref 0 in
    while !inserted < spec.init_size do
      let k = Rng.below rng spec.key_range in
      if SET.insert s0 ~key:k ~value:k then incr inserted
    done);
  SET.flush s0;
  (* -- measured window ---------------------------------------------------- *)
  (* Run phases: 0 = warmup (working, not counted), 1 = measuring,
     2 = stop. Workers latch their op count and a per-domain GC sample at
     the 0->1 transition, so warmup ops and allocations never pollute the
     reported metrics. *)
  let phase = Atomic.make 0 in
  let barrier = Atomic.make 0 in
  let oom = Atomic.make false in
  (* Spaced indexing (Mp_util.Padding): per-thread op counts a cache line
     apart, so final writes and any future mid-run reads never contend. *)
  let ops = Array.make (Mp_util.Padding.spaced_length spec.threads) 0 in
  let stalls = Array.make (Mp_util.Padding.spaced_length spec.threads) 0 in
  let crashed_flags = Array.make spec.threads false in
  (* Per-domain GC samples bracketing the measured window: each worker
     samples its own words; written once per worker after the window,
     read after the join. *)
  let gc_before = Array.make spec.threads Mp_util.Gcstat.zero in
  let gc_after = Array.make spec.threads Mp_util.Gcstat.zero in
  let histograms = Array.init spec.threads (fun _ -> Mp_util.Histogram.create ()) in
  (* 1-in-N latency sampling: N rounded up to a power of two so the
     sample test is a mask, not a division. *)
  let sample_mask =
    let rec up n = if n >= spec.latency_sample then n else up (n * 2) in
    up 1 - 1
  in
  let worker tid () =
    let s = SET.session t ~tid in
    let rng = Rng.split ~seed:spec.seed ~tid in
    let keygen =
      match spec.zipf_alpha with
      | Some alpha -> Mp_util.Keygen.zipf ~range:spec.key_range ~alpha
      | None -> Mp_util.Keygen.uniform ~range:spec.key_range
    in
    let hist = histograms.(tid) in
    let backoff = Mp_util.Backoff.create () in
    let my_stalls = ref 0 in
    Atomic.incr barrier;
    while Atomic.get barrier < spec.threads do
      Domain.cpu_relax ()
    done;
    let count = ref 0 in
    (* Pool exhaustion is backpressure, not a dead run: retry the
       operation (the failed insert left the structure unchanged) under
       backoff up to [alloc_retry] times, counting each stall. Only when
       the budget runs dry — the pool is pinned solid, e.g. a leaky
       scheme or a crashed thread holding everything — does the worker
       flag [oom] and bow out. *)
    let rec exec_retry k attempts =
      match
        (match Workload.pick spec.mix rng with
        | Workload.Read -> ignore (SET.contains s k : bool)
        | Workload.Insert -> ignore (SET.insert s ~key:k ~value:k : bool)
        | Workload.Remove -> ignore (SET.remove s k : bool))
      with
      | () -> if attempts > 0 then Mp_util.Backoff.reset backoff
      | exception Mempool.Exhausted ->
        incr my_stalls;
        (* Hard exhaustion — the pool already at max_arenas with no grow
           or drain in flight — cannot be satisfied by waiting for an
           arena attach, so only a handful of backoffs (absorbing slots
           hiding in other threads' magazines) are spent before giving
           up rather than the whole retry schedule. Transient
           exhaustion, the only kind a fixed-size pool has, keeps the
           full backoff budget as before. *)
        if
          attempts >= spec.alloc_retry
          || Atomic.get phase >= 2
          || (attempts >= 8 && Mempool.Core.last_alloc_hard (SET.pool t) ~tid)
        then begin
          Atomic.set oom true;
          raise Mempool.Exhausted
        end;
        Mp_util.Backoff.once backoff;
        exec_retry k (attempts + 1)
    in
    let measured0 = ref 0 in
    let gc0 = ref Mp_util.Gcstat.zero in
    let measuring = ref false in
    let finished =
      try
        while
          (let ph = Atomic.get phase in
           if ph >= 1 && not !measuring then begin
             (* Warmup just ended: everything before this instant is
                discarded from the op count and the GC deltas. *)
             measuring := true;
             measured0 := !count;
             gc0 := Mp_util.Gcstat.sample ()
           end;
           ph < 2)
        do
          let k = Mp_util.Keygen.next keygen rng in
          let sampled = spec.record_latency && !measuring && !count land sample_mask = 0 in
          let t0 = if sampled then Unix.gettimeofday () else 0.0 in
          (match spec.stall with
          | Some st when tid = st.stall_tid && !count mod st.every_ops = st.every_ops - 1 ->
            ignore (SET.contains_paused s k ~pause:(fun () -> Unix.sleepf st.pause_s) : bool)
          | _ -> exec_retry k 0);
          if sampled then Mp_util.Histogram.record hist (Unix.gettimeofday () -. t0);
          incr count
        done;
        true
      with
      | Mempool.Exhausted -> false
      | Mp_util.Fault.Crashed _ ->
        (* The fault plan killed this thread mid-operation. Its published
           reservations stay in place — that is the scenario — so no flush,
           no cleanup; just mark it dead for the report. *)
        crashed_flags.(tid) <- true;
        false
    in
    (* Close the GC window before [flush]: reclamation-pass allocations
       happen outside the measured window and must not count. *)
    gc_after.(tid) <- Mp_util.Gcstat.sample ();
    gc_before.(tid) <- !gc0;
    (if finished then
       try SET.flush s with Mp_util.Fault.Crashed _ -> crashed_flags.(tid) <- true);
    stalls.(Mp_util.Padding.spaced_index tid) <- !my_stalls;
    ops.(Mp_util.Padding.spaced_index tid) <- (if !measuring then !count - !measured0 else 0)
  in
  (* Arm faults only now: populate above ran on tid 0 and must not crash. *)
  (match spec.faults with
  | Some p -> Mp_util.Fault.arm ~threads:spec.threads p
  | None -> ());
  let wd = Option.map Watchdog.create spec.watchdog in
  let domains = Array.init spec.threads (fun tid -> Domain.spawn (worker tid)) in
  (* Warmup: workers run the real workload against the real structure but
     phase 0 keeps everything out of the books. Baseline SMR/traversal
     counters are captured at the phase flip, so warmup fences and visits
     are excluded along with warmup ops. *)
  if spec.warmup_s > 0.0 then Unix.sleepf spec.warmup_s;
  let probe = Probe.start (module SET) t in
  let minor0 = Mp_util.Gcstat.minor_collections () in
  Atomic.set phase 1;
  (* Main thread samples wasted memory while the clock runs. *)
  let t_start = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t_start < spec.duration_s && not (Atomic.get oom) do
    Unix.sleepf 0.002;
    let w = Probe.tick probe in
    Option.iter (fun wd -> Watchdog.observe wd ~wasted:w) wd
  done;
  Atomic.set phase 2;
  (* Throughput denominator: the measured window ends when the stop flag
     is raised, not after Domain.join — join/teardown time is not time the
     workers spent producing the counted operations. *)
  let elapsed = Unix.gettimeofday () -. t_start in
  let minor_gcs = Mp_util.Gcstat.minor_collections () - minor0 in
  Array.iter Domain.join domains;
  (if spec.faults <> None then Mp_util.Fault.disarm ());
  let crashed =
    List.filter (fun tid -> crashed_flags.(tid)) (List.init spec.threads Fun.id)
  in
  (* Surviving threads cleared their announcements on the way out, so any
     tid still occupying a reservation slot is a stalled/crashed one. *)
  let pinning = SET.pinning_tids t in
  let probe = Probe.stop probe in
  (* Throughput counts only threads that lived to the end: a crashed
     domain's partial op count would dilute per-thread comparability. *)
  let total_ops =
    let sum = ref 0 in
    for tid = 0 to spec.threads - 1 do
      if not crashed_flags.(tid) then sum := !sum + ops.(Mp_util.Padding.spaced_index tid)
    done;
    !sum
  in
  let alloc_stalls = Array.fold_left ( + ) 0 stalls in
  (* Sum per-domain GC deltas over the threads whose ops were counted. *)
  let alloc_words = ref 0.0 and promoted = ref 0.0 in
  for tid = 0 to spec.threads - 1 do
    if not crashed_flags.(tid) then begin
      let before = gc_before.(tid) and after = gc_after.(tid) in
      alloc_words := !alloc_words +. Mp_util.Gcstat.alloc_words ~before ~after;
      promoted := !promoted +. Mp_util.Gcstat.promoted_words ~before ~after
    end
  done;
  let per_op x = if total_ops = 0 then 0.0 else x /. float_of_int total_ops in
  {
    spec_threads = spec.threads;
    mix_name = spec.mix.Workload.name;
    total_ops;
    throughput = float_of_int total_ops /. elapsed;
    probe;
    wasted_peak = (SET.smr_stats t).Smr_core.Smr_intf.wasted_peak;
    violations = SET.violations t;
    oom = Atomic.get oom;
    alloc_stalls;
    crashed;
    pinning_tids = pinning;
    watchdog = Option.map Watchdog.verdict wd;
    final_size = SET.size t;
    latency =
      (if spec.record_latency then begin
         let merged = Mp_util.Histogram.create () in
         Array.iter (fun h -> Mp_util.Histogram.merge_into ~into:merged h) histograms;
         Some merged
       end
       else None);
    alloc_words_per_op = per_op !alloc_words;
    promoted_words_per_op = per_op !promoted;
    minor_gcs;
    arenas_attached = Mempool.Core.arenas_attached (SET.pool t);
    arenas_detached = Mempool.Core.arenas_detached (SET.pool t);
    resident_slots = Mempool.Core.resident_slots (SET.pool t);
  }

(** One run's JSON fields, in the order the bench rows have always
    carried them; [wd_*] are [null] without a watchdog and [lat_*]
    without recorded latency. *)
let fields r =
  let open Report in
  [ ("threads", Int r.spec_threads); ("mix", Str r.mix_name); ("total_ops", Int r.total_ops);
    ("throughput", Float r.throughput) ]
  @ Probe.fields r.probe
  @ [ ("wasted_peak", Int r.wasted_peak); ("violations", Int r.violations); ("oom", Bool r.oom);
      ("alloc_stalls", Int r.alloc_stalls); ("crashed", Ints r.crashed);
      ("pinning_tids", Ints r.pinning_tids) ]
  @ Watchdog.fields r.watchdog
  @ (("final_size", Int r.final_size) :: latency r.latency)
  @ [ ("alloc_words_per_op", Float r.alloc_words_per_op);
      ("promoted_words_per_op", Float r.promoted_words_per_op); ("minor_gcs", Int r.minor_gcs);
      ("arenas_attached", Int r.arenas_attached); ("arenas_detached", Int r.arenas_detached);
      ("resident_slots", Int r.resident_slots) ]
