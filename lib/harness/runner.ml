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
  wasted_avg : float;  (** mean retired-but-unreclaimed nodes over samples *)
  wasted_max : int;  (** largest wasted value any 2 ms sampler tick saw *)
  wasted_peak : int;
      (** the scheme's own high-water mark, maintained on the retire path
          itself ({!Smr_core.Smr_intf.stats.wasted_peak}) — unlike
          [wasted_max] it cannot miss a crest between sampler ticks. A
          high-water mark cannot be windowed, so this covers the whole
          run including populate and warmup. *)
  fences : int;  (** publication fences during the measured window *)
  traversed : int;  (** nodes visited during the measured window *)
  fences_per_node : float;
  scan_passes : int;  (** reclamation passes during the measured window *)
  scan_time_s : float;  (** wall-clock seconds those passes took *)
  violations : int;
  oom : bool;
      (** a thread starved on the pool past its retry budget (leaky
          schemes, or faults pinning everything) *)
  alloc_stalls : int;  (** pool-exhaustion retries absorbed as backpressure *)
  ring_full : int;
      (** service runs: submissions that found a shard's request ring
          full (backpressure on the client side); 0 for direct runs *)
  deadline_exceeded : int;
      (** service runs: requests abandoned past their client deadline;
          0 for direct runs and for runs without deadlines *)
  crashed : int list;  (** tids killed by a fault-plan crash event *)
  pinning_tids : int list;
      (** tids still holding reservations after the run — with faults, the
          dead threads pinning waste *)
  watchdog : Watchdog.verdict option;
  final_size : int;
  latency : Mp_util.Histogram.t option;  (** merged across threads when recorded *)
  alloc_words_per_op : float;
      (** GC-visible words allocated per measured operation, summed over
          surviving workers (each domain samples its own [Gc.quick_stat]).
          The zero-allocation read path shows up here as ~0. *)
  promoted_words_per_op : float;  (** survivors of the minor GC, per op *)
  minor_gcs : int;  (** minor collections across workers in the window *)
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
  (* Per-domain GC samples bracketing the measured window. [Gc.quick_stat]
     is per-domain in OCaml 5, so each worker must sample its own; written
     once per worker after the window, read after the join. *)
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
  let stats0 = SET.smr_stats t in
  let traversed0 = SET.traversed t in
  Atomic.set phase 1;
  (* Main thread samples wasted memory while the clock runs. *)
  let t_start = Unix.gettimeofday () in
  let wasted_sum = ref 0.0 and wasted_samples = ref 0 and wasted_max = ref 0 in
  let pool = SET.pool t in
  while Unix.gettimeofday () -. t_start < spec.duration_s && not (Atomic.get oom) do
    Unix.sleepf 0.002;
    (* A draining arena's parked slots are committed-but-unusable memory:
       they count as wasted until the SMR barrier completes the detach
       (the watchdog's elastic_slack widens the ceiling to match). *)
    let w =
      (SET.smr_stats t).Smr_core.Smr_intf.wasted + Mempool.Core.detaching_slots pool
    in
    wasted_sum := !wasted_sum +. float_of_int w;
    incr wasted_samples;
    if w > !wasted_max then wasted_max := w;
    Option.iter (fun wd -> Watchdog.observe wd ~wasted:w) wd
  done;
  Atomic.set phase 2;
  (* Throughput denominator: the measured window ends when the stop flag
     is raised, not after Domain.join — join/teardown time is not time the
     workers spent producing the counted operations. *)
  let elapsed = Unix.gettimeofday () -. t_start in
  Array.iter Domain.join domains;
  (if spec.faults <> None then Mp_util.Fault.disarm ());
  let crashed =
    List.filter (fun tid -> crashed_flags.(tid)) (List.init spec.threads Fun.id)
  in
  (* Surviving threads cleared their announcements on the way out, so any
     tid still occupying a reservation slot is a stalled/crashed one. *)
  let pinning = SET.pinning_tids t in
  let stats1 = SET.smr_stats t in
  let traversed1 = SET.traversed t in
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
  let fences = stats1.Smr_core.Smr_intf.fences - stats0.Smr_core.Smr_intf.fences in
  let traversed = traversed1 - traversed0 in
  (* Sum per-domain GC deltas over the threads whose ops were counted. *)
  let alloc_words = ref 0.0 and promoted = ref 0.0 and minor_gcs = ref 0 in
  for tid = 0 to spec.threads - 1 do
    if not crashed_flags.(tid) then begin
      let before = gc_before.(tid) and after = gc_after.(tid) in
      alloc_words := !alloc_words +. Mp_util.Gcstat.alloc_words ~before ~after;
      promoted := !promoted +. Mp_util.Gcstat.promoted_words ~before ~after;
      minor_gcs := !minor_gcs + Mp_util.Gcstat.minor_collections ~before ~after
    end
  done;
  let per_op x = if total_ops = 0 then 0.0 else x /. float_of_int total_ops in
  {
    spec_threads = spec.threads;
    mix_name = spec.mix.Workload.name;
    total_ops;
    throughput = float_of_int total_ops /. elapsed;
    wasted_avg =
      (if !wasted_samples = 0 then 0.0 else !wasted_sum /. float_of_int !wasted_samples);
    wasted_max = !wasted_max;
    wasted_peak = stats1.Smr_core.Smr_intf.wasted_peak;
    fences;
    traversed;
    fences_per_node =
      (if traversed = 0 then 0.0 else float_of_int fences /. float_of_int traversed);
    scan_passes = stats1.Smr_core.Smr_intf.scan_passes - stats0.Smr_core.Smr_intf.scan_passes;
    scan_time_s = stats1.Smr_core.Smr_intf.scan_time_s -. stats0.Smr_core.Smr_intf.scan_time_s;
    violations = SET.violations t;
    oom = Atomic.get oom;
    alloc_stalls;
    ring_full = 0;
    deadline_exceeded = 0;
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
    minor_gcs = !minor_gcs;
    arenas_attached = Mempool.Core.arenas_attached pool;
    arenas_detached = Mempool.Core.arenas_detached pool;
    resident_slots = Mempool.Core.resident_slots pool;
  }

(* -- machine-readable results --------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* %g keeps the output compact and is valid JSON (exponent form
   included); nan/inf, which JSON cannot carry, degrade to 0. *)
let json_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

(** One benchmark run as a flat JSON object ([experiment]/[ds]/[scheme]
    label where in the suite the numbers came from). Latency percentiles
    are 0 when the run did not record latency. *)
let result_to_json ?(experiment = "") ?(ds = "") ?(scheme = "") (r : result) =
  let lat_p50, lat_p99, lat_p999, lat_max =
    match r.latency with
    | None -> (0, 0, 0, 0)
    | Some h ->
      ( Mp_util.Histogram.percentile_ns h 50.0,
        Mp_util.Histogram.percentile_ns h 99.0,
        Mp_util.Histogram.percentile_ns h 99.9,
        Mp_util.Histogram.max_ns h )
  in
  let json_int_list l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]" in
  Printf.sprintf
    "{\"experiment\":\"%s\",\"ds\":\"%s\",\"scheme\":\"%s\",\"threads\":%d,\"mix\":\"%s\",\"total_ops\":%d,\"throughput\":%s,\"wasted_avg\":%s,\"wasted_max\":%d,\"wasted_peak\":%d,\"fences\":%d,\"traversed\":%d,\"fences_per_node\":%s,\"scan_passes\":%d,\"scan_time_s\":%s,\"violations\":%d,\"oom\":%b,\"alloc_stalls\":%d,\"ring_full\":%d,\"deadline_exceeded\":%d,\"crashed\":%s,\"pinning_tids\":%s,%s,\"final_size\":%d,\"lat_p50_ns\":%d,\"lat_p99_ns\":%d,\"lat_p999_ns\":%d,\"lat_max_ns\":%d,\"alloc_words_per_op\":%s,\"promoted_words_per_op\":%s,\"minor_gcs\":%d,\"arenas_attached\":%d,\"arenas_detached\":%d,\"resident_slots\":%d}"
    (json_escape experiment) (json_escape ds) (json_escape scheme) r.spec_threads
    (json_escape r.mix_name) r.total_ops (json_float r.throughput) (json_float r.wasted_avg)
    r.wasted_max r.wasted_peak r.fences r.traversed (json_float r.fences_per_node) r.scan_passes
    (json_float r.scan_time_s) r.violations r.oom r.alloc_stalls r.ring_full
    r.deadline_exceeded (json_int_list r.crashed)
    (json_int_list r.pinning_tids)
    (Watchdog.json_fields r.watchdog)
    r.final_size lat_p50 lat_p99 lat_p999 lat_max
    (json_float r.alloc_words_per_op) (json_float r.promoted_words_per_op) r.minor_gcs
    r.arenas_attached r.arenas_detached r.resident_slots

(** Version of the JSON layout emitted by {!envelope} (bench and soak
    reports alike). 2 = the versioned envelope itself
    plus [wasted_peak] and [lat_p999_ns]; 1 = the bare result array of
    earlier revisions. Bump on any field removal or meaning change;
    additions are compatible within a version. *)
let schema_version = 2

(** Wrap rendered JSON objects in the versioned envelope
    [{"schema_version":N,"results":[...]}]. *)
let envelope objects =
  Printf.sprintf "{\"schema_version\":%d,\"results\":[\n  %s\n]}\n" schema_version
    (String.concat ",\n  " objects)

(** Serialize a batch of labelled results as a versioned envelope. *)
let results_to_json entries =
  envelope
    (List.map (fun (experiment, ds, scheme, r) -> result_to_json ~experiment ~ds ~scheme r) entries)
