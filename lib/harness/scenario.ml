(** One served cell, end to end: a hash set sharded across a
    {!Mp_service.Service}, driven by back-to-back {!Mp_service.Loadgen}
    phases, with one sampler feeding the waste-bound watchdog. The soak's
    service rounds and the bench's service, transport and elastic
    experiments are all specs interpreted by {!run}.

    Derived rather than configured: the structure is always the hash
    set; an elastic pool ([max_arenas > 1]) turns on autoscale and widens
    the watchdog by one arena; the watchdog's live ceiling is twice the
    widest phase key range; the post-stop settle runs only while more
    than one arena is attached. *)

module Service = Mp_service.Service
module Loadgen = Mp_service.Loadgen
module Recovery = Mp_service.Recovery
module Fault = Mp_util.Fault

(** Keys inserted from tid 0 before the service starts. *)
type prefill =
  | Even of int  (** keys [0, 2, .., 2(n-1)], value = key / 2 *)
  | Random of int  (** [n] distinct keys below [2n] from seed 7, value 1 *)

type spec = {
  scheme : Instances.scheme;
  shards : int;
  spare_tids : int option;  (** [Some k]: recovery supervisor over [k] spare tids *)
  batch : int;
  ring_capacity : int;
  capacity : int;  (** pool slots per arena *)
  max_arenas : int;
  prefill : prefill;
  check_access : bool;
  plan : Fault.plan option;  (** armed after the prefill, disarmed after stop *)
  phases : Loadgen.spec list;
}

(** One load phase: its client result plus the sampler's and the SMR
    counters' view of the same window. *)
type phase = {
  lg : Loadgen.result;
  wasted_avg : float;  (** wasted + detaching slots, over the phase's ticks *)
  wasted_max : int;
  fences : int;
  traversed : int;
  scan_passes : int;
  scan_time_s : float;
  arenas_at_end : int;  (** arenas attached when the phase ended *)
}

type result = {
  phases : phase list;
  watchdog : Watchdog.verdict;
  samples : (float * int) list;
      (** (wall clock, wasted) per tick, oldest first; one more after stop *)
  peak_arenas : int;
  crashed : int list;  (** tids the plan killed *)
  pinning : int list;  (** tids still holding reservations after stop *)
  stats : Service.stats;  (** read after the settle *)
  recovery : Recovery.stats option;
  settle_s : float;
  violations : int;
  wasted_peak : int;
  final_size : int;
  arenas_attached : int;  (** arenas attached under load over the run *)
  arenas_detached : int;
  resident_slots : int;  (** after the settle *)
}

let settle_deadline_s = 10.0

let prefill (type a) (module SET : Dstruct.Set_intf.SET with type t = a) (t : a) p =
  let s0 = SET.session t ~tid:0 in
  (match p with
  | Even n ->
    for k = 0 to n - 1 do
      ignore (SET.insert s0 ~key:(k * 2) ~value:k : bool)
    done
  | Random n ->
    let rng = Mp_util.Rng.create 7 in
    let inserted = ref 0 in
    while !inserted < n do
      if SET.insert s0 ~key:(Mp_util.Rng.below rng (2 * n)) ~value:1 then incr inserted
    done);
  SET.flush s0

let run (spec : spec) =
  let (module S : Smr_core.Smr_intf.S) = spec.scheme in
  let (module SET : Dstruct.Set_intf.SET) = Instances.make Instances.Hash_ds spec.scheme in
  let threads = spec.shards + Option.value spec.spare_tids ~default:0 in
  let elastic = spec.max_arenas > 1 in
  let config =
    Smr_core.Config.with_max_arenas (Smr_core.Config.default ~threads) spec.max_arenas
  in
  let t = SET.create ~threads ~capacity:spec.capacity ~check_access:spec.check_access config in
  let pool = SET.pool t in
  prefill (module SET) t spec.prefill;
  let key_range =
    List.fold_left (fun m (p : Loadgen.spec) -> max m p.Loadgen.key_range) 0 spec.phases
  in
  let wd =
    Watchdog.create
      (Watchdog.spec_for ~scheme:S.name ~properties:S.properties ~config ~threads
         ?elastic_slack:(if elastic then Some spec.capacity else None)
         ~size_at_arm:(2 * key_range) ())
  in
  Option.iter (Fault.arm ~threads) spec.plan;
  let svc =
    Service.create
      ?recovery:(Option.map (fun spare_tids -> { Recovery.default with spare_tids }) spec.spare_tids)
      ?autoscale:(if elastic then Some Service.default_autoscale else None)
      (module SET) t ~shards:spec.shards ~batch:spec.batch ~ring_capacity:spec.ring_capacity
  in
  Service.start svc;
  (* The one sampler: the draining arena's parked slots are waste until
     the detach completes, so every sample counts them. *)
  let samples = ref [] and peak_arenas = ref (Mempool.Core.attached_arenas pool) in
  let sample () =
    let w = (SET.smr_stats t).Smr_core.Smr_intf.wasted + Mempool.Core.detaching_slots pool in
    Watchdog.observe wd ~wasted:w;
    samples := (Unix.gettimeofday (), w) :: !samples;
    peak_arenas := max !peak_arenas (Mempool.Core.attached_arenas pool);
    w
  in
  let phase p =
    let st0 = SET.smr_stats t and traversed0 = SET.traversed t in
    let sum = ref 0.0 and ticks = ref 0 and wmax = ref 0 in
    let tick () =
      let w = sample () in
      sum := !sum +. float_of_int w;
      incr ticks;
      wmax := max !wmax w
    in
    let lg = Loadgen.run ~tick svc p in
    let st1 = SET.smr_stats t in
    let open Smr_core.Smr_intf in
    {
      lg;
      wasted_avg = (if !ticks = 0 then 0.0 else !sum /. float_of_int !ticks);
      wasted_max = !wmax;
      fences = st1.fences - st0.fences;
      traversed = SET.traversed t - traversed0;
      scan_passes = st1.scan_passes - st0.scan_passes;
      scan_time_s = st1.scan_time_s -. st0.scan_time_s;
      arenas_at_end = Mempool.Core.attached_arenas pool;
    }
  in
  let phases = List.map phase spec.phases in
  Service.stop svc;
  let crashed = Fault.crashed_tids () in
  Fault.disarm ();
  (* After the shards flushed on the way out: the truest "settled"
     point of a fixed pool. *)
  ignore (sample () : int);
  let pinning = SET.pinning_tids t in
  (* Settle an elastic pool: single-threaded over tid 0 (the exiting
     workers handed their magazines back), remove sweeps free the
     stragglers living in high arenas, the flush forces a scan and with
     it the detach poll, and the shrink request asks for the next arena
     once the current one detaches. *)
  let t_settle = Unix.gettimeofday () in
  let s0 = SET.session t ~tid:0 in
  let k = ref 0 in
  while
    Mempool.Core.attached_arenas pool > 1
    && Unix.gettimeofday () -. t_settle < settle_deadline_s
  do
    ignore (Mempool.Core.request_shrink pool : int option);
    for _ = 1 to 512 do
      ignore (SET.remove s0 !k : bool);
      k := (!k + 1) mod key_range
    done;
    SET.flush s0;
    Mempool.Core.release_local pool ~tid:0;
    ignore (sample () : int)
  done;
  let settle_s = Unix.gettimeofday () -. t_settle in
  SET.check t;
  {
    phases;
    watchdog = Watchdog.verdict wd;
    samples = List.rev !samples;
    peak_arenas = !peak_arenas;
    crashed;
    pinning;
    stats = Service.stats svc;
    recovery = Service.recovery_stats svc;
    settle_s;
    violations = SET.violations t;
    wasted_peak = (SET.smr_stats t).Smr_core.Smr_intf.wasted_peak;
    final_size = SET.size t;
    arenas_attached = Mempool.Core.arenas_attached pool;
    arenas_detached = Mempool.Core.arenas_detached pool;
    resident_slots = Mempool.Core.resident_slots pool;
  }
