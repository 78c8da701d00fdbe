(* Long-running safety soak across the full (structure × scheme) matrix
   with the use-after-free detector armed. Not part of `dune runtest` —
   run manually:

     dune exec stress/soak.exe -- [minutes]
     dune exec stress/soak.exe -- --faults SEED [--rounds N] [--json FILE]
     dune exec stress/soak.exe -- --chaos SEED [--rounds N] [--json FILE]
     dune exec stress/soak.exe -- --elastic SEED [--rounds N] [--json FILE]

   With --faults, every round arms a seeded random fault plan
   (Mp_util.Fault.random_plan): interior stalls, yield storms and at most
   one permanent crash per round, landing inside the SMR protect/validate
   windows, retire/scan, and the pool's spill/refill. Each cell is then
   judged twice — the UAF detector must stay silent, and the waste-bound
   watchdog must report the scheme's declared bound held (EBR's reference
   bound is advisory: its violations are expected and logged, not
   fatal). Every fault round also fires the same plans through the
   request-service path (stress the batched SMR windows inside shard
   domains, with open-loop latency percentiles in the JSON).

   With --chaos, every round runs the sharded service WITH the recovery
   supervisor armed, across all six schemes: a deterministic fault plan
   kills shard domains mid-round, the supervisor joins them, adopts their
   tids and respawns replacements, and the round is judged on (a) the
   waste-bound watchdog holding through crash/quarantine/respawn, (b)
   request conservation — every submitted request answered exactly once
   (completed, rejected, busy, oom or deadline_exceeded), (c) at least
   one recovery actually happening, and (d) wasted memory returning to
   within 10% of a fault-free baseline run after the last recovery.

   With --elastic, every round runs the service over an elastic pool
   (max_arenas = 4): an insert spike must grow it past one arena with no
   OOM reply, a shard crash mid-spike stalls (but must not wedge) the
   decay phase's autoscale-driven drains until the tid is adopted, and
   after the decay every drain must complete — the footprint returns to
   within one arena of pre-spike, under the per-arena waste bound. *)

module Fault = Mp_util.Fault
module Watchdog = Mp_harness.Watchdog

let structures : (string * ((module Smr_core.Smr_intf.S) -> (module Dstruct.Set_intf.SET))) list =
  [
    ("list", fun (module S) -> (module Dstruct.Michael_list.Make (S)));
    ("skiplist", fun (module S) -> (module Dstruct.Skiplist.Make (S)));
    ("bst", fun (module S) -> (module Dstruct.Nm_bst.Make (S)));
  ]

let schemes : (string * (module Smr_core.Smr_intf.S)) list =
  [
    ("mp", (module Mp.Margin_ptr));
    ("hp", (module Smr_schemes.Hp));
    ("ebr", (module Smr_schemes.Ebr));
    ("he", (module Smr_schemes.He));
    ("ibr", (module Smr_schemes.Ibr));
  ]

let threads = 4
let ops = 20_000

let prefill (type a) (module SET : Dstruct.Set_intf.SET with type t = a) ~range : a =
  let config = Smr_core.Config.default ~threads in
  let t =
    SET.create ~threads ~capacity:((range * 8) + (ops * threads) + 1024) ~check_access:true
      config
  in
  let s0 = SET.session t ~tid:0 in
  for k = 0 to (range / 2) - 1 do
    ignore (SET.insert s0 ~key:(k * 2) ~value:k : bool)
  done;
  SET.flush s0;
  t

let round (module SET : Dstruct.Set_intf.SET) ~seed =
  let range = if seed mod 2 = 0 then 256 else 64 in
  let t = prefill (module SET) ~range in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = SET.session t ~tid in
            let rng = Mp_util.Rng.split ~seed ~tid in
            for i = 1 to ops do
              let k = Mp_util.Rng.below rng range in
              if i mod 1000 = 0 then
                ignore (SET.contains_paused s k ~pause:(fun () -> Unix.sleepf 0.0005) : bool)
              else
                match Mp_util.Rng.below rng 4 with
                | 0 -> ignore (SET.insert s ~key:k ~value:k : bool)
                | 1 -> ignore (SET.remove s k : bool)
                | _ -> ignore (SET.contains s k : bool)
            done;
            SET.flush s))
  in
  Array.iter Domain.join domains;
  SET.check t;
  if SET.violations t <> 0 then failwith (SET.name ^ ": use-after-free detected")

(* One fault round: prefill, arm the plan, churn, and while the workers
   run sample the wasted counter into the watchdog. Crashed workers skip
   their flush — their announcements stay published, which is the
   scenario. *)
let fault_round (module SET : Dstruct.Set_intf.SET) ~scheme ~properties ~seed =
  let range = if seed mod 2 = 0 then 256 else 64 in
  let t = prefill (module SET) ~range in
  let config = Smr_core.Config.default ~threads in
  let plan = Fault.random_plan ~seed ~threads in
  let wd =
    (* live ceiling: up to [range] keys, ×2 for the BST's routers *)
    Watchdog.create
      (Watchdog.spec_for ~scheme ~properties ~config ~threads ~size_at_arm:(2 * range) ())
  in
  Fault.arm ~threads plan;
  let finished = Atomic.make 0 in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = SET.session t ~tid in
            let rng = Mp_util.Rng.split ~seed ~tid in
            (try
               for _ = 1 to ops do
                 let k = Mp_util.Rng.below rng range in
                 match Mp_util.Rng.below rng 4 with
                 | 0 -> ignore (SET.insert s ~key:k ~value:k : bool)
                 | 1 -> ignore (SET.remove s k : bool)
                 | _ -> ignore (SET.contains s k : bool)
               done;
               SET.flush s
             with Fault.Crashed _ -> ());
            Atomic.incr finished))
  in
  while Atomic.get finished < threads do
    Unix.sleepf 0.002;
    Watchdog.observe wd ~wasted:(SET.smr_stats t).Smr_core.Smr_intf.wasted
  done;
  Array.iter Domain.join domains;
  let crashed = Fault.crashed_tids () in
  Fault.disarm ();
  let pinning = SET.pinning_tids t in
  SET.check t;
  if SET.violations t <> 0 then
    failwith (Printf.sprintf "%s: use-after-free under %s" SET.name (Fault.plan_to_string plan));
  let v = Watchdog.verdict wd in
  if not (Watchdog.ok v) then
    failwith
      (Printf.sprintf "%s: waste bound broken under %s: %s" SET.name (Fault.plan_to_string plan)
         (Watchdog.to_string v));
  (plan, v, crashed, pinning)

(* One service-path fault round: the same seeded plans, but firing inside
   the shard domains of the request-service layer, where operations run
   under batched SMR windows (a crash mid-batch kills the shard with the
   whole window's announcements still published). The watchdog samples
   from the load generator's tick; the open-loop (Poisson) client records
   end-to-end latency, coordinated-omission corrected, so a stalled or
   crashed shard shows up in p99/p99.9 instead of disappearing behind
   back-pressure. *)
let service_fault_round scheme_mod ~scheme ~properties ~seed =
  let module Service = Mp_service.Service in
  let module Loadgen = Mp_service.Loadgen in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds scheme_mod
  in
  let shards = 2 in
  let batch = 1 + (seed mod 48) in
  let range = if seed mod 2 = 0 then 512 else 128 in
  let config = Smr_core.Config.default ~threads:shards in
  let t =
    SET.create ~threads:shards ~capacity:((range * 8) + (shards * 65536)) ~check_access:true
      config
  in
  let s0 = SET.session t ~tid:0 in
  for k = 0 to (range / 2) - 1 do
    ignore (SET.insert s0 ~key:(k * 2) ~value:k : bool)
  done;
  SET.flush s0;
  let plan = Fault.random_plan ~seed ~threads:shards in
  let wd =
    Watchdog.create
      (Watchdog.spec_for ~scheme ~properties ~config ~threads:shards ~size_at_arm:(2 * range) ())
  in
  Fault.arm ~threads:shards plan;
  let svc = Service.create (module SET) t ~shards ~batch ~ring_capacity:128 in
  Service.start svc;
  let lg =
    Loadgen.run
      ~tick:(fun () ->
        Watchdog.observe wd ~wasted:(SET.smr_stats t).Smr_core.Smr_intf.wasted)
      svc
      {
        Loadgen.clients = 2;
        duration_s = 0.6;
        warmup_s = 0.0;
        read_pct = 50;
        insert_pct = 30;
        (* Random multi-get widths so fault plans also fire inside the
           intra-request window rollover path. *)
        mget = 1 + (seed mod 4);
        key_range = range;
        zipf_alpha = None;
        seed;
        (* Alternate by seed between the open-loop window of 1-chains
           and the chained client, so fault plans also fire while a
           shard is mid-chain (the coalesced-completion takeover edge). *)
        mode =
          (if seed mod 2 = 0 then Loadgen.Open { rate = 30_000.0; window = 32 }
           else Loadgen.Chained { chain = 1 + (seed mod 8) });
        deadline_s = 0.0;
        max_retries = 0;
      }
  in
  Service.stop svc;
  let crashed = Fault.crashed_tids () in
  Fault.disarm ();
  let pinning = SET.pinning_tids t in
  SET.check t;
  if SET.violations t <> 0 then
    failwith
      (Printf.sprintf "service(%s): use-after-free under %s (B=%d)" scheme
         (Fault.plan_to_string plan) batch);
  let v = Watchdog.verdict wd in
  if not (Watchdog.ok v) then
    failwith
      (Printf.sprintf "service(%s): waste bound broken under %s (B=%d): %s" scheme
         (Fault.plan_to_string plan) batch (Watchdog.to_string v));
  (plan, v, crashed, pinning, batch, lg)

(* -- chaos: crash–recover rounds over the resilient service -------------- *)

(* All six schemes: the five above plus the leaky baseline (its adopt is
   a no-op, but recovery must still respawn and conserve requests). *)
let chaos_schemes : (string * (module Smr_core.Smr_intf.S)) list =
  schemes @ [ ("none", (module Smr_schemes.Leaky)) ]

type chaos_cell = {
  c_scheme : string;
  c_seed : int;
  c_batch : int;
  c_crashes : int;
  c_recoveries : int;
  c_adoptions : int;
  c_recovery_ms_mean : float;
  c_recovery_ms_max : float;
  c_baseline_peak : int;
  c_tail_peak : int;
  c_waste_ok : bool;
  c_conservation_ok : bool;
  c_watchdog : Watchdog.verdict;
  c_lg : Mp_service.Loadgen.result;
}

(* One chaos cell: the same seeded open-loop workload (deadlines and
   retries armed) runs twice over the recovery-supervised service — once
   fault-free for a wasted-memory baseline, once with a deterministic
   plan crashing shards 1 and 2 mid-round. The crashed shards' tids are
   adopted and replacements respawn on the spare tids; after the last
   recovery the wasted counter must come back to within 10% of the
   baseline peak (plus a small absolute floor for sampling noise). *)
let chaos_round scheme_mod ~scheme ~properties ~seed =
  let module Service = Mp_service.Service in
  let module Recovery = Mp_service.Recovery in
  let module Loadgen = Mp_service.Loadgen in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds scheme_mod
  in
  let shards = 3 and spare_tids = 2 in
  let threads = shards + spare_tids in
  let range = 512 and batch = 8 in
  let config = Smr_core.Config.default ~threads in
  let recovery = { Recovery.default with spare_tids } in
  let spec =
    {
      Loadgen.clients = 2;
      duration_s = 1.2;
      warmup_s = 0.0; (* exact request conservation needs the full window *)
      read_pct = 50;
      insert_pct = 30;
      mget = 1 + (seed mod 4);
      key_range = range;
      zipf_alpha = None;
      seed;
      mode = Loadgen.Open { rate = 20_000.0; window = 32 };
      deadline_s = 0.05;
      max_retries = 3;
    }
  in
  let run ~faulted =
    let t =
      SET.create ~threads ~capacity:((range * 8) + (threads * 65536)) ~check_access:true
        config
    in
    let s0 = SET.session t ~tid:0 in
    for k = 0 to (range / 2) - 1 do
      ignore (SET.insert s0 ~key:(k * 2) ~value:k : bool)
    done;
    SET.flush s0;
    let wd =
      Watchdog.create
        (Watchdog.spec_for ~scheme ~properties ~config ~threads ~size_at_arm:(2 * range) ())
    in
    if faulted then begin
      (* Crash inside the protect/validate window (retire for leaky,
         which publishes no reservations) after enough hits that the
         shards are mid-round, with requests in flight and windows
         open. Never shard 0, so at least one shard serves throughout. *)
      let point =
        if scheme = "none" then Fault.Reclaimer_retire else Fault.Protect_validate
      in
      Fault.arm ~threads
        (Fault.plan ~label:(Printf.sprintf "chaos-%s-%d" scheme seed)
           [
             Fault.crash_event ~tid:1 ~point ~after_hits:(200 + (seed mod 100));
             Fault.crash_event ~tid:2 ~point ~after_hits:(500 + (seed mod 200));
           ])
    end;
    let svc = Service.create ~recovery (module SET) t ~shards ~batch ~ring_capacity:128 in
    Service.start svc;
    let samples = ref [] in
    let lg =
      Loadgen.run
        ~tick:(fun () ->
          let w = (SET.smr_stats t).Smr_core.Smr_intf.wasted in
          Watchdog.observe wd ~wasted:w;
          samples := (Unix.gettimeofday (), w) :: !samples)
        svc spec
    in
    Service.stop svc;
    if faulted then Fault.disarm ();
    (* One more sample after the shards flushed on the way out: the
       truest "after recovery settled" point, and it guarantees the tail
       window below is never empty. *)
    samples := (Unix.gettimeofday (), (SET.smr_stats t).Smr_core.Smr_intf.wasted) :: !samples;
    SET.check t;
    if SET.violations t <> 0 then
      failwith (Printf.sprintf "chaos(%s): use-after-free (seed %d)" scheme seed);
    let stats = Service.stats svc in
    let rstats = Option.get (Service.recovery_stats svc) in
    (lg, stats, rstats, Watchdog.verdict wd, List.rev !samples)
  in
  let _, _, _, _, base_samples = run ~faulted:false in
  let baseline_peak = List.fold_left (fun m (_, w) -> max m w) 0 base_samples in
  let lg, stats, rstats, v, samples = run ~faulted:true in
  (* Tail = samples after the last takeover plus a settling margin (the
     replacement's first scans drain what the dead incarnation left). *)
  let tail_from = rstats.Recovery.last_recovery_at +. 0.1 in
  let tail = List.filter (fun (at, _) -> at >= tail_from) samples in
  let tail = if tail = [] then [ List.nth samples (List.length samples - 1) ] else tail in
  let tail_peak = List.fold_left (fun m (_, w) -> max m w) 0 tail in
  let waste_ok =
    scheme = "none" (* leaky never frees: no return-to-baseline to check *)
    || float_of_int tail_peak <= (1.1 *. float_of_int baseline_peak) +. 64.0
  in
  let conservation_ok =
    lg.Loadgen.submitted
    = lg.Loadgen.completed_reqs + lg.Loadgen.rejected + lg.Loadgen.busy + lg.Loadgen.oom
      + lg.Loadgen.deadline_exceeded
  in
  if not conservation_ok then
    failwith
      (Printf.sprintf
         "chaos(%s): lost or duplicated replies: %d submitted vs %d+%d+%d+%d+%d accounted"
         scheme lg.Loadgen.submitted lg.Loadgen.completed_reqs lg.Loadgen.rejected
         lg.Loadgen.busy lg.Loadgen.oom lg.Loadgen.deadline_exceeded);
  if rstats.Recovery.recoveries < 1 then
    failwith (Printf.sprintf "chaos(%s): no crash recovered (seed %d)" scheme seed);
  if not (Watchdog.ok v) then
    failwith (Printf.sprintf "chaos(%s): waste bound broken: %s" scheme (Watchdog.to_string v));
  if not waste_ok then
    failwith
      (Printf.sprintf "chaos(%s): wasted did not return to baseline: tail %d vs baseline %d"
         scheme tail_peak baseline_peak);
  {
    c_scheme = scheme;
    c_seed = seed;
    c_batch = batch;
    c_crashes = stats.Service.crash_events;
    c_recoveries = rstats.Recovery.recoveries;
    c_adoptions = rstats.Recovery.adoptions;
    c_recovery_ms_mean = rstats.Recovery.mean_recovery_s *. 1e3;
    c_recovery_ms_max = rstats.Recovery.max_recovery_s *. 1e3;
    c_baseline_peak = baseline_peak;
    c_tail_peak = tail_peak;
    c_waste_ok = waste_ok;
    c_conservation_ok = conservation_ok;
    c_watchdog = v;
    c_lg = lg;
  }

let chaos_cell_json c =
  let module Loadgen = Mp_service.Loadgen in
  let lg = c.c_lg in
  let h = lg.Loadgen.latency in
  let p q = Mp_util.Histogram.percentile_ns h q in
  Printf.sprintf
    "{\"ds\":\"service-hash\",\"scheme\":\"%s\",\"seed\":%d,\"batch\":%d,\"crashes\":%d,\"recoveries\":%d,\"adoptions\":%d,\"recovery_ms_mean\":%.3f,\"recovery_ms_max\":%.3f,\"baseline_wasted_peak\":%d,\"tail_wasted_peak\":%d,\"waste_ok\":%b,\"conservation_ok\":%b,\"submitted\":%d,\"completed\":%d,\"completed_reqs\":%d,\"rejected\":%d,\"busy\":%d,\"oom\":%d,\"drops\":%d,\"deadline_exceeded\":%d,\"ring_full\":%d,\"retries\":%d,\"lat_p50_ns\":%d,\"lat_p99_ns\":%d,\"lat_p999_ns\":%d,%s}"
    c.c_scheme c.c_seed c.c_batch c.c_crashes c.c_recoveries c.c_adoptions
    c.c_recovery_ms_mean c.c_recovery_ms_max c.c_baseline_peak c.c_tail_peak c.c_waste_ok
    c.c_conservation_ok lg.Loadgen.submitted lg.Loadgen.completed lg.Loadgen.completed_reqs
    lg.Loadgen.rejected lg.Loadgen.busy lg.Loadgen.oom lg.Loadgen.drops
    lg.Loadgen.deadline_exceeded lg.Loadgen.ring_full lg.Loadgen.retries (p 50.0) (p 99.0)
    (p 99.9)
    (Watchdog.json_fields (Some c.c_watchdog))

(* -- elastic: spike → grow → crash → adopt → decay → shrink --------------- *)

type elastic_cell = {
  e_scheme : string;
  e_seed : int;
  e_capacity : int;
  e_max_arenas : int;
  e_grown : int; (* arenas attached under load *)
  e_detached : int; (* arena detaches completed *)
  e_peak_arenas : int;
  e_resident_final : int;
  e_live_peak : int;
  e_stalls : int;
  e_oom : int;
  e_crashes : int;
  e_recoveries : int;
  e_settle_s : float;
  e_conservation_ok : bool;
  e_watchdog : Watchdog.verdict;
}

(* One elastic round: a hash-table service over an elastic pool
   (max_arenas = 4, one arena far smaller than the spike's working set)
   with the recovery supervisor and the autoscale policy domain armed.

   Phase 1 (spike): an insert-heavy open-loop workload pushes the live
   count well past one arena — the pool must grow on demand, absorbing
   transient exhaustion as alloc stalls and never replying OOM below
   [max_arenas]. A deterministic plan crashes shard 1 inside a
   protect/validate window mid-spike; its published reservations must
   stall — never unsafely complete, never wedge — any drain in flight
   until the supervisor adopts the dead tid. Phase 2 (decay): a
   remove-heavy workload shrinks the working set; the autoscale domain
   lowers its target and requests drains of the topmost arena. Phase 3
   (settle, after [Service.stop] — the exiting workers have handed their
   magazines back): a single thread removes the remaining keys and
   churns scans until every pending drain detaches.

   Judged on (a) the per-arena waste bound holding, with the draining
   arena's parked slots counted into every sample, (b) UAF silence,
   (c) request conservation through both loadgen phases, (d) at least
   one arena attached under load and at least one detach completed,
   (e) the pool back to within one arena of its pre-spike footprint, and
   (f) at least one recovery. *)
let elastic_round scheme_mod ~scheme ~properties ~seed =
  let module Service = Mp_service.Service in
  let module Recovery = Mp_service.Recovery in
  let module Loadgen = Mp_service.Loadgen in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds scheme_mod
  in
  let shards = 2 and spare_tids = 1 in
  let threads = shards + spare_tids in
  let capacity = 4096 and max_arenas = 4 in
  (* 1.5 arenas of keys: the spike must outgrow arena 0, and two spare
     arenas of headroom keep even EBR's crash-window waste clear of a
     hard exhaustion. *)
  let range = capacity * 3 / 2 in
  let config =
    Smr_core.Config.with_max_arenas (Smr_core.Config.default ~threads) max_arenas
  in
  let t = SET.create ~threads ~capacity ~check_access:true config in
  let pool = SET.pool t in
  let wd =
    Watchdog.create
      (Watchdog.spec_for ~scheme ~properties ~config ~threads ~elastic_slack:capacity
         ~size_at_arm:(2 * range) ())
  in
  let peak_arenas = ref (Mempool.Core.attached_arenas pool) in
  let tick () =
    let w =
      (SET.smr_stats t).Smr_core.Smr_intf.wasted + Mempool.Core.detaching_slots pool
    in
    Watchdog.observe wd ~wasted:w;
    let n = Mempool.Core.attached_arenas pool in
    if n > !peak_arenas then peak_arenas := n
  in
  let s0 = SET.session t ~tid:0 in
  for k = 0 to 255 do
    ignore (SET.insert s0 ~key:(k * 2) ~value:k : bool)
  done;
  SET.flush s0;
  Fault.arm ~threads
    (Fault.plan
       ~label:(Printf.sprintf "elastic-%s-%d" scheme seed)
       [
         Fault.crash_event ~tid:1 ~point:Fault.Protect_validate
           ~after_hits:(300 + (seed mod 200));
       ]);
  let recovery = { Recovery.default with spare_tids } in
  let svc =
    Service.create ~recovery ~autoscale:Service.default_autoscale
      (module SET)
      t ~shards ~batch:8 ~ring_capacity:128
  in
  Service.start svc;
  let phase ~duration_s ~rate ~read_pct ~insert_pct ~seed =
    Loadgen.run ~tick svc
      {
        Loadgen.clients = 2;
        duration_s;
        warmup_s = 0.0;
        read_pct;
        insert_pct;
        mget = 1;
        key_range = range;
        zipf_alpha = None;
        seed;
        mode = Loadgen.Open { rate; window = 32 };
        deadline_s = 0.05;
        max_retries = 3;
      }
  in
  let spike = phase ~duration_s:0.8 ~rate:60_000.0 ~read_pct:5 ~insert_pct:90 ~seed in
  let decay =
    phase ~duration_s:1.2 ~rate:40_000.0 ~read_pct:20 ~insert_pct:0 ~seed:(seed + 1)
  in
  Service.stop svc;
  Fault.disarm ();
  (* Settle: drain what the decay left behind until every pending drain
     completes. Single-threaded over tid 0 — remove sweeps free the
     stragglers still living in high arenas, the flush forces a scan
     (and with it the detach poll), and the explicit shrink request
     keeps asking for the next arena once the current one detaches. *)
  let t_settle = Unix.gettimeofday () in
  let deadline = t_settle +. 10.0 in
  let k = ref 0 in
  while Mempool.Core.attached_arenas pool > 1 && Unix.gettimeofday () < deadline do
    ignore (Mempool.Core.request_shrink pool : int option);
    for _ = 1 to 512 do
      ignore (SET.remove s0 !k : bool);
      k := (!k + 1) mod range
    done;
    SET.flush s0;
    Mempool.Core.release_local pool ~tid:0;
    tick ()
  done;
  let settle_s = Unix.gettimeofday () -. t_settle in
  let stats = Service.stats svc in
  let rstats = Option.get (Service.recovery_stats svc) in
  SET.check t;
  if SET.violations t <> 0 then
    failwith (Printf.sprintf "elastic(%s): use-after-free (seed %d)" scheme seed);
  let v = Watchdog.verdict wd in
  if not (Watchdog.ok v) then
    failwith
      (Printf.sprintf "elastic(%s): waste bound broken: %s" scheme (Watchdog.to_string v));
  let conservation_of (lg : Loadgen.result) =
    lg.Loadgen.submitted
    = lg.Loadgen.completed_reqs + lg.Loadgen.rejected + lg.Loadgen.busy + lg.Loadgen.oom
      + lg.Loadgen.deadline_exceeded
  in
  let conservation_ok = conservation_of spike && conservation_of decay in
  if not conservation_ok then
    failwith (Printf.sprintf "elastic(%s): lost or duplicated replies (seed %d)" scheme seed);
  let grown = Mempool.Core.arenas_attached pool in
  let detached = Mempool.Core.arenas_detached pool in
  let resident = Mempool.Core.resident_slots pool in
  if grown < 1 then
    failwith
      (Printf.sprintf "elastic(%s): spike never grew the pool (peak %d arenas, seed %d)"
         scheme !peak_arenas seed);
  if detached < 1 then
    failwith
      (Printf.sprintf "elastic(%s): no drain completed (still %d arenas, seed %d)" scheme
         (Mempool.Core.attached_arenas pool) seed);
  if resident > 2 * capacity then
    failwith
      (Printf.sprintf
         "elastic(%s): footprint did not return: %d resident slots vs %d pre-spike (seed %d)"
         scheme resident capacity seed);
  if stats.Service.oom > 0 && !peak_arenas < max_arenas then
    failwith
      (Printf.sprintf "elastic(%s): replied OOM below max_arenas (%d replies, seed %d)"
         scheme stats.Service.oom seed);
  if rstats.Recovery.recoveries < 1 then
    failwith (Printf.sprintf "elastic(%s): no crash recovered (seed %d)" scheme seed);
  {
    e_scheme = scheme;
    e_seed = seed;
    e_capacity = capacity;
    e_max_arenas = max_arenas;
    e_grown = grown;
    e_detached = detached;
    e_peak_arenas = !peak_arenas;
    e_resident_final = resident;
    e_live_peak = stats.Service.live_peak;
    e_stalls = stats.Service.alloc_stalls;
    e_oom = stats.Service.oom;
    e_crashes = stats.Service.crash_events;
    e_recoveries = rstats.Recovery.recoveries;
    e_settle_s = settle_s;
    e_conservation_ok = conservation_ok;
    e_watchdog = v;
  }

let elastic_cell_json c =
  Printf.sprintf
    "{\"ds\":\"service-hash\",\"scheme\":\"%s\",\"seed\":%d,\"capacity\":%d,\"max_arenas\":%d,\"arenas_attached\":%d,\"arenas_detached\":%d,\"peak_arenas\":%d,\"resident_final\":%d,\"live_peak\":%d,\"alloc_stalls\":%d,\"oom\":%d,\"crashes\":%d,\"recoveries\":%d,\"settle_s\":%.3f,\"conservation_ok\":%b,%s}"
    c.e_scheme c.e_seed c.e_capacity c.e_max_arenas c.e_grown c.e_detached c.e_peak_arenas
    c.e_resident_final c.e_live_peak c.e_stalls c.e_oom c.e_crashes c.e_recoveries
    c.e_settle_s c.e_conservation_ok
    (Watchdog.json_fields (Some c.e_watchdog))

let fmt_tids tids = "[" ^ String.concat "," (List.map string_of_int tids) ^ "]"

let () =
  let minutes = ref 5.0 in
  let fault_seed = ref None in
  let chaos_seed = ref None in
  let elastic_seed = ref None in
  let rounds = ref 10 in
  let json_file = ref None in
  let rec parse = function
    | "--faults" :: s :: rest ->
      fault_seed := Some (int_of_string s);
      parse rest
    | "--chaos" :: s :: rest ->
      chaos_seed := Some (int_of_string s);
      parse rest
    | "--elastic" :: s :: rest ->
      elastic_seed := Some (int_of_string s);
      parse rest
    | "--rounds" :: n :: rest ->
      rounds := int_of_string n;
      parse rest
    | "--json" :: f :: rest ->
      json_file := Some f;
      parse rest
    | m :: rest ->
      (try minutes := float_of_string m with _ -> ());
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!elastic_seed, !chaos_seed, !fault_seed) with
  | Some base_seed, _, _ ->
    (* Elastic rounds: the five reclaiming schemes (leaky never frees,
       so an arena drain can never complete under it — growth alone is
       covered by the unit tests). *)
    let rounds = max 1 (min !rounds 10) in
    let json = ref [] in
    for r = 1 to rounds do
      List.iter
        (fun (s_name, scheme) ->
          let (module S : Smr_core.Smr_intf.S) = scheme in
          let seed = (base_seed * 1_000_003) + (r * 7919) + Hashtbl.hash ("elastic", s_name) in
          let c = elastic_round scheme ~scheme:s_name ~properties:S.properties ~seed in
          Printf.printf
            "elastic(%s) round %d  arenas peak=%d attached=%d detached=%d resident=%d  \
             stalls=%d oom=%d crashes=%d recoveries=%d settle=%.2fs  %s\n%!"
            s_name r c.e_peak_arenas c.e_grown c.e_detached c.e_resident_final c.e_stalls
            c.e_oom c.e_crashes c.e_recoveries c.e_settle_s
            (Watchdog.to_string c.e_watchdog);
          json := elastic_cell_json c :: !json)
        schemes
    done;
    (match !json_file with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Printf.sprintf "{\"schema_version\":%d,\"results\":[\n  %s\n]}\n"
           Mp_harness.Runner.schema_version
           (String.concat ",\n  " (List.rev !json)));
      close_out oc;
      Printf.printf "[wrote %d elastic verdicts to %s]\n%!" (List.length !json) path);
    print_endline "ELASTIC SOAK CLEAN"
  | None, Some base_seed, _ ->
    let rounds = max 1 (min !rounds 10) in
    let json = ref [] in
    for r = 1 to rounds do
      List.iter
        (fun (s_name, scheme) ->
          let (module S : Smr_core.Smr_intf.S) = scheme in
          let seed = (base_seed * 1_000_003) + (r * 7919) + Hashtbl.hash ("chaos", s_name) in
          let c = chaos_round scheme ~scheme:s_name ~properties:S.properties ~seed in
          Printf.printf
            "chaos(%s) round %d  crashes=%d recoveries=%d adoptions=%d rec_ms=%.2f/%.2f  wasted base/tail=%d/%d  %s\n%!"
            s_name r c.c_crashes c.c_recoveries c.c_adoptions c.c_recovery_ms_mean
            c.c_recovery_ms_max c.c_baseline_peak c.c_tail_peak
            (Watchdog.to_string c.c_watchdog);
          json := chaos_cell_json c :: !json)
        chaos_schemes
    done;
    (match !json_file with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Printf.sprintf "{\"schema_version\":%d,\"results\":[\n  %s\n]}\n"
           Mp_harness.Runner.schema_version
           (String.concat ",\n  " (List.rev !json)));
      close_out oc;
      Printf.printf "[wrote %d chaos verdicts to %s]\n%!" (List.length !json) path);
    print_endline "CHAOS SOAK CLEAN"
  | None, None, None ->
    let t_end = Unix.gettimeofday () +. (!minutes *. 60.0) in
    let seed = ref 0 in
    while Unix.gettimeofday () < t_end do
      incr seed;
      List.iter
        (fun (ds_name, make) ->
          List.iter
            (fun (s_name, s) ->
              round (make s) ~seed:(!seed * 7919);
              Printf.printf "%s(%s) round %d ok\n%!" ds_name s_name !seed)
            schemes)
        structures
    done;
    print_endline "SOAK CLEAN"
  | None, None, Some base_seed ->
    let json = ref [] in
    for r = 1 to !rounds do
      List.iter
        (fun (ds_name, make) ->
          List.iter
            (fun (s_name, scheme) ->
              let (module S : Smr_core.Smr_intf.S) = scheme in
              (* Derive a distinct deterministic seed per (round, cell) so a
                 failure is reproducible from the base seed alone. *)
              let seed = (base_seed * 1_000_003) + (r * 7919) + Hashtbl.hash (ds_name, s_name) in
              let plan, v, crashed, pinning =
                fault_round (make scheme) ~scheme:s_name ~properties:S.properties ~seed
              in
              Printf.printf "%s(%s) round %d %s  crashed=%s pinning=%s  %s\n%!" ds_name s_name r
                (Fault.plan_to_string plan) (fmt_tids crashed) (fmt_tids pinning)
                (Watchdog.to_string v);
              json :=
                Printf.sprintf
                  "{\"round\":%d,\"ds\":\"%s\",\"scheme\":\"%s\",\"seed\":%d,\"crashed\":%s,\"pinning\":%s,%s}"
                  r ds_name s_name seed (fmt_tids crashed) (fmt_tids pinning)
                  (Watchdog.json_fields (Some v))
                :: !json)
            schemes)
        structures;
      (* Same plans through the request-service path: faults land inside
         the shard domains, under batched SMR windows. *)
      List.iter
        (fun (s_name, scheme) ->
          let (module S : Smr_core.Smr_intf.S) = scheme in
          let seed = (base_seed * 1_000_003) + (r * 7919) + Hashtbl.hash ("service", s_name) in
          let plan, v, crashed, pinning, batch, lg =
            service_fault_round scheme ~scheme:s_name ~properties:S.properties ~seed
          in
          let module Loadgen = Mp_service.Loadgen in
          let h = lg.Loadgen.latency in
          let p q = Mp_util.Histogram.percentile_ns h q in
          Printf.printf
            "service(%s) round %d B=%d %s  crashed=%s pinning=%s  %s  p50/p99/p99.9=%d/%d/%dns\n%!"
            s_name r batch (Fault.plan_to_string plan) (fmt_tids crashed) (fmt_tids pinning)
            (Watchdog.to_string v) (p 50.0) (p 99.0) (p 99.9);
          json :=
            Printf.sprintf
              "{\"round\":%d,\"ds\":\"service-hash\",\"scheme\":\"%s\",\"seed\":%d,\"batch\":%d,\"crashed\":%s,\"pinning\":%s,\"submitted\":%d,\"completed\":%d,\"rejected\":%d,\"drops\":%d,\"ring_full\":%d,\"busy\":%d,\"deadline_exceeded\":%d,\"lat_p50_ns\":%d,\"lat_p99_ns\":%d,\"lat_p999_ns\":%d,%s}"
              r s_name seed batch (fmt_tids crashed) (fmt_tids pinning) lg.Loadgen.submitted
              lg.Loadgen.completed lg.Loadgen.rejected lg.Loadgen.drops lg.Loadgen.ring_full
              lg.Loadgen.busy lg.Loadgen.deadline_exceeded (p 50.0) (p 99.0) (p 99.9)
              (Watchdog.json_fields (Some v))
            :: !json)
        schemes
    done;
    (match !json_file with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Printf.sprintf "{\"schema_version\":%d,\"results\":[\n  %s\n]}\n"
           Mp_harness.Runner.schema_version
           (String.concat ",\n  " (List.rev !json)));
      close_out oc;
      Printf.printf "[wrote %d verdicts to %s]\n%!" (List.length !json) path);
    print_endline "FAULT SOAK CLEAN"
