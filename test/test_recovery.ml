(* Crash recovery: reservation adoption and the resilient service.

   Four strata, matching how the feature is built:

   1. Kernel: [Reservation.quarantine] force-closes a dead tid's batch
      window and clears its published slots (one counted fence);
      [adopt] lifts the quarantine so a replacement can reuse the row.
   2. Schemes: [S.adopt] on a dead tid releases everything it pinned —
      other threads' retired nodes it was blocking become reclaimable,
      and its own retired backlog is drained as its next flush would
      have.
   3. Transport: the ring's cancel/complete race resolves exactly once
      in either direction, and the generation stamp marks a dead
      incarnation's requests across a [bump_generation].
   4. Service: a deterministic mid-round crash is detected, the dead
      shard joined and adopted, a replacement respawned on a spare tid
      — with request conservation (every submitted request answered
      exactly once) and no use-after-free; a QCheck property drives
      random fault plans through the same path. *)

module Config = Smr_core.Config
module Counters = Smr_core.Counters
module Reservation = Smr_core.Reservation
module Fault = Mp_util.Fault
module Ring = Mp_service.Request_ring
module Service = Mp_service.Service
module Recovery = Mp_service.Recovery
module Loadgen = Mp_service.Loadgen

let schemes = Common.schemes
let submit1 = Common.submit1

(* -- 1. reservation kernel ------------------------------------------------ *)

let kernel_quarantine_adopt () =
  let counters = Counters.create ~threads:2 in
  let res = Reservation.create ~counters ~threads:2 ~slots:2 ~empty:(-1) in
  Reservation.publish res ~tid:1 ~refno:0 42;
  Reservation.batch_enter res ~tid:1;
  Reservation.publish res ~tid:1 ~refno:1 7;
  let fences0 = (Counters.stats counters).Smr_core.Smr_intf.fences in
  Reservation.quarantine res ~tid:1;
  Alcotest.(check bool) "quarantined" true (Reservation.quarantined res ~tid:1);
  Alcotest.(check bool) "batch window forced shut" false (Reservation.in_batch res ~tid:1);
  Alcotest.(check int) "slot 0 cleared" (-1) (Reservation.get res ~tid:1 ~refno:0);
  Alcotest.(check int) "slot 1 cleared" (-1) (Reservation.get res ~tid:1 ~refno:1);
  Alcotest.(check int) "one fence for the sweep" (fences0 + 1)
    (Counters.stats counters).Smr_core.Smr_intf.fences;
  (* the other row is untouched *)
  Reservation.publish res ~tid:0 ~refno:0 9;
  Alcotest.(check int) "other tid unaffected" 9 (Reservation.get res ~tid:0 ~refno:0);
  Reservation.adopt res ~tid:1;
  Alcotest.(check bool) "adopted" false (Reservation.quarantined res ~tid:1);
  Reservation.publish res ~tid:1 ~refno:0 5;
  Alcotest.(check int) "row reusable after adopt" 5 (Reservation.get res ~tid:1 ~refno:0)

(* -- 2. every scheme: adopt releases a dead tid's pins -------------------- *)

(* tid 1 protects a node inside a batch window and "dies" (no flush, no
   batch_exit). tid 0 unlinks, retires and flushes: the node must stay
   allocated — the paper's dead-thread-pins-memory scenario. After
   [adopt t ~tid:1] the next flush must reclaim it. *)
let adopt_releases_pins (module S : Smr_core.Smr_intf.S) () =
  let threads = 2 in
  let config = Config.default ~threads in
  let pool = Mempool.Core.create ~capacity:256 ~threads () in
  let t = S.create ~pool ~threads config in
  let th0 = S.thread t ~tid:0 and th1 = S.thread t ~tid:1 in
  S.start_op th0;
  let a = S.alloc_with_index th0 ~index:(1 lsl 20) in
  let link = Atomic.make (Mempool.Core.handle pool a) in
  S.end_op th0;
  (* tid 1 reads [a] in an open batch window, then dies *)
  S.batch_enter th1;
  S.start_op th1;
  ignore (S.read th1 ~refno:0 link : Handle.t);
  S.end_op th1;
  (* tid 0 unlinks and retires; the dead window pins [a] *)
  S.start_op th0;
  Atomic.set link Handle.null;
  S.retire th0 a;
  S.end_op th0;
  S.flush th0;
  Alcotest.(check bool) "dead tid still pins" false (Mempool.Core.is_free pool a);
  if S.name <> "none" then
    Alcotest.(check bool) "dead tid reported pinning" true (List.mem 1 (S.pinning_tids t));
  S.adopt t ~tid:1;
  (* a few flushes: epoch schemes need their grace periods to lapse *)
  for _ = 1 to 4 do
    S.flush th0
  done;
  if S.name <> "none" then begin
    Alcotest.(check bool) "reclaimed after adopt" true (Mempool.Core.is_free pool a);
    Alcotest.(check (list int)) "no reservation left" [] (S.pinning_tids t)
  end

(* A dead tid's own retired backlog (retired, never flushed) is drained
   by the adoption itself — the supervisor runs the scan the dead
   thread's next flush would have. *)
let adopt_drains_backlog (module S : Smr_core.Smr_intf.S) () =
  let threads = 2 in
  let config = Config.default ~threads in
  let pool = Mempool.Core.create ~capacity:256 ~threads () in
  let t = S.create ~pool ~threads config in
  let th1 = S.thread t ~tid:1 in
  S.start_op th1;
  let b = S.alloc_with_index th1 ~index:(1 lsl 20) in
  S.end_op th1;
  S.start_op th1;
  S.retire th1 b;
  S.end_op th1;
  (* dies here: no flush *)
  Alcotest.(check bool) "backlog still allocated" false (Mempool.Core.is_free pool b);
  S.adopt t ~tid:1;
  if S.name <> "none" then
    Alcotest.(check bool) "backlog drained by adopt" true (Mempool.Core.is_free pool b)

(* -- 3. ring: cancel lifecycle and incarnation stamps --------------------- *)

let ring_cancel_pending () =
  let r = Ring.create ~capacity:4 in
  let t0 = submit1 r ~op:1 ~key:10 ~value:100 in
  Alcotest.(check int) "ticket" 0 t0;
  Alcotest.(check int) "cancel wins on a pending slot" (-1) (Ring.cancel r ~ticket:t0);
  Alcotest.(check bool) "consumer sees cancelled" true (Ring.cancelled r ~pos:0);
  Alcotest.(check bool) "not ready" false (Ring.ready r ~pos:0);
  Ring.discard r ~pos:0;
  (* the discarded slot is acked: a full lap of submissions fits *)
  for i = 1 to 4 do
    Alcotest.(check int) "slot recycled" i (submit1 r ~op:0 ~key:i ~value:0)
  done;
  Alcotest.(check int) "then full" (-1) (submit1 r ~op:0 ~key:0 ~value:0)

let ring_cancel_after_complete () =
  let r = Ring.create ~capacity:4 in
  let t0 = submit1 r ~op:1 ~key:10 ~value:100 in
  Alcotest.(check bool) "complete wins unopposed" true (Ring.complete r ~pos:0 7);
  (* the late cancel acts as the harvest: reply delivered, slot freed *)
  Alcotest.(check int) "cancel returns the reply" 7 (Ring.cancel r ~ticket:t0);
  (* slot 0 is acked: ticket 4, one lap later, lands on it *)
  for i = 1 to 4 do
    Alcotest.(check int) "slot freed by the cancel" i (submit1 r ~op:0 ~key:i ~value:0)
  done

let ring_complete_loses_to_cancel () =
  let r = Ring.create ~capacity:4 in
  let t0 = submit1 r ~op:1 ~key:10 ~value:100 in
  Alcotest.(check int) "cancel first" (-1) (Ring.cancel r ~ticket:t0);
  Alcotest.(check bool) "complete reports the loss" false (Ring.complete r ~pos:0 7);
  (* the losing complete freed the slot itself: a full lap fits *)
  for i = 1 to 4 do
    Alcotest.(check int) "slot freed" i (submit1 r ~op:0 ~key:i ~value:0)
  done

let ring_generation_stamp () =
  let r = Ring.create ~capacity:4 in
  Alcotest.(check int) "initial generation" 0 (Ring.generation r);
  let t0 = submit1 r ~op:1 ~key:1 ~value:0 in
  Ring.bump_generation r;
  let t1 = submit1 r ~op:1 ~key:2 ~value:0 in
  Alcotest.(check int) "bumped" 1 (Ring.generation r);
  Alcotest.(check int) "old request stamped old" 0 (Ring.stamp r ~pos:t0);
  Alcotest.(check int) "new request stamped new" 1 (Ring.stamp r ~pos:t1);
  Alcotest.(check bool) "dead incarnation detectable" true
    (Ring.stamp r ~pos:t0 < Ring.generation r)

let ring_deadline_word () =
  let r = Ring.create ~capacity:4 in
  let t0 = submit1 r ~op:1 ~key:1 ~value:0 ~deadline_us:123_456 in
  let t1 = submit1 r ~op:1 ~key:2 ~value:0 in
  Alcotest.(check int) "deadline rides the slot" 123_456 (Ring.deadline_us r ~pos:t0);
  Alcotest.(check int) "absent deadline is 0" 0 (Ring.deadline_us r ~pos:t1)

(* The takeover edge for a whole chain: every slot of a chain submitted
   under the dead incarnation is visibly stale to the replacement
   consumer, each is answered with a rejection exactly once, the
   coalesced wait still fires on the last slot, and every slot
   recycles. *)
let ring_dead_chain_rejected_once () =
  let r = Ring.create ~capacity:8 in
  let ops = [| 1; 1; 1 |] and keys = [| 1; 2; 3 |] and values = [| 0; 0; 0 |] in
  let t0 = Ring.try_submit_chain r ~n:3 ~ops ~keys ~values ~off:0 in
  Alcotest.(check int) "chain submitted" 0 t0;
  Ring.bump_generation r;
  (* fresh submits after the bump are NOT stale *)
  let t3 =
    Ring.try_submit_chain r ~n:2 ~ops ~keys ~values ~off:0 ~deadline_us:0
  in
  for pos = t0 to t0 + 2 do
    Alcotest.(check bool)
      (Printf.sprintf "slot %d stamped dead" pos)
      true
      (Ring.stamp r ~pos < Ring.generation r)
  done;
  for pos = t3 to t3 + 1 do
    Alcotest.(check bool)
      (Printf.sprintf "slot %d stamped live" pos)
      false
      (Ring.stamp r ~pos < Ring.generation r)
  done;
  (* the replacement consumer rejects the dead chain slot by slot; each
     complete wins exactly once (no racing cancel on chain tickets) *)
  for pos = t0 to t0 + 2 do
    Alcotest.(check bool) "chain not done early" false (Ring.chain_done r ~ticket:t0 ~n:3);
    Alcotest.(check bool) "rejection delivered" true (Ring.complete r ~pos Service.reply_rejected)
  done;
  Alcotest.(check bool) "coalesced wait fires" true (Ring.chain_done r ~ticket:t0 ~n:3);
  let replies = Array.make 3 (-1) in
  Ring.harvest_chain r ~ticket:t0 ~n:3 ~replies ~off:0;
  Alcotest.(check (array int)) "every slot rejected exactly once"
    [| Service.reply_rejected; Service.reply_rejected; Service.reply_rejected |]
    replies;
  (* the live chain still executes normally *)
  ignore (Ring.complete r ~pos:t3 7 : bool);
  ignore (Ring.complete r ~pos:(t3 + 1) 8 : bool);
  Ring.await_chain r ~ticket:t3 ~n:2;
  let live = Array.make 2 (-1) in
  Ring.harvest_chain r ~ticket:t3 ~n:2 ~replies:live ~off:0;
  Alcotest.(check (array int)) "live replies intact" [| 7; 8 |] live;
  (* all five slots recycled: two max-width chains fit on the lap *)
  let o4 = Array.make 4 0 in
  Alcotest.(check int) "lap refill 1" 5 (Ring.try_submit_chain r ~n:4 ~ops:o4 ~keys:o4 ~values:o4 ~off:0);
  Alcotest.(check int) "lap refill 2" 9 (Ring.try_submit_chain r ~n:4 ~ops:o4 ~keys:o4 ~values:o4 ~off:0)

(* -- recovery config / pool ----------------------------------------------- *)

let recovery_pool () =
  let r = Recovery.create ~shards:3 { Recovery.default with spare_tids = 2 } in
  Alcotest.(check (option int)) "first spare" (Some 3) (Recovery.take_tid r);
  Alcotest.(check (option int)) "second spare" (Some 4) (Recovery.take_tid r);
  Alcotest.(check (option int)) "pool empty" None (Recovery.take_tid r);
  Recovery.return_tid r 3;
  Alcotest.(check (option int)) "returned tid reusable" (Some 3) (Recovery.take_tid r);
  Alcotest.check_raises "bad poll interval"
    (Invalid_argument "Recovery.config.poll_interval_s <= 0") (fun () ->
      ignore
        (Recovery.validate { Recovery.default with poll_interval_s = 0.0 }
          : Recovery.config))

(* -- 4. service: crash, adopt, respawn ------------------------------------ *)

let conservation lg =
  lg.Loadgen.submitted
  = lg.Loadgen.completed_reqs + lg.Loadgen.rejected + lg.Loadgen.busy + lg.Loadgen.oom
    + lg.Loadgen.deadline_exceeded

let service_recovery_round ?(seed = 99) ?(mode = Loadgen.Closed { pipeline = 8 })
    ?(plan : Fault.plan option) () =
  let shards = 2 and spare_tids = 1 in
  let threads = shards + spare_tids in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds (module Smr_schemes.Hp)
  in
  let config = Config.default ~threads in
  let set = SET.create ~threads ~capacity:32_768 ~check_access:true config in
  let s0 = SET.session set ~tid:0 in
  for k = 0 to 255 do
    ignore (SET.insert s0 ~key:(k * 3) ~value:k : bool)
  done;
  SET.flush s0;
  let plan =
    match plan with
    | Some p -> p
    | None ->
      Fault.plan ~label:"kill shard 1"
        [ Fault.crash_event ~tid:1 ~point:Fault.Protect_validate ~after_hits:150 ]
  in
  Fault.arm ~threads plan;
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let svc =
    Service.create
      ~recovery:{ Recovery.default with spare_tids }
      (module SET) set ~shards ~batch:8 ~ring_capacity:64
  in
  Service.start svc;
  let lg =
    Loadgen.run svc
      {
        Loadgen.clients = 2;
        duration_s = 0.4;
        warmup_s = 0.0;
        read_pct = 50;
        insert_pct = 30;
        mget = 2;
        key_range = 1024;
        zipf_alpha = None;
        seed;
        mode;
        deadline_s = 0.05;
        max_retries = 2;
      }
  in
  Service.stop svc;
  SET.check set;
  Alcotest.(check int) "no use-after-free" 0 (SET.violations set);
  Alcotest.(check bool) "conservation: every request answered exactly once" true
    (conservation lg);
  (lg, Service.stats svc, Option.get (Service.recovery_stats svc))

let service_crash_recovers () =
  let _, stats, r = service_recovery_round () in
  Alcotest.(check bool) "the crash fired" true (stats.Service.crash_events >= 1);
  Alcotest.(check bool) "every crash recovered" true
    (r.Recovery.recoveries >= stats.Service.crash_events);
  Alcotest.(check int) "dead tid adopted each time" r.Recovery.recoveries
    r.Recovery.adoptions;
  Alcotest.(check int) "no shard left dead" 0 stats.Service.crashed_shards;
  Alcotest.(check bool) "recovery took time" true (r.Recovery.mean_recovery_s > 0.0)

(* The same mid-round crash with chained clients: whole chains cross the
   crash → bump_generation → takeover edge, so some are rejected as a
   unit by the replacement. Conservation and the UAF detector are
   checked inside the round; here the recovery path itself must have
   fired and healed. *)
let service_crash_recovers_chained () =
  let lg, stats, r = service_recovery_round ~mode:(Loadgen.Chained { chain = 8 }) () in
  Alcotest.(check bool) "the crash fired" true (stats.Service.crash_events >= 1);
  Alcotest.(check bool) "every crash recovered" true
    (r.Recovery.recoveries >= stats.Service.crash_events);
  Alcotest.(check int) "dead tid adopted each time" r.Recovery.recoveries
    r.Recovery.adoptions;
  Alcotest.(check int) "no shard left dead" 0 stats.Service.crashed_shards;
  Alcotest.(check bool) "the chained client made progress" true
    (lg.Loadgen.completed_reqs > 0)

let service_no_faults_no_recoveries () =
  let _, stats, r =
    service_recovery_round ~plan:(Fault.plan ~label:"quiet" []) ()
  in
  Alcotest.(check int) "no crashes" 0 stats.Service.crash_events;
  Alcotest.(check int) "no recoveries" 0 r.Recovery.recoveries;
  Alcotest.(check int) "pool untouched" 1 r.Recovery.free_tids

(* A parked shard's heartbeat stops, and its park has no timeout: the
   supervisor must count parking as live, or every idle shard reads as
   stalled after [stall_timeout_s]. *)
let service_idle_not_suspected () =
  let shards = 2 and spare_tids = 1 in
  let threads = shards + spare_tids in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds (module Smr_schemes.Hp)
  in
  let set = SET.create ~threads ~capacity:4096 (Config.default ~threads) in
  let cfg = { Recovery.default with spare_tids } in
  let svc = Service.create ~recovery:cfg (module SET) set ~shards ~batch:8 ~ring_capacity:64 in
  Service.start svc;
  Unix.sleepf (2. *. cfg.Recovery.stall_timeout_s);
  Common.within_deadline ~seconds:1.0 "Service.stop" (fun () -> Service.stop svc);
  let r = Option.get (Service.recovery_stats svc) in
  Alcotest.(check int) "idle shards are live" 0 r.Recovery.suspected;
  Alcotest.(check int) "no recoveries" 0 r.Recovery.recoveries

(* -- QCheck: random crash/stall plans through crash→adopt→respawn --------- *)

let qcheck_round seed =
  let shards = 2 and spare_tids = 1 in
  let threads = shards + spare_tids in
  let module SET = Dstruct.Michael_list.Make (Smr_schemes.He) in
  let config = Config.default ~threads in
  let set = SET.create ~threads ~capacity:16_384 ~check_access:true config in
  let s0 = SET.session set ~tid:0 in
  for k = 0 to 127 do
    ignore (SET.insert s0 ~key:(k * 11) ~value:k : bool)
  done;
  SET.flush s0;
  (* plans target the shard tids; arm covers the spare too so the
     replacement's (forgiven) hits stay tracked *)
  Fault.arm ~threads (Fault.random_plan ~seed ~threads:shards);
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let svc =
    Service.create
      ~recovery:{ Recovery.default with spare_tids }
      (module SET) set ~shards
      ~batch:(1 + (seed mod 16))
      ~ring_capacity:64
  in
  Service.start svc;
  let lg =
    Loadgen.run svc
      {
        Loadgen.clients = 2;
        duration_s = 0.25;
        warmup_s = 0.0;
        read_pct = 50;
        insert_pct = 30;
        mget = 1 + (seed mod 3);
        key_range = 1024;
        zipf_alpha = None;
        seed;
        (* Odd seeds drive the chained client through the crash →
           bump_generation → takeover path (retries are off in chain
           mode; conservation must still hold). *)
        mode =
          (if seed mod 2 = 0 then Loadgen.Closed { pipeline = 8 }
           else Loadgen.Chained { chain = 1 + (seed mod 4) });
        deadline_s = 0.04;
        max_retries = 1 + (seed mod 3);
      }
  in
  Service.stop svc;
  let stats = Service.stats svc in
  let r = Option.get (Service.recovery_stats svc) in
  SET.check set;
  (* a crash landing in the final poll window can be joined by the
     post-stop sweep instead of recovered; what must always hold:
     no UAF, exact request conservation, and any recovery adopted *)
  SET.violations set = 0 && conservation lg
  && r.Recovery.adoptions = r.Recovery.recoveries
  && stats.Service.crashed_shards <= stats.Service.crash_events

let qcheck_recovery =
  QCheck.Test.make ~count:6
    ~name:"random fault plans through crash/adopt/respawn: no UAF, conservation"
    QCheck.(map (fun n -> abs n + 1) small_int)
    qcheck_round

(* -- suites --------------------------------------------------------------- *)

let () =
  let per_scheme name f =
    List.map (fun (sname, s) -> Alcotest.test_case (name ^ ": " ^ sname) `Quick (f s)) schemes
  in
  Alcotest.run "recovery"
    [
      ( "kernel",
        Alcotest.test_case "quarantine/adopt lifecycle" `Quick kernel_quarantine_adopt
        :: per_scheme "adopt releases pins" adopt_releases_pins
        @ per_scheme "adopt drains backlog" adopt_drains_backlog );
      ( "ring",
        [
          Alcotest.test_case "cancel a pending slot" `Quick ring_cancel_pending;
          Alcotest.test_case "cancel after complete = final poll" `Quick
            ring_cancel_after_complete;
          Alcotest.test_case "complete loses to cancel" `Quick ring_complete_loses_to_cancel;
          Alcotest.test_case "generation stamps" `Quick ring_generation_stamp;
          Alcotest.test_case "deadline word" `Quick ring_deadline_word;
          Alcotest.test_case "dead-incarnation chain rejected exactly once" `Quick
            ring_dead_chain_rejected_once;
        ] );
      ( "policy",
        [ Alcotest.test_case "free-tid pool and validation" `Quick recovery_pool ] );
      ( "service",
        [
          Alcotest.test_case "mid-round crash: adopt + respawn" `Slow service_crash_recovers;
          Alcotest.test_case "mid-round crash under chained clients" `Slow
            service_crash_recovers_chained;
          Alcotest.test_case "no faults: supervisor stays idle" `Slow
            service_no_faults_no_recoveries;
          Alcotest.test_case "idle parked shards are not suspected" `Quick
            service_idle_not_suspected;
        ] );
      ("faults", [ QCheck_alcotest.to_alcotest ~long:true qcheck_recovery ]);
    ]
