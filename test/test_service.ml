(* Service layer and batch amortization.

   Three strata, matching how the feature is built:

   1. Kernel + scheme level: a batch window keeps every announcement the
      batch's operations published alive until [batch_exit] — so a node
      read inside a batch survives a concurrent retire+flush, and is
      reclaimed after the window closes. A batch of size 1 must cost
      exactly the un-batched protocol (same fence counts, same results).
   2. Transport level: the MPSC request ring loses and duplicates
      nothing under concurrent producers, and replies route back to the
      right ticket.
   3. Service level: end-to-end closed/open-loop runs keep the
      structure's invariants, and a QCheck property drives random batch
      sizes under random fault plans (crashes inside shard domains
      included) with the use-after-free detector armed. *)

module Config = Smr_core.Config
module Counters = Smr_core.Counters
module Reservation = Smr_core.Reservation
module Fault = Mp_util.Fault
module Histogram = Mp_util.Histogram
module Ring = Mp_service.Request_ring
module Service = Mp_service.Service
module Loadgen = Mp_service.Loadgen

let schemes = Common.schemes
let submit1 = Common.submit1
let poll1 = Common.poll1
let await1 = Common.await1

(* -- 1a. reservation kernel ----------------------------------------------- *)

let kernel_batch_defers_clear () =
  let counters = Counters.create ~threads:2 in
  let res = Reservation.create ~counters ~threads:2 ~slots:3 ~empty:(-1) in
  Reservation.publish res ~tid:0 ~refno:0 42;
  Reservation.batch_enter res ~tid:0;
  Alcotest.(check bool) "in_batch" true (Reservation.in_batch res ~tid:0);
  let fences_before = (Counters.stats counters).Smr_core.Smr_intf.fences in
  Reservation.clear_all res ~tid:0;
  Alcotest.(check int) "clear_all suppressed: value survives" 42
    (Reservation.get res ~tid:0 ~refno:0);
  Alcotest.(check int) "clear_all suppressed: no fence" fences_before
    (Counters.stats counters).Smr_core.Smr_intf.fences;
  Reservation.publish res ~tid:0 ~refno:1 7;
  Reservation.clear_all res ~tid:0;
  Alcotest.(check int) "second op's announcement also survives" 7
    (Reservation.get res ~tid:0 ~refno:1);
  (* another thread's clear_all is not affected by tid 0's window *)
  Reservation.publish res ~tid:1 ~refno:0 9;
  Reservation.clear_all res ~tid:1;
  Alcotest.(check int) "other tid clears normally" (-1) (Reservation.get res ~tid:1 ~refno:0);
  let fences_mid = (Counters.stats counters).Smr_core.Smr_intf.fences in
  Reservation.batch_exit res ~tid:0;
  Alcotest.(check bool) "window closed" false (Reservation.in_batch res ~tid:0);
  Alcotest.(check int) "deferred clear ran" (-1) (Reservation.get res ~tid:0 ~refno:0);
  Alcotest.(check int) "whole row cleared" (-1) (Reservation.get res ~tid:0 ~refno:1);
  Alcotest.(check int) "one fence for the whole batch" (fences_mid + 1)
    (Counters.stats counters).Smr_core.Smr_intf.fences

(* -- 1b. every scheme: nodes read in a batch stay protected --------------- *)

(* tid 0 opens a batch and reads two nodes (one op each, [end_op] in
   between); tid 1 then unlinks, retires and flushes. The nodes must
   survive until tid 0 closes the window, then reclaim on the next
   flush. Leaky is exempt from the second half (it never reclaims). *)
let batch_protects (module S : Smr_core.Smr_intf.S) () =
  let threads = 2 in
  let config = Config.default ~threads in
  let pool = Mempool.Core.create ~capacity:256 ~threads () in
  let t = S.create ~pool ~threads config in
  let th0 = S.thread t ~tid:0 and th1 = S.thread t ~tid:1 in
  (* tid 1 builds two linked nodes *)
  S.start_op th1;
  let a = S.alloc_with_index th1 ~index:(1 lsl 20) in
  let b = S.alloc_with_index th1 ~index:(2 lsl 20) in
  let link_a = Atomic.make (Mempool.Core.handle pool a) in
  let link_b = Atomic.make (Mempool.Core.handle pool b) in
  S.end_op th1;
  (* tid 0 reads both inside one batch window, as two operations *)
  S.batch_enter th0;
  S.start_op th0;
  let wa = S.read th0 ~refno:0 link_a in
  Alcotest.(check int) "read a" a (Handle.id wa);
  S.end_op th0;
  S.start_op th0;
  let wb = S.read th0 ~refno:1 link_b in
  Alcotest.(check int) "read b" b (Handle.id wb);
  S.end_op th0;
  (* tid 1 unlinks and retires both, then tries to reclaim *)
  S.start_op th1;
  Atomic.set link_a Handle.null;
  Atomic.set link_b Handle.null;
  S.retire th1 a;
  S.retire th1 b;
  S.end_op th1;
  S.flush th1;
  Alcotest.(check bool) "a survives the open window" false (Mempool.Core.is_free pool a);
  Alcotest.(check bool) "b survives the open window" false (Mempool.Core.is_free pool b);
  S.batch_exit th0;
  S.flush th1;
  if S.name <> "none" then begin
    Alcotest.(check bool) "a reclaimed after batch_exit" true (Mempool.Core.is_free pool a);
    Alcotest.(check bool) "b reclaimed after batch_exit" true (Mempool.Core.is_free pool b)
  end;
  Alcotest.(check (list int)) "no reservation left" [] (S.pinning_tids t)

(* -- 1c. B=1 equivalence: same results, same fence count ------------------ *)

let batch_of_one_is_free (module S : Smr_core.Smr_intf.S) () =
  let module L = Dstruct.Michael_list.Make (S) in
  let run ~batched =
    let t = L.create ~threads:1 ~capacity:2048 ~check_access:true (Config.default ~threads:1) in
    let s = L.session t ~tid:0 in
    let results = Buffer.create 64 in
    let wrap f =
      if batched then begin
        L.batch_enter s;
        let r = f () in
        L.batch_exit s;
        r
      end
      else f ()
    in
    for k = 0 to 63 do
      Buffer.add_char results (if wrap (fun () -> L.insert s ~key:(k * 3) ~value:k) then 't' else 'f')
    done;
    for k = 0 to 95 do
      Buffer.add_char results (if wrap (fun () -> L.contains s k) then 't' else 'f');
      Buffer.add_char results (if wrap (fun () -> L.remove s (k * 2)) then 't' else 'f')
    done;
    L.flush s;
    Alcotest.(check int) "no use-after-free" 0 (L.violations t);
    (Buffer.contents results, (L.smr_stats t).Smr_core.Smr_intf.fences)
  in
  let plain_results, plain_fences = run ~batched:false in
  let batched_results, batched_fences = run ~batched:true in
  Alcotest.(check string) "same results" plain_results batched_results;
  Alcotest.(check int) "same fence count at B=1" plain_fences batched_fences

(* -- 2. MPSC ring --------------------------------------------------------- *)

let ring_lifecycle () =
  let r = Ring.create ~capacity:4 in
  Alcotest.(check int) "rounded capacity" 4 (Ring.capacity r);
  let t0 = submit1 r ~op:1 ~key:10 ~value:100 in
  let t1 = submit1 r ~op:2 ~key:20 ~value:200 in
  Alcotest.(check int) "first ticket" 0 t0;
  Alcotest.(check int) "second ticket" 1 t1;
  Alcotest.(check int) "reply pending" (-1) (poll1 r ~ticket:t0);
  Alcotest.(check bool) "first ready" true (Ring.ready r ~pos:0);
  Alcotest.(check int) "a 1-chain ends at its only slot" 1 (Ring.chain_len r ~pos:0);
  Alcotest.(check int) "op" 1 (Ring.op r ~pos:0);
  Alcotest.(check int) "key" 10 (Ring.key r ~pos:0);
  Alcotest.(check int) "value" 100 (Ring.value r ~pos:0);
  Alcotest.(check bool) "complete wins unopposed" true (Ring.complete r ~pos:0 7);
  Alcotest.(check int) "reply delivered" 7 (poll1 r ~ticket:t0);
  (* harvesting acked ticket 0's slot: three more submissions fit
     (tickets 2 and 3 on fresh slots, ticket 4 on the recycled one),
     then the ring is full because ticket 1 is still pending *)
  ignore (submit1 r ~op:0 ~key:0 ~value:0 : int);
  ignore (submit1 r ~op:0 ~key:0 ~value:0 : int);
  Alcotest.(check int) "acked slot recycled on the next lap" 4 (submit1 r ~op:0 ~key:0 ~value:0);
  Alcotest.(check int) "full ring refuses" (-1) (submit1 r ~op:0 ~key:0 ~value:0)

let ring_chain_lifecycle () =
  let r = Ring.create ~capacity:8 in
  let ops = [| 1; 2; 3 |] and keys = [| 10; 20; 30 |] and values = [| 100; 200; 300 |] in
  (try
     ignore (Ring.try_submit_chain r ~n:5 ~ops ~keys ~values ~off:0 : int);
     Alcotest.fail "n > capacity/2 must be rejected"
   with Invalid_argument _ -> ());
  let t0 = Ring.try_submit_chain r ~n:3 ~ops ~keys ~values ~off:0 in
  Alcotest.(check int) "chain ticket is the head slot" 0 t0;
  (* published head-last: the head being ready means the whole chain is *)
  for pos = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "slot %d ready" pos) true (Ring.ready r ~pos)
  done;
  Alcotest.(check int) "head records the chain length" 3 (Ring.chain_len r ~pos:0);
  Alcotest.(check int) "middle slot counts down" 2 (Ring.chain_len r ~pos:1);
  Alcotest.(check int) "tail slot closes the chain" 1 (Ring.chain_len r ~pos:2);
  Alcotest.(check int) "payload routed per slot" 20 (Ring.key r ~pos:1);
  Alcotest.(check int) "op per slot" 3 (Ring.op r ~pos:2);
  ignore (Ring.complete r ~pos:0 7 : bool);
  Alcotest.(check bool) "head alone is not done" false (Ring.chain_done r ~ticket:t0 ~n:3);
  ignore (Ring.complete r ~pos:1 8 : bool);
  Alcotest.(check bool) "middle is not done" false (Ring.chain_done r ~ticket:t0 ~n:3);
  ignore (Ring.complete r ~pos:2 9 : bool);
  Alcotest.(check bool) "last slot completes the chain" true (Ring.chain_done r ~ticket:t0 ~n:3);
  let replies = Array.make 3 (-1) in
  Ring.harvest_chain r ~ticket:t0 ~n:3 ~replies ~off:0;
  Alcotest.(check (array int)) "replies in submit order" [| 7; 8; 9 |] replies;
  (* harvest acked every slot: two max-width chains fit (one on fresh
     slots, one crossing into the recycled ones), then the ring is full *)
  let o4 = Array.make 4 0 in
  Alcotest.(check int) "fresh slots" 3 (Ring.try_submit_chain r ~n:4 ~ops:o4 ~keys:o4 ~values:o4 ~off:0);
  Alcotest.(check int) "recycled slots" 7 (Ring.try_submit_chain r ~n:4 ~ops:o4 ~keys:o4 ~values:o4 ~off:0);
  Alcotest.(check int) "full ring refuses a chain" (-1)
    (Ring.try_submit_chain r ~n:1 ~ops:o4 ~keys:o4 ~values:o4 ~off:0)

let ring_await_stats () =
  let r = Ring.create ~capacity:4 in
  let t = submit1 r ~op:0 ~key:1 ~value:0 in
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        ignore (Ring.complete r ~pos:t 42 : bool))
  in
  Alcotest.(check int) "await returns the reply" 42 (await1 r ~ticket:t);
  Domain.join d;
  let st = Ring.stats r in
  Alcotest.(check int) "spin phase ran to its budget" 512 st.Ring.client_spins;
  Alcotest.(check int) "20 ms pushed the waiter onto its lot, once" 1 st.Ring.client_backoffs;
  (* a reply already there costs neither a spin nor a park *)
  let t = submit1 r ~op:0 ~key:2 ~value:0 in
  ignore (Ring.complete r ~pos:t 43 : bool);
  Alcotest.(check int) "completed reply" 43 (await1 r ~ticket:t);
  let st' = Ring.stats r in
  Alcotest.(check (pair int int)) "no new tallies" (512, 1)
    (st'.Ring.client_spins, st'.Ring.client_backoffs)

(* The park protocol under a seeded multi-producer stress. Producers
   submit chains of 1 to 4 with random gaps, so the consumer
   runs dry and parks on the ring's bell; the consumer stalls at random
   before completing, so reply waiters run out of spin phases and park
   on their lots. A lost wake-up on either side hangs the run, which
   the deadline turns into a failure. *)
let ring_park_stress () =
  let producers = 3 and rounds = 2000 and max_chain = 4 in
  let r = Ring.create ~capacity:16 in
  let stop = Atomic.make false in
  let seen = Array.make producers 0 in
  let replied = Array.make producers 0 in
  let bad = Atomic.make 0 in
  let consumer_parks = ref 0 in
  Common.within_deadline ~seconds:60.0 "park stress" (fun () ->
      let consumer =
        Domain.spawn (fun () ->
            let rng = Mp_util.Rng.create 0x9a4c in
            let pos = ref 0 in
            while not (Atomic.get stop) do
              if Ring.ready r ~pos:!pos then begin
                if Mp_util.Rng.below rng 16 = 0 then
                  Unix.sleepf (float_of_int (Mp_util.Rng.below rng 500) *. 1e-6);
                let key = Ring.key r ~pos:!pos and tid = Ring.op r ~pos:!pos in
                seen.(tid) <- seen.(tid) + 1;
                ignore (Ring.complete r ~pos:!pos (key + 1) : bool);
                incr pos
              end
              else if Ring.park_consumer r ~pos:!pos ~stop then incr consumer_parks
            done)
      in
      let prods =
        Array.init producers (fun tid ->
            Domain.spawn (fun () ->
                let rng = Mp_util.Rng.create (0x7e11 + tid) in
                let ops = Array.make max_chain tid in
                let keys = Array.make max_chain 0 in
                let replies = Array.make max_chain 0 in
                for round = 1 to rounds do
                  if Mp_util.Rng.bool rng then
                    Unix.sleepf (float_of_int (Mp_util.Rng.below rng 300) *. 1e-6);
                  let n = 1 + Mp_util.Rng.below rng max_chain in
                  for i = 0 to n - 1 do
                    keys.(i) <- (tid * 1_000_000) + (round * 10) + i
                  done;
                  let submit () = Ring.try_submit_chain r ~n ~ops ~keys ~values:keys ~off:0 in
                  let ticket = ref (submit ()) in
                  while !ticket < 0 do
                    Domain.cpu_relax ();
                    ticket := submit ()
                  done;
                  Ring.await_chain r ~ticket:!ticket ~n;
                  Ring.harvest_chain r ~ticket:!ticket ~n ~replies ~off:0;
                  for i = 0 to n - 1 do
                    if replies.(i) <> keys.(i) + 1 then Atomic.incr bad
                  done;
                  replied.(tid) <- replied.(tid) + n
                done))
      in
      Array.iter Domain.join prods;
      (* every producer has its replies, so the consumer has nothing
         left; the stop handshake must wake it from its park *)
      Atomic.set stop true;
      Ring.wake_consumer r;
      Domain.join consumer);
  Alcotest.(check int) "every reply routed to its own slot" 0 (Atomic.get bad);
  for tid = 0 to producers - 1 do
    Alcotest.(check int) (Printf.sprintf "producer %d: served exactly once" tid) replied.(tid)
      seen.(tid)
  done;
  Alcotest.(check bool) "the consumer parked" true (!consumer_parks > 0);
  Alcotest.(check bool) "a reply waiter parked" true ((Ring.stats r).Ring.client_backoffs > 0)

(* Multi-producer no-lost/no-dup: random chain depths in [1, 8],
   blocking chained submits, coalesced awaits. The consumer is a plain
   slot-at-a-time loop — chains must not change the consumer's cursor
   contract — and it sums each producer's payload keys, which must
   match what the producer sent. *)
let ring_chain_no_lost_no_dup () =
  let producers = 3 and chains_per_producer = 600 and max_chain = 8 in
  let r = Ring.create ~capacity:64 in
  let served = Atomic.make 0 in
  let submitted = Array.make producers 0 in
  let sent = Array.make producers 0 in
  let seen = Array.make producers 0 in
  let sum = Array.make producers 0 in
  let stop = Atomic.make false in
  let consumer =
    Domain.spawn (fun () ->
        let pos = ref 0 in
        let spins = ref 0 in
        while not (Atomic.get stop) do
          if Ring.ready r ~pos:!pos then begin
            spins := 0;
            let key = Ring.key r ~pos:!pos and tid = Ring.op r ~pos:!pos in
            seen.(tid) <- seen.(tid) + 1;
            sum.(tid) <- sum.(tid) + key;
            ignore (Ring.complete r ~pos:!pos (key + 1) : bool);
            incr pos;
            Atomic.incr served
          end
          else if !spins < 64 then begin
            incr spins;
            Domain.cpu_relax ()
          end
          else Unix.sleepf 0.0001
        done)
  in
  let bad_replies = Atomic.make 0 in
  let prods =
    Array.init producers (fun tid ->
        Domain.spawn (fun () ->
            let rng = Mp_util.Rng.create (0x51ab + tid) in
            let ops = Array.make max_chain tid in
            let keys = Array.make max_chain 0 in
            let values = Array.make max_chain 0 in
            let replies = Array.make max_chain 0 in
            for c = 1 to chains_per_producer do
              let n = 1 + Mp_util.Rng.below rng max_chain in
              for i = 0 to n - 1 do
                keys.(i) <- (tid * 1_000_000) + (c * 10) + i
              done;
              let ticket = ref (Ring.try_submit_chain r ~n ~ops ~keys ~values ~off:0) in
              let spins = ref 0 in
              while !ticket < 0 do
                if !spins < 64 then begin
                  incr spins;
                  Domain.cpu_relax ()
                end
                else Unix.sleepf 0.0001;
                ticket := Ring.try_submit_chain r ~n ~ops ~keys ~values ~off:0
              done;
              submitted.(tid) <- submitted.(tid) + n;
              for i = 0 to n - 1 do
                sent.(tid) <- sent.(tid) + keys.(i)
              done;
              Ring.await_chain r ~ticket:!ticket ~n;
              Ring.harvest_chain r ~ticket:!ticket ~n ~replies ~off:0;
              for i = 0 to n - 1 do
                if replies.(i) <> keys.(i) + 1 then Atomic.incr bad_replies
              done
            done))
  in
  Array.iter Domain.join prods;
  let total = Array.fold_left ( + ) 0 submitted in
  while Atomic.get served < total do
    Unix.sleepf 0.0001
  done;
  Atomic.set stop true;
  Domain.join consumer;
  Alcotest.(check int) "every coalesced reply routed to its slot" 0 (Atomic.get bad_replies);
  for tid = 0 to producers - 1 do
    Alcotest.(check int)
      (Printf.sprintf "producer %d: no lost, no dup" tid)
      submitted.(tid) seen.(tid);
    Alcotest.(check int) (Printf.sprintf "producer %d: payload intact" tid) sent.(tid) sum.(tid)
  done

(* -- 3. service end-to-end ------------------------------------------------ *)

let make_hash = Mp_harness.Instances.make Mp_harness.Instances.Hash_ds
let make_list = Mp_harness.Instances.make Mp_harness.Instances.List_ds

let check_percentile_order h =
  let p50 = Histogram.percentile_ns h 50.0
  and p99 = Histogram.percentile_ns h 99.0
  and p999 = Histogram.percentile_ns h 99.9 in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  Alcotest.(check bool) "p99 <= p99.9" true (p99 <= p999);
  Alcotest.(check bool) "p99.9 <= max" true (p999 <= Histogram.max_ns h)

let service_round ?(mget = 1) (module SET : Dstruct.Set_intf.SET)
    ~shards ~batch ~mode ~duration () =
  let config = Config.default ~threads:shards in
  let set =
    SET.create ~threads:shards ~capacity:(8192 + (shards * 4096)) ~check_access:true config
  in
  let s0 = SET.session set ~tid:0 in
  for k = 0 to 255 do
    ignore (SET.insert s0 ~key:(k * 7) ~value:k : bool)
  done;
  SET.flush s0;
  let svc = Service.create (module SET) set ~shards ~batch ~ring_capacity:128 in
  Service.start svc;
  let result =
    Loadgen.run svc
      {
        clients = 2;
        duration_s = duration;
        warmup_s = 0.0;
        read_pct = 60;
        insert_pct = 20;
        mget;
        key_range = 2048;
        zipf_alpha = None;
        seed = 4242;
        mode;
        deadline_s = 0.0;
        max_retries = 0;
      }
  in
  Service.stop svc;
  let stats = Service.stats svc in
  SET.check set;
  Alcotest.(check int) "no use-after-free" 0 (SET.violations set);
  Alcotest.(check bool) "made progress" true (result.Loadgen.completed > 0);
  Alcotest.(check bool) "latency samples recorded" true
    (Histogram.count result.Loadgen.latency > 0);
  Alcotest.(check bool) "no batch overran B" true (stats.Service.max_batch <= batch);
  Alcotest.(check bool) "no crashes without faults" true (stats.Service.crashed_shards = 0);
  check_percentile_order result.Loadgen.latency

(* A multi-get reply counts hits above [reply_mget_base], and its gets
   are charged against the batch window's op budget: an 8-get at B=4
   must roll the window mid-request, never widen it past B. *)
let mget_reply () =
  let (module SET : Dstruct.Set_intf.SET) = make_hash (module Mp.Margin_ptr) in
  let shards = 2 and batch = 4 in
  let config = Config.default ~threads:shards in
  let set = SET.create ~threads:shards ~capacity:4096 ~check_access:true config in
  let s0 = SET.session set ~tid:0 in
  for k = 100 to 107 do
    ignore (SET.insert s0 ~key:k ~value:k : bool)
  done;
  SET.flush s0;
  let svc = Service.create (module SET) set ~shards ~batch ~ring_capacity:64 in
  Service.start svc;
  let c = Service.client svc in
  let reply = [| -1 |] in
  let mget ~key ~n =
    ignore
      (Service.execute c ~n:1 ~ops:[| Service.op_mget |] ~keys:[| key |] ~values:[| n |]
         ~replies:reply
        : int);
    reply.(0)
  in
  Alcotest.(check int) "8/8 present" (Service.reply_mget_base + 8) (mget ~key:100 ~n:8);
  Alcotest.(check int) "0/4 present" Service.reply_mget_base (mget ~key:500 ~n:4);
  Alcotest.(check int) "partial hit" (Service.reply_mget_base + 2) (mget ~key:106 ~n:4);
  Service.stop svc;
  let stats = Service.stats svc in
  Alcotest.(check int) "every get executed" 16 stats.Service.ops;
  Alcotest.(check bool) "window rolled inside the 8-get" true
    (stats.Service.max_batch <= batch);
  Alcotest.(check int) "no use-after-free" 0 (SET.violations set)

(* -- QCheck: random batch sizes under random fault plans ------------------ *)

let fault_service_round seed =
  let shards = 2 in
  let batch = 1 + (seed mod 48) in
  let module SET = Dstruct.Michael_list.Make (Smr_schemes.Hp) in
  let config = Config.default ~threads:shards in
  let set = SET.create ~threads:shards ~capacity:16_384 ~check_access:true config in
  let s0 = SET.session set ~tid:0 in
  for k = 0 to 127 do
    ignore (SET.insert s0 ~key:(k * 11) ~value:k : bool)
  done;
  SET.flush s0;
  Fault.arm ~threads:shards (Fault.random_plan ~seed ~threads:shards);
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let svc = Service.create (module SET) set ~shards ~batch ~ring_capacity:64 in
  Service.start svc;
  let result =
    Loadgen.run svc
      {
        clients = 2;
        duration_s = 0.25;
        warmup_s = 0.0;
        read_pct = 50;
        insert_pct = 30;
        mget = 1 + (seed mod 3);
        key_range = 1024;
        zipf_alpha = None;
        seed;
        (* Alternate window and chained clients, so fault plans also
           fire against in-flight chains. *)
        mode =
          (if seed mod 2 = 0 then Loadgen.Closed { pipeline = 8 }
           else Loadgen.Chained { chain = 1 + (seed mod 4) });
        deadline_s = 0.0;
        max_retries = 0;
      }
  in
  Service.stop svc;
  (* The structure may be left with a crashed shard pinning memory; the
     structural invariants and the UAF detector must hold regardless. *)
  SET.check set;
  ignore (result.Loadgen.rejected : int);
  SET.violations set = 0

let qcheck_no_uaf =
  QCheck.Test.make ~count:6 ~name:"random batch sizes under random fault plans: no UAF"
    QCheck.(map (fun n -> abs n + 1) small_int)
    fault_service_round

(* -- satellite: wasted_peak / live_peak ----------------------------------- *)

let striped_max_to () =
  let c = Mp_util.Striped_counter.create ~threads:2 in
  Mp_util.Striped_counter.max_to c ~tid:0 5;
  Mp_util.Striped_counter.max_to c ~tid:0 3;
  Mp_util.Striped_counter.max_to c ~tid:1 2;
  Alcotest.(check int) "monotonic lift" 5 (Mp_util.Striped_counter.get c ~tid:0);
  Alcotest.(check int) "summed" 7 (Mp_util.Striped_counter.sum c)

let counters_wasted_peak () =
  let c = Counters.create ~threads:1 in
  for _ = 1 to 5 do
    Counters.on_retire c ~tid:0
  done;
  Alcotest.(check int) "peak tracks retires" 5
    (Counters.stats c).Smr_core.Smr_intf.wasted_peak;
  Counters.on_reclaim c ~tid:0 5;
  let st = Counters.stats c in
  Alcotest.(check int) "wasted drops back" 0 st.Smr_core.Smr_intf.wasted;
  Alcotest.(check int) "peak is a high-water mark" 5 st.Smr_core.Smr_intf.wasted_peak;
  Counters.on_retire c ~tid:0;
  Alcotest.(check int) "later smaller crest keeps the peak" 5
    (Counters.stats c).Smr_core.Smr_intf.wasted_peak

let mempool_live_peak () =
  let pool = Mempool.Core.create ~capacity:64 ~threads:1 () in
  let ids = Array.init 10 (fun _ -> Mempool.Core.alloc pool ~tid:0) in
  Alcotest.(check int) "peak at crest" 10 (Mempool.Core.live_peak pool);
  Array.iter (fun id -> Mempool.Core.free pool ~tid:0 id) ids;
  Alcotest.(check int) "live back to zero" 0 (Mempool.Core.live_count pool);
  Alcotest.(check int) "peak survives the frees" 10 (Mempool.Core.live_peak pool);
  let id = Mempool.Core.alloc pool ~tid:0 in
  Mempool.Core.free pool ~tid:0 id;
  Alcotest.(check int) "smaller crest keeps the peak" 10 (Mempool.Core.live_peak pool)

(* An idle service parks every shard on its ring's bell; [stop] must
   ring them awake rather than wait for a request that never comes. *)
let service_idle_stop () =
  let shards = 3 in
  let (module SET : Dstruct.Set_intf.SET) = make_hash (module Mp.Margin_ptr) in
  let set = SET.create ~threads:shards ~capacity:4096 (Config.default ~threads:shards) in
  let svc = Service.create (module SET) set ~shards ~batch:8 ~ring_capacity:64 in
  Service.start svc;
  let shard = Service.shard_of_key svc 5 in
  let t =
    Service.try_submit_chain svc ~shard ~n:1 ~ops:[| Service.op_insert |] ~keys:[| 5 |]
      ~values:[| 5 |] ~off:0
  in
  Service.await_chain svc ~shard ~ticket:t ~n:1;
  let reply = [| -1 |] in
  Service.harvest_chain svc ~shard ~ticket:t ~n:1 ~replies:reply ~off:0;
  Alcotest.(check int) "served before idling" Service.reply_true reply.(0);
  (* 64 cpu_relax rounds then park: 0.2 s is idle far beyond that *)
  Unix.sleepf 0.2;
  Common.within_deadline ~seconds:1.0 "Service.stop on parked shards" (fun () -> Service.stop svc)

(* A deadline already past: the shards shed every request busy and
   execute none. [Frontend] never passes a deadline, so this is the
   executor's only deadline pass-through check. 100 inserts on 64-slot
   rings also make each shard's bucket split at half a ring. *)
let execute_past_deadline () =
  let shards = 2 and n = 100 in
  let (module SET : Dstruct.Set_intf.SET) = make_hash (module Mp.Margin_ptr) in
  let set = SET.create ~threads:shards ~capacity:4096 (Config.default ~threads:shards) in
  let svc = Service.create (module SET) set ~shards ~batch:8 ~ring_capacity:64 in
  Service.start svc;
  let c = Service.client svc in
  let ops = Array.make n Service.op_insert and keys = Array.init n Fun.id in
  let replies = Array.make n (-1) in
  ignore (Service.execute c ~deadline_us:1 ~n ~ops ~keys ~values:keys ~replies : int);
  Alcotest.(check (array int)) "every op shed busy" (Array.make n Service.reply_busy) replies;
  (* none of them ran: the same inserts without a deadline all land *)
  ignore (Service.execute c ~n ~ops ~keys ~values:keys ~replies : int);
  Alcotest.(check (array int)) "then every insert executes" (Array.make n Service.reply_true)
    replies;
  Service.stop svc;
  let st = Service.stats svc in
  Alcotest.(check int) "sheds counted" n st.Service.shed_busy;
  Alcotest.(check int) "only the second batch executed" n st.Service.ops

(* Chained rounds longer than half the ring: [Service.execute] splits a
   shard's bucket at half the ring instead of refusing it. One shard,
   so every round puts all 48 requests on one 64-slot ring. *)
let chained_longer_than_half_ring () =
  let shards = 1 in
  let (module SET : Dstruct.Set_intf.SET) = make_hash (module Mp.Margin_ptr) in
  let set =
    SET.create ~threads:shards ~capacity:8192 ~check_access:true (Config.default ~threads:shards)
  in
  let svc = Service.create (module SET) set ~shards ~batch:8 ~ring_capacity:64 in
  Service.start svc;
  let lg =
    Loadgen.run svc
      {
        clients = 2;
        duration_s = 0.2;
        warmup_s = 0.0;
        read_pct = 60;
        insert_pct = 20;
        mget = 1;
        key_range = 2048;
        zipf_alpha = None;
        seed = 4343;
        mode = Loadgen.Chained { chain = 48 };
        deadline_s = 0.0;
        max_retries = 0;
      }
  in
  Service.stop svc;
  Alcotest.(check bool) "completed some" true (lg.Loadgen.completed_reqs > 0);
  Alcotest.(check bool) "conservation: every request answered once" true
    (Loadgen.conserved lg);
  Alcotest.(check int) "no use-after-free" 0 (SET.violations set)

(* -- suites --------------------------------------------------------------- *)

let () =
  let per_scheme name f = List.map (fun (sname, s) -> Alcotest.test_case (name ^ ": " ^ sname) `Quick (f s)) schemes in
  Alcotest.run "service"
    [
      ( "kernel",
        Alcotest.test_case "batch window defers clear_all" `Quick kernel_batch_defers_clear
        :: per_scheme "batch protects reads" batch_protects
        @ per_scheme "B=1 equals un-batched" batch_of_one_is_free );
      ( "ring",
        [
          Alcotest.test_case "slot lifecycle" `Quick ring_lifecycle;
          Alcotest.test_case "chain lifecycle" `Quick ring_chain_lifecycle;
          Alcotest.test_case "await tallies spins and backoffs" `Quick ring_await_stats;
          Alcotest.test_case "chained no lost, no dup (3 producers)" `Slow ring_chain_no_lost_no_dup;
          Alcotest.test_case "park/wake stress: both sides park, nothing lost" `Slow
            ring_park_stress;
        ] );
      ( "service",
        [
          Alcotest.test_case "closed loop, hash × mp, B=8, mget=4" `Slow
            (service_round (make_hash (module Mp.Margin_ptr)) ~shards:2 ~batch:8 ~mget:4
               ~mode:(Loadgen.Closed { pipeline = 8 }) ~duration:0.25);
          Alcotest.test_case "multi-get replies and window rollover" `Quick mget_reply;
          Alcotest.test_case "stop wakes parked shards" `Quick service_idle_stop;
          Alcotest.test_case "chained closed loop, hash × mp, B=8, chain=8" `Slow
            (service_round (make_hash (module Mp.Margin_ptr)) ~shards:2 ~batch:8
               ~mode:(Loadgen.Chained { chain = 8 }) ~duration:0.25);
          Alcotest.test_case "execute: a past deadline sheds every op" `Quick
            execute_past_deadline;
          Alcotest.test_case "chained rounds longer than half the ring" `Slow
            chained_longer_than_half_ring;
          Alcotest.test_case "closed loop, list × hp, B=1" `Slow
            (service_round (make_list (module Smr_schemes.Hp)) ~shards:2 ~batch:1
               ~mode:(Loadgen.Closed { pipeline = 4 }) ~duration:0.2);
          Alcotest.test_case "open loop (Poisson), hash × ibr, B=16" `Slow
            (service_round (make_hash (module Smr_schemes.Ibr)) ~shards:2 ~batch:16
               ~mode:(Loadgen.Open { rate = 20_000.0; window = 32 }) ~duration:0.25);
        ] );
      ("faults", [ QCheck_alcotest.to_alcotest ~long:true qcheck_no_uaf ]);
      ( "peaks",
        [
          Alcotest.test_case "Striped_counter.max_to" `Quick striped_max_to;
          Alcotest.test_case "Counters wasted_peak" `Quick counters_wasted_peak;
          Alcotest.test_case "Mempool live_peak" `Quick mempool_live_peak;
        ] );
    ]
