(* The benchmark harness itself: workload mixes, runner plumbing, stall
   injection, the metrics the figures are built from, and served-cell
   scenarios. *)

module Config = Smr_core.Config
module Workload = Mp_harness.Workload
module Runner = Mp_harness.Runner
module Instances = Mp_harness.Instances
module Scenario = Mp_harness.Scenario
module Watchdog = Mp_harness.Watchdog
module Loadgen = Mp_service.Loadgen

let mixes_sum_to_100 () =
  List.iter
    (fun m ->
      Alcotest.(check int) m.Workload.name 100
        Workload.(m.read_pct + m.insert_pct + m.remove_pct))
    Workload.all

let pick_respects_mix () =
  let rng = Mp_util.Rng.create 5 in
  let reads = ref 0 and writes = ref 0 in
  for _ = 1 to 10_000 do
    match Workload.pick Workload.read_dominated rng with
    | Workload.Read -> incr reads
    | Workload.Insert | Workload.Remove -> incr writes
  done;
  (* 90/10 split within tolerance *)
  Alcotest.(check bool) "approx 90% reads" true (!reads > 8_500 && !reads < 9_500)

let read_only_never_writes () =
  let rng = Mp_util.Rng.create 7 in
  for _ = 1 to 1_000 do
    match Workload.pick Workload.read_only rng with
    | Workload.Read -> ()
    | Workload.Insert | Workload.Remove -> Alcotest.fail "write in read-only mix"
  done

let runner_produces_sane_results () =
  let config = Config.default ~threads:2 in
  let spec =
    {
      (Runner.default ~threads:2 ~init_size:256 ~mix:Workload.read_dominated ~config) with
      Runner.duration_s = 0.15;
      check_access = true;
    }
  in
  let set = Instances.make Instances.List_ds Instances.mp in
  let r = Runner.run set spec in
  Alcotest.(check bool) "ops happened" true (r.Runner.total_ops > 0);
  Alcotest.(check bool) "throughput positive" true (r.Runner.throughput > 0.0);
  Alcotest.(check int) "no UAF" 0 r.Runner.violations;
  Alcotest.(check bool) "no oom" true (not r.Runner.oom);
  Alcotest.(check bool) "size sane" true (r.Runner.final_size > 0)

let runner_ascending_init () =
  let config = Config.default ~threads:1 in
  let spec =
    {
      (Runner.default ~threads:1 ~init_size:128 ~mix:Workload.read_only ~config) with
      Runner.duration_s = 0.1;
      init = Workload.Ascending_init;
      key_range = 128;
      check_access = true;
    }
  in
  let r = Runner.run (Instances.make Instances.List_ds Instances.mp) spec in
  Alcotest.(check int) "all keys present" 128 r.Runner.final_size;
  Alcotest.(check int) "no UAF" 0 r.Runner.violations

let runner_stall_injection () =
  let config = Config.default ~threads:2 in
  let spec =
    {
      (Runner.default ~threads:2 ~init_size:64 ~mix:Workload.write_dominated ~config) with
      Runner.duration_s = 0.2;
      stall = Some { Runner.stall_tid = 1; every_ops = 50; pause_s = 0.02 };
      check_access = true;
    }
  in
  (* EBR under injected stalls must show visibly more waste than MP *)
  let ebr = Runner.run (Instances.make Instances.List_ds Instances.ebr) spec in
  let mp = Runner.run (Instances.make Instances.List_ds Instances.mp) spec in
  Alcotest.(check int) "ebr no UAF" 0 ebr.Runner.violations;
  Alcotest.(check int) "mp no UAF" 0 mp.Runner.violations;
  Alcotest.(check bool)
    (Printf.sprintf "ebr wastes more than mp under stalls (%.0f vs %.0f)" ebr.Runner.wasted_avg
       mp.Runner.wasted_avg)
    true
    (ebr.Runner.wasted_avg >= mp.Runner.wasted_avg)

let fences_counted_for_pbr () =
  let config = Config.default ~threads:2 in
  let spec =
    {
      (Runner.default ~threads:2 ~init_size:256 ~mix:Workload.read_only ~config) with
      Runner.duration_s = 0.15;
    }
  in
  let hp = Runner.run (Instances.make Instances.List_ds Instances.hp) spec in
  Alcotest.(check bool) "hp issues fences" true (hp.Runner.fences > 0);
  Alcotest.(check bool) "traversal counted" true (hp.Runner.traversed > 0);
  Alcotest.(check bool) "fences/node in (0, 2]" true
    (hp.Runner.fences_per_node > 0.0 && hp.Runner.fences_per_node <= 2.0)

let instances_registry () =
  Alcotest.(check int) "six schemes" 6 (List.length Instances.schemes);
  List.iter
    (fun (name, _) ->
      let (module S : Smr_core.Smr_intf.S) = Instances.scheme_of_name name in
      Alcotest.(check string) "name matches" name S.name)
    Instances.schemes;
  Alcotest.check_raises "unknown scheme"
    (Invalid_argument "unknown scheme \"bogus\" (expected one of: mp, ibr, he, hp, ebr, none)")
    (fun () -> ignore (Instances.scheme_of_name "bogus" : Instances.scheme))

(* -- served-cell scenarios ------------------------------------------------- *)

let phase ~duration_s ~read_pct ~insert_pct ~key_range ~seed =
  { Loadgen.clients = 2; duration_s; warmup_s = 0.0; read_pct; insert_pct; mget = 1; key_range;
    zipf_alpha = None; seed; mode = Loadgen.Closed { pipeline = 8 }; deadline_s = 0.0;
    max_retries = 0 }

let cell ~capacity ~max_arenas phases =
  Scenario.run
    { Scenario.scheme = Instances.mp; shards = 2; spare_tids = None; batch = 8;
      ring_capacity = 128; capacity; max_arenas; prefill = Scenario.Even 256;
      check_access = true; plan = None; phases }

(* Counters are split per phase: a read-only phase retires nothing, so
   it never scans, while the churn phase after it does. *)
let scenario_per_phase () =
  let r =
    cell ~capacity:8192 ~max_arenas:1
      [ phase ~duration_s:0.2 ~read_pct:100 ~insert_pct:0 ~key_range:512 ~seed:1;
        phase ~duration_s:0.2 ~read_pct:0 ~insert_pct:50 ~key_range:512 ~seed:2 ]
  in
  let reads = List.nth r.Scenario.phases 0 and churn = List.nth r.Scenario.phases 1 in
  Alcotest.(check int) "read-only phase never scans" 0 reads.Scenario.scan_passes;
  Alcotest.(check bool) "churn phase scans" true (churn.Scenario.scan_passes > 0);
  List.iter
    (fun p ->
      Alcotest.(check bool) "phase completed requests" true (p.Scenario.lg.Loadgen.completed > 0);
      Alcotest.(check bool) "phase conserves requests" true (Loadgen.conserved p.Scenario.lg))
    r.Scenario.phases;
  let v = r.Scenario.watchdog in
  Alcotest.(check bool) "watchdog armed" true (v.Watchdog.vspec.Watchdog.bound > 0);
  Alcotest.(check bool) "watchdog sampled" true (v.Watchdog.samples > 0);
  Alcotest.(check bool) "watchdog holds" true (Watchdog.ok v);
  Alcotest.(check int) "no UAF" 0 r.Scenario.violations

(* An elastic pool grows under an insert phase and the post-stop settle
   drains it back to a single attached arena. *)
let scenario_elastic_settle () =
  let capacity = 2048 in
  let key_range = capacity * 3 / 2 in
  let r =
    cell ~capacity ~max_arenas:2
      [ phase ~duration_s:0.25 ~read_pct:0 ~insert_pct:100 ~key_range ~seed:3;
        phase ~duration_s:0.25 ~read_pct:0 ~insert_pct:0 ~key_range ~seed:4 ]
  in
  Alcotest.(check int) "first phase grew the pool" 2
    (List.hd r.Scenario.phases).Scenario.arenas_at_end;
  Alcotest.(check bool) "a drain completed" true (r.Scenario.arenas_detached >= 1);
  Alcotest.(check int) "settled to one arena" capacity r.Scenario.resident_slots;
  Alcotest.(check bool) "watchdog holds" true (Watchdog.ok r.Scenario.watchdog);
  Alcotest.(check int) "no UAF" 0 r.Scenario.violations

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "mixes sum to 100" `Quick mixes_sum_to_100;
          Alcotest.test_case "pick respects mix" `Quick pick_respects_mix;
          Alcotest.test_case "read-only is read-only" `Quick read_only_never_writes;
        ] );
      ( "runner",
        [
          Alcotest.test_case "sane results" `Slow runner_produces_sane_results;
          Alcotest.test_case "ascending init" `Slow runner_ascending_init;
          Alcotest.test_case "stall injection" `Slow runner_stall_injection;
          Alcotest.test_case "fence accounting" `Slow fences_counted_for_pbr;
          Alcotest.test_case "registry" `Quick instances_registry;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "per-phase counters" `Slow scenario_per_phase;
          Alcotest.test_case "elastic grow and settle" `Slow scenario_elastic_settle;
        ] );
    ]
