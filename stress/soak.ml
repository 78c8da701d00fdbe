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
   within one arena of pre-spike, under the per-arena waste bound.

   Every served round is a Mp_harness.Scenario spec plus a list of named
   verdicts; each round returns its printed line and its JSON row. *)

module Fault = Mp_util.Fault
module Watchdog = Mp_harness.Watchdog
module Report = Mp_harness.Report
module Scenario = Mp_harness.Scenario
module Loadgen = Mp_service.Loadgen

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

(* -- verdicts, seeds and JSON rows ------------------------------------------ *)

(* A named verdict: fail the cell [label] with the formatted reason
   unless [ok]. *)
let require label ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failwith (label ^ ": " ^ msg)) fmt

(* A distinct deterministic seed per (round, cell), so a failure is
   reproducible from the base seed alone. *)
let cell_seed ~base ~round key = (base * 1_000_003) + (round * 7919) + Hashtbl.hash key

let tids l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"
let pct (lg : Loadgen.result) q = Mp_util.Histogram.percentile_ns lg.Loadgen.latency q

let latency_fields lg =
  [ ("lat_p50_ns", Report.Int (pct lg 50.0)); ("lat_p99_ns", Int (pct lg 99.0));
    ("lat_p999_ns", Int (pct lg 99.9)) ]

let peak samples = List.fold_left (fun m (_, w) -> max m w) 0 samples

(* -- direct rounds ----------------------------------------------------------- *)

let threads = 4
let ops = 20_000

(* [threads] worker domains churn a prefilled structure while the main
   thread samples its wasted counter into the watchdog. With a fault
   plan armed, crashed workers skip their flush — their announcements
   stay published, which is the scenario; without one, every 1000th
   operation is a paused read instead. *)
let direct_round make (module S : Smr_core.Smr_intf.S) ?plan ~seed () =
  let (module SET : Dstruct.Set_intf.SET) = make (module S : Smr_core.Smr_intf.S) in
  let range = if seed mod 2 = 0 then 256 else 64 in
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
  let wd =
    (* live ceiling: up to [range] keys, ×2 for the BST's routers *)
    Watchdog.create
      (Watchdog.spec_for ~scheme:S.name ~properties:S.properties ~config ~threads
         ~size_at_arm:(2 * range) ())
  in
  Option.iter (Fault.arm ~threads) plan;
  let paused = Option.is_none plan in
  let finished = Atomic.make 0 in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = SET.session t ~tid in
            let rng = Mp_util.Rng.split ~seed ~tid in
            (try
               for i = 1 to ops do
                 let k = Mp_util.Rng.below rng range in
                 if paused && i mod 1000 = 0 then
                   ignore (SET.contains_paused s k ~pause:(fun () -> Unix.sleepf 0.0005) : bool)
                 else
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
  let under = match plan with Some p -> "under " ^ Fault.plan_to_string p | None -> "(no faults)" in
  let v = Watchdog.verdict wd in
  require SET.name (SET.violations t = 0) "use-after-free %s" under;
  require SET.name (Watchdog.ok v) "waste bound broken %s: %s" under (Watchdog.to_string v);
  (crashed, pinning, v)

let fault_cell (ds_name, make) (s_name, scheme) ~round ~seed =
  let plan = Fault.random_plan ~seed ~threads in
  let crashed, pinning, v = direct_round make scheme ~plan ~seed () in
  ( Printf.sprintf "%s(%s) round %d %s  crashed=%s pinning=%s  %s" ds_name s_name round
      (Fault.plan_to_string plan) (tids crashed) (tids pinning) (Watchdog.to_string v),
    Report.
      [ ("round", Int round); ("ds", Str ds_name); ("scheme", Str s_name); ("seed", Int seed);
        ("crashed", Ints crashed); ("pinning", Ints pinning) ]
    @ Watchdog.fields (Some v) )

(* -- served rounds ------------------------------------------------------------ *)

(* The load fields every served soak phase shares: two clients, no
   warmup (exact request conservation needs the full window), uniform
   keys. *)
let phase ~duration_s ~read_pct ~insert_pct ~mget ~key_range ~seed ~mode ~deadline_s
    ~max_retries =
  { Loadgen.clients = 2; duration_s; warmup_s = 0.0; read_pct; insert_pct; mget; key_range;
    zipf_alpha = None; seed; mode; deadline_s; max_retries }

(* The same seeded plans, but firing inside the shard domains of the
   request service, where operations run under batched SMR windows (a
   crash mid-batch kills the shard with the whole window's announcements
   still published). The open-loop (Poisson) client records end-to-end
   latency, coordinated-omission corrected, so a stalled or crashed
   shard shows up in p99/p99.9 instead of disappearing behind
   back-pressure. *)
let service_cell (s_name, scheme) ~round ~seed =
  let shards = 2 and batch = 1 + (seed mod 48) in
  let range = if seed mod 2 = 0 then 512 else 128 in
  let plan = Fault.random_plan ~seed ~threads:shards in
  let r =
    Scenario.run
      { Scenario.scheme; shards; spare_tids = None; batch; ring_capacity = 128;
        capacity = (range * 8) + (shards * 65536); max_arenas = 1;
        prefill = Scenario.Even (range / 2); check_access = true; plan = Some plan;
        phases =
          [ phase ~duration_s:0.6 ~read_pct:50 ~insert_pct:30
              (* random multi-get widths so plans also fire inside the
                 intra-request window rollover path *)
              ~mget:(1 + (seed mod 4)) ~key_range:range ~seed
              (* alternate the open-loop window of 1-chains and the
                 chained client, so plans also fire mid-chain *)
              ~mode:
                (if seed mod 2 = 0 then Loadgen.Open { rate = 30_000.0; window = 32 }
                 else Loadgen.Chained { chain = 1 + (seed mod 8) })
              ~deadline_s:0.0 ~max_retries:0 ] }
  in
  let label = Printf.sprintf "service(%s)" s_name in
  let under = Printf.sprintf "under %s (B=%d)" (Fault.plan_to_string plan) batch in
  let v = r.Scenario.watchdog and lg = (List.hd r.Scenario.phases).Scenario.lg in
  require label (r.Scenario.violations = 0) "use-after-free %s" under;
  require label (Watchdog.ok v) "waste bound broken %s: %s" under (Watchdog.to_string v);
  ( Printf.sprintf "service(%s) round %d B=%d %s  crashed=%s pinning=%s  %s  p50/p99/p99.9=%d/%d/%dns"
      s_name round batch (Fault.plan_to_string plan) (tids r.Scenario.crashed)
      (tids r.Scenario.pinning) (Watchdog.to_string v) (pct lg 50.0) (pct lg 99.0) (pct lg 99.9),
    Report.
      [ ("round", Int round); ("ds", Str "service-hash"); ("scheme", Str s_name);
        ("seed", Int seed); ("batch", Int batch); ("crashed", Ints r.Scenario.crashed);
        ("pinning", Ints r.Scenario.pinning); ("submitted", Int lg.Loadgen.submitted);
        ("completed", Int lg.Loadgen.completed); ("rejected", Int lg.Loadgen.rejected);
        ("drops", Int lg.Loadgen.drops); ("ring_full", Int lg.Loadgen.ring_full);
        ("busy", Int lg.Loadgen.busy); ("deadline_exceeded", Int lg.Loadgen.deadline_exceeded) ]
    @ latency_fields lg @ Watchdog.fields (Some v) )

(* All six schemes: the five above plus the leaky baseline (its adopt is
   a no-op, but recovery must still respawn and conserve requests). *)
let chaos_schemes = schemes @ [ ("none", (module Smr_schemes.Leaky : Smr_core.Smr_intf.S)) ]

(* One chaos cell: the same seeded open-loop workload (deadlines and
   retries armed) runs twice over the recovery-supervised service — once
   fault-free for a wasted-memory baseline, once with a deterministic
   plan crashing shards 1 and 2 mid-round (inside the protect/validate
   window, or retire for leaky, which publishes no reservations; never
   shard 0, so one shard serves throughout). The crashed shards' tids
   are adopted and replacements respawn on the spare tids; after the
   last recovery the wasted counter must come back to within 10% of the
   baseline peak (plus a small absolute floor for sampling noise). *)
let chaos_cell (s_name, scheme) ~round ~seed =
  let range = 512 and label = Printf.sprintf "chaos(%s)" s_name in
  let run plan =
    let r =
      Scenario.run
        { Scenario.scheme; shards = 3; spare_tids = Some 2; batch = 8; ring_capacity = 128;
          capacity = (range * 8) + (5 * 65536); max_arenas = 1;
          prefill = Scenario.Even (range / 2); check_access = true; plan;
          phases =
            [ phase ~duration_s:1.2 ~read_pct:50 ~insert_pct:30 ~mget:(1 + (seed mod 4))
                ~key_range:range ~seed ~mode:(Loadgen.Open { rate = 20_000.0; window = 32 })
                ~deadline_s:0.05 ~max_retries:3 ] }
    in
    require label (r.Scenario.violations = 0) "use-after-free (seed %d)" seed;
    r
  in
  let baseline_peak = peak (run None).Scenario.samples in
  let point = if s_name = "none" then Fault.Reclaimer_retire else Fault.Protect_validate in
  let r =
    run
      (Some
         (Fault.plan ~label:(Printf.sprintf "chaos-%s-%d" s_name seed)
            [ Fault.crash_event ~tid:1 ~point ~after_hits:(200 + (seed mod 100));
              Fault.crash_event ~tid:2 ~point ~after_hits:(500 + (seed mod 200)) ]))
  in
  let lg = (List.hd r.Scenario.phases).Scenario.lg and v = r.Scenario.watchdog in
  let rs = Option.get r.Scenario.recovery in
  (* Tail = samples after the last takeover plus a settling margin (the
     replacement's first scans drain what the dead incarnation left). *)
  let settled = rs.Mp_service.Recovery.last_recovery_at +. 0.1 in
  let tail =
    match List.filter (fun (at, _) -> at >= settled) r.Scenario.samples with
    | [] -> [ List.nth r.Scenario.samples (List.length r.Scenario.samples - 1) ]
    | tail -> tail
  in
  let tail_peak = peak tail in
  let waste_ok =
    s_name = "none" (* leaky never frees: no return-to-baseline to check *)
    || float_of_int tail_peak <= (1.1 *. float_of_int baseline_peak) +. 64.0
  in
  let conservation_ok = Loadgen.conserved lg in
  require label conservation_ok
    "lost or duplicated replies: %d submitted vs %d+%d+%d+%d+%d accounted" lg.Loadgen.submitted
    lg.Loadgen.completed_reqs lg.Loadgen.rejected lg.Loadgen.busy lg.Loadgen.oom
    lg.Loadgen.deadline_exceeded;
  require label (rs.Mp_service.Recovery.recoveries >= 1) "no crash recovered (seed %d)" seed;
  require label (Watchdog.ok v) "waste bound broken: %s" (Watchdog.to_string v);
  require label waste_ok "wasted did not return to baseline: tail %d vs baseline %d" tail_peak
    baseline_peak;
  let open Mp_service.Recovery in
  let crashes = r.Scenario.stats.Mp_service.Service.crash_events in
  ( Printf.sprintf
      "chaos(%s) round %d  crashes=%d recoveries=%d adoptions=%d rec_ms=%.2f/%.2f  wasted base/tail=%d/%d  %s"
      s_name round crashes rs.recoveries rs.adoptions (rs.mean_recovery_s *. 1e3)
      (rs.max_recovery_s *. 1e3) baseline_peak tail_peak (Watchdog.to_string v),
    Report.
      [ ("ds", Str "service-hash"); ("scheme", Str s_name); ("seed", Int seed); ("batch", Int 8);
        ("crashes", Int crashes); ("recoveries", Int rs.recoveries);
        ("adoptions", Int rs.adoptions); ("recovery_ms_mean", Float (rs.mean_recovery_s *. 1e3));
        ("recovery_ms_max", Float (rs.max_recovery_s *. 1e3));
        ("baseline_wasted_peak", Int baseline_peak); ("tail_wasted_peak", Int tail_peak);
        ("waste_ok", Bool waste_ok); ("conservation_ok", Bool conservation_ok);
        ("submitted", Int lg.Loadgen.submitted); ("completed", Int lg.Loadgen.completed);
        ("completed_reqs", Int lg.Loadgen.completed_reqs); ("rejected", Int lg.Loadgen.rejected);
        ("busy", Int lg.Loadgen.busy); ("oom", Int lg.Loadgen.oom); ("drops", Int lg.Loadgen.drops);
        ("deadline_exceeded", Int lg.Loadgen.deadline_exceeded);
        ("ring_full", Int lg.Loadgen.ring_full); ("retries", Int lg.Loadgen.retries) ]
    @ latency_fields lg @ Watchdog.fields (Some v) )

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
   lowers its target and requests drains of the topmost arena. The
   scenario's post-stop settle then churns scans until every pending
   drain detaches. *)
let elastic_cell (s_name, scheme) ~round ~seed =
  let capacity = 4096 and max_arenas = 4 in
  (* 1.5 arenas of keys: the spike must outgrow arena 0, and two spare
     arenas of headroom keep even EBR's crash-window waste clear of a
     hard exhaustion. *)
  let range = capacity * 3 / 2 in
  let elastic_phase ~duration_s ~rate ~read_pct ~insert_pct ~seed =
    phase ~duration_s ~read_pct ~insert_pct ~mget:1 ~key_range:range ~seed
      ~mode:(Loadgen.Open { rate; window = 32 }) ~deadline_s:0.05 ~max_retries:3
  in
  let r =
    Scenario.run
      { Scenario.scheme; shards = 2; spare_tids = Some 1; batch = 8; ring_capacity = 128;
        capacity; max_arenas; prefill = Scenario.Even 256; check_access = true;
        plan =
          Some
            (Fault.plan ~label:(Printf.sprintf "elastic-%s-%d" s_name seed)
               [ Fault.crash_event ~tid:1 ~point:Fault.Protect_validate
                   ~after_hits:(300 + (seed mod 200)) ]);
        phases =
          [ elastic_phase ~duration_s:0.8 ~rate:60_000.0 ~read_pct:5 ~insert_pct:90 ~seed;
            elastic_phase ~duration_s:1.2 ~rate:40_000.0 ~read_pct:20 ~insert_pct:0
              ~seed:(seed + 1) ] }
  in
  let open Scenario in
  let label = Printf.sprintf "elastic(%s)" s_name and v = r.watchdog in
  let st = r.stats and recoveries = (Option.get r.recovery).Mp_service.Recovery.recoveries in
  let conservation_ok = List.for_all (fun p -> Loadgen.conserved p.lg) r.phases in
  let open Mp_service.Service in
  require label (r.violations = 0) "use-after-free (seed %d)" seed;
  require label (Watchdog.ok v) "waste bound broken: %s" (Watchdog.to_string v);
  require label conservation_ok "lost or duplicated replies (seed %d)" seed;
  require label (r.arenas_attached >= 1) "spike never grew the pool (peak %d arenas, seed %d)"
    r.peak_arenas seed;
  require label (r.arenas_detached >= 1) "no drain completed (still %d arenas, seed %d)"
    (r.resident_slots / capacity) seed;
  require label (r.resident_slots <= 2 * capacity)
    "footprint did not return: %d resident slots vs %d pre-spike (seed %d)" r.resident_slots
    capacity seed;
  require label (st.oom = 0 || r.peak_arenas >= max_arenas)
    "replied OOM below max_arenas (%d replies, seed %d)" st.oom seed;
  require label (recoveries >= 1) "no crash recovered (seed %d)" seed;
  ( Printf.sprintf
      "elastic(%s) round %d  arenas peak=%d attached=%d detached=%d resident=%d  stalls=%d oom=%d crashes=%d recoveries=%d settle=%.2fs  %s"
      s_name round r.peak_arenas r.arenas_attached r.arenas_detached r.resident_slots
      st.alloc_stalls st.oom st.crash_events recoveries r.settle_s (Watchdog.to_string v),
    Report.
      [ ("ds", Str "service-hash"); ("scheme", Str s_name); ("seed", Int seed);
        ("capacity", Int capacity); ("max_arenas", Int max_arenas);
        ("arenas_attached", Int r.arenas_attached); ("arenas_detached", Int r.arenas_detached);
        ("peak_arenas", Int r.peak_arenas); ("resident_final", Int r.resident_slots);
        ("live_peak", Int st.live_peak); ("alloc_stalls", Int st.alloc_stalls);
        ("oom", Int st.oom); ("crashes", Int st.crash_events); ("recoveries", Int recoveries);
        ("settle_s", Float r.settle_s); ("conservation_ok", Bool conservation_ok) ]
    @ Watchdog.fields (Some v) )

(* -- rounds loop and command line ------------------------------------------- *)

(* Every round runs each cell — (seed key, cell) — and prints its line;
   then the JSON rows go out in the shared versioned envelope. A failed
   verdict raises before anything is written. *)
let soak ~base ~rounds ~json_file ~banner cells =
  let rows = ref [] in
  for round = 1 to rounds do
    List.iter
      (fun (key, cell) ->
        let line, json = cell ~round ~seed:(cell_seed ~base ~round key) in
        Printf.printf "%s\n%!" line;
        rows := json :: !rows)
      cells
  done;
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc (Report.envelope (List.rev !rows));
      close_out oc;
      Printf.printf "[wrote %d verdicts to %s]\n%!" (List.length !rows) path)
    json_file;
  print_endline banner

let () =
  let minutes = ref 5.0 in
  let mode = ref None in
  let rounds = ref 10 in
  let json_file = ref None in
  let rec parse = function
    | (("--faults" | "--chaos" | "--elastic") as m) :: s :: rest ->
      mode := Some (m, int_of_string s);
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
  let cells tag cell l = List.map (fun ((name, _) as s) -> ((tag, name), cell s)) l in
  let capped = max 1 (min !rounds 10) and json_file = !json_file in
  match !mode with
  | Some ("--elastic", base) ->
    (* The five reclaiming schemes: leaky never frees, so an arena drain
       can never complete under it (growth alone is unit-tested). *)
    soak ~base ~rounds:capped ~json_file ~banner:"ELASTIC SOAK CLEAN"
      (cells "elastic" elastic_cell schemes)
  | Some ("--chaos", base) ->
    soak ~base ~rounds:capped ~json_file ~banner:"CHAOS SOAK CLEAN"
      (cells "chaos" chaos_cell chaos_schemes)
  | Some (_, base) ->
    (* Every direct cell, then the same plans through the service path. *)
    soak ~base ~rounds:!rounds ~json_file ~banner:"FAULT SOAK CLEAN"
      (List.concat_map
         (fun ((ds_name, _) as ds) ->
           List.map (fun ((s_name, _) as s) -> ((ds_name, s_name), fault_cell ds s)) schemes)
         structures
      @ cells "service" service_cell schemes)
  | None ->
    let t_end = Unix.gettimeofday () +. (!minutes *. 60.0) in
    let seed = ref 0 in
    while Unix.gettimeofday () < t_end do
      incr seed;
      List.iter
        (fun (ds_name, make) ->
          List.iter
            (fun (s_name, s) ->
              let _ : int list * int list * Watchdog.verdict =
                direct_round make s ~seed:(!seed * 7919) ()
              in
              Printf.printf "%s(%s) round %d ok\n%!" ds_name s_name !seed)
            schemes)
        structures
    done;
    print_endline "SOAK CLEAN"
