(* Benchmark harness reproducing every table and figure of the paper's
   evaluation (§6), scaled to the host (see DESIGN.md for the
   substitutions). Select experiments by name:

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig2 fig6    # a subset
     MP_BENCH_FULL=1 dune exec bench/main.exe # larger sizes/durations
     dune exec bench/main.exe -- fig2 --json out.json
                                              # also dump results as JSON
                                              # (or MP_BENCH_JSON=out.json)

   Experiments: table1 fig2 fig3 fig4 fig5 fig6 fig7a fig7bc stall crash
   micro pipe alloc ablation-index ablation-epoch ext-zipf ext-hash
   ext-queue latency service elastic transport *)

module Config = Smr_core.Config
module Workload = Mp_harness.Workload
module Runner = Mp_harness.Runner
module Report = Mp_harness.Report
module Probe = Mp_harness.Probe
module Instances = Mp_harness.Instances
module Scenario = Mp_harness.Scenario
module Watchdog = Mp_harness.Watchdog
module Loadgen = Mp_service.Loadgen

let full = Sys.getenv_opt "MP_BENCH_FULL" <> None

(* -- machine-readable sink: --json FILE (or MP_BENCH_JSON=FILE) ----------- *)

(* Every row the suite measures is also recorded, labelled with its
   experiment/structure/scheme, and written as one versioned envelope at
   exit so the perf trajectory is diffable across commits. *)
let json_path = ref (Sys.getenv_opt "MP_BENCH_JSON")

(* --warmup SECS: per-run warmup window (real workload, excluded from
   every reported metric — ops, GC words, fences, wasted samples). *)
let warmup = ref 0.5
let json_rows : Report.row list ref = ref []
let current_experiment = ref ""

let record ~ds ~scheme fields =
  if !json_path <> None then
    json_rows :=
      (("experiment", Report.Str !current_experiment) :: ("ds", Report.Str ds)
      :: ("scheme", Report.Str scheme) :: fields)
      :: !json_rows

let write_json () =
  match !json_path with
  | None -> ()
  | Some path -> (
    try
      let oc = open_out path in
      output_string oc (Report.envelope (List.rev !json_rows));
      close_out oc;
      Printf.printf "[wrote %d results to %s]\n%!" (List.length !json_rows) path
    with Sys_error msg -> Printf.eprintf "cannot write JSON: %s\n" msg)

(* Scaled-down defaults; the paper used 88 HTs, 5 s runs, S = 500K / 5K. *)
let thread_counts = if full then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4; 8 ]
let max_threads = List.fold_left max 1 thread_counts
let duration_s = if full then 2.0 else 0.35
let tree_size = if full then 65_536 else 16_384
let list_size = if full then 2_048 else 512

(* The paper's figures compare MP, IBR, HE and HP (plus DTA on the list). *)
let figure_schemes = [ "mp"; "ibr"; "he"; "hp" ]

(* The paper fixes margin = 2^20 for S = 500K (BST/skip list) and S = 5K
   (list): one margin covers ~128 key gaps on the trees and ~2 on the
   list. At our scaled sizes, preserving the margin-to-gap ratio keeps the
   protection behaviour comparable, so figure margins scale with S. *)
let margin_for ~init_size ~gaps =
  let gap = 0xFFFF_FFFF / (2 * init_size) in
  max (1 lsl 17) (gap * gaps)

(* Each figure structure with its size and the margin that size gets. *)
let structure name ds init_size gaps = (name, ds, init_size, margin_for ~init_size ~gaps)
let bst = structure "bst" Instances.Bst_ds tree_size 128
let skiplist = structure "skiplist" Instances.Skiplist_ds tree_size 128
let list = structure "list" Instances.List_ds list_size 2
let ds_name ds = fst (List.find (fun (_, d) -> d = ds) Instances.all_ds)

(* -- cells and tables ------------------------------------------------------- *)

(* One Runner cell: the figure spec (paper defaults, the suite's duration
   and warmup, [margin] when given) adjusted by [f], run on [set] or else
   on [ds] under [scheme] ("dta" is the DTA list), and recorded as a JSON
   row. *)
let cell ?(f = Fun.id) ?margin ?set ds scheme ~threads ~init_size ~mix =
  let config = Config.default ~threads in
  let config = Option.fold ~none:config ~some:(Config.with_margin config) margin in
  let set =
    match set with
    | Some set -> set
    | None when scheme = "dta" -> (module Dstruct.Dta_list.As_set : Dstruct.Set_intf.SET)
    | None -> Instances.make ds (Instances.scheme_of_name scheme)
  in
  let r =
    Runner.run set
      (f
         { (Runner.default ~threads ~init_size ~mix ~config) with
           Runner.duration_s;
           warmup_s = !warmup;
         })
  in
  record ~ds:(ds_name ds) ~scheme (Runner.fields r);
  r

(* Metrics: how one run renders in a table cell. *)
let tput (r : Runner.result) = Report.fmt_throughput r.throughput ^ if r.oom then "*" else ""
let wasted_avg (r : Runner.result) = Printf.sprintf "%.0f" r.probe.Probe.wasted_avg
let wasted_max (r : Runner.result) = string_of_int r.probe.Probe.wasted_max
let wasted_peak (r : Runner.result) = string_of_int r.wasted_peak
let fences (r : Runner.result) = Printf.sprintf "%.3f" (Probe.fences_per_node r.probe)

(* Row label × scheme columns, one [metric] per cell. *)
let grid ~title ~corner ~schemes ~metric rows =
  Report.table ~title ~header:(corner :: schemes)
    (List.map (fun (label, run) -> label :: List.map (fun s -> metric (run s)) schemes) rows)

(* One run per row: its label cells, then one (header, metric) column
   each. *)
let per_run ~title ~labels ~columns rows =
  Report.table ~title
    ~header:(labels @ List.map fst columns)
    (List.map
       (fun (label, run) ->
         let r = run () in
         label @ List.map (fun (_, metric) -> metric r) columns)
       rows)

(* -- Table 1: qualitative scheme comparison ------------------------------ *)

let table1 () =
  let open Smr_core.Smr_intf in
  let row name (p : properties) integration =
    [
      name;
      p.full_name;
      (match p.wasted_memory with
      | Bounded -> "bounded"
      | Robust -> "robust"
      | Unbounded -> "unbounded");
      string_of_int p.per_node_words;
      (if p.self_contained then "yes" else "no");
      integration;
    ]
  in
  let rows =
    List.map
      (fun (name, (module S : Smr_core.Smr_intf.S)) ->
        row name S.properties
          (if S.properties.needs_per_reference_calls then "per-reference" else "per-operation"))
      Instances.schemes
    @ [ row "dta" Dstruct.Dta_list.properties "per-k-hops (list only; frozen nodes leak)" ]
  in
  Report.table ~title:"Table 1: SMR scheme comparison"
    ~header:
      [ "scheme"; "full name"; "wasted memory"; "node words"; "self-contained"; "integration" ]
    rows

(* -- Figures 2/3/4: throughput sweeps ------------------------------------ *)

let throughput_figure ~title (_, ds, init_size, margin) ~with_dta =
  List.iter
    (fun mix ->
      grid
        ~title:(Printf.sprintf "%s — %s (ops/s)" title mix.Workload.name)
        ~corner:"threads"
        ~schemes:(figure_schemes @ if with_dta then [ "dta" ] else [])
        ~metric:tput
        (List.map
           (fun threads ->
             (string_of_int threads, fun s -> cell ~margin ds s ~threads ~init_size ~mix))
           thread_counts))
    Workload.all

let fig2 () =
  throughput_figure
    ~title:(Printf.sprintf "Figure 2: NM BST throughput (S=%d)" tree_size)
    bst ~with_dta:false

let fig3 () =
  throughput_figure
    ~title:(Printf.sprintf "Figure 3: skip list throughput (S=%d)" tree_size)
    skiplist ~with_dta:false

let fig4 () =
  throughput_figure
    ~title:(Printf.sprintf "Figure 4: linked list throughput (S=%d)" list_size)
    list ~with_dta:true

(* -- Figure 5: memory fences per traversed node (MP vs HP, read-only) ---- *)

let fig5 () =
  grid
    ~title:
      (Printf.sprintf "Figure 5: fences per traversed node, read-only, %d threads" max_threads)
    ~corner:"structure" ~schemes:[ "mp"; "hp" ] ~metric:fences
    (List.map
       (fun (name, ds, init_size, margin) ->
         ( name,
           fun s -> cell ~margin ds s ~threads:max_threads ~init_size ~mix:Workload.read_only ))
       [ bst; skiplist; list ])

(* -- Figure 6: wasted memory, read-dominated ------------------------------ *)

let fig6 () =
  List.iter
    (fun (name, ds, init_size, margin) ->
      grid
        ~title:
          (Printf.sprintf "Figure 6 (%s): avg retired-but-unreclaimed nodes, read-dominated" name)
        ~corner:"threads" ~schemes:figure_schemes ~metric:wasted_avg
        (List.map
           (fun threads ->
             ( string_of_int threads,
               fun s -> cell ~margin ds s ~threads ~init_size ~mix:Workload.read_dominated ))
           thread_counts))
    [ bst; skiplist; list ]

(* -- Figure 7a: ascending-key list, MP vs HP (index-collision worst case) - *)

let fig7a () =
  grid
    ~title:
      (Printf.sprintf
         "Figure 7a: list built by ascending insertion (all indices collide), read-only (S=%d)"
         list_size)
    ~corner:"threads" ~schemes:[ "mp"; "hp" ] ~metric:tput
    (List.map
       (fun threads ->
         ( string_of_int threads,
           fun s ->
             cell Instances.List_ds s ~threads ~init_size:list_size ~mix:Workload.read_only
               ~f:(fun sp -> { sp with init = Workload.Ascending_init; key_range = list_size }) ))
       thread_counts)

(* -- Figures 7b/7c: margin-size sensitivity ------------------------------- *)

let fig7bc () =
  per_run
    ~title:
      (Printf.sprintf "Figures 7b/7c: margin sensitivity, BST write-dominated, %d threads (S=%d)"
         max_threads tree_size)
    ~labels:[ "margin" ]
    ~columns:[ ("throughput", tput); ("wasted avg", wasted_avg); ("wasted max", wasted_max) ]
    (List.init 10 (fun i ->
         let log2m = 17 + i in
         ( [ Printf.sprintf "2^%d" log2m ],
           fun () ->
             cell ~margin:(1 lsl log2m) Instances.Bst_ds "mp" ~threads:max_threads
               ~init_size:tree_size ~mix:Workload.write_dominated )))

(* -- Stall and crash experiments: deterministic robustness comparison ------ *)

(* Four list workers churn while the plan hits tid 0 *inside* the
   protect/validate window — reservation published, not yet validated —
   the exact schedule the robustness theorems quantify over (unlike the
   op-boundary pause of Runner.stall). The watchdog evaluates each
   scheme's declared waste bound (Table 1) against the live counter. *)
let fault_table ~title ~plan ~columns =
  let threads = 4 in
  per_run ~title ~labels:[ "scheme" ]
    ~columns:
      ((("throughput", tput) :: columns)
      @ [ ("watchdog", fun r -> Option.fold ~none:"-" ~some:Watchdog.to_string r.Runner.watchdog) ]
      )
    (List.map
       (fun sname ->
         ( [ sname ],
           fun () ->
             cell Instances.List_ds sname ~threads ~init_size:list_size
               ~mix:Workload.write_dominated ~f:(fun s ->
                 let (module S : Smr_core.Smr_intf.S) = Instances.scheme_of_name sname in
                 {
                   s with
                   duration_s = duration_s *. 2.0;
                   faults = Some plan;
                   watchdog =
                     Some
                       (Watchdog.spec_for ~scheme:sname ~properties:S.properties
                          ~config:s.Runner.config ~threads ~size_at_arm:(2 * 2 * list_size) ());
                 }) ))
       [ "mp"; "hp"; "ibr"; "he"; "ebr" ])

let stall () =
  fault_table
    ~title:
      "Stall injection: list write-dominated, tid 0 sleeping inside the protect/validate window"
    ~plan:
      (Mp_util.Fault.plan ~label:"bench-stall"
         [
           Mp_util.Fault.stall_event ~tid:0 ~point:Mp_util.Fault.Protect_validate ~after_hits:50
             ~every:200 ~pause:0.02 ();
         ])
    ~columns:[ ("wasted avg", wasted_avg); ("wasted max", wasted_max); ("wasted peak", wasted_peak) ]

(* The dead-thread scenario of §4.4: one domain dies mid-protect —
   reservation published, never cleared — while the rest keep churning.
   Bounded schemes (MP, HP) must hold their predetermined waste bound
   anyway; robust schemes hold a size-at-crash bound; EBR's waste grows
   with the churn (the watchdog records the expected violation of the
   reference envelope). *)
let crash () =
  let tids l = String.concat "," (List.map string_of_int l) in
  fault_table
    ~title:"Crash injection: list write-dominated, tid 0 dies inside the protect/validate window"
    ~plan:
      (Mp_util.Fault.plan ~label:"bench-crash"
         [
           Mp_util.Fault.crash_event ~tid:0 ~point:Mp_util.Fault.Protect_validate
             ~after_hits:1_000;
         ])
    ~columns:
      [
        ("wasted max", wasted_max);
        ("wasted peak", wasted_peak);
        ("crashed", fun r -> tids r.Runner.crashed);
        ("pinning", fun r -> tids r.Runner.pinning_tids);
      ]

(* -- Bechamel micro-benchmarks: per-operation latency --------------------- *)

let micro () =
  let open Bechamel in
  let micro_size = 4_096 in
  let mk_case ds_name ds sname op_name =
    let (module SET : Dstruct.Set_intf.SET) =
      Instances.make ds (Instances.scheme_of_name sname)
    in
    let config = Config.default ~threads:1 in
    let t = SET.create ~threads:1 ~capacity:((micro_size * 4) + 65_536) config in
    let s = SET.session t ~tid:0 in
    let rng = Mp_util.Rng.create 77 in
    let inserted = ref 0 in
    while !inserted < micro_size do
      if SET.insert s ~key:(Mp_util.Rng.below rng (2 * micro_size)) ~value:1 then incr inserted
    done;
    let body =
      match op_name with
      | "contains" ->
        fun () -> ignore (SET.contains s (Mp_util.Rng.below rng (2 * micro_size)) : bool)
      | _ ->
        fun () ->
          let k = Mp_util.Rng.below rng (2 * micro_size) in
          if Mp_util.Rng.bool rng then ignore (SET.insert s ~key:k ~value:1 : bool)
          else ignore (SET.remove s k : bool)
    in
    Test.make ~name:(Printf.sprintf "%s/%s/%s" ds_name sname op_name) (Staged.stage body)
  in
  let tests =
    List.concat_map
      (fun (ds_name, ds) ->
        List.concat_map
          (fun sname -> [ mk_case ds_name ds sname "contains"; mk_case ds_name ds sname "update" ])
          figure_schemes)
      [ ("bst", Instances.Bst_ds); ("skiplist", Instances.Skiplist_ds) ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.sprintf "%.0f" est
          | _ -> "n/a"
        in
        [ name; ns ] :: acc)
      results []
    |> List.sort (fun r1 r2 -> String.compare (List.hd r1) (List.hd r2))
  in
  Report.table ~title:"Micro: single-thread per-operation latency (ns/op, OLS)"
    ~header:[ "case"; "ns/op" ] rows

(* -- Micro: alloc/free pipe through the mempool transfer path ------------- *)

(* Thread A allocs, thread B frees: every slot crosses the global free
   list twice (B spills, A refills), the worst case for the transfer
   path. Hand-off between the pair moves whole batches through an SPSC
   ring so the pipe itself costs ~nothing per slot and the pool's
   chain-per-CAS transfer dominates. *)
let run_pipe ~pairs ~duration =
  let threads = 2 * pairs in
  let fair_share = 1024 in
  (* Deep ring: a blocked side sleeps (yielding the core) rather than
     spin-burning its timeslice, so the ring must hold a whole
     timeslice's worth of slots for the running side to chew through. *)
  let ring_cap = 128 and batch_len = 2048 in
  let capacity = pairs * (((ring_cap + 4) * batch_len) + (4 * fair_share)) in
  let pool = Mempool.Core.create ~capacity ~threads ~fair_share () in
  let stop = Atomic.make false in
  let barrier = Atomic.make 0 in
  let ops = Array.make (Mp_util.Padding.spaced_length threads) 0 in
  (* Self-allocation accounting: instead of merely *claiming* the
     recycling rings keep the pipe's own allocation out of the
     measurement, each domain brackets its run with the same
     [Mp_util.Gcstat] samples the runner uses, and the residual shows up
     in the shared [alloc_words_per_op] telemetry field. *)
  let gc_before = Array.make threads Mp_util.Gcstat.zero in
  let gc_after = Array.make threads Mp_util.Gcstat.zero in
  let rings =
    Array.init pairs (fun _ -> Array.init ring_cap (fun _ -> Atomic.make [||]))
  in
  (* Return path for spent batch arrays: recycling them keeps the pipe's
     own allocation (and minor-GC) cost out of the measurement. *)
  let returns =
    Array.init pairs (fun _ -> Array.init ring_cap (fun _ -> Atomic.make [||]))
  in
  let wait_start () =
    Atomic.incr barrier;
    while Atomic.get barrier < threads do
      Domain.cpu_relax ()
    done
  in
  (* Blocked sides briefly spin then sleep: on an oversubscribed host a
     pure spin wastes the whole timeslice the peer needs. *)
  let blocked_pause spins =
    if !spins < 64 then begin
      incr spins;
      Domain.cpu_relax ()
    end
    else Unix.sleepf 0.0001
  in
  let producer pair () =
    let tid = 2 * pair in
    let ring = rings.(pair) and back = returns.(pair) in
    wait_start ();
    gc_before.(tid) <- Mp_util.Gcstat.sample ();
    let produced = ref 0 and w = ref 0 and rb = ref 0 in
    let batch = ref (Array.make batch_len 0) and filled = ref 0 in
    let spins = ref 0 in
    let fresh_batch () =
      let slot = back.(!rb land (ring_cap - 1)) in
      let recycled = Atomic.get slot in
      if Array.length recycled > 0 then begin
        Atomic.set slot [||];
        incr rb;
        recycled
      end
      else Array.make batch_len 0
    in
    while not (Atomic.get stop) do
      (match Mempool.Core.alloc pool ~tid with
      | id ->
        !batch.(!filled) <- id;
        incr filled;
        incr produced;
        if !filled = batch_len then begin
          let slot = ring.(!w land (ring_cap - 1)) in
          while Array.length (Atomic.get slot) > 0 && not (Atomic.get stop) do
            blocked_pause spins
          done;
          spins := 0;
          if not (Atomic.get stop) then begin
            Atomic.set slot !batch;
            incr w;
            batch := fresh_batch ();
            filled := 0
          end
        end
      | exception Mempool.Exhausted -> blocked_pause spins)
    done;
    (* Return the partial batch so the pool quiesces for the invariant
       checks below. *)
    for i = 0 to !filled - 1 do
      Mempool.Core.free pool ~tid !batch.(i)
    done;
    gc_after.(tid) <- Mp_util.Gcstat.sample ();
    ops.(Mp_util.Padding.spaced_index tid) <- !produced
  in
  let consumer pair () =
    let tid = (2 * pair) + 1 in
    let ring = rings.(pair) and back = returns.(pair) in
    wait_start ();
    gc_before.(tid) <- Mp_util.Gcstat.sample ();
    let freed = ref 0 and r = ref 0 and wb = ref 0 in
    let spins = ref 0 in
    let drain_slot slot =
      let batch = Atomic.get slot in
      let n = Array.length batch in
      if n > 0 then begin
        Atomic.set slot [||];
        incr r;
        for i = 0 to n - 1 do
          Mempool.Core.free pool ~tid batch.(i)
        done;
        freed := !freed + n;
        (* Best-effort recycle; a full return ring just lets the GC have
           this one. *)
        let rslot = back.(!wb land (ring_cap - 1)) in
        if Array.length (Atomic.get rslot) = 0 then begin
          Atomic.set rslot batch;
          incr wb
        end;
        true
      end
      else false
    in
    while not (Atomic.get stop) do
      if drain_slot ring.(!r land (ring_cap - 1)) then spins := 0 else blocked_pause spins
    done;
    (* Drain what producers already published so nothing stays parked in
       the ring. *)
    while drain_slot ring.(!r land (ring_cap - 1)) do
      ()
    done;
    gc_after.(tid) <- Mp_util.Gcstat.sample ();
    ops.(Mp_util.Padding.spaced_index tid) <- !freed
  in
  let domains =
    Array.init threads (fun i ->
        let pair = i / 2 in
        if i land 1 = 0 then Domain.spawn (producer pair) else Domain.spawn (consumer pair))
  in
  let minor0 = Mp_util.Gcstat.minor_collections () in
  let t_start = Unix.gettimeofday () in
  Unix.sleepf duration;
  Atomic.set stop true;
  let elapsed = Unix.gettimeofday () -. t_start in
  let minor_gcs = Mp_util.Gcstat.minor_collections () - minor0 in
  Array.iter Domain.join domains;
  let total_ops = Array.fold_left ( + ) 0 ops in
  let alloc_words = ref 0.0 and promoted = ref 0.0 in
  for tid = 0 to threads - 1 do
    let before = gc_before.(tid) and after = gc_after.(tid) in
    alloc_words := !alloc_words +. Mp_util.Gcstat.alloc_words ~before ~after;
    promoted := !promoted +. Mp_util.Gcstat.promoted_words ~before ~after
  done;
  if Mempool.Core.live_count pool <> 0 then
    failwith "pipe: slots leaked across the transfer path";
  let per_op x = if total_ops = 0 then 0.0 else x /. float_of_int total_ops in
  (total_ops, float_of_int total_ops /. elapsed, per_op !alloc_words, per_op !promoted, minor_gcs)

let pipe () =
  let rows =
    List.map
      (fun pairs ->
        (* Scheduler noise on an oversubscribed host is the dominant
           variance source; give the pipe a slightly longer window than
           the quick-scale default. *)
        let total_ops, throughput, words, promoted, minor_gcs =
          run_pipe ~pairs ~duration:(Float.max duration_s 0.7)
        in
        (* The pipe measures throughput and its own GC, nothing else. *)
        record ~ds:"mempool" ~scheme:"chained"
          Report.
            [ ("threads", Int (2 * pairs)); ("mix", Str "alloc_free_pipe");
              ("total_ops", Int total_ops); ("throughput", Float throughput);
              ("alloc_words_per_op", Float words); ("promoted_words_per_op", Float promoted);
              ("minor_gcs", Int minor_gcs) ];
        [
          string_of_int (2 * pairs);
          Report.fmt_throughput throughput;
          Report.fmt_words_per_op words;
        ])
      [ 1; 2; 4 ]
  in
  Report.table
    ~title:
      "Pipe: alloc/free producer-consumer pairs through the global free list (allocs+frees/s)"
    ~header:[ "threads"; "chained"; "self words/op" ]
    rows

(* -- Alloc: read-path allocation telemetry ------------------------------- *)

(* The zero-allocation read path, measured end to end: single-threaded
   read-only runs per structure × scheme, reporting the runner's
   per-domain GC deltas. The leaky list is the acceptance gate (< 1
   word/op in the release profile); the rest of the table localizes any
   regression to a structure or a scheme wrapper. *)
let alloc_telemetry () =
  per_run ~title:"Alloc: GC words per read-only operation (1 thread; 0.00 = allocation-free)"
    ~labels:[ "structure"; "scheme" ]
    ~columns:
      [
        ("throughput", tput);
        ("words/op", fun r -> Report.fmt_words_per_op r.Runner.alloc_words_per_op);
        ("promoted/op", fun r -> Report.fmt_words_per_op r.Runner.promoted_words_per_op);
        ("minor GCs", fun r -> string_of_int r.Runner.minor_gcs);
      ]
    (List.concat_map
       (fun (name, ds, init_size, margin) ->
         List.map
           (fun sname ->
             ( [ name; sname ],
               fun () -> cell ~margin ds sname ~threads:1 ~init_size ~mix:Workload.read_only ))
           ("none" :: figure_schemes))
       [ list; skiplist; bst; structure "hash" Instances.Hash_ds tree_size 128 ])

(* -- Extension: index-assignment policy ablation (paper §4.1 future work) *)

(* Worst case (ascending insertion, Fig. 7a) and the default random
   workload, per policy: collision rate and read throughput. *)
let ablation_index () =
  let _, _, _, margin = list in
  per_run ~title:"Ablation: MP index-assignment policy (list, read-only after build)"
    ~labels:[ "policy"; "insertion order" ]
    ~columns:[ ("throughput", tput); ("fences/node", fences) ]
    (List.concat_map
       (fun (pname, policy) ->
         List.map
           (fun (iname, init) ->
             ( [ pname; iname ],
               fun () ->
                 cell ~margin Instances.List_ds "mp" ~threads:2 ~init_size:list_size
                   ~mix:Workload.read_only ~f:(fun s ->
                     {
                       s with
                       config = Config.with_index_policy s.Runner.config policy;
                       init;
                       key_range = (if init = Workload.Ascending_init then list_size else s.key_range);
                     }) ))
           [ ("ascending", Workload.Ascending_init); ("random", Workload.Uniform_init) ])
       [ ("midpoint", Config.Midpoint); ("golden", Config.Golden); ("random", Config.Randomized) ])

(* -- Extension: epoch advance per unlink (paper §4.4 future work) --------- *)

(* "If we advance the global epochs on every node unlink (as in HE), the
   per-thread bound improves to #HP + O(#MP × M)" — measure the waste /
   overhead trade-off of the epoch frequency under an injected stall. *)
let ablation_epoch () =
  let threads = 4 in
  per_run
    ~title:"Ablation: MP epoch-advance frequency under an injected stall (list, write-dominated)"
    ~labels:[ "epoch freq" ]
    ~columns:[ ("throughput", tput); ("wasted avg", wasted_avg); ("wasted max", wasted_max) ]
    (List.map
       (fun (label, freq) ->
         ( [ label ],
           fun () ->
             cell Instances.List_ds "mp" ~threads ~init_size:list_size
               ~mix:Workload.write_dominated ~f:(fun s ->
                 {
                   s with
                   config = Config.with_epoch_freq s.Runner.config freq;
                   stall = Some { Runner.stall_tid = 0; every_ops = 100; pause_s = 0.02 };
                 }) ))
       [
         ("every unlink (F=1)", 1);
         ("F=10", 10);
         ("F=150", 150);
         (Printf.sprintf "paper default (F=150T=%d)" (150 * threads), 150 * threads);
       ])

(* -- Extension: key-distribution sensitivity ------------------------------ *)

(* §6 "Key Distribution & MP Index Collisions": MP's margin efficacy
   depends on how keys are laid out in the structure, not on the query
   distribution — zipfian queries over a uniformly-built tree should
   perform like uniform queries. *)
let ext_zipf () =
  let _, ds, init_size, margin = bst in
  per_run
    ~title:"Extension: query-key skew (BST read-dominated) — MP overhead tracks layout, not queries"
    ~labels:[ "scheme"; "query dist" ]
    ~columns:[ ("throughput", tput); ("fences/node", fences) ]
    (List.concat_map
       (fun sname ->
         List.map
           (fun (dist, alpha) ->
             ( [ sname; dist ],
               fun () ->
                 cell ~margin ds sname ~threads:4 ~init_size ~mix:Workload.read_dominated
                   ~f:(fun s -> { s with zipf_alpha = alpha }) ))
           [ ("uniform", None); ("zipf a=0.99", Some 0.99); ("zipf a=1.5", Some 1.5) ])
       [ "mp"; "hp" ])

(* -- Extension: hash-table client (MP on a per-bucket-ordered structure) -- *)

(* The served hash set ({!Instances.Hash_ds}) pins 256 buckets; at
   S = tree_size that makes bucket lists 4x longer and throughput 2-3x
   lower, so this table builds its own 1024-bucket set. *)
let hash_1024 sname : (module Dstruct.Set_intf.SET) =
  let (module S : Smr_core.Smr_intf.S) = Instances.scheme_of_name sname in
  (module struct
    module H = Dstruct.Hash_table.Make (S)
    include H

    let create ~threads ~capacity ?check_access config =
      H.create ~threads ~capacity ?check_access ~buckets:1024 config
  end)

let ext_hash () =
  per_run
    ~title:
      (Printf.sprintf "Extension: lock-free hash table (1024 buckets, S=%d, read-dominated)"
         tree_size)
    ~labels:[ "scheme"; "threads" ]
    ~columns:[ ("throughput", tput); ("wasted max", wasted_max); ("wasted peak", wasted_peak) ]
    (List.concat_map
       (fun threads ->
         List.map
           (fun sname ->
             ( [ sname; string_of_int threads ],
               fun () ->
                 cell ~set:(hash_1024 sname) Instances.Hash_ds sname ~threads
                   ~init_size:tree_size ~mix:Workload.read_dominated ))
           [ "mp"; "hp"; "ibr" ])
       [ 1; 4 ])

(* -- Extension: non-search client (Table 1's "= HP (Other DS)" cell) ------ *)

let ext_queue () =
  let run_queue (module S : Smr_core.Smr_intf.S) name threads =
    let module Q = Dstruct.Ms_queue.Make (S) in
    let config = Config.default ~threads in
    let t = Q.create ~threads ~capacity:(1 lsl 20) config in
    (* prefill so dequeues rarely see empty *)
    let s0 = Q.session t ~tid:0 in
    for v = 1 to 10_000 do
      Q.enqueue s0 v
    done;
    let stop = Atomic.make false in
    let ops = Array.make threads 0 in
    let domains =
      Array.init threads (fun tid ->
          Domain.spawn (fun () ->
              let s = Q.session t ~tid in
              let rng = Mp_util.Rng.split ~seed:3 ~tid in
              let n = ref 0 in
              while not (Atomic.get stop) do
                if Mp_util.Rng.bool rng then Q.enqueue s !n
                else ignore (Q.dequeue s : int option);
                incr n
              done;
              ops.(tid) <- !n))
    in
    Unix.sleepf duration_s;
    Atomic.set stop true;
    Array.iter Domain.join domains;
    let total = Array.fold_left ( + ) 0 ops in
    let st = Q.smr_stats t in
    [
      name;
      string_of_int threads;
      Report.fmt_throughput (float_of_int total /. duration_s);
      string_of_int st.Smr_core.Smr_intf.wasted;
      string_of_int st.Smr_core.Smr_intf.hp_fallbacks;
    ]
  in
  let rows =
    List.concat_map
      (fun threads ->
        [
          run_queue (module Mp.Margin_ptr) "mp" threads;
          run_queue (module Smr_schemes.Hp) "hp" threads;
          run_queue (module Smr_schemes.Ibr) "ibr" threads;
        ])
      [ 1; 4 ]
  in
  Report.table
    ~title:
      "Extension: MS queue (non-search client) — MP falls back to HP (Table 1 \"= HP (Other DS)\")"
    ~header:[ "scheme"; "threads"; "throughput"; "wasted"; "hp fallbacks" ]
    rows

(* -- Extension: per-operation latency percentiles -------------------------- *)

let latency () =
  let threads = 4 and _, ds, init_size, margin = bst in
  let pct q r =
    Option.fold ~none:"-"
      ~some:(fun h -> string_of_int (Mp_util.Histogram.percentile_ns h q))
      r.Runner.latency
  in
  per_run
    ~title:
      (Printf.sprintf "Extension: per-operation latency (ns), BST read-dominated, %d threads"
         threads)
    ~labels:[ "scheme" ]
    ~columns:(List.map (fun q -> (Printf.sprintf "p%g" q, pct q)) [ 50.0; 90.0; 99.0; 99.9 ])
    (List.map
       (fun sname ->
         ( [ sname ],
           fun () ->
             cell ~margin ds sname ~threads ~init_size ~mix:Workload.read_dominated ~f:(fun s ->
                 { s with duration_s = duration_s *. 2.0; record_latency = true }) ))
       [ "mp"; "ibr"; "he"; "hp"; "ebr" ])

(* -- Extension: sharded request service with batched SMR ------------------- *)

(* --shards N restricts the shard sweep (the CI smoke job runs 2). *)
let service_shards : int option ref = ref None

(* A scenario phase's row: the hash set sharded over [shards] domains. *)
let record_phase sname ~shards ~mix r p =
  record ~ds:"hash" ~scheme:sname
    (("threads", Report.Int shards) :: ("mix", Report.Str mix) :: Scenario.fields r p)

(* A served phase's throughput cell; "*" marks a run that replied OOM. *)
let served_tput (r, lg) =
  Report.fmt_throughput lg.Loadgen.throughput
  ^ if r.Scenario.stats.Mp_service.Service.oom > 0 then "*" else ""

(* One service run: the hash set sharded across N domains, driven by the
   closed-loop, open-loop or chained load generator. *)
let run_service ?zipf ?(mget = 1) ?(clients = 2) sname ~shards ~batch ~mode ~read_pct
    ~insert_pct ~init_size =
  let r =
    Scenario.run
      {
        Scenario.scheme = Instances.scheme_of_name sname;
        shards;
        spare_tids = None;
        batch;
        ring_capacity = 1024;
        capacity = (init_size * 4) + (shards * 65536);
        max_arenas = 1;
        prefill = Scenario.Random init_size;
        check_access = false;
        plan = None;
        phases =
          [
            {
              Loadgen.clients;
              duration_s = Float.max duration_s 0.5;
              warmup_s = Float.min !warmup 0.2;
              read_pct;
              insert_pct;
              mget;
              key_range = 2 * init_size;
              zipf_alpha = zipf;
              seed = 0xC0FFEE;
              mode;
              deadline_s = 0.0;
              max_retries = 0;
            };
          ];
      }
  in
  let p = List.hd r.Scenario.phases in
  record_phase sname ~shards r p
    ~mix:
      (Printf.sprintf "svc_%s_%dr%di%s%s_B%d"
         (match mode with
         | Loadgen.Open _ -> "open"
         | Loadgen.Closed _ | Loadgen.Chained _ -> "closed")
         read_pct insert_pct
         (if mget > 1 then Printf.sprintf "_m%d" mget else "")
         (match mode with Loadgen.Chained { chain } -> Printf.sprintf "_c%d" chain | _ -> "")
         batch);
  (r, p.Scenario.lg)

let service () =
  (* Read-heavy service mix; the batched-vs-unbatched comparison the
     amortization claim is about, per scheme and shard count. *)
  let read_pct = 98 and insert_pct = 1 in
  (* A small hot set (short bucket chains) keeps the per-request
     structure work cheap, so the SMR protocol — the thing batching
     amortizes — is the measured fraction of each request. Low churn
     keeps the global epoch mostly still, so an MP batch window stays
     on its announced epoch instead of falling back to hazards. *)
  let init_size = if full then 1_024 else 512 in
  let shard_counts = match !service_shards with Some n -> [ n ] | None -> [ 2; 8 ] in
  let batched_b = 32 in
  let rows =
    List.concat_map
      (fun sname ->
        List.map
          (fun shards ->
            let run batch =
              (* Deep pipeline keeps the shards' rings full so shard-side
                 protocol cost — the thing batching amortizes — is the
                 bottleneck rather than client pacing. Zipf keys are the
                 service-shaped skew that lets persisted announcements pay
                 off: within a batch window the hot nodes' hazards/margins
                 stay published, so repeated reads hit the own-slot mirror
                 and skip the fence; at B=1 every request tears them down
                 and republishes. *)
              run_service sname ~shards ~batch ~zipf:0.99 ~mget:16
                ~mode:(Loadgen.Closed { pipeline = 128 })
                ~read_pct ~insert_pct ~init_size
            in
            let ((_, lg1) as run1) = run 1 in
            let ((sb, lgb) as runb) = run batched_b in
            let stb = sb.Scenario.stats in
            let pct q = string_of_int (Mp_util.Histogram.percentile_ns lgb.Loadgen.latency q) in
            [
              sname;
              string_of_int shards;
              served_tput run1;
              served_tput runb;
              Printf.sprintf "%.2fx" (lgb.Loadgen.throughput /. lg1.Loadgen.throughput);
              Printf.sprintf "%.1f"
                (if stb.Mp_service.Service.batches = 0 then 0.0
                 else
                   float_of_int stb.Mp_service.Service.ops
                   /. float_of_int stb.Mp_service.Service.batches);
              pct 50.0;
              pct 99.0;
              pct 99.9;
              string_of_int sb.Scenario.wasted_peak;
            ])
          shard_counts)
      [ "mp"; "hp"; "ibr"; "ebr" ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Service: sharded request layer, hash read-heavy Zipf(0.99) mget=16 (S=%d, closed loop, B=%d vs 1)"
         init_size batched_b)
    ~header:
      [ "scheme"; "shards"; "B=1"; "B=32"; "speedup"; "avg batch";
        "p50"; "p99"; "p99.9"; "wasted peak" ]
    rows;
  (* One open-loop (Poisson) row: latency measured from scheduled arrival
     (coordinated-omission corrected), drops reported instead of hidden. *)
  let shards = match !service_shards with Some n -> n | None -> 2 in
  let _, lg =
    run_service "mp" ~shards ~batch:batched_b ~mget:16
      ~mode:(Loadgen.Open { rate = 50_000.0; window = 64 })
      ~read_pct ~insert_pct ~init_size
  in
  let pct q = string_of_int (Mp_util.Histogram.percentile_ns lg.Loadgen.latency q) in
  Report.table
    ~title:"Service: open-loop (Poisson, 50K/s per client) — coordinated-omission corrected"
    ~header:[ "scheme"; "shards"; "completed/s"; "drops"; "ring full"; "p50"; "p99"; "p99.9" ]
    [
      [
        "mp"; string_of_int shards;
        Report.fmt_throughput lg.Loadgen.throughput;
        string_of_int lg.Loadgen.drops;
        string_of_int lg.Loadgen.ring_full;
        pct 50.0; pct 99.0; pct 99.9;
      ];
    ]

(* -- Extension: elastic pool spike/decay ----------------------------------- *)

(* Spike/decay through the sharded service over an elastic pool
   (max_arenas = 4, one arena far smaller than the spike's working set),
   with the autoscale policy domain armed. The spike phase is
   insert-heavy open-loop: the pool must grow on demand, absorbing
   transient exhaustion as alloc stalls and never replying OOM below
   max_arenas. The decay phase is remove-heavy: the autoscale target
   falls and the drains it requests must bring the footprint back. The
   scenario's post-stop settle completes any drain still pending, so the
   reported residency is the steady decayed state. One spike row and one
   decay row per scheme land in the JSON (mix names svc_elastic_spike /
   svc_elastic_decay), each with its own phase's counters; the arena
   counters are the end-state ones. *)
let run_elastic sname =
  let shards = match !service_shards with Some n -> n | None -> 2 in
  (* 1.5 arenas of keys: the spike's working set cannot fit arena 0, and
     two arenas of headroom keep transients clear of hard exhaustion. *)
  let capacity = 4096 in
  let phase ~duration_s ~rate ~read_pct ~insert_pct ~seed =
    {
      Loadgen.clients = 2;
      duration_s;
      warmup_s = 0.0;
      read_pct;
      insert_pct;
      mget = 1;
      key_range = capacity * 3 / 2;
      zipf_alpha = None;
      seed;
      mode = Loadgen.Open { rate; window = 32 };
      deadline_s = 0.0;
      max_retries = 0;
    }
  in
  let r =
    Scenario.run
      {
        Scenario.scheme = Instances.scheme_of_name sname;
        shards;
        spare_tids = None;
        batch = 8;
        ring_capacity = 1024;
        capacity;
        max_arenas = 4;
        prefill = Scenario.Even 256;
        check_access = false;
        plan = None;
        phases =
          [
            phase ~duration_s:(if full then 2.0 else 0.8) ~rate:60_000.0 ~read_pct:5
              ~insert_pct:90 ~seed:0xE1A5;
            phase ~duration_s:(if full then 3.0 else 1.2) ~rate:40_000.0 ~read_pct:20
              ~insert_pct:0 ~seed:0xDECA;
          ];
      }
  in
  List.iter2 (fun mix p -> record_phase sname ~shards ~mix r p)
    [ "svc_elastic_spike"; "svc_elastic_decay" ] r.Scenario.phases;
  r

let elastic () =
  let rows =
    List.map
      (fun sname ->
        let r = run_elastic sname in
        let st = r.Scenario.stats in
        let tput (p : Scenario.phase) = Report.fmt_throughput p.Scenario.lg.Loadgen.throughput in
        let spike = List.hd r.Scenario.phases and decay = List.nth r.Scenario.phases 1 in
        let open Mp_service.Service in
        [
          sname;
          string_of_int r.Scenario.peak_arenas;
          string_of_int spike.Scenario.arenas_at_end;
          string_of_int r.Scenario.arenas_attached;
          string_of_int r.Scenario.arenas_detached;
          string_of_int r.Scenario.resident_slots;
          string_of_int st.live_peak;
          string_of_int st.alloc_stalls;
          string_of_int st.oom;
          tput spike;
          tput decay;
        ])
      [ "mp"; "hp"; "ebr"; "he"; "ibr" ]
  in
  Report.table
    ~title:
      "Elastic pool: spike/decay through the service (cap 4096/arena, max 4 arenas, \
       autoscale on; residency after settle)"
    ~header:
      [ "scheme"; "peak arenas"; "at spike end"; "grows"; "detaches"; "resident";
        "live peak"; "stalls"; "oom"; "spike tput"; "decay tput" ]
    rows

(* -- Extension: pipelined transport (chained rings, socket front-end) ------ *)

(* --socket PATH points the transport experiment at a running mpserver's
   Unix socket (the CI smoke job does); without it the sweep runs over
   the in-process rings. *)
let socket_path : string option ref = ref None

(* Socket mode: closed-loop pipelined batches of text commands against a
   running mpserver, swept over the pipelining depth. The rows carry what
   the client measures (ops, throughput, OOM replies, latency); the
   server-side counters live in the server's own exit stats line. *)
let transport_socket path =
  let rows =
    List.map
      (fun chain ->
        let lg =
          Loadgen.run_socket ~path
            {
              Loadgen.clients = 2;
              duration_s = Float.max duration_s 1.0;
              warmup_s = Float.min !warmup 0.2;
              read_pct = 90;
              insert_pct = 5;
              mget = 1;
              key_range = 8192;
              zipf_alpha = None;
              seed = 0xBEEF;
              mode = Loadgen.Chained { chain };
              deadline_s = 0.0;
              max_retries = 0;
            }
        in
        record ~ds:"socket" ~scheme:"socket"
          (Report.
             [ ("threads", Int 2); ("mix", Str (Printf.sprintf "sock_90r5i_c%d" chain));
               ("total_ops", Int lg.Loadgen.completed); ("throughput", Float lg.Loadgen.throughput);
               ("oom", Bool (lg.Loadgen.oom > 0)) ]
          @ Report.latency (Some lg.Loadgen.latency));
        let pct q = string_of_int (Mp_util.Histogram.percentile_ns lg.Loadgen.latency q) in
        [
          string_of_int chain;
          Report.fmt_throughput lg.Loadgen.throughput;
          (if lg.Loadgen.throughput > 0.0 then
             Printf.sprintf "%.0f" (1e9 /. lg.Loadgen.throughput)
           else "-");
          string_of_int lg.Loadgen.rejected;
          pct 50.0;
          pct 99.0;
          pct 99.9;
        ])
      [ 1; 8; 32 ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Transport (socket): mpserver at %s, 2 clients, 90r/5i single-key, pipelined batches"
         path)
    ~header:[ "pipeline"; "ops/s"; "ns/op"; "errors"; "p50"; "p99"; "p99.9" ]
    rows

(* In-process: the chained-ring sweep. Single-key read-heavy closed loop
   at 8 clients, chain depth x batch ceiling: chain=1 is a window of
   1-chains (the baseline the chained rows are measured against), and
   the 16-key multi-get row is the amortization reference the chained
   transport must approach. *)
let transport_inproc () =
  let read_pct = 98 and insert_pct = 1 in
  let init_size = if full then 1_024 else 512 in
  let shards = match !service_shards with Some n -> n | None -> 2 in
  let clients = 8 in
  let run sname ~chain ~batch =
    (* chain=1 keeps a window of 8 1-chains in flight (requests in
       flight is what that path has instead of chains); chained clients
       run one batch of [chain] per round through [Service.execute]. *)
    let mode =
      if chain > 1 then Loadgen.Chained { chain }
      else Loadgen.Closed { pipeline = 8 }
    in
    run_service sname ~shards ~batch ~zipf:0.99 ~mode ~clients ~read_pct ~insert_pct ~init_size
  in
  let rows =
    List.concat_map
      (fun sname ->
        (* PR 5's in-process amortization reference: 16-key multi-gets
           from a window of 1-chains. *)
        let _, mget_ref =
          run_service sname ~shards ~batch:32 ~zipf:0.99 ~mget:16
            ~mode:(Loadgen.Closed { pipeline = 128 })
            ~clients:2 ~read_pct ~insert_pct ~init_size
        in
        let base = ref 0.0 in
        List.map
          (fun chain ->
            let ((_, lg1) as run1) = run sname ~chain ~batch:1 in
            let ((s32, lg32) as run32) = run sname ~chain ~batch:32 in
            let tput32 = lg32.Loadgen.throughput in
            if chain = 1 then base := tput32;
            [
              sname;
              string_of_int chain;
              served_tput run1;
              served_tput run32;
              Printf.sprintf "%.2fx" (tput32 /. lg1.Loadgen.throughput);
              (if tput32 > 0.0 then Printf.sprintf "%.0f" (1e9 /. tput32) else "-");
              Printf.sprintf "%.2fx" (tput32 /. !base);
              Printf.sprintf "%.2fx" (tput32 /. mget_ref.Loadgen.throughput);
              string_of_int (Mp_util.Histogram.percentile_ns lg32.Loadgen.latency 99.9);
              string_of_int s32.Scenario.wasted_peak;
            ])
          [ 1; 8; 32; 64; 128 ])
      [ "mp"; "hp"; "ibr"; "ebr" ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Transport: chained ring submit/drain, hash 98r1i Zipf(0.99) single-key (%d clients, %d shards; chain=1 = window of 1-chains)"
         clients shards)
    ~header:
      [ "scheme"; "chain"; "B=1"; "B=32"; "B spdup"; "ns/op";
        "vs chain1"; "vs mget16"; "p99.9"; "wasted peak" ]
    rows

let transport () =
  match !socket_path with
  | Some path -> transport_socket path
  | None -> transport_inproc ()

(* -- driver ---------------------------------------------------------------- *)

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7a", fig7a);
    ("fig7bc", fig7bc);
    ("stall", stall);
    ("crash", crash);
    ("micro", micro);
    ("pipe", pipe);
    ("alloc", alloc_telemetry);
    ("ablation-index", ablation_index);
    ("ablation-epoch", ablation_epoch);
    ("ext-zipf", ext_zipf);
    ("ext-hash", ext_hash);
    ("ext-queue", ext_queue);
    ("latency", latency);
    ("service", service);
    ("elastic", elastic);
    ("transport", transport);
  ]

let () =
  (* Pull "--json FILE" / "--warmup SECS" out of argv; what remains
     selects experiments. *)
  let rec strip_opts = function
    | "--json" :: file :: rest ->
      json_path := Some file;
      strip_opts rest
    | "--warmup" :: secs :: rest ->
      (match float_of_string_opt secs with
      | Some w when w >= 0.0 -> warmup := w
      | _ -> Printf.eprintf "ignoring bad --warmup %S\n" secs);
      strip_opts rest
    | "--shards" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > 0 -> service_shards := Some n
      | _ -> Printf.eprintf "ignoring bad --shards %S\n" n);
      strip_opts rest
    | "--socket" :: path :: rest ->
      socket_path := Some path;
      strip_opts rest
    | arg :: rest -> arg :: strip_opts rest
    | [] -> []
  in
  let args = strip_opts (List.tl (Array.to_list Sys.argv)) in
  let requested =
    match args with
    | [] | [ "all" ] -> List.map fst experiments
    | names -> names
  in
  Printf.printf "margin-pointers benchmark suite (%s scale)\n%!"
    (if full then "full" else "quick");
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        current_experiment := name;
        f ();
        Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t0)
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" name
          (String.concat ", " (List.map fst experiments)))
    requested;
  write_json ()
