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
module Instances = Mp_harness.Instances

let full = Sys.getenv_opt "MP_BENCH_FULL" <> None

(* -- machine-readable sink: --json FILE (or MP_BENCH_JSON=FILE) ----------- *)

(* Every Runner.result produced by the suite is also recorded, labelled
   with its experiment/structure/scheme, and dumped as a JSON array at
   exit so the perf trajectory is diffable across commits. *)
let json_path = ref (Sys.getenv_opt "MP_BENCH_JSON")

(* --warmup SECS: per-run warmup window (real workload, excluded from
   every reported metric — ops, GC words, fences, wasted samples). *)
let warmup = ref 0.5
let json_results : (string * string * string * Runner.result) list ref = ref []
let current_experiment = ref ""

let note ~ds ~scheme (r : Runner.result) =
  if !json_path <> None then
    json_results := (!current_experiment, ds, scheme, r) :: !json_results;
  r

let write_json () =
  match !json_path with
  | None -> ()
  | Some path -> (
    try
      let oc = open_out path in
      output_string oc (Runner.results_to_json (List.rev !json_results));
      close_out oc;
      Printf.printf "[wrote %d results to %s]\n%!" (List.length !json_results) path
    with Sys_error msg -> Printf.eprintf "cannot write JSON: %s\n" msg)

(* Scaled-down defaults; the paper used 88 HTs, 5 s runs, S = 500K / 5K. *)
let thread_counts = if full then [ 1; 2; 4; 8; 16 ] else [ 1; 2; 4; 8 ]
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

let spec ?margin ~threads ~init_size ~mix () =
  let config = Config.default ~threads in
  let config =
    match margin with Some m -> Config.with_margin config m | None -> config
  in
  { (Runner.default ~threads ~init_size ~mix ~config) with
    Runner.duration_s;
    warmup_s = !warmup;
  }

let ds_name = function
  | Instances.List_ds -> "list"
  | Instances.Skiplist_ds -> "skiplist"
  | Instances.Bst_ds -> "bst"
  | Instances.Hash_ds -> "hash"

let run_ds ?margin ds ~threads ~init_size ~mix scheme_name =
  note ~ds:(ds_name ds) ~scheme:scheme_name
    (Runner.run (Instances.make ds (Instances.scheme_of_name scheme_name))
       (spec ?margin ~threads ~init_size ~mix ()))

let run_dta ~threads ~init_size ~mix =
  note ~ds:"list" ~scheme:"dta"
    (Runner.run (module Dstruct.Dta_list.As_set) (spec ~threads ~init_size ~mix ()))

let fmt_result (r : Runner.result) =
  Report.fmt_throughput r.Runner.throughput ^ if r.Runner.oom then "*" else ""

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

let throughput_figure ~title ~ds ~init_size ~gaps ~with_dta () =
  let margin = margin_for ~init_size ~gaps in
  List.iter
    (fun mix ->
      let header =
        ("threads" :: figure_schemes) @ if with_dta then [ "dta" ] else []
      in
      let rows =
        List.map
          (fun threads ->
            let cells =
              List.map
                (fun sname -> fmt_result (run_ds ~margin ds ~threads ~init_size ~mix sname))
                figure_schemes
            in
            let dta_cell =
              if with_dta then [ fmt_result (run_dta ~threads ~init_size ~mix) ] else []
            in
            (string_of_int threads :: cells) @ dta_cell)
          thread_counts
      in
      Report.table
        ~title:(Printf.sprintf "%s — %s (ops/s)" title mix.Workload.name)
        ~header rows)
    Workload.all

let fig2 () =
  throughput_figure
    ~title:(Printf.sprintf "Figure 2: NM BST throughput (S=%d)" tree_size)
    ~ds:Instances.Bst_ds ~init_size:tree_size ~gaps:128 ~with_dta:false ()

let fig3 () =
  throughput_figure
    ~title:(Printf.sprintf "Figure 3: skip list throughput (S=%d)" tree_size)
    ~ds:Instances.Skiplist_ds ~init_size:tree_size ~gaps:128 ~with_dta:false ()

let fig4 () =
  throughput_figure
    ~title:(Printf.sprintf "Figure 4: linked list throughput (S=%d)" list_size)
    ~ds:Instances.List_ds ~init_size:list_size ~gaps:2 ~with_dta:true ()

(* -- Figure 5: memory fences per traversed node (MP vs HP, read-only) ---- *)

let fig5 () =
  let threads = List.fold_left max 1 thread_counts in
  let rows =
    List.map
      (fun (ds_name, ds, init_size, gaps) ->
        let fences sname =
          let margin = margin_for ~init_size ~gaps in
          let r = run_ds ~margin ds ~threads ~init_size ~mix:Workload.read_only sname in
          Printf.sprintf "%.3f" r.Runner.fences_per_node
        in
        [ ds_name; fences "mp"; fences "hp" ])
      [
        ("bst", Instances.Bst_ds, tree_size, 128);
        ("skiplist", Instances.Skiplist_ds, tree_size, 128);
        ("list", Instances.List_ds, list_size, 2);
      ]
  in
  Report.table
    ~title:
      (Printf.sprintf "Figure 5: fences per traversed node, read-only, %d threads" threads)
    ~header:[ "structure"; "mp"; "hp" ] rows

(* -- Figure 6: wasted memory, read-dominated ------------------------------ *)

let fig6 () =
  List.iter
    (fun (ds_name, ds, init_size, gaps) ->
      let margin = margin_for ~init_size ~gaps in
      let header = "threads" :: figure_schemes in
      let rows =
        List.map
          (fun threads ->
            string_of_int threads
            :: List.map
                 (fun sname ->
                   let r =
                     run_ds ~margin ds ~threads ~init_size ~mix:Workload.read_dominated sname
                   in
                   Printf.sprintf "%.0f" r.Runner.wasted_avg)
                 figure_schemes)
          thread_counts
      in
      Report.table
        ~title:
          (Printf.sprintf "Figure 6 (%s): avg retired-but-unreclaimed nodes, read-dominated"
             ds_name)
        ~header rows)
    [
      ("bst", Instances.Bst_ds, tree_size, 128);
      ("skiplist", Instances.Skiplist_ds, tree_size, 128);
      ("list", Instances.List_ds, list_size, 2);
    ]

(* -- Figure 7a: ascending-key list, MP vs HP (index-collision worst case) - *)

let fig7a () =
  let header = [ "threads"; "mp"; "hp" ] in
  let rows =
    List.map
      (fun threads ->
        let run sname =
          let config = Config.default ~threads in
          let s =
            {
              (Runner.default ~threads ~init_size:list_size ~mix:Workload.read_only ~config) with
              Runner.duration_s;
              warmup_s = !warmup;
              init = Workload.Ascending_init;
              key_range = list_size;
            }
          in
          fmt_result
            (note ~ds:"list" ~scheme:sname
               (Runner.run (Instances.make Instances.List_ds (Instances.scheme_of_name sname)) s))
        in
        [ string_of_int threads; run "mp"; run "hp" ])
      thread_counts
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Figure 7a: list built by ascending insertion (all indices collide), read-only (S=%d)"
         list_size)
    ~header rows

(* -- Figures 7b/7c: margin-size sensitivity ------------------------------- *)

let fig7bc () =
  let threads = List.fold_left max 1 thread_counts in
  let margins = List.init 10 (fun i -> 17 + i) in
  let rows =
    List.map
      (fun log2m ->
        let config = Config.with_margin (Config.default ~threads) (1 lsl log2m) in
        let s =
          {
            (Runner.default ~threads ~init_size:tree_size ~mix:Workload.write_dominated ~config) with
            Runner.duration_s;
            warmup_s = !warmup;
          }
        in
        let r = note ~ds:"bst" ~scheme:"mp" (Runner.run (Instances.make Instances.Bst_ds Instances.mp) s) in
        [
          Printf.sprintf "2^%d" log2m;
          fmt_result r;
          Printf.sprintf "%.0f" r.Runner.wasted_avg;
          string_of_int r.Runner.wasted_max;
        ])
      margins
  in
  Report.table
    ~title:
      (Printf.sprintf "Figures 7b/7c: margin sensitivity, BST write-dominated, %d threads (S=%d)"
         threads tree_size)
    ~header:[ "margin"; "throughput"; "wasted avg"; "wasted max" ]
    rows

(* -- Stall experiment: deterministic robustness comparison ---------------- *)

(* The watchdog evaluates the scheme's declared waste bound (Table 1)
   against the live counter while the fault plan runs. *)
let watchdog_for sname ~config ~threads ~size_at_arm =
  let (module S : Smr_core.Smr_intf.S) = Instances.scheme_of_name sname in
  Mp_harness.Watchdog.spec_for ~scheme:sname ~properties:S.properties ~config ~threads
    ~size_at_arm ()

let fmt_verdict (r : Runner.result) =
  match r.Runner.watchdog with
  | None -> "-"
  | Some v -> Mp_harness.Watchdog.to_string v

(* Unlike the legacy op-boundary pause (Runner.stall), the fault plan
   stalls tid 0 *inside* the protect/validate window — reservation
   published, not yet validated — the exact schedule the robustness
   theorems quantify over. *)
let stall () =
  let threads = 4 in
  let rows =
    List.map
      (fun sname ->
        let config = Config.default ~threads in
        let s =
          {
            (Runner.default ~threads ~init_size:list_size ~mix:Workload.write_dominated ~config) with
            Runner.duration_s = duration_s *. 2.0;
            warmup_s = !warmup;
            faults =
              Some
                (Mp_util.Fault.plan ~label:"bench-stall"
                   [
                     Mp_util.Fault.stall_event ~tid:0 ~point:Mp_util.Fault.Protect_validate
                       ~after_hits:50 ~every:200 ~pause:0.02 ();
                   ]);
            watchdog = Some (watchdog_for sname ~config ~threads ~size_at_arm:(2 * 2 * list_size));
          }
        in
        let r =
          note ~ds:"list" ~scheme:sname
            (Runner.run (Instances.make Instances.List_ds (Instances.scheme_of_name sname)) s)
        in
        [
          sname;
          fmt_result r;
          Printf.sprintf "%.0f" r.Runner.wasted_avg;
          string_of_int r.Runner.wasted_max;
          string_of_int r.Runner.wasted_peak;
          fmt_verdict r;
        ])
      [ "mp"; "hp"; "ibr"; "he"; "ebr" ]
  in
  Report.table
    ~title:
      "Stall injection: list write-dominated, tid 0 sleeping inside the protect/validate window"
    ~header:[ "scheme"; "throughput"; "wasted avg"; "wasted max"; "wasted peak"; "watchdog" ]
    rows

(* -- Crash experiment: the dead-thread scenario of §4.4 ------------------- *)

(* One domain dies mid-protect — reservation published, never cleared,
   never cleared up — while the rest keep churning. Bounded schemes (MP,
   HP) must hold their predetermined waste bound anyway; robust schemes
   hold a size-at-crash bound; EBR's waste grows with the churn (the
   watchdog records the expected violation of the reference envelope). *)
let crash () =
  let threads = 4 in
  let rows =
    List.map
      (fun sname ->
        let config = Config.default ~threads in
        let s =
          {
            (Runner.default ~threads ~init_size:list_size ~mix:Workload.write_dominated ~config) with
            Runner.duration_s = duration_s *. 2.0;
            warmup_s = !warmup;
            faults =
              Some
                (Mp_util.Fault.plan ~label:"bench-crash"
                   [
                     Mp_util.Fault.crash_event ~tid:0 ~point:Mp_util.Fault.Protect_validate
                       ~after_hits:1_000;
                   ]);
            watchdog = Some (watchdog_for sname ~config ~threads ~size_at_arm:(2 * 2 * list_size));
          }
        in
        let r =
          note ~ds:"list" ~scheme:sname
            (Runner.run (Instances.make Instances.List_ds (Instances.scheme_of_name sname)) s)
        in
        [
          sname;
          fmt_result r;
          string_of_int r.Runner.wasted_max;
          string_of_int r.Runner.wasted_peak;
          String.concat "," (List.map string_of_int r.Runner.crashed);
          String.concat "," (List.map string_of_int r.Runner.pinning_tids);
          fmt_verdict r;
        ])
      [ "mp"; "hp"; "ibr"; "he"; "ebr" ]
  in
  Report.table
    ~title:
      "Crash injection: list write-dominated, tid 0 dies inside the protect/validate window"
    ~header:[ "scheme"; "throughput"; "wasted max"; "wasted peak"; "crashed"; "pinning"; "watchdog" ]
    rows

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
  let t_start = Unix.gettimeofday () in
  Unix.sleepf duration;
  Atomic.set stop true;
  let elapsed = Unix.gettimeofday () -. t_start in
  Array.iter Domain.join domains;
  let total_ops = Array.fold_left ( + ) 0 ops in
  let throughput = float_of_int total_ops /. elapsed in
  let alloc_words = ref 0.0 and promoted = ref 0.0 and minor_gcs = ref 0 in
  for tid = 0 to threads - 1 do
    let before = gc_before.(tid) and after = gc_after.(tid) in
    alloc_words := !alloc_words +. Mp_util.Gcstat.alloc_words ~before ~after;
    promoted := !promoted +. Mp_util.Gcstat.promoted_words ~before ~after;
    minor_gcs := !minor_gcs + Mp_util.Gcstat.minor_collections ~before ~after
  done;
  if Mempool.Core.live_count pool <> 0 then
    failwith "pipe: slots leaked across the transfer path";
  (total_ops, throughput, !alloc_words, !promoted, !minor_gcs)

let pipe_result ~pairs ~total_ops ~throughput ~alloc_words ~promoted ~minor_gcs :
    Runner.result =
  let per_op x = if total_ops = 0 then 0.0 else x /. float_of_int total_ops in
  {
    Runner.spec_threads = 2 * pairs;
    mix_name = "alloc_free_pipe";
    total_ops;
    throughput;
    wasted_avg = 0.0;
    wasted_max = 0;
    wasted_peak = 0;
    fences = 0;
    traversed = 0;
    fences_per_node = 0.0;
    scan_passes = 0;
    scan_time_s = 0.0;
    violations = 0;
    oom = false;
    alloc_stalls = 0;
    ring_full = 0;
    deadline_exceeded = 0;
    crashed = [];
    pinning_tids = [];
    watchdog = None;
    final_size = 0;
    latency = None;
    alloc_words_per_op = per_op alloc_words;
    promoted_words_per_op = per_op promoted;
    minor_gcs;
    arenas_attached = 0;
    arenas_detached = 0;
    resident_slots = 0;
  }

let pipe () =
  let rows =
    List.map
      (fun pairs ->
        (* Scheduler noise on an oversubscribed host is the dominant
           variance source; give the pipe a slightly longer window than
           the quick-scale default. *)
        let total_ops, throughput, alloc_words, promoted, minor_gcs =
          run_pipe ~pairs ~duration:(Float.max duration_s 0.7)
        in
        let r =
          note ~ds:"mempool" ~scheme:"chained"
            (pipe_result ~pairs ~total_ops ~throughput ~alloc_words ~promoted ~minor_gcs)
        in
        [
          string_of_int (2 * pairs);
          Report.fmt_throughput r.Runner.throughput;
          Report.fmt_words_per_op r.Runner.alloc_words_per_op;
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
  let threads = 1 in
  let rows =
    List.concat_map
      (fun (name, ds, init_size, gaps) ->
        List.map
          (fun sname ->
            let margin = margin_for ~init_size ~gaps in
            let r = run_ds ~margin ds ~threads ~init_size ~mix:Workload.read_only sname in
            [
              name;
              sname;
              fmt_result r;
              Report.fmt_words_per_op r.Runner.alloc_words_per_op;
              Report.fmt_words_per_op r.Runner.promoted_words_per_op;
              string_of_int r.Runner.minor_gcs;
            ])
          ("none" :: figure_schemes))
      [
        ("list", Instances.List_ds, list_size, 2);
        ("skiplist", Instances.Skiplist_ds, tree_size, 128);
        ("bst", Instances.Bst_ds, tree_size, 128);
        ("hash", Instances.Hash_ds, tree_size, 128);
      ]
  in
  Report.table
    ~title:"Alloc: GC words per read-only operation (1 thread; 0.00 = allocation-free)"
    ~header:[ "structure"; "scheme"; "throughput"; "words/op"; "promoted/op"; "minor GCs" ]
    rows

(* -- Extension: index-assignment policy ablation (paper §4.1 future work) *)

let ablation_index () =
  let policies =
    [ ("midpoint", Config.Midpoint); ("golden", Config.Golden); ("random", Config.Randomized) ]
  in
  (* Worst case (ascending insertion, Fig. 7a) and the default random
     workload, per policy: collision rate and read throughput. *)
  let rows =
    List.concat_map
      (fun (pname, policy) ->
        List.map
          (fun (iname, init) ->
            let threads = 2 in
            let config =
              Config.with_index_policy (Config.default ~threads) policy
              |> fun c -> Config.with_margin c (margin_for ~init_size:list_size ~gaps:2)
            in
            let s =
              {
                (Runner.default ~threads ~init_size:list_size ~mix:Workload.read_only ~config) with
                Runner.duration_s;
                warmup_s = !warmup;
                init;
                key_range = (match init with Workload.Ascending_init -> list_size | _ -> 2 * list_size);
              }
            in
            let r = note ~ds:"list" ~scheme:"mp" (Runner.run (Instances.make Instances.List_ds Instances.mp) s) in
            let st_fences = Printf.sprintf "%.3f" r.Runner.fences_per_node in
            [ pname; iname; fmt_result r; st_fences ])
          [ ("ascending", Workload.Ascending_init); ("random", Workload.Uniform_init) ])
      policies
  in
  Report.table
    ~title:"Ablation: MP index-assignment policy (list, read-only after build)"
    ~header:[ "policy"; "insertion order"; "throughput"; "fences/node" ]
    rows

(* -- Extension: epoch advance per unlink (paper §4.4 future work) --------- *)

let ablation_epoch () =
  (* "If we advance the global epochs on every node unlink (as in HE), the
     per-thread bound improves to #HP + O(#MP × M)" — measure the waste /
     overhead trade-off of the epoch frequency under an injected stall. *)
  let threads = 4 in
  let rows =
    List.map
      (fun (label, freq) ->
        let config = Config.with_epoch_freq (Config.default ~threads) freq in
        let s =
          {
            (Runner.default ~threads ~init_size:list_size ~mix:Workload.write_dominated ~config) with
            Runner.duration_s;
            warmup_s = !warmup;
            stall = Some { Runner.stall_tid = 0; every_ops = 100; pause_s = 0.02 };
          }
        in
        let r = note ~ds:"list" ~scheme:"mp" (Runner.run (Instances.make Instances.List_ds Instances.mp) s) in
        [
          label;
          fmt_result r;
          Printf.sprintf "%.0f" r.Runner.wasted_avg;
          string_of_int r.Runner.wasted_max;
        ])
      [
        ("every unlink (F=1)", 1);
        ("F=10", 10);
        ("F=150", 150);
        (Printf.sprintf "paper default (F=150T=%d)" (150 * threads), 150 * threads);
      ]
  in
  Report.table
    ~title:"Ablation: MP epoch-advance frequency under an injected stall (list, write-dominated)"
    ~header:[ "epoch freq"; "throughput"; "wasted avg"; "wasted max" ]
    rows

(* -- Extension: key-distribution sensitivity ------------------------------ *)

let ext_zipf () =
  (* §6 "Key Distribution & MP Index Collisions": MP's margin efficacy
     depends on how keys are laid out in the structure, not on the query
     distribution — zipfian queries over a uniformly-built tree should
     perform like uniform queries. *)
  let threads = 4 in
  let rows =
    List.concat_map
      (fun sname ->
        List.map
          (fun (dist, alpha) ->
            let margin = margin_for ~init_size:tree_size ~gaps:128 in
            let config = Config.with_margin (Config.default ~threads) margin in
            let s =
              {
                (Runner.default ~threads ~init_size:tree_size ~mix:Workload.read_dominated
                   ~config)
                with
                Runner.duration_s;
                warmup_s = !warmup;
                zipf_alpha = alpha;
              }
            in
            let r =
              note ~ds:"bst" ~scheme:sname
                (Runner.run (Instances.make Instances.Bst_ds (Instances.scheme_of_name sname)) s)
            in
            [ sname; dist; fmt_result r; Printf.sprintf "%.3f" r.Runner.fences_per_node ])
          [ ("uniform", None); ("zipf a=0.99", Some 0.99); ("zipf a=1.5", Some 1.5) ])
      [ "mp"; "hp" ]
  in
  Report.table
    ~title:"Extension: query-key skew (BST read-dominated) — MP overhead tracks layout, not queries"
    ~header:[ "scheme"; "query dist"; "throughput"; "fences/node" ]
    rows

(* -- Extension: hash-table client (MP on a per-bucket-ordered structure) -- *)

let ext_hash () =
  let run_hash (module S : Smr_core.Smr_intf.S) name threads =
    let module H = Dstruct.Hash_table.Make (S) in
    let size = tree_size in
    let config = Config.default ~threads in
    let t = H.create ~threads ~capacity:((size * 4) + (threads * 65536)) ~buckets:1024 config in
    let s0 = H.session t ~tid:0 in
    let rng = Mp_util.Rng.create 7 in
    let inserted = ref 0 in
    while !inserted < size do
      if H.insert s0 ~key:(Mp_util.Rng.below rng (2 * size)) ~value:1 then incr inserted
    done;
    let stop = Atomic.make false in
    let ops = Array.make threads 0 in
    let domains =
      Array.init threads (fun tid ->
          Domain.spawn (fun () ->
              let s = H.session t ~tid in
              let rng = Mp_util.Rng.split ~seed:13 ~tid in
              let n = ref 0 in
              while not (Atomic.get stop) do
                let k = Mp_util.Rng.below rng (2 * size) in
                (match Mp_util.Rng.below rng 100 with
                | r when r < 90 -> ignore (H.contains s k : bool)
                | r when r < 95 -> ignore (H.insert s ~key:k ~value:k : bool)
                | _ -> ignore (H.remove s k : bool));
                incr n
              done;
              ops.(tid) <- !n))
    in
    Unix.sleepf duration_s;
    Atomic.set stop true;
    Array.iter Domain.join domains;
    let total = Array.fold_left ( + ) 0 ops in
    let st = H.smr_stats t in
    [
      name;
      string_of_int threads;
      Report.fmt_throughput (float_of_int total /. duration_s);
      string_of_int st.Smr_core.Smr_intf.wasted;
    ]
  in
  let rows =
    List.concat_map
      (fun threads ->
        [
          run_hash (module Mp.Margin_ptr) "mp" threads;
          run_hash (module Smr_schemes.Hp) "hp" threads;
          run_hash (module Smr_schemes.Ibr) "ibr" threads;
        ])
      [ 1; 4 ]
  in
  Report.table
    ~title:
      (Printf.sprintf "Extension: lock-free hash table (1024 buckets, S=%d, read-dominated)"
         tree_size)
    ~header:[ "scheme"; "threads"; "throughput"; "wasted" ]
    rows

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
  let threads = 4 in
  let rows =
    List.map
      (fun sname ->
        let margin = margin_for ~init_size:tree_size ~gaps:128 in
        let config = Config.with_margin (Config.default ~threads) margin in
        let s =
          {
            (Runner.default ~threads ~init_size:tree_size ~mix:Workload.read_dominated ~config) with
            Runner.duration_s = duration_s *. 2.0;
            warmup_s = !warmup;
            record_latency = true;
          }
        in
        let r =
          note ~ds:"bst" ~scheme:sname
            (Runner.run (Instances.make Instances.Bst_ds (Instances.scheme_of_name sname)) s)
        in
        match r.Runner.latency with
        | None -> [ sname; "-"; "-"; "-"; "-" ]
        | Some h ->
          let p q = Printf.sprintf "%d" (Mp_util.Histogram.percentile_ns h q) in
          [ sname; p 50.0; p 90.0; p 99.0; p 99.9 ])
      [ "mp"; "ibr"; "he"; "hp"; "ebr" ]
  in
  Report.table
    ~title:
      (Printf.sprintf "Extension: per-operation latency (ns), BST read-dominated, %d threads"
         threads)
    ~header:[ "scheme"; "p50"; "p90"; "p99"; "p99.9" ]
    rows

(* -- Extension: sharded request service with batched SMR ------------------- *)

(* --shards N restricts the shard sweep (the CI smoke job runs 2). *)
let service_shards : int option ref = ref None

(* One service run: an [Instances] structure sharded across N domains,
   driven by the closed- or open-loop load generator. The numbers are
   folded into a Runner.result so the service rows share the JSON schema
   (and the latency/waste fields) with every other experiment; fields
   the service cannot measure per-domain (GC words) report 0. *)
let run_service ?zipf ?(mget = 1) ?(clients = 2) ds sname ~shards
    ~batch ~mode ~read_pct ~insert_pct ~init_size =
  let module Service = Mp_service.Service in
  let module Loadgen = Mp_service.Loadgen in
  let (module SET : Dstruct.Set_intf.SET) =
    Instances.make ds (Instances.scheme_of_name sname)
  in
  let config = Config.default ~threads:shards in
  let capacity = (init_size * 4) + (shards * 65536) in
  let set = SET.create ~threads:shards ~capacity config in
  let s0 = SET.session set ~tid:0 in
  let rng = Mp_util.Rng.create 7 in
  let inserted = ref 0 in
  while !inserted < init_size do
    if SET.insert s0 ~key:(Mp_util.Rng.below rng (2 * init_size)) ~value:1 then incr inserted
  done;
  SET.flush s0;
  let stats0 = SET.smr_stats set in
  let traversed0 = SET.traversed set in
  let svc = Service.create (module SET) set ~shards ~batch ~ring_capacity:1024 in
  Service.start svc;
  (* The loadgen's ~2 ms tick doubles as the wasted-memory sampler. *)
  let wasted_sum = ref 0.0 and wasted_samples = ref 0 and wasted_max = ref 0 in
  let tick () =
    let w = (SET.smr_stats set).Smr_core.Smr_intf.wasted in
    wasted_sum := !wasted_sum +. float_of_int w;
    incr wasted_samples;
    if w > !wasted_max then wasted_max := w
  in
  let lg =
    Loadgen.run ~tick svc
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
      }
  in
  Service.stop svc;
  let st = Service.stats svc in
  let stats1 = SET.smr_stats set in
  let traversed = SET.traversed set - traversed0 in
  let fences = stats1.Smr_core.Smr_intf.fences - stats0.Smr_core.Smr_intf.fences in
  let r =
    {
      Runner.spec_threads = shards;
      mix_name =
        Printf.sprintf "svc_%s_%dr%di%s%s_B%d"
          (match mode with Loadgen.Open _ -> "open" | Loadgen.Closed _ | Loadgen.Chained _ -> "closed")
          read_pct insert_pct
          (if mget > 1 then Printf.sprintf "_m%d" mget else "")
          (match mode with Loadgen.Chained { chain } -> Printf.sprintf "_c%d" chain | _ -> "")
          batch;
      total_ops = lg.Loadgen.completed;
      throughput = lg.Loadgen.throughput;
      wasted_avg =
        (if !wasted_samples = 0 then 0.0
         else !wasted_sum /. float_of_int !wasted_samples);
      wasted_max = !wasted_max;
      wasted_peak = stats1.Smr_core.Smr_intf.wasted_peak;
      fences;
      traversed;
      fences_per_node =
        (if traversed = 0 then 0.0 else float_of_int fences /. float_of_int traversed);
      scan_passes =
        stats1.Smr_core.Smr_intf.scan_passes - stats0.Smr_core.Smr_intf.scan_passes;
      scan_time_s =
        stats1.Smr_core.Smr_intf.scan_time_s -. stats0.Smr_core.Smr_intf.scan_time_s;
      violations = SET.violations set;
      oom = st.Service.oom > 0;
      alloc_stalls = lg.Loadgen.drops;
      ring_full = lg.Loadgen.ring_full;
      deadline_exceeded = lg.Loadgen.deadline_exceeded;
      crashed = [];
      pinning_tids = SET.pinning_tids set;
      watchdog = None;
      final_size = SET.size set;
      latency = Some lg.Loadgen.latency;
      alloc_words_per_op = 0.0;
      promoted_words_per_op = 0.0;
      minor_gcs = 0;
      arenas_attached = Mempool.Core.arenas_attached (SET.pool set);
      arenas_detached = Mempool.Core.arenas_detached (SET.pool set);
      resident_slots = Mempool.Core.resident_slots (SET.pool set);
    }
  in
  (note ~ds:(ds_name ds) ~scheme:sname r, st)

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
              run_service Instances.Hash_ds sname ~shards ~batch
                ~zipf:0.99 ~mget:16
                ~mode:(Mp_service.Loadgen.Closed { pipeline = 128 })
                ~read_pct ~insert_pct ~init_size
            in
            let r1, _ = run 1 in
            let rb, stb = run batched_b in
            let pct h q = string_of_int (Mp_util.Histogram.percentile_ns h q) in
            let lat = Option.get rb.Runner.latency in
            [
              sname;
              string_of_int shards;
              fmt_result r1;
              fmt_result rb;
              Printf.sprintf "%.2fx" (rb.Runner.throughput /. r1.Runner.throughput);
              Printf.sprintf "%.1f"
                (if stb.Mp_service.Service.batches = 0 then 0.0
                 else
                   float_of_int stb.Mp_service.Service.ops
                   /. float_of_int stb.Mp_service.Service.batches);
              pct lat 50.0;
              pct lat 99.0;
              pct lat 99.9;
              string_of_int rb.Runner.wasted_peak;
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
  let r, _ =
    run_service Instances.Hash_ds "mp" ~shards ~batch:batched_b ~mget:16
      ~mode:(Mp_service.Loadgen.Open { rate = 50_000.0; window = 64 })
      ~read_pct ~insert_pct ~init_size
  in
  let lat = Option.get r.Runner.latency in
  let pct q = string_of_int (Mp_util.Histogram.percentile_ns lat q) in
  Report.table
    ~title:"Service: open-loop (Poisson, 50K/s per client) — coordinated-omission corrected"
    ~header:[ "scheme"; "shards"; "completed/s"; "drops"; "ring full"; "p50"; "p99"; "p99.9" ]
    [
      [
        "mp"; string_of_int shards;
        Report.fmt_throughput r.Runner.throughput;
        string_of_int r.Runner.alloc_stalls;
        string_of_int r.Runner.ring_full;
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
   falls and the drains it requests must bring the footprint back. A
   post-stop settle sweep completes any drain still pending, so the
   reported residency is the steady decayed state. One spike row and one
   decay row per scheme land in the JSON (mix names svc_elastic_spike /
   svc_elastic_decay); the decay row's arena counters are the end-state
   ones. *)
let run_elastic sname =
  let module Service = Mp_service.Service in
  let module Loadgen = Mp_service.Loadgen in
  let (module SET : Dstruct.Set_intf.SET) =
    Instances.make Instances.Hash_ds (Instances.scheme_of_name sname)
  in
  let shards = match !service_shards with Some n -> n | None -> 2 in
  let capacity = 4096 and max_arenas = 4 in
  (* 1.5 arenas of keys: the spike's working set cannot fit arena 0, and
     two arenas of headroom keep transients clear of hard exhaustion. *)
  let range = capacity * 3 / 2 in
  let config = Config.with_max_arenas (Config.default ~threads:shards) max_arenas in
  let set = SET.create ~threads:shards ~capacity config in
  let pool = SET.pool set in
  let s0 = SET.session set ~tid:0 in
  for k = 0 to 255 do
    ignore (SET.insert s0 ~key:(k * 2) ~value:k : bool)
  done;
  SET.flush s0;
  let stats0 = SET.smr_stats set in
  let traversed0 = SET.traversed set in
  let svc =
    Service.create ~autoscale:Service.default_autoscale
      (module SET)
      set ~shards ~batch:8 ~ring_capacity:1024
  in
  Service.start svc;
  let peak_arenas = ref (Mempool.Core.attached_arenas pool) in
  let wasted_sum = ref 0.0 and wasted_samples = ref 0 and wasted_max = ref 0 in
  let tick () =
    (* The draining arena's parked slots are waste until the detach. *)
    let w =
      (SET.smr_stats set).Smr_core.Smr_intf.wasted + Mempool.Core.detaching_slots pool
    in
    wasted_sum := !wasted_sum +. float_of_int w;
    incr wasted_samples;
    if w > !wasted_max then wasted_max := w;
    let n = Mempool.Core.attached_arenas pool in
    if n > !peak_arenas then peak_arenas := n
  in
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
        deadline_s = 0.0;
        max_retries = 0;
      }
  in
  let spike_s = if full then 2.0 else 0.8 in
  let decay_s = if full then 3.0 else 1.2 in
  let spike = phase ~duration_s:spike_s ~rate:60_000.0 ~read_pct:5 ~insert_pct:90 ~seed:0xE1A5 in
  let arenas_at_spike_end = Mempool.Core.attached_arenas pool in
  let decay = phase ~duration_s:decay_s ~rate:40_000.0 ~read_pct:20 ~insert_pct:0 ~seed:0xDECA in
  Service.stop svc;
  (* Settle: complete any drain still pending — the exiting workers have
     handed their magazines back, so a single-threaded remove sweep plus
     flush-driven scans gets every straggler parked and detached. *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let k = ref 0 in
  while Mempool.Core.attached_arenas pool > 1 && Unix.gettimeofday () < deadline do
    ignore (Mempool.Core.request_shrink pool : int option);
    for _ = 1 to 512 do
      ignore (SET.remove s0 !k : bool);
      k := (!k + 1) mod range
    done;
    SET.flush s0;
    Mempool.Core.release_local pool ~tid:0
  done;
  let st = Service.stats svc in
  let stats1 = SET.smr_stats set in
  let traversed = SET.traversed set - traversed0 in
  let fences = stats1.Smr_core.Smr_intf.fences - stats0.Smr_core.Smr_intf.fences in
  let mk (lg : Loadgen.result) name =
    {
      Runner.spec_threads = shards;
      mix_name = name;
      total_ops = lg.Loadgen.completed;
      throughput = lg.Loadgen.throughput;
      wasted_avg =
        (if !wasted_samples = 0 then 0.0
         else !wasted_sum /. float_of_int !wasted_samples);
      wasted_max = !wasted_max;
      wasted_peak = stats1.Smr_core.Smr_intf.wasted_peak;
      fences;
      traversed;
      fences_per_node =
        (if traversed = 0 then 0.0 else float_of_int fences /. float_of_int traversed);
      scan_passes =
        stats1.Smr_core.Smr_intf.scan_passes - stats0.Smr_core.Smr_intf.scan_passes;
      scan_time_s =
        stats1.Smr_core.Smr_intf.scan_time_s -. stats0.Smr_core.Smr_intf.scan_time_s;
      violations = SET.violations set;
      oom = st.Service.oom > 0;
      alloc_stalls = st.Service.alloc_stalls;
      ring_full = lg.Loadgen.ring_full;
      deadline_exceeded = lg.Loadgen.deadline_exceeded;
      crashed = [];
      pinning_tids = SET.pinning_tids set;
      watchdog = None;
      final_size = SET.size set;
      latency = Some lg.Loadgen.latency;
      alloc_words_per_op = 0.0;
      promoted_words_per_op = 0.0;
      minor_gcs = 0;
      arenas_attached = Mempool.Core.arenas_attached pool;
      arenas_detached = Mempool.Core.arenas_detached pool;
      resident_slots = Mempool.Core.resident_slots pool;
    }
  in
  let rs = note ~ds:(ds_name Instances.Hash_ds) ~scheme:sname (mk spike "svc_elastic_spike") in
  let rd = note ~ds:(ds_name Instances.Hash_ds) ~scheme:sname (mk decay "svc_elastic_decay") in
  (rs, rd, st, arenas_at_spike_end, !peak_arenas)

let elastic () =
  let rows =
    List.map
      (fun sname ->
        let rs, rd, st, at_spike_end, peak = run_elastic sname in
        let module Service = Mp_service.Service in
        [
          sname;
          string_of_int peak;
          string_of_int at_spike_end;
          string_of_int rd.Runner.arenas_attached;
          string_of_int rd.Runner.arenas_detached;
          string_of_int rd.Runner.resident_slots;
          string_of_int st.Service.live_peak;
          string_of_int st.Service.alloc_stalls;
          string_of_int st.Service.oom;
          Report.fmt_throughput rs.Runner.throughput;
          Report.fmt_throughput rd.Runner.throughput;
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
   running mpserver, swept over the pipelining depth. The rows share the
   JSON schema; SMR-side fields are 0 (they live in the server's own
   exit stats line). *)
let transport_socket path =
  let module Loadgen = Mp_service.Loadgen in
  let run chain =
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
    let r =
      {
        Runner.spec_threads = 2;
        mix_name = Printf.sprintf "sock_90r5i_c%d" chain;
        total_ops = lg.Loadgen.completed;
        throughput = lg.Loadgen.throughput;
        wasted_avg = 0.0;
        wasted_max = 0;
        wasted_peak = 0;
        fences = 0;
        traversed = 0;
        fences_per_node = 0.0;
        scan_passes = 0;
        scan_time_s = 0.0;
        violations = 0;
        oom = lg.Loadgen.oom > 0;
        alloc_stalls = 0;
        ring_full = 0;
        deadline_exceeded = 0;
        crashed = [];
        pinning_tids = [];
        watchdog = None;
        final_size = 0;
        latency = Some lg.Loadgen.latency;
        alloc_words_per_op = 0.0;
        promoted_words_per_op = 0.0;
        minor_gcs = 0;
        arenas_attached = 0;
        arenas_detached = 0;
        resident_slots = 0;
      }
    in
    (note ~ds:"socket" ~scheme:"socket" r, lg)
  in
  let rows =
    List.map
      (fun chain ->
        let r, lg = run chain in
        let lat = Option.get r.Runner.latency in
        let pct q = string_of_int (Mp_util.Histogram.percentile_ns lat q) in
        [
          string_of_int chain;
          Report.fmt_throughput r.Runner.throughput;
          (if r.Runner.throughput > 0.0 then
             Printf.sprintf "%.0f" (1e9 /. r.Runner.throughput)
           else "-");
          string_of_int lg.Mp_service.Loadgen.rejected;
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
      if chain > 1 then Mp_service.Loadgen.Chained { chain }
      else Mp_service.Loadgen.Closed { pipeline = 8 }
    in
    run_service Instances.Hash_ds sname ~shards ~batch ~zipf:0.99 ~mode ~clients
      ~read_pct ~insert_pct ~init_size
  in
  let rows =
    List.concat_map
      (fun sname ->
        (* PR 5's in-process amortization reference: 16-key multi-gets
           from a window of 1-chains. *)
        let mget_ref, _ =
          run_service Instances.Hash_ds sname ~shards ~batch:32 ~zipf:0.99
            ~mget:16
            ~mode:(Mp_service.Loadgen.Closed { pipeline = 128 })
            ~clients:2 ~read_pct ~insert_pct ~init_size
        in
        let base = ref 0.0 in
        List.map
          (fun chain ->
            let r1, _ = run sname ~chain ~batch:1 in
            let r32, _ = run sname ~chain ~batch:32 in
            if chain = 1 then base := r32.Runner.throughput;
            let lat = Option.get r32.Runner.latency in
            [
              sname;
              string_of_int chain;
              fmt_result r1;
              fmt_result r32;
              Printf.sprintf "%.2fx" (r32.Runner.throughput /. r1.Runner.throughput);
              (if r32.Runner.throughput > 0.0 then
                 Printf.sprintf "%.0f" (1e9 /. r32.Runner.throughput)
               else "-");
              Printf.sprintf "%.2fx" (r32.Runner.throughput /. !base);
              Printf.sprintf "%.2fx" (r32.Runner.throughput /. mget_ref.Runner.throughput);
              string_of_int (Mp_util.Histogram.percentile_ns lat 99.9);
              string_of_int r32.Runner.wasted_peak;
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
