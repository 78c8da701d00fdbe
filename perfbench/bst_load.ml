(* bst-write and bst-read: Dstruct.Nm_bst over margin pointers, called
   directly by 2 worker domains in a closed loop (each call waits for
   the previous one). No service, frontend or socket runs, so the
   per-op time is the tree, the MP read path, Mempool, retire and scan. *)

module SET = Dstruct.Nm_bst.Make (Mp.Margin_ptr)
module Rng = Mp_util.Rng

type mix = { contains_pct : int; insert_pct : int (* remainder: remove *) }

let write_mix = { contains_pct = 0; insert_pct = 50 }
let read_mix = { contains_pct = 90; insert_pct = 5 }
let threads = 2
let init_size = 16_384
let key_range = 32_768

(* The paper runs S = 500K with margin 2^20, so one margin spans ~128
   key gaps; keeping that ratio at S = 16K gives ~2^24 (the same rule
   as the figure runners' [margin_for ~gaps:128]). *)
let margin = max (1 lsl 17) (0xFFFF_FFFF / (2 * init_size) * 128)

(* Live nodes (keys and routers) plus room for retired-but-unreclaimed
   nodes, as the harness runner sizes it. *)
let capacity = (key_range * 2) + 1024 + (threads * 65536)

(* Time one call in 8: two clock reads on every ~4 us call would cost
   ~1%, and 1-in-8 still gives ~5 * 10^4 samples per second, which a
   20 s run fits in [lat_cap]. Traced legs keep a span for one call in
   16, which bounds the span file to a few MB. *)
let stride_mask = 7
let span_stride_mask = 15
let lat_cap = 1 lsl 20
let span_cap = 1 lsl 18
(* An end-to-end run is [trials] trials, each on a fresh tree with
   fresh worker domains, so that one trial's memory layout or thread
   placement does not set the whole run's figures. *)
let trials = 20
let warmup_s = 0.3

(* Span names: the op kinds double as indices. *)
let op_contains = 0
let op_insert = 1
let op_remove = 2
let span_window = 3
let op_probe = 4

let span_names =
  [| "set.contains"; "set.insert"; "set.remove"; "worker.window"; "set.contains_probe" |]

(* A mix without contains still has its read path timed: its traced
   legs add one contains probe per 16 calls, halfway between two timed
   calls. Probes are not workload calls and count in no tally. *)
let probe_slot = (span_stride_mask + 1) / 2

(* This workload's counters, after Meter's common three. *)
let f_att = 3 (* + op kind *)
let f_ok = 6 (* + op kind *)
let nfields = 9

let create ~check_access =
  let config = Smr_core.Config.(with_margin (default ~threads) margin) in
  SET.create ~threads ~capacity ~check_access config

(* The same seed always populates the same S keys. *)
let populate t ~seed =
  let s0 = SET.session t ~tid:0 in
  let rng = Rng.create seed in
  let inserted = ref 0 in
  while !inserted < init_size do
    if SET.insert s0 ~key:(Rng.below rng key_range) ~value:1 then incr inserted
  done;
  SET.flush s0

let worker t mix ~seed ~phase ~traced ~last (r : Meter.recorder) tid () =
  let s = SET.session t ~tid in
  let rng = Rng.split ~seed ~tid in
  (* probe keys come from a stream of their own, so the mix's stream is
     the same traced or not *)
  let probe_rng = Rng.split ~seed ~tid:(threads + tid) in
  let probe = mix.contains_pct = 0 in
  let c = r.counters in
  let seen = ref 0 and tracing = ref false and window = ref (-1) in
  while !seen <= last do
    let ph = Atomic.get phase in
    if ph <> !seen then begin
      window :=
        Meter.edge r ~seen:!seen ~ph ~last ~traced ~window:!window ~window_name:span_window;
      tracing := !window >= 0;
      seen := ph
    end;
    if !seen <= last then begin
      let i = c.(Meter.f_ops) in
      let k = Rng.below rng key_range in
      let x = Rng.below rng 100 in
      let kind =
        if x < mix.contains_pct then op_contains
        else if x < mix.contains_pct + mix.insert_pct then op_insert
        else op_remove
      in
      let sampled = i land (if !tracing then span_stride_mask else stride_mask) = 0 in
      let t0 = if sampled then Meter.now_ns () else 0 in
      (match
         if kind = op_contains then SET.contains s k
         else if kind = op_insert then SET.insert s ~key:k ~value:k
         else SET.remove s k
       with
      | ok ->
        c.(f_att + kind) <- c.(f_att + kind) + 1;
        if ok then c.(f_ok + kind) <- c.(f_ok + kind) + 1
      | exception Mempool.Exhausted -> c.(Meter.f_failed) <- c.(Meter.f_failed) + 1);
      if sampled then begin
        let t1 = Meter.now_ns () in
        if !tracing then
          ignore
            (Meter.Spans.add r.spans ~name:kind ~start:t0 ~stop:t1 ~parent:!window
               ~call:((i * threads) + tid)
              : int)
        else Meter.Lat.add r.lat (t1 - t0)
      end;
      if probe && !tracing && i land span_stride_mask = probe_slot then begin
        let k = Rng.below probe_rng key_range in
        let t0 = Meter.now_ns () in
        let (_ : bool) = SET.contains s k in
        ignore
          (Meter.Spans.add r.spans ~name:op_probe ~start:t0 ~stop:(Meter.now_ns ())
             ~parent:!window ~call:((i * threads) + tid)
            : int)
      end;
      c.(Meter.f_ops) <- i + 1
    end
  done

(* Run the workers over [legs] after a warmup; returns the phase start
   times and the host's steal counters at each. *)
let drive ?tick t mix ~seed ~warmup_s ~legs ~traced ~on_edge ~recs =
  let last = Array.length legs in
  let phase = Atomic.make 0 in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (worker t mix ~seed ~phase ~traced ~last recs.(tid) tid))
  in
  let marks = Meter.drive ?tick ~phase ~warmup_s ~legs ~on_edge () in
  Array.iter Domain.join domains;
  marks

let new_recs ~nphases ~lat_cap ~span_cap =
  Array.init threads (fun domain -> Meter.recorder ~nfields ~nphases ~lat_cap ~span_cap ~domain)

(* Outside-in checks once the workers have joined: the structure's own
   invariant check, the pool's use-after-free count, and key
   conservation against the successful updates the workers tallied
   over warmup and every leg. *)
let verify t recs ~stop =
  let errors = ref [] in
  (try SET.check t with Failure msg -> errors := ("SET.check: " ^ msg) :: !errors);
  let v = SET.violations t in
  if v <> 0 then errors := Printf.sprintf "SET.violations = %d" v :: !errors;
  let expected =
    init_size + Meter.at recs stop (f_ok + op_insert) - Meter.at recs stop (f_ok + op_remove)
  in
  let size = SET.size t in
  if size <> expected then
    errors :=
      Printf.sprintf "SET.size = %d, expected %d (populated + inserted - removed)" size
        expected
      :: !errors;
  !errors

(* A short extra leg on a fresh tree with the pool's use-after-free
   detector armed. The measured tree runs unarmed, as users run it, so
   its violation count alone would be a check that cannot fail. *)
let armed_check mix ~seed =
  let t = create ~check_access:true in
  populate t ~seed;
  let recs = new_recs ~nphases:2 ~lat_cap:1024 ~span_cap:1 in
  let _ : int array * (int * int) array =
    drive t mix ~seed ~warmup_s:0.0 ~legs:[| 0.3 |] ~traced:[| false; false |] ~on_edge:ignore
      ~recs
  in
  List.map (fun e -> "armed tree: " ^ e) (verify t recs ~stop:2)

type snapshot = {
  smr : Smr_core.Smr_intf.stats;
  traversed : int;
  allocs : int;
  frees : int;
  gc : Meter.gc;
}

let snapshot t =
  let pool = SET.pool t in
  {
    smr = SET.smr_stats t;
    traversed = SET.traversed t;
    allocs = Mempool.Core.alloc_count pool;
    frees = Mempool.Core.free_count pool;
    gc = Meter.gc_sample ();
  }

(* One trial: set up a fresh tree (timed), then run the workers over
   [legs] after a warmup. [on_edge] and [tick] get the tree. *)
let trial ?tick mix ~seed ~legs ~traced ~on_edge ~span_cap =
  Gc.full_major ();
  let t0 = Meter.now_ns () in
  let t = create ~check_access:false in
  populate t ~seed;
  let setup_s = float_of_int (Meter.now_ns () - t0) *. 1e-9 in
  let recs = new_recs ~nphases:(Array.length legs + 1) ~lat_cap ~span_cap in
  let t_mark, steal =
    drive ?tick:(Option.map (fun f -> f t) tick) t mix ~seed ~warmup_s ~legs ~traced
      ~on_edge:(on_edge t) ~recs
  in
  (t, recs, setup_s, t_mark, steal)

(* The service, frontend and socket do no work here: their counts and
   their shares of a client call are 0, and their latencies have no
   samples. *)
let idle_layers =
  let note = "not executed on bst-* (no service, frontend or socket)" in
  List.map
    (fun (name, unit) -> Meter.metric name unit (Some 0.0) ~note)
    [
      ("service.ops_per_batch", "count");
      ("service.max_batch", "count");
      ("service.conn_spins_per_op", "count");
      ("service.conn_backoffs_per_op", "count");
      ("service.batch_frac", "fraction");
      ("frontend.pump_frac", "fraction");
      ("frontend.parse_frac", "fraction");
      ("transport.bytes_per_op", "bytes");
      ("transport.reads_per_batch", "count");
      ("transport.self_frac", "fraction");
    ]
  @ List.map
      (fun (name, unit) -> Meter.metric name unit None ~result:false ~note)
      [
        ("transport.rtt_us_p50", "us");
        ("frontend.pump_us_p50", "us");
        ("service.batch_us_p50", "us");
        ("service.chain_us_p50", "us");
        ("frontend.parse_ns_per_cmd", "ns");
        ("transport.self_us_p50", "us");
      ]

let e2e ~windows ~setup_times ~peak_rss =
  Printf.printf "set-up times %s s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  Meter.window_metrics windows
    ~call:(Printf.sprintf "one SET call, 1 call in %d timed" (stride_mask + 1))
  @ Meter.
      [
        metric "peak_rss_mb" "MiB" peak_rss ~note:"VmHWM of the benchmark process";
        metric "setup_s" "s"
          (Some (median (Array.of_list setup_times)))
          ~note:(Printf.sprintf "median of %d create+populate" (List.length setup_times));
      ]

(* The end-to-end run: [trials] trials of [Meter.window_s] windows, all
   untraced. *)
let run_e2e mix ~seed ~seconds =
  let k, per = Meter.split ~trials ~seconds in
  let results =
    List.init k (fun _ ->
        let t, recs, setup_s, t_mark, steal =
          trial mix ~seed ~legs:(Array.make per Meter.window_s) ~traced:(Array.make (per + 1) false)
            ~on_edge:(fun _ _ -> ())
            ~span_cap:1
        in
        ( setup_s,
          Meter.windows recs ~t_mark ~steal ~n:per,
          verify t recs ~stop:(per + 1),
          Meter.delta recs ~p0:1 ~p1:(per + 1) Meter.f_ops,
          Meter.delta recs ~p0:1 ~p1:(per + 1) Meter.f_failed ))
  in
  let peak_rss = Meter.peak_rss_mb "self" in
  let errors =
    List.concat_map (fun (_, _, e, _, _) -> e) results @ armed_check mix ~seed
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  ( errors,
    sum (fun (_, _, _, a, _) -> a),
    sum (fun (_, _, _, _, f) -> f),
    e2e
      ~windows:(List.map (fun (_, w, _, _, _) -> w) results)
      ~setup_times:(List.map (fun (s, _, _, _, _) -> s) results)
      ~peak_rss,
    [] )

(* The traced run: one trial, half its legs untraced (counters, waste
   samples), half traced (spans). *)
let run_traced mix ~seed ~seconds ~out_dir ~workload =
  let untraced_n = max 1 (seconds / 2) in
  let traced_n = max 1 (seconds - untraced_n) in
  let nlegs = untraced_n + traced_n in
  let p0 = 1 and p1 = untraced_n + 1 in
  let before = ref None and after = ref None in
  let on_edge t p =
    if p = p0 then before := Some (snapshot t) else if p = p1 then after := Some (snapshot t)
  in
  let wasted_sum = ref 0.0 and wasted_n = ref 0 in
  let tick t p =
    if p < p1 then begin
      wasted_sum := !wasted_sum +. float_of_int (SET.smr_stats t).Smr_core.Smr_intf.wasted;
      incr wasted_n
    end
  in
  let t, recs, setup_s, t_mark, steal =
    trial ~tick mix ~seed ~legs:(Array.make nlegs 1.0)
      ~traced:(Array.init (nlegs + 1) (fun p -> p >= p1))
      ~on_edge ~span_cap
  in
  let errors = verify t recs ~stop:(nlegs + 1) in
  let peak_rss = Meter.peak_rss_mb "self" in
  let e2e =
    e2e ~windows:[ Meter.windows recs ~t_mark ~steal ~n:untraced_n ] ~setup_times:[ setup_s ]
      ~peak_rss
  in
  let b = Option.get !before and a = Option.get !after in
  let open Smr_core.Smr_intf in
  let ops = float_of_int (Meter.completed recs ~p0 ~p1) in
  let leg_s = float_of_int (t_mark.(p1) - t_mark.(p0)) *. 1e-9 in
  let d f = float_of_int (f a - f b) in
  let traversed = d (fun s -> s.traversed) in
  let passes = d (fun s -> s.smr.scan_passes) in
  let scan_s = a.smr.scan_time_s -. b.smr.scan_time_s in
  let upd f =
    float_of_int
      (Meter.delta recs ~p0 ~p1 (f + op_insert) + Meter.delta recs ~p0 ~p1 (f + op_remove))
  in
  let span_p50 name kind =
    let d = Meter.Spans.durations (Meter.spans_of recs) kind in
    Meter.metric name "ns"
      (Option.map float_of_int (Meter.int_percentile d 50.0))
      ~note:(Printf.sprintf "traced, %d %s spans" (Array.length d) span_names.(kind))
  in
  let rate_over first n =
    Meter.median (Array.init n (fun i -> Meter.leg_rate recs t_mark (first + i)))
  in
  let untraced_rate = rate_over p0 untraced_n and traced_rate = rate_over p1 traced_n in
  let per_op x = Meter.ratio x ops in
  let layers =
    Meter.
      [
        metric "dstruct.nodes_per_op" "count" (per_op traversed);
        metric "dstruct.update_success_frac" "fraction" (ratio (upd f_ok) (upd f_att));
        span_p50 "dstruct.contains_p50_ns" (if mix.contains_pct = 0 then op_probe else op_contains);
        span_p50 "dstruct.insert_p50_ns" op_insert;
        span_p50 "dstruct.remove_p50_ns" op_remove;
        metric "smr.fences_per_node" "count" (ratio (d (fun s -> s.smr.fences)) traversed);
        metric "smr.hp_fallbacks_per_op" "count" (per_op (d (fun s -> s.smr.hp_fallbacks)));
        metric "smr.retired_per_op" "count" (per_op (d (fun s -> s.smr.retired_total)));
        metric "smr.scans_per_kop" "count" (ratio ~scale:1000.0 passes ops);
        metric "smr.scan_us_per_pass" "us" (ratio ~scale:1e6 scan_s passes);
        metric "smr.scan_time_frac" "fraction"
          (ratio scan_s (leg_s *. float_of_int threads))
          ~note:"share of worker-domain time";
        metric "smr.reclaimed_per_pass" "count" (ratio (d (fun s -> s.smr.reclaimed)) passes);
        metric "smr.wasted_avg_nodes" "count"
          (ratio !wasted_sum (float_of_int !wasted_n))
          ~note:(Printf.sprintf "mean of %d 2 ms samples" !wasted_n);
        metric "smr.wasted_peak_nodes" "count" (Some (float_of_int a.smr.wasted_peak))
          ~note:"high-water mark, whole run";
        metric "mempool.allocs_per_op" "count" (per_op (d (fun s -> s.allocs)));
        metric "mempool.frees_per_op" "count" (per_op (d (fun s -> s.frees)));
        metric "mempool.live_peak_slots" "count"
          (Some (float_of_int (Mempool.Core.live_peak (SET.pool t))))
          ~note:"high-water mark, whole run";
        metric "gc.minor_words_per_op" "words"
          (per_op (a.gc.minor_words -. b.gc.minor_words))
          ~note:"process-wide";
        metric "gc.promoted_words_per_op" "words"
          (per_op (a.gc.promoted_words -. b.gc.promoted_words))
          ~note:"process-wide";
        metric "gc.minor_gcs_per_kop" "count"
          (ratio ~scale:1000.0 (float_of_int (a.gc.minor_gcs - b.gc.minor_gcs)) ops);
      ]
    @ idle_layers
    @ [
        Meter.metric "trace.overhead_frac" "fraction"
          (Some (1.0 -. (traced_rate /. untraced_rate)))
          ~note:(Printf.sprintf "traced %.0f vs untraced %.0f ops/s" traced_rate untraced_rate);
      ]
  in
  Meter.Spans.write
    (Filename.concat out_dir ("spans-" ^ workload ^ ".tsv"))
    span_names (Meter.spans_of recs);
  ( errors @ armed_check mix ~seed,
    Meter.delta recs ~p0 ~p1 Meter.f_ops,
    Meter.delta recs ~p0 ~p1 Meter.f_failed,
    e2e,
    layers )

let run ~mix ~seed ~seconds ~trace ~out_dir ~workload =
  if trace then run_traced mix ~seed ~seconds ~out_dir ~workload else run_e2e mix ~seed ~seconds
