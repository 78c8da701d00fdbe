(* mpbench — run a single SMR benchmark configuration from the command
   line. Complements bench/main.exe (which regenerates the paper's
   figures wholesale) by exposing every knob individually:

     dune exec bin/mpbench.exe -- --ds bst --scheme mp --threads 8 \
       --size 16384 --duration 1.0 --workload write --margin-log2 20
*)

open Cmdliner
module Config = Smr_core.Config
module Workload = Mp_harness.Workload
module Runner = Mp_harness.Runner
module Probe = Mp_harness.Probe
module Report = Mp_harness.Report
module Instances = Mp_harness.Instances

let run ds scheme threads size duration warmup workload margin_log2 stall_ms seed check
    latency verbose json =
  let mix =
    match workload with
    | "read" -> Workload.read_dominated
    | "write" -> Workload.write_dominated
    | "readonly" -> Workload.read_only
    | other -> invalid_arg (Printf.sprintf "unknown workload %S (read|write|readonly)" other)
  in
  let config = Config.with_margin (Config.default ~threads) (1 lsl margin_log2) in
  let spec =
    {
      (Runner.default ~threads ~init_size:size ~mix ~config) with
      Runner.duration_s = duration;
      warmup_s = warmup;
      seed;
      check_access = check;
      record_latency = latency;
      stall =
        (if stall_ms > 0 then
           Some
             {
               Runner.stall_tid = 0;
               every_ops = 100;
               pause_s = float_of_int stall_ms /. 1000.0;
             }
         else None);
    }
  in
  let set =
    if ds = "dta" then (module Dstruct.Dta_list.As_set : Dstruct.Set_intf.SET)
    else Instances.make (Instances.ds_of_name ds) (Instances.scheme_of_name scheme)
  in
  let (module SET : Dstruct.Set_intf.SET) = set in
  if verbose then
    Printf.printf
      "running %s: threads=%d size=%d duration=%.2fs warmup=%.2fs mix=%s margin=2^%d\n%!"
      SET.name threads size duration warmup mix.Workload.name margin_log2;
  let r = Runner.run set spec in
  Printf.printf "structure        : %s\n" SET.name;
  Printf.printf "threads          : %d\n" r.Runner.spec_threads;
  Printf.printf "workload         : %s\n" r.Runner.mix_name;
  Printf.printf "throughput       : %.0f ops/s (%d ops)%s\n" r.Runner.throughput
    r.Runner.total_ops
    (if r.Runner.oom then "  [pool exhausted]" else "");
  let p = r.Runner.probe in
  Printf.printf "wasted avg / max : %.1f / %d nodes\n" p.Probe.wasted_avg p.Probe.wasted_max;
  Printf.printf "fences / node    : %.4f (%d fences, %d visits)\n" (Probe.fences_per_node p)
    p.Probe.fences p.Probe.traversed;
  Printf.printf "scan passes      : %d (%.4fs reclaiming)\n" p.Probe.scan_passes
    p.Probe.scan_time_s;
  Printf.printf "alloc words / op : %.2f (%.2f promoted, %d minor GCs)\n"
    r.Runner.alloc_words_per_op r.Runner.promoted_words_per_op r.Runner.minor_gcs;
  Printf.printf "final size       : %d\n" r.Runner.final_size;
  (match r.Runner.latency with
  | None -> ()
  | Some h ->
    let p q = Mp_util.Histogram.percentile_ns h q in
    Printf.printf "latency p50/p99  : %d / %d ns (max %d, %d samples)\n" (p 50.0) (p 99.0)
      (Mp_util.Histogram.max_ns h) (Mp_util.Histogram.count h));
  if check then Printf.printf "UAF violations   : %d\n" r.Runner.violations;
  (match json with
  | None -> ()
  | Some path -> (
    try
      let oc = open_out path in
      output_string oc
        (Report.envelope
           [ Report.[ ("experiment", Str "mpbench"); ("ds", Str ds); ("scheme", Str scheme) ]
             @ Runner.fields r ]);
      close_out oc;
      Printf.printf "json             : %s\n" path
    with Sys_error msg ->
      Printf.eprintf "mpbench: cannot write JSON: %s\n" msg;
      exit 1));
  if check && r.Runner.violations > 0 then exit 2

let ds_arg =
  Arg.(value & opt string "bst" & info [ "ds" ] ~docv:"STRUCT" ~doc:"list, skiplist, bst, hash or dta")

let scheme_arg =
  Arg.(
    value & opt string "mp"
    & info [ "scheme" ] ~docv:"SCHEME" ~doc:"mp, ibr, he, hp, ebr or none (ignored for dta)")

let threads_arg = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~doc:"concurrent domains")
let size_arg = Arg.(value & opt int 16384 & info [ "size"; "s" ] ~doc:"initial keys (S)")
let duration_arg = Arg.(value & opt float 1.0 & info [ "duration"; "d" ] ~doc:"seconds")

let warmup_arg =
  Arg.(
    value & opt float 0.5
    & info [ "warmup" ]
        ~doc:
          "seconds of real workload to run before the measured window; warmup operations \
           are excluded from throughput, latency and allocation telemetry")

let workload_arg =
  Arg.(value & opt string "read" & info [ "workload"; "w" ] ~doc:"read, write or readonly")

let margin_arg =
  Arg.(value & opt int 20 & info [ "margin-log2" ] ~doc:"MP margin as a power of two")

let stall_arg =
  Arg.(
    value & opt int 0
    & info [ "stall-ms" ] ~doc:"inject a sleep of this many ms mid-operation on thread 0")

let seed_arg = Arg.(value & opt int 0xC0FFEE & info [ "seed" ] ~doc:"workload RNG seed")

let check_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"arm the use-after-free detector (slower)")

let latency_arg =
  Arg.(
    value & flag
    & info [ "latency" ]
        ~doc:"record sampled per-operation latency and report p50/p99/max")

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print the configuration")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"also write the result as a one-row JSON envelope ({\"schema_version\":3,\"results\":[...]}) to $(docv)")

let cmd =
  let term =
    Term.(
      const run $ ds_arg $ scheme_arg $ threads_arg $ size_arg $ duration_arg $ warmup_arg
      $ workload_arg $ margin_arg $ stall_arg $ seed_arg $ check_arg $ latency_arg
      $ verbose_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "mpbench" ~doc:"benchmark one SMR scheme on one concurrent search structure")
    term

let () = exit (Cmd.eval cmd)
