(* The repository benchmark: one workload per invocation.

     repobench.exe --workload bst-write|bst-read|kv-socket --seed N
                   --seconds S --trace 0|1 --server MPSERVER --out DIR

   Prints one line per metric, then, as the last line of stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones, measured untraced;
   with --trace 1 they are the per-layer ones, and spans go to
   DIR/spans-<workload>.tsv. A failed correctness check, or a result
   metric without a value, prints "correct": false and exits 1. Run it
   through run.py, which builds it first. *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10 and trace = ref 0 in
  let server = ref "" and out_dir = ref ".perfbench_out" in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME bst-write | bst-read | kv-socket");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--server", Arg.Set_string server, "PATH mpserver executable (kv-socket)");
      ("--out", Arg.Set_string out_dir, "DIR where spans and the server socket go");
    ]
  in
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "repobench.exe";
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "repobench: need --seed >= 0, --seconds >= 1 and --trace 0|1";
    exit 2
  end;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace = !trace = 1 in
  Printf.printf "%s seed=%d seconds=%d trace=%b\n%!" !workload !seed !seconds trace;
  let errors, attempted, failed, e2e, layers =
    match !workload with
    | "bst-write" ->
      Bst_load.run ~mix:Bst_load.write_mix ~seed:!seed ~seconds:!seconds ~trace
        ~out_dir:!out_dir ~workload:!workload
    | "bst-read" ->
      Bst_load.run ~mix:Bst_load.read_mix ~seed:!seed ~seconds:!seconds ~trace
        ~out_dir:!out_dir ~workload:!workload
    | "kv-socket" ->
      Kv_load.run ~server:!server ~seed:!seed ~seconds:!seconds ~trace ~out_dir:!out_dir
    | w ->
      prerr_endline ("repobench: unknown workload " ^ w);
      exit 2
  in
  Printf.printf "end-to-end%s:\n" (if trace then " (not reported by traced runs)" else "");
  List.iter Meter.print_metric e2e;
  if trace then begin
    let result, report = List.partition (fun m -> m.Meter.result) layers in
    print_endline "per-layer:";
    List.iter Meter.print_metric result;
    print_endline "per-layer, report only (not in the result line):";
    List.iter Meter.print_metric report
  end;
  let errors = errors @ Meter.missing (if trace then layers else e2e) in
  Printf.printf "attempted %d, failed %d (failed_frac %.6g)\n" attempted failed
    (if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted);
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let correct = errors = [] && attempted > 0 in
  print_endline
    (Meter.result_json ~correct ~attempted ~failed (if trace then layers else e2e));
  if not correct then exit 1
