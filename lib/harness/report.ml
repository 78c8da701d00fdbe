(** Plain-text table rendering for the benchmark output. *)

let hline widths =
  let parts = List.map (fun w -> String.make (w + 2) '-') widths in
  "+" ^ String.concat "+" parts ^ "+"

(* Optional machine-readable sink: when MP_BENCH_CSV_DIR is set, every
   table is also written there as a CSV named after its title. *)
let csv_dir = Sys.getenv_opt "MP_BENCH_CSV_DIR"

let slug title =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    title

let write_csv ~title ~header rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Filename.concat dir (slug title ^ ".csv") in
    let oc = open_out path in
    List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) (header :: rows);
    close_out oc

(** [table ~title ~header rows] prints an aligned ASCII table (and writes
    a CSV next to it when MP_BENCH_CSV_DIR is set). *)
let table ~title ~header rows =
  write_csv ~title ~header rows;
  let all = header :: rows in
  let cols = List.length header in
  let widths =
    List.init cols (fun c ->
        List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all)
  in
  let render_row row =
    let cells =
      List.map2 (fun cell w -> Printf.sprintf " %-*s " w cell) row widths
    in
    "|" ^ String.concat "|" cells ^ "|"
  in
  Printf.printf "\n== %s ==\n%s\n%s\n%s\n" title (hline widths) (render_row header)
    (hline widths);
  List.iter (fun row -> print_endline (render_row row)) rows;
  print_endline (hline widths);
  flush stdout

let fmt_throughput ops_per_s =
  if ops_per_s >= 1e6 then Printf.sprintf "%.2fM" (ops_per_s /. 1e6)
  else if ops_per_s >= 1e3 then Printf.sprintf "%.1fK" (ops_per_s /. 1e3)
  else Printf.sprintf "%.0f" ops_per_s

(** Allocation-telemetry column: GC-visible words per operation. Two
    decimals resolve the "~0 on the zero-allocation read path" claim
    without drowning the table when a path does allocate. *)
let fmt_words_per_op w = Printf.sprintf "%.2f" w
