(** Plain-text table rendering for the benchmark output, and the JSON
    rows every bench, soak and mpbench report writes. *)

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

(* -- machine-readable rows ------------------------------------------------- *)

type value = Int of int | Float of float | Bool of bool | Str of string | Ints of int list | Null
type row = (string * value) list

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* %g keeps the output compact and is valid JSON (exponent form
   included); nan/inf, which JSON cannot carry, are no measurement. *)
let json_value = function
  | Int i -> string_of_int i
  | Float f when not (Float.is_finite f) -> "null"
  | Float f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | Float f -> Printf.sprintf "%.6g" f
  | Bool b -> string_of_bool b
  | Str s -> json_string s
  | Ints l -> "[" ^ String.concat "," (List.map string_of_int l) ^ "]"
  | Null -> "null"

let json_row row =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_value v) row) ^ "}"

(* 3: a row holds only what its producer measured; what was not
   measured is absent or null, never 0 or a passing watchdog.
   2: the envelope itself plus [wasted_peak] and [lat_p999_ns].
   1: the bare result array of earlier revisions. Bump on any field
   removal or meaning change; additions are compatible within a
   version. *)
let envelope rows =
  Printf.sprintf "{\"schema_version\":3,\"results\":[\n  %s\n]}\n"
    (String.concat ",\n  " (List.map json_row rows))

let latency h =
  let of_h f = match h with None -> Null | Some h -> Int (f h) in
  let pct q = of_h (fun h -> Mp_util.Histogram.percentile_ns h q) in
  [ ("lat_p50_ns", pct 50.0); ("lat_p99_ns", pct 99.0); ("lat_p999_ns", pct 99.9);
    ("lat_max_ns", of_h Mp_util.Histogram.max_ns) ]
