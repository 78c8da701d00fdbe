(* Measurement primitives shared by the workloads. Everything a worker
   touches on its hot path is preallocated off the OCaml heap: latency
   samples go to a fixed int32 buffer, spans to a fixed int buffer, so
   measuring allocates nothing the GC metrics would count and adds
   nothing for the major GC to mark. *)

open Bigarray

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* -- host ----------------------------------------------------------------- *)

(* (steal, total) jiffies of all CPUs from /proc/stat: the share of time
   the hypervisor ran something else. It picks the windows the
   end-to-end figures come from (see {!window_metrics}). *)
let cpu_steal () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    (List.nth v 7, List.fold_left ( + ) 0 v)
  | _ -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 = t0 then 0.0 else float_of_int (s1 - s0) /. float_of_int (t1 - t0)

(* -- latency samples ------------------------------------------------------ *)

module Lat = struct
  type t = {
    buf : (int32, int32_elt, c_layout) Array1.t;
    mutable n : int;
    mutable dropped : int;
  }

  (* Filled at creation so every page is resident from the start: the
     buffer adds a fixed amount to the process's peak RSS instead of an
     amount that follows throughput. *)
  let create cap =
    let buf = Array1.create int32 c_layout cap in
    Array1.fill buf 0l;
    { buf; n = 0; dropped = 0 }

  let[@inline] add t ns =
    let n = t.n in
    if n < Array1.dim t.buf then begin
      Array1.unsafe_set t.buf n (Int32.of_int (min ns 0x7FFF_FFFF));
      t.n <- n + 1
    end
    else t.dropped <- t.dropped + 1
end

(* Exact nearest-rank percentiles over the samples [lo, hi) of each
   buffer: the p-th percentile is the smallest sample with at least p%
   of all samples at or below it. *)
let percentiles parts ps =
  let n = List.fold_left (fun acc (_, lo, hi) -> acc + hi - lo) 0 parts in
  if n = 0 then List.map (fun _ -> None) ps
  else begin
    let a = Array.make n 0 in
    let i = ref 0 in
    List.iter
      (fun (l, lo, hi) ->
        for j = lo to hi - 1 do
          a.(!i) <- Int32.to_int (Array1.unsafe_get l.Lat.buf j);
          incr i
        done)
      parts;
    Array.sort Int.compare a;
    List.map
      (fun p ->
        let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
        Some a.(max 0 (rank - 1)))
      ps
  end

let int_percentile a p =
  if Array.length a = 0 then None
  else begin
    let a = Array.copy a in
    Array.sort Int.compare a;
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int (Array.length a))) in
    Some a.(max 0 (rank - 1))
  end

(* -- spans ---------------------------------------------------------------- *)

(* One log per domain. A span is (name, start, end, parent, call); its
   id packs the domain and the log index, so ids are unique across
   logs and a parent id finds its log. Spans of one client call share
   the call id. *)
module Spans = struct
  let fields = 5

  type t = { domain : int; buf : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create ~domain cap =
    let buf = Array1.create int c_layout (cap * fields) in
    Array1.fill buf 0;
    { domain; buf; n = 0 }

  (* Record a span; [stop = -1] opens it for {!close}. Returns its id,
     or -1 when the log is full. *)
  let[@inline] add t ~name ~start ~stop ~parent ~call =
    let i = t.n in
    if (i + 1) * fields > Array1.dim t.buf then -1
    else begin
      let b = i * fields in
      Array1.unsafe_set t.buf b name;
      Array1.unsafe_set t.buf (b + 1) start;
      Array1.unsafe_set t.buf (b + 2) stop;
      Array1.unsafe_set t.buf (b + 3) parent;
      Array1.unsafe_set t.buf (b + 4) call;
      t.n <- i + 1;
      (t.domain lsl 40) lor i
    end

  let close t id stop =
    if id >= 0 then Array1.set t.buf (((id land 0xFF_FFFF_FFFF) * fields) + 2) stop

  (* Durations, ns, of the closed spans named [name] across [logs]. *)
  let durations logs name =
    let acc = ref [] in
    List.iter
      (fun t ->
        for i = 0 to t.n - 1 do
          let b = i * fields in
          let stop = Array1.get t.buf (b + 2) in
          if Array1.get t.buf b = name && stop >= 0 then
            acc := (stop - Array1.get t.buf (b + 1)) :: !acc
        done)
      logs;
    Array.of_list !acc

  (* Tab-separated, one span per line, times in ns on the monotonic
     clock. *)
  let write path names logs =
    let oc = open_out path in
    output_string oc "id\tname\tstart_ns\tend_ns\tparent\tcall\n";
    List.iter
      (fun t ->
        for i = 0 to t.n - 1 do
          let b = i * fields in
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n"
            ((t.domain lsl 40) lor i)
            names.(Array1.get t.buf b)
            (Array1.get t.buf (b + 1))
            (Array1.get t.buf (b + 2))
            (Array1.get t.buf (b + 3))
            (Array1.get t.buf (b + 4))
        done)
      logs;
    close_out oc
end

(* -- phases --------------------------------------------------------------- *)

(* A run is a sequence of phases on a shared counter: 0 is warmup,
   1 .. n are the measured legs, n + 1 tells workers to stop. The main
   domain drives the counter; each worker copies its counters when it
   first sees a phase (see {!edge}), so any leg's delta is a difference
   of two copies and nothing is read from a worker mid-run. *)

(* Main side: run [warmup_s], then each leg of [legs] (seconds), calling
   [on_edge p] right after phase p starts and [tick p] every ~2 ms
   during leg p, if given. Without [tick] the main domain sleeps through
   the leg: waking 500 times a second would take the CPU from a worker
   on a 2-vCPU machine. Returns the start time of every phase, ns, and
   the host's steal counters then; index [n + 1] is the stop. *)
let drive ?tick ~phase ~warmup_s ~legs ~on_edge () =
  let n = Array.length legs in
  let t_mark = Array.make (n + 2) 0 and steal = Array.make (n + 2) (0, 0) in
  t_mark.(0) <- now_ns ();
  if warmup_s > 0.0 then Unix.sleepf warmup_s;
  for p = 1 to n + 1 do
    Atomic.set phase p;
    t_mark.(p) <- now_ns ();
    steal.(p) <- cpu_steal ();
    on_edge p;
    if p <= n then begin
      let until = t_mark.(p) + int_of_float (legs.(p - 1) *. 1e9) in
      let rec wait () =
        let left = until - now_ns () in
        if left > 0 then
          match tick with
          | Some f ->
            Unix.sleepf 0.002;
            f p;
            wait ()
          | None ->
            Unix.sleepf (float_of_int left *. 1e-9);
            wait ()
      in
      wait ()
    end
  done;
  (t_mark, steal)

(* -- per-domain recorders --------------------------------------------------- *)

(* What each worker domain or client connection keeps: its counters,
   their copy at the start of every phase, its latency samples and its
   spans. The first three counters are common to every workload; a
   workload appends its own after them. *)
let f_ops = 0 (* calls attempted *)
let f_failed = 1 (* calls that failed *)
let f_samples = 2 (* latency samples taken *)

type recorder = {
  counters : int array;
  marks : int array array;
  lat : Lat.t;
  spans : Spans.t;
}

let recorder ~nfields ~nphases ~lat_cap ~span_cap ~domain =
  {
    counters = Array.make nfields 0;
    marks = Array.init (nphases + 1) (fun _ -> Array.make nfields 0);
    lat = Lat.create lat_cap;
    spans = Spans.create ~domain span_cap;
  }

(* Worker side of a phase edge from [seen] to [ph]: close the open
   window span [window], copy the counters as the start of every phase
   in (seen, ph], and open a window span named [window_name] if [ph] is
   a traced leg. Returns that span's id, or -1. *)
let edge r ~seen ~ph ~last ~traced ~window ~window_name =
  let now = now_ns () in
  Spans.close r.spans window now;
  r.counters.(f_samples) <- r.lat.Lat.n;
  for p = seen + 1 to ph do
    Array.blit r.counters 0 r.marks.(p) 0 (Array.length r.counters)
  done;
  if ph <= last && traced.(ph) then
    Spans.add r.spans ~name:window_name ~start:now ~stop:(-1) ~parent:(-1) ~call:ph
  else -1

(* Counter [f] summed over [rs] at the start of phase [p], and its change
   from [p0] to [p1]. *)
let at rs p f = Array.fold_left (fun acc r -> acc + r.marks.(p).(f)) 0 rs
let delta rs ~p0 ~p1 f = at rs p1 f - at rs p0 f
let completed rs ~p0 ~p1 = delta rs ~p0 ~p1 f_ops - delta rs ~p0 ~p1 f_failed

(* Completed calls per second in leg [p]. *)
let leg_rate rs t_mark p =
  float_of_int (completed rs ~p0:p ~p1:(p + 1))
  /. (float_of_int (t_mark.(p + 1) - t_mark.(p)) *. 1e-9)

let spans_of rs = Array.to_list (Array.map (fun r -> r.spans) rs)

(* -- process memory ------------------------------------------------------- *)

(* VmHWM, the peak resident set, of process [pid] ("self" for this one),
   in MiB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          Some (float_of_int kb /. 1024.0))
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* -- GC ------------------------------------------------------------------- *)

(* OCaml 5.1's [Gc.quick_stat] sums every domain's counters, so one
   delta on the main domain across a window is the process-wide figure
   (summing per-domain deltas would count each domain T times). *)
type gc = { minor_words : float; promoted_words : float; minor_gcs : int }

let gc_sample () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_gcs = s.Gc.minor_collections;
  }

(* -- results -------------------------------------------------------------- *)

(* A metric a workload cannot measure has no value; [note] says why, or
   where a measured value came from. The result line holds numbers only,
   so a metric without one is printed in the report alone
   ([result = false]). *)
type metric = {
  name : string;
  unit : string;
  value : float option;
  note : string;
  result : bool;
}

let metric ?(note = "") ?(result = true) name unit value = { name; unit; value; note; result }

let ratio ?(scale = 1.0) num den =
  if den = 0.0 then None else Some (scale *. num /. den)

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    (* shortest of the usual precisions that reads back exactly *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let print_metric m =
  Printf.printf "  %-32s %16s %-6s %s\n" m.name
    (match m.value with Some v -> Printf.sprintf "%.6g" v | None -> "null")
    m.unit m.note

(* The per-window figures of legs 1 .. n of one trial: completed calls
   per second, the exact p50 and p99 of the window's samples (ns), and
   the host's steal share. *)
type windows = {
  rates : float array;
  lats : int option list array;
  steal : float array;
  samples : int;
  dropped : int;
}

let windows rs ~t_mark ~steal ~n =
  let legs = Array.init n (fun i -> i + 1) in
  {
    rates = Array.map (leg_rate rs t_mark) legs;
    lats =
      Array.map
        (fun p ->
          percentiles
            (Array.to_list
               (Array.map (fun r -> (r.lat, r.marks.(p).(f_samples), r.marks.(p + 1).(f_samples))) rs))
            [ 50.0; 99.0 ])
        legs;
    steal = Array.map (fun p -> steal_share steal.(p) steal.(p + 1)) legs;
    samples = delta rs ~p0:1 ~p1:(n + 1) f_samples;
    dropped = Array.fold_left (fun acc r -> acc + r.lat.Lat.dropped) 0 rs;
  }

(* End-to-end runs measure windows of this many seconds. *)
let window_s = 0.5

(* An end-to-end run of [seconds] split over at most [trials] trials:
   the trials and the windows in each. *)
let split ~trials ~seconds =
  let k = min trials seconds in
  (k, max 1 (int_of_float (float_of_int seconds /. float_of_int k /. window_s)))

(* The windows in which the host stole no more CPU than in the window
   at the lower quartile of steal: at least a quarter of them, and all
   of them when the host stole nothing. *)
let quiet steal =
  let a = Array.copy steal in
  Array.sort Float.compare a;
  let q = a.(max 0 (((Array.length a + 3) / 4) - 1)) in
  Array.map (fun s -> s <= q) steal

(* Throughput and latency over the windows of every trial, each the
   median over the {!quiet} windows. A window in which the hypervisor
   ran something else measures the host: on a 2-vCPU guest 5% steal in
   a window doubles kv-socket's p99. The choice depends on the host's
   steal counters alone, never on a measured figure, and the median
   then outvotes a slow trial. [call] names what one sample times.
   Prints every window's figures beside its steal share, the kept ones
   marked. *)
let window_metrics ws ~call =
  let cat f = Array.concat (List.map f ws) in
  let rates = cat (fun w -> w.rates) and lats = cat (fun w -> w.lats) in
  let steal = cat (fun w -> w.steal) in
  let keep = quiet steal in
  let kept a = Array.of_list (List.filteri (fun i _ -> keep.(i)) (Array.to_list a)) in
  let us ns = float_of_int ns /. 1000.0 in
  let show f a =
    String.concat " "
      (Array.to_list (Array.mapi (fun i x -> f x ^ if keep.(i) then "*" else "") a))
  in
  Printf.printf "host steal: %.1f%% mean over the windows; per window %s\n"
    (100.0 *. Array.fold_left ( +. ) 0.0 steal /. float_of_int (max 1 (Array.length steal)))
    (show (fun x -> Printf.sprintf "%.0f%%" (100.0 *. x)) steal);
  Printf.printf "windows (* = kept): ops/s %s\n         p50/p99 us %s\n"
    (show (Printf.sprintf "%.0f") rates)
    (show
       (function
         | [ Some p50; Some p99 ] -> Printf.sprintf "%.1f/%.1f" (us p50) (us p99)
         | _ -> "-")
       lats);
  let dropped = List.fold_left (fun acc w -> acc + w.dropped) 0 ws in
  if dropped > 0 then Printf.printf "note: %d latency samples dropped (buffer full)\n" dropped;
  let rates = kept rates and lats = kept lats in
  let lat_median i =
    match List.filter_map (fun l -> List.nth l i) (Array.to_list lats) with
    | [] -> None
    | v -> Some (median (Array.of_list (List.map us v)))
  in
  let note =
    Printf.sprintf "median of the %d of %d %g s windows%s with the least host steal"
      (Array.length rates) (Array.length keep) window_s
      (match ws with [ _ ] -> "" | _ -> Printf.sprintf " over %d trials" (List.length ws))
  in
  let samples = List.fold_left (fun acc w -> acc + w.samples) 0 ws in
  [
    metric "ops_per_s" "1/s" (Some (median rates)) ~note;
    metric "lat_p50_us" "us" (lat_median 0)
      ~note:(Printf.sprintf "%s; %d samples, each %s" note samples call);
    metric "lat_p99_us" "us" (lat_median 1) ~note;
  ]

(* The result metrics that have no finite value, as check failures. *)
let missing metrics =
  List.filter_map
    (fun m ->
      match m.value with
      | Some v when Float.is_finite v -> None
      | _ -> if m.result then Some ("no value for result metric " ^ m.name) else None)
    metrics

(* The result line the benchmark's caller parses: the last line of
   stdout. It holds the [result] metrics. *)
let result_json ~correct ~attempted ~failed metrics =
  let metrics = List.filter (fun m -> m.result) metrics in
  let field m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (match m.value with
      | Some v when Float.is_finite v -> json_number v
      | _ -> "null")
      m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
