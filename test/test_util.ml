(* Utility substrate: RNG determinism and distribution sanity, key
   generators, backoff, striped counters. *)

module Rng = Mp_util.Rng
module Keygen = Mp_util.Keygen
module Sc = Mp_util.Striped_counter

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next_int a) (Rng.next_int b)
  done

let rng_split_decorrelates () =
  let a = Rng.split ~seed:1 ~tid:0 and b = Rng.split ~seed:1 ~tid:1 in
  let equal = ref 0 in
  for _ = 1 to 1000 do
    if Rng.below a 1000 = Rng.below b 1000 then incr equal
  done;
  Alcotest.(check bool) "streams differ" true (!equal < 100)

let rng_below_in_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.below r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let rng_float_unit_interval () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of [0,1): %f" f
  done

let rng_uniformity () =
  (* chi-squared-ish sanity: 10 buckets, 100k draws, each within 20%. *)
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 100_000 do
    let v = Rng.below r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i n ->
      if n < 8_000 || n > 12_000 then Alcotest.failf "bucket %d skewed: %d" i n)
    buckets

let keygen_uniform () =
  let g = Keygen.uniform ~range:100 in
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let k = Keygen.next g r in
    if k < 0 || k >= 100 then Alcotest.failf "uniform key out of range: %d" k
  done

let keygen_zipf_skew () =
  let g = Keygen.zipf ~range:1000 ~alpha:1.2 in
  let r = Rng.create 5 in
  let zero = ref 0 and total = 10_000 in
  for _ = 1 to total do
    let k = Keygen.next g r in
    if k < 0 || k >= 1000 then Alcotest.failf "zipf key out of range: %d" k;
    if k = 0 then incr zero
  done;
  (* the hottest key should be much more frequent than uniform's 0.1% *)
  Alcotest.(check bool) "zipf concentrates mass" true (!zero > total / 100)

let keygen_ascending () =
  let g = Keygen.ascending ~start:5 () in
  let r = Rng.create 0 in
  Alcotest.(check (list int)) "sequence" [ 5; 6; 7; 8 ]
    (List.init 4 (fun _ -> Keygen.next g r))

let striped_counter () =
  let c = Sc.create ~threads:4 in
  Sc.incr c ~tid:0;
  Sc.add c ~tid:2 10;
  Sc.add c ~tid:3 (-4);
  Alcotest.(check int) "sum" 7 (Sc.sum c);
  Alcotest.(check int) "get" 10 (Sc.get c ~tid:2);
  Sc.reset c;
  Alcotest.(check int) "reset" 0 (Sc.sum c)

let striped_counter_parallel () =
  let c = Sc.create ~threads:4 in
  let domains =
    Array.init 4 (fun tid ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Sc.incr c ~tid
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost updates across stripes" 40_000 (Sc.sum c)

let backoff_grows_and_resets () =
  let b = Mp_util.Backoff.create ~max_spins:8 () in
  Mp_util.Backoff.once b;
  Mp_util.Backoff.once b;
  Mp_util.Backoff.once b;
  Mp_util.Backoff.once b;
  Mp_util.Backoff.once b (* capped, must not raise *);
  Mp_util.Backoff.reset b;
  Mp_util.Backoff.once b

(* -- Relaxed (fenceless) atomic reads ----------------------------------- *)

(* Two-domain handshake: the writer publishes data with plain writes and
   raises a flag with an SC [Atomic.set]; the reader polls the flag with
   the fenceless [Mp_util.Relaxed.get]. The relaxed load must still
   observe the flagged write eventually (OCaml atomics are coherent:
   fenceless drops the SC fence, not visibility), and once it does, an SC
   read of the payload must see everything written before the flag. *)
let relaxed_handshake () =
  for round = 1 to 50 do
    let payload = Atomic.make 0 in
    let flag = Atomic.make false in
    let writer =
      Domain.spawn (fun () ->
          Atomic.set payload round;
          Atomic.set flag true)
    in
    let budget = ref 100_000_000 in
    while not (Mp_util.Relaxed.get flag) && !budget > 0 do
      decr budget;
      Domain.cpu_relax ()
    done;
    if !budget = 0 then Alcotest.fail "relaxed read never observed the SC flag write";
    Alcotest.(check int) "payload visible after flag" round (Atomic.get payload);
    Domain.join writer
  done

(* Relaxed reads of a location the reader itself wrote (the own-slot
   mirror pattern used by the schemes) are exact by program order. *)
let relaxed_own_writes () =
  let slot = Atomic.make (-1) in
  for i = 0 to 1_000 do
    Atomic.set slot i;
    Alcotest.(check int) "own write mirrored" i (Mp_util.Relaxed.get slot)
  done

(* -- GC sampling ---------------------------------------------------------- *)

(* A sample counts the calling domain's words only: a spawned domain's
   3M two-word refs land in its own delta, and the main domain, which
   only waits for it, sees next to nothing of them. The window opens
   after the spawn, whose own bookkeeping allocates on the main domain. *)
let gcstat_counts_own_domain () =
  let go = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        let before = Mp_util.Gcstat.sample () in
        for i = 1 to 3_000_000 do
          ignore (Sys.opaque_identity (ref i))
        done;
        Mp_util.Gcstat.alloc_words ~before ~after:(Mp_util.Gcstat.sample ()))
  in
  let before = Mp_util.Gcstat.sample () in
  Atomic.set go true;
  let spawned = Domain.join d in
  let own = Mp_util.Gcstat.alloc_words ~before ~after:(Mp_util.Gcstat.sample ()) in
  Alcotest.(check bool) (Printf.sprintf "spawned domain counted (%.0f words)" spawned) true
    (spawned > 5e6);
  Alcotest.(check bool) (Printf.sprintf "main domain not charged (%.0f words)" own) true
    (own < 1_000.0)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split decorrelates" `Quick rng_split_decorrelates;
          Alcotest.test_case "below range" `Quick rng_below_in_range;
          Alcotest.test_case "float range" `Quick rng_float_unit_interval;
          Alcotest.test_case "uniformity" `Quick rng_uniformity;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "uniform" `Quick keygen_uniform;
          Alcotest.test_case "zipf skew" `Quick keygen_zipf_skew;
          Alcotest.test_case "ascending" `Quick keygen_ascending;
        ] );
      ( "counters",
        [
          Alcotest.test_case "striped basics" `Quick striped_counter;
          Alcotest.test_case "striped parallel" `Quick striped_counter_parallel;
          Alcotest.test_case "backoff" `Quick backoff_grows_and_resets;
        ] );
      ( "relaxed",
        [
          Alcotest.test_case "two-domain handshake" `Quick relaxed_handshake;
          Alcotest.test_case "own-slot mirror" `Quick relaxed_own_writes;
        ] );
      ("gcstat", [ Alcotest.test_case "per-domain words" `Quick gcstat_counts_own_domain ]);
    ]
