(* Zero-allocation read path: regression tests.

   The traversal hot paths were rewritten to allocate nothing (per-session
   cursors, top-level recursion, no per-op closures) and to batch the
   traversed counter into a per-session int flushed once per operation.
   These tests pin both properties down:

   - a read-only [contains] loop on michael-list(leaky) must allocate
     ~0 minor words per operation (measured via [Gc.minor_words] deltas);
   - the batched traversed counter must flush exactly once per operation
     (the striped counter shows the exact per-op visit count, no more) and
     lose no counts when sessions run on separate domains;
   - a request-ring chain's whole cycle (submit, complete, wait,
     harvest) must allocate nothing, as the ring promises. *)

module L = Dstruct.Michael_list.Make (Smr_schemes.Leaky)
module Config = Smr_core.Config

let make ~threads ~size =
  let t =
    L.create ~threads ~capacity:((4 * size) + 1024) (Config.default ~threads)
  in
  let s0 = L.session t ~tid:0 in
  for k = 0 to size - 1 do
    ignore (L.insert s0 ~key:k ~value:k : bool)
  done;
  (t, s0)

(* -- allocation regression ------------------------------------------------ *)

let read_path_alloc_free () =
  let size = 256 in
  let t, s = make ~threads:1 ~size in
  ignore (t : L.t);
  (* Warm the path first so one-time work (lazy stripes, first minor-heap
     fill pattern) is not billed to the measured loop. *)
  for i = 0 to 2_047 do
    ignore (L.contains s (i land 511) : bool)
  done;
  let ops = 50_000 in
  let before = Gc.minor_words () in
  for i = 0 to ops - 1 do
    (* Half hits (keys 0..255 present), half misses — both paths must be
       allocation-free. *)
    ignore (L.contains s (i land 511) : bool)
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
  if per_op >= 1.0 then
    Alcotest.failf "read path allocates %.3f minor words/op (expected ~0)" per_op

(* -- traversed-counter batching ------------------------------------------- *)

(* On a list holding 0..n-1, [contains k] visits exactly the k nodes with
   smaller keys plus the stopping node: k+1 visits. The striped counter
   must show exactly that after each operation — a lost flush would show
   less, a double flush more. *)
let traversed_flush_per_op () =
  let n = 32 in
  let t, s = make ~threads:1 ~size:n in
  let base = L.traversed t in
  ignore (L.contains s 5 : bool);
  Alcotest.(check int) "one op flushes its exact visit count" 6 (L.traversed t - base);
  let base = L.traversed t in
  ignore (L.contains s (n - 1) : bool);
  Alcotest.(check int) "last key visits the whole list" n (L.traversed t - base);
  (* The per-op flush left nothing behind: an explicit flush adds 0. *)
  let base = L.traversed t in
  L.flush s;
  Alcotest.(check int) "no residue after the per-op flush" 0 (L.traversed t - base)

let traversed_no_loss_across_domains () =
  let threads = 4 in
  let n = 64 in
  let t, _s0 = make ~threads ~size:n in
  let base = L.traversed t in
  let per_domain_ops = 1_000 in
  let key = 17 in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = L.session t ~tid in
            for _ = 1 to per_domain_ops do
              ignore (L.contains s key : bool)
            done))
  in
  Array.iter Domain.join domains;
  (* Read-only on a leaky list: every op deterministically visits key+1
     nodes, so the striped total is exact iff no flush was lost. *)
  Alcotest.(check int) "no visits lost across domains"
    (threads * per_domain_ops * (key + 1))
    (L.traversed t - base)

(* -- request-ring chains ---------------------------------------------------- *)

module Ring = Mp_service.Request_ring

(* One chain's client and consumer cycle on one domain: submit, complete
   every slot, the coalesced completion check and wait (already
   satisfied, so it returns at once), then the harvest. *)
let ring_chain_alloc_free n () =
  let r = Ring.create ~capacity:16 in
  let ops = Array.make n 0 and keys = Array.init n Fun.id and values = Array.make n 0 in
  let replies = Array.make n 0 in
  let cycle () =
    let ticket = Ring.try_submit_chain r ~n ~ops ~keys ~values ~off:0 in
    for i = 0 to n - 1 do
      ignore (Ring.complete r ~pos:(ticket + i) i : bool)
    done;
    if not (Ring.chain_done r ~ticket ~n) then Alcotest.fail "completed chain not done";
    Ring.await_chain r ~ticket ~n;
    Ring.harvest_chain r ~ticket ~n ~replies ~off:0
  in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let cycles = 50_000 in
  let before = Gc.minor_words () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let per_cycle = (Gc.minor_words () -. before) /. float_of_int cycles in
  if per_cycle >= 1.0 then
    Alcotest.failf "a chain of %d allocates %.2f minor words per cycle (expected ~0)" n
      per_cycle

let () =
  Alcotest.run "alloc"
    [
      ( "read-path",
        [ Alcotest.test_case "contains allocates ~0 words/op" `Quick read_path_alloc_free ] );
      ( "traversed-batching",
        [
          Alcotest.test_case "exact flush per op" `Quick traversed_flush_per_op;
          Alcotest.test_case "no loss across domains" `Quick traversed_no_loss_across_domains;
        ] );
      ( "ring-chain",
        [
          Alcotest.test_case "chain of 1 allocates ~0 words/cycle" `Quick
            (ring_chain_alloc_free 1);
          Alcotest.test_case "chain of 4 allocates ~0 words/cycle" `Quick
            (ring_chain_alloc_free 4);
        ] );
    ]
