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
     harvest) must allocate nothing, as the ring promises;
   - NM-tree updates over MP, reclamation passes included, allocate
     next to nothing per operation;
   - a reclamation pass allocates O(1) words however long the retired
     backlog it re-examines, under every scheme. *)

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

(* -- NM-tree updates ----------------------------------------------------- *)

module B = Dstruct.Nm_bst.Make (Mp.Margin_ptr)

(* 50/50 insert/remove over a key range twice the populated size, so
   about half of each kind succeed and every op that retires the
   threshold-th node pays a whole pass. *)
let nm_bst_updates_alloc () =
  let size = 8_192 in
  let range = 2 * size in
  let t = B.create ~threads:1 ~capacity:(8 * size) (Config.default ~threads:1) in
  let s = B.session t ~tid:0 in
  let rng = Mp_util.Rng.create 17 in
  let step () =
    let k = Mp_util.Rng.below rng range in
    if Mp_util.Rng.below rng 2 = 0 then ignore (B.insert s ~key:k ~value:k : bool)
    else ignore (B.remove s k : bool)
  in
  (* Random insertion order: the tree is unbalanced. *)
  let n = ref 0 in
  while !n < size do
    let k = Mp_util.Rng.below rng range in
    if B.insert s ~key:k ~value:k then incr n
  done;
  for _ = 1 to 20_000 do
    step ()
  done;
  let passes0 = (B.smr_stats t).Smr_core.Smr_intf.scan_passes in
  let ops = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to ops do
    step ()
  done;
  let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
  if (B.smr_stats t).Smr_core.Smr_intf.scan_passes = passes0 then
    Alcotest.fail "no reclamation pass ran during the measured ops";
  if per_op >= 2.0 then
    Alcotest.failf "nm_bst(mp) updates allocate %.2f minor words/op (expected < 2)" per_op

(* -- reclamation passes ----------------------------------------------------- *)

let backlog = 4_096
let passes = 10

(* Ten passes, each over [backlog] retired nodes, must allocate under one
   word per examined node: the pass's own O(1) words, none per node.
   With [pinned], tid 1 holds an open reservation covering every node
   (read before they retire, after they were born; MP nodes carry real
   indices inside its margin), so each flush re-examines and keeps the
   whole backlog. Without it (HP, whose hazards pin single nodes) each
   flush frees a freshly retired backlog. Automatic passes are disabled
   by an [empty_freq] above the backlog, so only the flushes scan. *)
let pass_alloc (module S : Smr_core.Smr_intf.S) ~pinned () =
  let threads = 2 in
  let pool = Mempool.Core.create ~capacity:((2 * backlog) + 1_024) ~threads () in
  let config = Config.with_empty_freq (Config.default ~threads) (4 * backlog) in
  let smr = S.create ~pool ~threads config in
  let th0 = S.thread smr ~tid:0 and th1 = S.thread smr ~tid:1 in
  let index = 0x4000_8000 in
  let fill () =
    let ids = Array.init backlog (fun _ -> S.alloc_with_index th0 ~index) in
    if pinned then begin
      S.start_op th1;
      let anchor = S.alloc_with_index th1 ~index in
      ignore (S.read th1 ~refno:0 (Atomic.make (S.handle_of th1 anchor)) : Handle.t)
    end;
    S.start_op th0;
    Array.iter (S.retire th0) ids;
    S.end_op th0;
    ids
  in
  let ids = fill () in
  S.flush th0 (* warm: the pass's buffers grow once *);
  let words = ref 0.0 in
  for _ = 1 to passes do
    let ids = if pinned then ids else fill () in
    let before = Gc.minor_words () in
    S.flush th0;
    words := !words +. (Gc.minor_words () -. before);
    let kept = Array.for_all (fun id -> not (Mempool.Core.is_free pool id)) ids in
    if kept <> pinned then
      Alcotest.failf "%s: backlog %s by the pass" S.name (if kept then "kept" else "freed")
  done;
  let per_node = !words /. float_of_int (passes * backlog) in
  if per_node >= 1.0 then
    Alcotest.failf "%s: a pass allocates %.3f minor words per examined node (expected < 1)"
      S.name per_node

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
      ( "nm-bst",
        [ Alcotest.test_case "mp 50/50 updates < 2 words/op" `Quick nm_bst_updates_alloc ] );
      ( "reclamation-pass",
        List.map
          (fun (name, smr, pinned) ->
            Alcotest.test_case (name ^ " pass < 1 word/examined node") `Quick
              (pass_alloc smr ~pinned))
          [
            ("mp", (module Mp.Margin_ptr : Smr_core.Smr_intf.S), true);
            ("hp", (module Smr_schemes.Hp), false);
            ("he", (module Smr_schemes.He), true);
            ("ibr", (module Smr_schemes.Ibr), true);
            ("ebr", (module Smr_schemes.Ebr), true);
          ] );
    ]
