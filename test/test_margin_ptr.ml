(* Margin-pointer specifics: index creation (Listing 5), USE_HP collision
   handling (§4.3.2), the fence-free fast path, the HE-style epoch filter,
   and the epoch-change fallback to hazard pointers. *)

module MP = Mp.Margin_ptr
module Config = Smr_core.Config
module Core = Mempool.Core

let make ?(threads = 2) ?(margin = 1 lsl 20) () =
  let pool = Core.create ~capacity:512 ~threads () in
  let config =
    Config.with_margin (Config.with_empty_freq (Config.default ~threads) 1) margin
  in
  (pool, MP.create ~pool ~threads config)

(* Listing 5: a new node's index is the midpoint of the final search
   interval's endpoint indices. *)
let index_is_midpoint () =
  let pool, smr = make () in
  let th = MP.thread smr ~tid:0 in
  let lo = MP.alloc_with_index th ~index:1000 in
  let hi = MP.alloc_with_index th ~index:5000 in
  MP.start_op th;
  MP.update_lower_bound th lo;
  MP.update_upper_bound th hi;
  let id = MP.alloc th in
  MP.end_op th;
  Alcotest.(check int) "midpoint" 3000 (Core.index pool id)

let index_ordering_preserved () =
  (* Repeated bisection keeps the key→index mapping order-preserving. *)
  let pool, smr = make () in
  let th = MP.thread smr ~tid:0 in
  let head = MP.alloc_with_index th ~index:Config.min_sentinel_index in
  let tail = MP.alloc_with_index th ~index:Config.max_sentinel_index in
  (* insert "keys" 0..9 in random positions of a conceptual ordered list *)
  let nodes = ref [ (min_int, head); (max_int, tail) ] in
  let rng = Mp_util.Rng.create 42 in
  for _ = 1 to 30 do
    let key = Mp_util.Rng.below rng 1_000_000 in
    if not (List.mem_assoc key !nodes) then begin
      let sorted = List.sort compare !nodes in
      let pred = List.fold_left (fun acc (k, n) -> if k < key then Some n else acc) None sorted in
      let succ = List.find_opt (fun (k, _) -> k > key) sorted in
      match (pred, succ) with
      | Some p, Some (_, s) ->
        MP.start_op th;
        MP.update_lower_bound th p;
        MP.update_upper_bound th s;
        let id = MP.alloc th in
        MP.end_op th;
        if Core.index pool id <> Config.use_hp then nodes := (key, id) :: !nodes
      | _ -> ()
    end
  done;
  let sorted = List.sort compare !nodes in
  let rec check_monotone = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      if Core.index pool a > Core.index pool b then
        Alcotest.failf "index order broken: %d > %d" (Core.index pool a) (Core.index pool b);
      check_monotone rest
    | _ -> ()
  in
  check_monotone sorted

(* §4.3.2: no room between the bounds means the node is stamped USE_HP. *)
let collision_yields_use_hp () =
  let pool, smr = make () in
  let th = MP.thread smr ~tid:0 in
  let a = MP.alloc_with_index th ~index:100 in
  let b = MP.alloc_with_index th ~index:101 in
  MP.start_op th;
  MP.update_lower_bound th a;
  MP.update_upper_bound th b;
  let id = MP.alloc th in
  MP.end_op th;
  Alcotest.(check int) "USE_HP stamp" Config.use_hp (Core.index pool id)

let use_hp_bound_propagates () =
  let pool, smr = make () in
  let th = MP.thread smr ~tid:0 in
  let a = MP.alloc_with_index th ~index:Config.use_hp in
  let b = MP.alloc_with_index th ~index:500_000 in
  MP.start_op th;
  MP.update_lower_bound th a;
  MP.update_upper_bound th b;
  let id = MP.alloc th in
  MP.end_op th;
  Alcotest.(check int) "collided bound propagates" Config.use_hp (Core.index pool id)

(* The point of margins: consecutive reads of nodes inside one margin cost
   one fence total, not one per dereference. *)
let fast_path_is_fence_free () =
  let _, smr = make () in
  let th = MP.thread smr ~tid:0 in
  MP.start_op th;
  let mk index =
    let id = MP.alloc_with_index th ~index in
    Atomic.make (MP.handle_of th id)
  in
  (* indices within one margin (2^20) of each other *)
  let links = List.init 8 (fun i -> mk (0x4000_0000 + (i * 70_000))) in
  let fences_before = (MP.stats smr).Smr_core.Smr_intf.fences in
  List.iter (fun l -> ignore (MP.read th ~refno:0 l : Handle.t)) links;
  let fences_after = (MP.stats smr).Smr_core.Smr_intf.fences in
  MP.end_op th;
  Alcotest.(check bool)
    (Printf.sprintf "one publish for 8 reads (got %d)" (fences_after - fences_before))
    true
    (fences_after - fences_before <= 2)

let hp_fallback_on_use_hp_nodes () =
  let _, smr = make () in
  let th = MP.thread smr ~tid:0 in
  MP.start_op th;
  let id = MP.alloc_with_index th ~index:Config.use_hp in
  let link = Atomic.make (MP.handle_of th id) in
  let before = (MP.stats smr).Smr_core.Smr_intf.hp_fallbacks in
  ignore (MP.read th ~refno:0 link : Handle.t);
  let after = (MP.stats smr).Smr_core.Smr_intf.hp_fallbacks in
  Alcotest.(check bool) "took the HP path" true (after > before);
  Alcotest.(check int) "hp slot holds the node" id (MP.Debug.hp_slot smr ~tid:0 ~refno:0);
  MP.end_op th

(* §4.3.2: observing the epoch changing mid-operation switches the thread
   to hazard pointers for new protections. *)
let epoch_change_triggers_hp_mode () =
  let _, smr = make () in
  let th = MP.thread smr ~tid:0 in
  MP.start_op th;
  Alcotest.(check bool) "starts in margin mode" false (MP.Debug.use_hp_mode th);
  let id = MP.alloc_with_index th ~index:0x2000_0000 in
  let link = Atomic.make (MP.handle_of th id) in
  ignore (MP.read th ~refno:0 link : Handle.t);
  (* the global epoch advances (another thread's unlink quota) *)
  Smr_core.Epoch.advance (MP.Debug.epoch smr);
  let id2 = MP.alloc_with_index th ~index:0x7000_0000 in
  let link2 = Atomic.make (MP.handle_of th id2) in
  ignore (MP.read th ~refno:1 link2 : Handle.t);
  Alcotest.(check bool) "switched to HP mode" true (MP.Debug.use_hp_mode th);
  Alcotest.(check int) "protected via HP" id2 (MP.Debug.hp_slot smr ~tid:0 ~refno:1);
  MP.end_op th;
  MP.start_op th;
  Alcotest.(check bool) "mode resets per op" false (MP.Debug.use_hp_mode th);
  MP.end_op th

(* The reclamation-side epoch filter (Theorem 4.2): a margin only vetoes
   reclamation when the announcing thread's epoch intersects the node's
   birth–death interval. *)
let epoch_filter_limits_margin_protection () =
  let pool, smr = make () in
  let th0 = MP.thread smr ~tid:0 and th1 = MP.thread smr ~tid:1 in
  (* th1 announces its epoch and publishes a margin around index I *)
  MP.start_op th1;
  let anchor = MP.alloc_with_index th1 ~index:0x3000_0000 in
  let link = Atomic.make (MP.handle_of th1 anchor) in
  ignore (MP.read th1 ~refno:0 link : Handle.t);
  (* epoch advances well past th1's announcement *)
  for _ = 1 to 3 do
    Smr_core.Epoch.advance (MP.Debug.epoch smr)
  done;
  (* a node with the same index range is born and dies after th1's epoch *)
  MP.start_op th0;
  let doomed = MP.alloc_with_index th0 ~index:0x3000_0100 in
  MP.retire th0 doomed;
  MP.flush th0;
  MP.end_op th0;
  Alcotest.(check bool) "born-after-epoch node reclaimed despite margin" true
    (Core.is_free pool doomed);
  MP.end_op th1

let end_op_clears_slots () =
  let _, smr = make () in
  let th = MP.thread smr ~tid:0 in
  MP.start_op th;
  let id = MP.alloc_with_index th ~index:0x1000_0000 in
  let link = Atomic.make (MP.handle_of th id) in
  ignore (MP.read th ~refno:2 link : Handle.t);
  Alcotest.(check bool) "margin published" true (MP.Debug.mp_slot smr ~tid:0 ~refno:2 >= 0);
  MP.end_op th;
  Alcotest.(check int) "margin cleared" (-1) (MP.Debug.mp_slot smr ~tid:0 ~refno:2);
  Alcotest.(check int) "hazard cleared" (-1) (MP.Debug.hp_slot smr ~tid:0 ~refno:2)

(* The reader publishes coverage for an idx16 interval; [empty] must use
   the same predicate. Retire nodes at the exact boundary idx16s of a
   published margin and check keep/free decisions match coverage. *)
let reclaim_coverage_boundary () =
  let margin = 1 lsl 20 in
  let pool, smr = make ~margin () in
  let th0 = MP.thread smr ~tid:0 and th1 = MP.thread smr ~tid:1 in
  MP.start_op th1;
  (* publish a margin around index I by reading a node *)
  let i = 0x4000_8000 in
  let anchor = MP.alloc_with_index th1 ~index:i in
  let link = Atomic.make (MP.handle_of th1 anchor) in
  ignore (MP.read th1 ~refno:0 link : Handle.t);
  let v = (i land lnot 0xFFFF) + 0x8000 in
  (* published value = midpoint of the node's precision range *)
  let lo16 = (v - (margin / 2) + 0xFFFF) asr 16 in
  let hi16 = (v + (margin / 2) - 0xFFFF) asr 16 in
  MP.start_op th0;
  let covered_lo = MP.alloc_with_index th0 ~index:(lo16 lsl 16) in
  let covered_hi = MP.alloc_with_index th0 ~index:((hi16 lsl 16) lor 0xFFFF) in
  let outside_lo = MP.alloc_with_index th0 ~index:(((lo16 - 1) lsl 16) lor 0xFFFF) in
  let outside_hi = MP.alloc_with_index th0 ~index:((hi16 + 1) lsl 16) in
  List.iter (MP.retire th0) [ covered_lo; covered_hi; outside_lo; outside_hi ];
  MP.flush th0;
  MP.end_op th0;
  Alcotest.(check bool) "inside-low kept" false (Core.is_free pool covered_lo);
  Alcotest.(check bool) "inside-high kept" false (Core.is_free pool covered_hi);
  Alcotest.(check bool) "outside-low freed" true (Core.is_free pool outside_lo);
  Alcotest.(check bool) "outside-high freed" true (Core.is_free pool outside_hi);
  MP.end_op th1;
  MP.flush th0

(* Reference coverage predicate (Appendix A items 6-7), evaluated per
   node: the margin at [v] must contain the whole precision range of
   [idx16], which must lie below the USE_HP idx16. [MP.cover_interval]
   must agree with it. *)
let precision_range = 1 lsl Handle.precision

let covers margin v idx16 =
  idx16 >= max 0 ((v - (margin / 2) + precision_range - 1) asr Handle.precision)
  && idx16
     <= min (Handle.idx16_mask - 1) ((v + (margin / 2) - (precision_range - 1)) asr Handle.precision)

(* Publish a margin in [th]'s slot [refno] by reading a node of index
   [index]. *)
let publish_margin th ~refno index =
  let a = MP.alloc_with_index th ~index in
  ignore (MP.read th ~refno (Atomic.make (MP.handle_of th a)) : Handle.t)

(* th1 publishes a margin around index [anchor]; th0 then retires one
   node per index in [idxs] and flushes. Returns the nodes' freed flags,
   in [idxs] order. *)
let retire_under_margin ~anchor idxs =
  let pool, smr = make () in
  let th0 = MP.thread smr ~tid:0 and th1 = MP.thread smr ~tid:1 in
  MP.start_op th1;
  publish_margin th1 ~refno:0 anchor;
  MP.start_op th0;
  let ids = List.map (fun index -> MP.alloc_with_index th0 ~index) idxs in
  List.iter (MP.retire th0) ids;
  MP.flush th0;
  MP.end_op th0;
  let freed = List.map (Core.is_free pool) ids in
  MP.end_op th1;
  MP.flush th0;
  freed

(* A margin near index 0 is clipped at idx16 0: the bottom precision
   ranges are covered, the first idx16 past the margin is not. *)
let reclaim_coverage_clipped_low () =
  let margin = 1 lsl 20 in
  let v = precision_range / 2 (* the anchor's published value *) in
  let hi16 = (v + (margin / 2) - (precision_range - 1)) asr Handle.precision in
  Alcotest.(check (list bool)) "idx16 0 and hi kept, hi+1 freed" [ false; false; false; true ]
    (retire_under_margin ~anchor:0x10
       [ 0; precision_range - 1; (hi16 lsl 16) lor 0xFFFF; (hi16 + 1) lsl 16 ])

(* A margin at the top of the index space is clipped just below the
   USE_HP idx16: the highest margin-protectable idx16 is covered, a node
   packing to the USE_HP idx16 never is. *)
let reclaim_coverage_clipped_high () =
  let top16 = Handle.idx16_mask - 1 in
  Alcotest.(check (list bool)) "idx16 mask-1 kept, idx16 mask freed" [ false; false; true; true ]
    (retire_under_margin ~anchor:(top16 lsl 16)
       [ top16 lsl 16; Config.max_sentinel_index; Handle.idx16_mask lsl 16; Config.use_hp ])

(* Two threads publish several margins each; the one margin covering the
   target is the last entry of the scan's snapshot (highest tid, highest
   refno), and a node covered by the first entry is kept too. *)
let reclaim_coverage_last_margin () =
  let pool, smr = make ~threads:3 () in
  let th0 = MP.thread smr ~tid:0 and th1 = MP.thread smr ~tid:1 and th2 = MP.thread smr ~tid:2 in
  MP.start_op th1;
  MP.start_op th2;
  List.iteri (fun refno -> publish_margin th1 ~refno) [ 0x1000_0000; 0x2000_0000; 0x3000_0000 ];
  List.iteri (fun refno -> publish_margin th2 ~refno) [ 0x5000_0000; 0x6000_0000; 0x7000_0000 ];
  Alcotest.(check int) "covering margin in th2's last slot" (0x7000_0000 + 0x8000)
    (MP.Debug.mp_slot smr ~tid:2 ~refno:2);
  MP.start_op th0;
  let last = MP.alloc_with_index th0 ~index:0x7000_1234 in
  let first = MP.alloc_with_index th0 ~index:0x1000_4321 in
  let none = MP.alloc_with_index th0 ~index:0x4000_0000 in
  List.iter (MP.retire th0) [ last; first; none ];
  MP.flush th0;
  MP.end_op th0;
  Alcotest.(check bool) "covered by the last margin: kept" false (Core.is_free pool last);
  Alcotest.(check bool) "covered by the first margin: kept" false (Core.is_free pool first);
  Alcotest.(check bool) "covered by none: freed" true (Core.is_free pool none);
  MP.end_op th1;
  MP.end_op th2;
  MP.flush th0;
  Alcotest.(check bool) "freed once the margins clear" true (Core.is_free pool last)

(* A covering margin whose owner announced an epoch after the node's
   death cannot protect it: the node is freed. A node born and retired
   in the owner's epoch ([birth = death = e], the closed interval's edge)
   stays kept. *)
let reclaim_coverage_epoch_after_death () =
  let pool, smr = make ~threads:3 () in
  let th0 = MP.thread smr ~tid:0 and th1 = MP.thread smr ~tid:1 and th2 = MP.thread smr ~tid:2 in
  MP.start_op th2;
  publish_margin th2 ~refno:0 0x3000_0000;
  MP.start_op th0;
  let dead_early = MP.alloc_with_index th0 ~index:0x3000_0100 in
  MP.retire th0 dead_early;
  MP.flush th0;
  Alcotest.(check bool) "kept while th2's epoch spans it" false (Core.is_free pool dead_early);
  MP.end_op th0;
  Smr_core.Epoch.advance (MP.Debug.epoch smr);
  MP.start_op th1;
  publish_margin th1 ~refno:0 0x3000_0000;
  MP.end_op th2;
  MP.start_op th0;
  let same_epoch = MP.alloc_with_index th0 ~index:0x3000_0200 in
  MP.retire th0 same_epoch;
  MP.flush th0;
  MP.end_op th0;
  Alcotest.(check bool) "owner epoch after death: freed" true (Core.is_free pool dead_early);
  Alcotest.(check bool) "birth = death = owner epoch: kept" false (Core.is_free pool same_epoch);
  MP.end_op th1;
  MP.flush th0

(* The shared coverage function agrees with the reference predicate on
   random idx16s and on both edges of its interval. *)
let qcheck_cover_interval =
  QCheck.Test.make ~name:"cover_interval matches the reference predicate" ~count:2_000
    QCheck.(
      triple (int_range (1 lsl 16) (1 lsl 32)) (int_bound 0xFFFF_FFFF)
        (int_bound Handle.idx16_mask))
    (fun (margin, v, idx16) ->
      let lo = [| 0 |] and hi = [| 0 |] in
      MP.cover_interval ~margin v lo hi 0;
      let inside x = x >= lo.(0) && x <= hi.(0) in
      List.for_all
           (fun x -> inside x = covers margin v x)
           [ idx16; lo.(0) - 1; lo.(0); hi.(0); hi.(0) + 1 ])

(* unprotect is a no-op by design: the margin must keep protecting nodes
   accessed earlier in the operation (paper §4.3). *)
let unprotect_keeps_margin () =
  let pool, smr = make () in
  let th0 = MP.thread smr ~tid:0 and th1 = MP.thread smr ~tid:1 in
  MP.start_op th1;
  let id = MP.alloc_with_index th1 ~index:0x2000_0000 in
  let link = Atomic.make (MP.handle_of th1 id) in
  ignore (MP.read th1 ~refno:0 link : Handle.t);
  MP.unprotect th1 ~refno:0;
  MP.start_op th0;
  MP.retire th0 id;
  MP.flush th0;
  MP.end_op th0;
  Alcotest.(check bool) "still protected after unprotect" false (Core.is_free pool id);
  MP.end_op th1;
  MP.flush th0;
  Alcotest.(check bool) "freed after end_op" true (Core.is_free pool id)

(* Listing 10's fall-back story: a client that never reports bounds (a
   non-search structure) gets USE_HP stamps on every allocation. *)
let no_bounds_means_use_hp () =
  let pool, smr = make () in
  let th = MP.thread smr ~tid:0 in
  MP.start_op th;
  let id = MP.alloc th in
  MP.end_op th;
  Alcotest.(check int) "USE_HP without bound reports" Config.use_hp (Core.index pool id)

(* One-sided reports default the missing endpoint to its extreme. *)
let one_sided_bounds () =
  let pool, smr = make () in
  let th = MP.thread smr ~tid:0 in
  let pred = MP.alloc_with_index th ~index:1000 in
  MP.start_op th;
  MP.update_lower_bound th pred;
  let id = MP.alloc th in
  MP.end_op th;
  let idx = Core.index pool id in
  Alcotest.(check bool)
    (Printf.sprintf "index above predecessor (%d)" idx)
    true
    (idx > 1000 && idx < Config.use_hp);
  let succ = MP.alloc_with_index th ~index:50_000 in
  MP.start_op th;
  MP.update_upper_bound th succ;
  let id2 = MP.alloc th in
  MP.end_op th;
  let idx2 = Core.index pool id2 in
  Alcotest.(check bool)
    (Printf.sprintf "index below successor (%d)" idx2)
    true
    (idx2 > 0 && idx2 < 50_000)

let qcheck_midpoint_between_bounds =
  QCheck.Test.make ~name:"assigned index lies strictly between bounds" ~count:300
    QCheck.(pair (int_bound 0xFFFF_FF00) (int_bound 0xFF))
    (fun (lo, gap) ->
      QCheck.assume (gap >= 2);
      let pool, smr = make () in
      let th = MP.thread smr ~tid:0 in
      let a = MP.alloc_with_index th ~index:lo in
      let b = MP.alloc_with_index th ~index:(lo + gap) in
      MP.start_op th;
      MP.update_lower_bound th a;
      MP.update_upper_bound th b;
      let id = MP.alloc th in
      MP.end_op th;
      let idx = Core.index pool id in
      idx > lo && idx < lo + gap)

let () =
  Alcotest.run "margin_ptr"
    [
      ( "index creation",
        Alcotest.test_case "midpoint" `Quick index_is_midpoint
        :: Alcotest.test_case "order preserved" `Quick index_ordering_preserved
        :: Alcotest.test_case "collision USE_HP" `Quick collision_yields_use_hp
        :: Alcotest.test_case "USE_HP bound propagates" `Quick use_hp_bound_propagates
        :: Alcotest.test_case "no bounds -> USE_HP" `Quick no_bounds_means_use_hp
        :: Alcotest.test_case "one-sided bounds" `Quick one_sided_bounds
        :: List.map QCheck_alcotest.to_alcotest [ qcheck_midpoint_between_bounds ] );
      ( "protection",
        [
          Alcotest.test_case "fence-free fast path" `Quick fast_path_is_fence_free;
          Alcotest.test_case "HP fallback" `Quick hp_fallback_on_use_hp_nodes;
          Alcotest.test_case "epoch change -> HP mode" `Quick epoch_change_triggers_hp_mode;
          Alcotest.test_case "epoch filter" `Quick epoch_filter_limits_margin_protection;
          Alcotest.test_case "end_op clears slots" `Quick end_op_clears_slots;
          Alcotest.test_case "reclaim coverage boundary" `Quick reclaim_coverage_boundary;
          Alcotest.test_case "coverage clipped at idx16 0" `Quick reclaim_coverage_clipped_low;
          Alcotest.test_case "coverage clipped below USE_HP" `Quick reclaim_coverage_clipped_high;
          Alcotest.test_case "covering margin last in snapshot" `Quick
            reclaim_coverage_last_margin;
          Alcotest.test_case "owner epoch after death frees" `Quick
            reclaim_coverage_epoch_after_death;
          QCheck_alcotest.to_alcotest qcheck_cover_interval;
          Alcotest.test_case "unprotect keeps margin" `Quick unprotect_keeps_margin;
        ] );
    ]
