(** Natarajan–Mittal lock-free external binary search tree (PPoPP 2014),
    §5.3 of the paper.

    Keys live in leaves; internal nodes only route searches. Deletion
    marks *edges*: a {e flag} on the edge to a leaf means that leaf is
    being removed, a {e tag} freezes an edge so the removal can swing the
    deepest untagged ancestor edge over the surviving sibling subtree in
    one CAS. That CAS may coalesce several pending deletions — the chain
    of tagged internal nodes between the seek record's successor and
    parent, each with its flagged leaf — and its winner retires the whole
    unlinked chain.

    Initial state (paper Figure 1): routing internals R (key ∞₂) and
    S (key ∞₁) and sentinel leaves ∞₀ < ∞₁ < ∞₂; every client key
    compares below ∞₀, so the sentinels are never removed.

    MP integration (Listing 9): seek narrows the search interval at every
    node it descends through. The internal routing sentinels get the
    maximal sentinel index (they bound every search from above); the new
    internal node allocated by insert duplicates the key of one of its
    leaves and therefore shares that leaf's index, keeping the
    order-preserving index invariant (external trees necessarily duplicate
    keys between a leaf and its routing node).

    PPV discipline: six protection slots are juggled between the roles
    (ancestor, successor, parent, leaf, current); a role change relabels
    which slot plays which role and never copies protection between slots. *)

module Sc = Mp_util.Striped_counter
module Config = Smr_core.Config

let flag = 1 (* edge mark: the leaf this edge points to is being removed *)
let tag = 2 (* edge mark: edge frozen; the node it leaves is being removed *)

module Make (S : Smr_core.Smr_intf.S) = struct
  type node = {
    mutable key : int;
    mutable value : int;
    left : int Atomic.t;
    right : int Atomic.t;
  }

  type t = {
    pool : node Mempool.t;
    smr : S.t;
    root : int; (* R *)
    s_node : int; (* S *)
    inf0 : int;
    traversed : Sc.t;
    threads : int;
  }

  (** Reusable per-session seek record: [seek] writes its outcome here
      instead of allocating a record per call (the walk threads its state
      through top-level recursion, so a whole descent allocates nothing).
      Owned by the session's single thread and fully overwritten by every
      seek. *)
  type seek_record = {
    mutable ancestor : int;
    mutable successor : int;
    mutable parent : int;
    mutable leaf : int;
    mutable leaf_w : Handle.t; (* unmarked handle of [leaf] *)
    mutable bound_lo : int; (* last node routed right from (-1 = none); protected *)
    mutable bound_hi : int; (* last node routed left from (-1 = none); protected *)
  }

  type session = {
    t : t;
    th : S.thread;
    tid : int;
    sr : seek_record;
    mutable trav : int; (* batched visit count, flushed once per op *)
  }

  let name = "nm-bst(" ^ S.name ^ ")"
  let slots_needed = 6

  (* Sentinel keys: every client key must be smaller than [inf0]. *)
  let inf0_key = max_int - 2
  let inf1_key = max_int - 1
  let inf2_key = max_int
  let max_client_key = inf0_key - 1

  let node t id = Mempool.get t.pool id

  let create ~threads ~capacity ?(check_access = false) config =
    let pool =
      Mempool.create ~capacity ~threads ~check_access ~max_arenas:config.Config.max_arenas
        (fun _ ->
          { key = 0; value = 0; left = Atomic.make Handle.null; right = Atomic.make Handle.null })
    in
    let smr =
      S.create ~pool:(Mempool.core pool) ~threads (Config.with_slots config slots_needed)
    in
    let th0 = S.thread smr ~tid:0 in
    let mk ~index ~key =
      let id = S.alloc_with_index th0 ~index in
      (Mempool.unsafe_get pool id).key <- key;
      id
    in
    (* The routing internals bound every search interval from above, so
       they carry the maximal sentinel index; the unreachable-by-search
       leaves ∞₁/∞₂ keep USE_HP as in the paper. *)
    let inf0 = mk ~index:Config.max_sentinel_index ~key:inf0_key in
    let inf1 = mk ~index:Config.use_hp ~key:inf1_key in
    let inf2 = mk ~index:Config.use_hp ~key:inf2_key in
    let s_node = mk ~index:Config.max_sentinel_index ~key:inf1_key in
    let root = mk ~index:Config.max_sentinel_index ~key:inf2_key in
    let sn = Mempool.unsafe_get pool s_node and rn = Mempool.unsafe_get pool root in
    Atomic.set sn.left (S.handle_of th0 inf0);
    Atomic.set sn.right (S.handle_of th0 inf1);
    Atomic.set rn.left (S.handle_of th0 s_node);
    Atomic.set rn.right (S.handle_of th0 inf2);
    { pool; smr; root; s_node; inf0; traversed = Sc.create ~threads; threads }

  let session t ~tid =
    {
      t;
      th = S.thread t.smr ~tid;
      tid;
      sr =
        { ancestor = 0; successor = 0; parent = 0; leaf = 0; leaf_w = Handle.null;
          bound_lo = -1; bound_hi = -1 };
      trav = 0;
    }

  let batch_enter s = S.batch_enter s.th
  let batch_exit s = S.batch_exit s.th

  let flush_trav s =
    if s.trav > 0 then begin
      Sc.add s.t.traversed ~tid:s.tid s.trav;
      s.trav <- 0
    end

  (** Edge of [n] on the side a search for [k] descends. *)
  let child_field n k = if k < n.key then n.left else n.right

  let sibling_field n k = if k < n.key then n.right else n.left

  (* Roles are slot numbers; [pick_scan] finds a slot free of any role
     (top-level so no closure is built per seek step). *)
  let rec pick_scan used i = if used land (1 lsl i) = 0 then i else pick_scan used (i + 1)

  let[@inline] pick ~ra ~rs ~rp ~rl =
    pick_scan ((1 lsl ra) lor (1 lsl rs) lor (1 lsl rp) lor (1 lsl rl)) 0

  (** Listing 9: descend from S, remembering the deepest untagged edge
      (ancestor → successor) and the final parent → leaf pair, and report
      the shrinking search interval to the SMR scheme. The outcome lands
      in [s.sr] (per-session, reused) instead of a fresh record.

      A removal retires a whole frozen chain with one CAS on the deepest
      untagged edge above it, and frozen edges never change — so the
      per-edge validation performed by pointer-based SMR reads cannot
      detect that a node reached through a frozen edge has been reclaimed.
      Seek therefore re-validates the current ancestor → successor edge
      after protecting each node and before touching its payload: any
      chain containing the node must have swung exactly that edge.

      Entry invariant of [seek_walk]: [into_leaf_field]/[into_leaf_w] are
      the edge into [leaf] (atomic and the word as read); [current_w] was
      read from [current_field], the edge from [leaf] toward [k]. *)
  let rec seek s k =
    let t = s.t in
    let sn = node t t.s_node in
    let into_leaf_w = S.read s.th ~refno:3 sn.left in
    let leaf = Handle.id into_leaf_w in
    let current_field = (node t leaf).left in
    let current_w = S.read s.th ~refno:4 current_field in
    seek_walk s k ~ra:0 ~rs:1 ~rp:2 ~rl:3 ~rc:4 ~ancestor:t.root ~successor:t.s_node
      ~parent:t.s_node ~leaf ~into_leaf_field:sn.left ~into_leaf_w
      ~ancestor_field:(node t t.root).left ~current_field ~bound_lo:(-1) ~bound_hi:(-1)
      current_w

  and seek_walk s k ~ra ~rs ~rp ~rl ~rc ~ancestor ~successor ~parent ~leaf ~into_leaf_field
      ~into_leaf_w ~ancestor_field ~current_field ~bound_lo ~bound_hi current_w =
    let t = s.t in
    if Handle.is_null current_w then begin
      let sr = s.sr in
      sr.ancestor <- ancestor;
      sr.successor <- successor;
      sr.parent <- parent;
      sr.leaf <- leaf;
      sr.leaf_w <- Handle.with_mark into_leaf_w 0;
      sr.bound_lo <- bound_lo;
      sr.bound_hi <- bound_hi
    end
    else begin
      s.trav <- s.trav + 1;
      (* Scalar conditional rebinding (not an if-of-tuples, which would
         allocate a tuple per visited node). *)
      let untagged = Handle.mark into_leaf_w land tag = 0 in
      let ra = if untagged then rp else ra in
      let rs = if untagged then rl else rs in
      let ancestor = if untagged then parent else ancestor in
      let successor = if untagged then leaf else successor in
      let ancestor_field = if untagged then into_leaf_field else ancestor_field in
      let rp = rl and parent = leaf in
      let rl = rc and leaf = Handle.id current_w in
      (* The node is reclaimable only through a swing of the deepest
         untagged edge above it. That is [ancestor_field] as long as the
         edge is still untagged: a tag on it means the edge has been
         frozen into a chain that a *higher* untagged edge will swing, so
         only [id unchanged AND still untagged] proves nothing below
         [successor] has been retired yet. *)
      let av = Atomic.get ancestor_field in
      if Handle.id av <> successor || Handle.mark av land tag <> 0 then seek s k
      else begin
        let leaf_node = node t leaf in
        let goes_left = k < leaf_node.key in
        let next_field = if goes_left then leaf_node.left else leaf_node.right in
        let bound_lo = if goes_left then bound_lo else leaf in
        let bound_hi = if goes_left then leaf else bound_hi in
        let rc = pick ~ra ~rs ~rp ~rl in
        let next_w = S.read s.th ~refno:rc next_field in
        seek_walk s k ~ra ~rs ~rp ~rl ~rc ~ancestor ~successor ~parent ~leaf
          ~into_leaf_field:current_field ~into_leaf_w:current_w ~ancestor_field
          ~current_field:next_field ~bound_lo ~bound_hi next_w
      end
    end

  (** Retire the chain unlinked by a successful cleanup CAS: the internal
      nodes from [successor] down to [parent] (each frozen, carrying a
      flagged leaf off the search path) plus the removed leaf under
      [parent] — the child on the side the swing did {e not} keep
      ([kept_sibling] says which). The kept edge may itself carry a
      migrated flag, so flags alone cannot identify the removed leaf. All
      edges in the chain are flagged/tagged, hence immutable; fields are
      read before the node is retired. The walk starts at [cur =
      successor]. *)
  let rec retire_chain s k ~parent ~kept_sibling cur =
    let n = node s.t cur in
    let path_next = Handle.id (Atomic.get (child_field n k)) in
    let off_path = Atomic.get (sibling_field n k) in
    if cur <> parent then begin
      S.retire s.th (Handle.id off_path);
      S.retire s.th cur;
      retire_chain s k ~parent ~kept_sibling path_next
    end
    else begin
      let removed = if kept_sibling then Atomic.get (child_field n k) else off_path in
      assert (Handle.mark removed land flag <> 0);
      S.retire s.th (Handle.id removed);
      S.retire s.th cur
    end

  type cleanup_result =
    | Won  (** our swing CAS unlinked the chain (and we retired it) *)
    | Lost  (** a pending removal exists but another thread's CAS won *)
    | No_pending  (** no flag under [parent]: the seek record is stale *)

  (* Freeze edge [f] with a tag, preserving a flag another removal may
     already have put on it (that flag migrates up with the swing), and
     return the frozen word. *)
  let rec freeze f =
    let w = Atomic.get f in
    if Handle.mark w land tag <> 0 then w
    else if Atomic.compare_and_set f w (Handle.with_mark w (Handle.mark w lor tag)) then
      Handle.with_mark w (Handle.mark w lor tag)
    else freeze f

  (** Attempt to complete the removal recorded in [sr]: freeze the
      surviving edge with a tag, then swing the ancestor → successor edge
      over the surviving subtree. Defensive against seek-record staleness:
      acts only when a flag is actually present under [parent] (helping
      someone else's removal is then still correct). *)
  let cleanup s k (sr : seek_record) =
    let t = s.t in
    let ancestor_n = node t sr.ancestor in
    let parent_n = node t sr.parent in
    let ancestor_field = child_field ancestor_n k in
    let child_f = child_field parent_n k in
    let sibling_f = sibling_field parent_n k in
    let child_w = Atomic.get child_f in
    (* A flag on our edge keeps the sibling; otherwise a flag on the
       sibling edge (the flagged leaf is off our path) keeps our side. *)
    let kept_sibling = Handle.mark child_w land flag <> 0 in
    if (not kept_sibling) && Handle.mark (Atomic.get sibling_f) land flag = 0 then No_pending
    else begin
      let frozen = freeze (if kept_sibling then sibling_f else child_f) in
      let expected = S.handle_of s.th sr.successor in
      let replacement = Handle.with_mark frozen (Handle.mark frozen land flag) in
      if Atomic.compare_and_set ancestor_field expected replacement then begin
        retire_chain s k ~parent:sr.parent ~kept_sibling sr.successor;
        Won
      end
      else Lost
    end

  let rec insert_loop s ~key ~value =
    let t = s.t in
    seek s key;
    let sr = s.sr in
    let leaf_n = node t sr.leaf in
    if leaf_n.key = key then false
    else begin
      let leaf_key = leaf_n.key in
      (* report the final search interval: the last right-turn node
         bounds from below, the last left-turn node from above (plus the
         final leaf on whichever side it falls) *)
      let lo = if key < leaf_key then sr.bound_lo else sr.leaf in
      let hi = if key < leaf_key then sr.leaf else sr.bound_hi in
      if lo >= 0 then S.update_lower_bound s.th lo;
      if hi >= 0 then S.update_upper_bound s.th hi;
      let new_leaf = S.alloc s.th in
      let ln = Mempool.unsafe_get t.pool new_leaf in
      ln.key <- key;
      ln.value <- value;
      Atomic.set ln.left Handle.null;
      Atomic.set ln.right Handle.null;
      (* The router duplicates the larger of the two keys and shares the
         index of the node carrying that key. *)
      let router_key = max key leaf_key in
      let router_index =
        if key < leaf_key then Mempool.Core.index (Mempool.core t.pool) sr.leaf
        else Mempool.Core.index (Mempool.core t.pool) new_leaf
      in
      let router = S.alloc_with_index s.th ~index:router_index in
      let rn = Mempool.unsafe_get t.pool router in
      rn.key <- router_key;
      let new_leaf_w = S.handle_of s.th new_leaf in
      if key < leaf_key then begin
        Atomic.set rn.left new_leaf_w;
        Atomic.set rn.right sr.leaf_w
      end
      else begin
        Atomic.set rn.left sr.leaf_w;
        Atomic.set rn.right new_leaf_w
      end;
      let parent_field = child_field (node t sr.parent) key in
      if Atomic.compare_and_set parent_field sr.leaf_w (S.handle_of s.th router) then true
      else begin
        (* Not linked: recycle both slots; help a pending removal of the
           leaf if that is what beat us. *)
        Mempool.free t.pool ~tid:s.tid new_leaf;
        Mempool.free t.pool ~tid:s.tid router;
        let w = Atomic.get parent_field in
        if Handle.id w = sr.leaf && Handle.mark w <> 0 then
          ignore (cleanup s key sr : cleanup_result);
        insert_loop s ~key ~value
      end
    end

  let insert s ~key ~value =
    assert (key >= 0 && key <= max_client_key);
    S.start_op s.th;
    let result = insert_loop s ~key ~value in
    flush_trav s;
    S.end_op s.th;
    result

  (* Injection mode: flag the parent → leaf edge to claim the removal. *)
  let rec injection s key =
    seek s key;
    let sr = s.sr in
    let leaf_n = node s.t sr.leaf in
    if leaf_n.key <> key then false
    else begin
      let parent_field = child_field (node s.t sr.parent) key in
      if Atomic.compare_and_set parent_field sr.leaf_w (Handle.with_mark sr.leaf_w flag) then
        match cleanup s key sr with
        | Won -> true
        | Lost | No_pending -> cleanup_mode s key sr.leaf
      else begin
        let w = Atomic.get parent_field in
        if Handle.id w = sr.leaf && Handle.mark w <> 0 then
          ignore (cleanup s key sr : cleanup_result);
        injection s key
      end
    end

  (* Cleanup mode: our leaf is flagged; retry until it is unlinked (by us
     or a helper). Slot-reuse ABA is benign: [cleanup] re-verifies the
     flag before acting, and a [No_pending] answer on a same-id leaf
     means our flagged victim is already gone (flags are permanent while
     linked), i.e. some helper completed our removal. *)
  and cleanup_mode s key victim =
    seek s key;
    let sr = s.sr in
    if sr.leaf <> victim then true
    else
      match cleanup s key sr with
      | Won | No_pending -> true
      | Lost -> cleanup_mode s key victim

  let remove s key =
    assert (key >= 0 && key <= max_client_key);
    S.start_op s.th;
    let result = injection s key in
    flush_trav s;
    S.end_op s.th;
    result

  let contains s key =
    S.start_op s.th;
    seek s key;
    let result = (node s.t s.sr.leaf).key = key in
    flush_trav s;
    S.end_op s.th;
    result

  let contains_paused s key ~pause =
    S.start_op s.th;
    ignore (S.read s.th ~refno:3 (node s.t s.t.s_node).left : Handle.t);
    pause ();
    seek s key;
    let result = (node s.t s.sr.leaf).key = key in
    flush_trav s;
    S.end_op s.th;
    result

  let find s key =
    S.start_op s.th;
    seek s key;
    let leaf_n = node s.t s.sr.leaf in
    let result = if leaf_n.key = key then Some leaf_n.value else None in
    flush_trav s;
    S.end_op s.th;
    result

  (* -- sequential-only inspection ---------------------------------------- *)

  let fold_leaves t f acc =
    let rec go acc id =
      let n = Mempool.unsafe_get t.pool id in
      let l = Atomic.get n.left and r = Atomic.get n.right in
      if Handle.is_null l && Handle.is_null r then f acc id n
      else go (go acc (Handle.id l)) (Handle.id r)
    in
    go acc t.root

  let size t =
    fold_leaves t (fun acc _ n -> if n.key <= max_client_key then acc + 1 else acc) 0

  let check t =
    (* In-order leaves strictly increasing; internal keys route correctly;
       no residual marks; reachable nodes live. *)
    let rec walk id lo hi last =
      let n = Mempool.unsafe_get t.pool id in
      if Mempool.Core.state (Mempool.core t.pool) id <> Mempool.state_live then
        failwith "nm_bst: reachable node is not live";
      let l = Atomic.get n.left and r = Atomic.get n.right in
      if Handle.is_null l && Handle.is_null r then begin
        if not (n.key >= lo && n.key <= hi) then failwith "nm_bst: leaf key outside range";
        if n.key <= last then failwith "nm_bst: leaf keys not strictly increasing";
        n.key
      end
      else begin
        if Handle.is_null l || Handle.is_null r then
          failwith "nm_bst: internal node with one child";
        if Handle.mark l <> 0 || Handle.mark r <> 0 then
          failwith "nm_bst: residual edge mark in quiescent tree";
        let last = walk (Handle.id l) lo (n.key - 1) last in
        walk (Handle.id r) n.key hi last
      end
    in
    ignore (walk t.root min_int max_int min_int : int)

  let traversed t = Sc.sum t.traversed
  let smr_stats t = S.stats t.smr
  let violations t = Mempool.violations t.pool
  let pinning_tids t = S.pinning_tids t.smr
  let adopt t ~tid = S.adopt t.smr ~tid
  let live_nodes t = Mempool.live_count t.pool
  let pool t = Mempool.core t.pool
  let flush s =
    flush_trav s;
    S.flush s.th
end
