(** Lock-free hash table: a fixed array of Michael-list buckets (Michael,
    SPAA 2002) sharing one pool and one SMR instance.

    This is the paper's "MP can be seamlessly plugged into any client that
    uses the HP interface" story exercised on a structure that is *not*
    globally ordered: each bucket is its own small search structure, so
    MP's interval protection still applies per bucket — the search interval
    of an insertion lives entirely inside one bucket's key order. It also
    demonstrates composition: the bucket algorithm is the list functor's
    seek/insert/remove logic re-instantiated over a shared substrate.

    Keys are partitioned, not just distributed: bucket b stores exactly the
    keys hashing to b, and within a bucket keys are sorted by a
    bucket-local order (the key itself), so Definition 4.1 holds per
    bucket. So is MP's index space: bucket b's head and tail sentinels
    carry indices [b * span] and [(b + 1) * span - 1], so every node of
    bucket b gets an index strictly inside that range and a margin only
    ever covers nodes of the bucket it was published for. A range shared
    by every bucket would give each empty bucket's first node the same
    midpoint index, so one margin on any of them would keep every retired
    midpoint node of every bucket until the next epoch advance. *)

module Sc = Mp_util.Striped_counter
module Config = Smr_core.Config

module Make (S : Smr_core.Smr_intf.S) = struct
  type node = {
    mutable key : int;
    mutable value : int;
    next : int Atomic.t;
  }

  type t = {
    pool : node Mempool.t;
    smr : S.t;
    heads : int array; (* bucket head sentinel ids; tails carry key max_int *)
    buckets : int;
    traversed : Sc.t;
    threads : int;
  }

  (** Reusable per-session seek cursor (see Michael_list.cursor): filled
      by [seek] in place of a per-call result record. *)
  type cursor = {
    mutable prev : int;
    mutable prev_next : int Atomic.t;
    mutable curr_w : Handle.t;
    mutable curr_key : int;
    mutable free_ref : int;
  }

  type session = {
    t : t;
    th : S.thread;
    tid : int;
    cur : cursor;
    mutable trav : int; (* batched visit count, flushed once per op *)
  }

  let name = "hash-table(" ^ S.name ^ ")"
  let slots_needed = 3
  let deleted = 1

  let node t id = Mempool.get t.pool id

  let create ~threads ~capacity ?(check_access = false) ?(buckets = 256) config =
    assert (buckets > 0 && buckets land (buckets - 1) = 0);
    let pool =
      Mempool.create ~capacity ~threads ~check_access ~max_arenas:config.Config.max_arenas
        (fun _ ->
          { key = 0; value = 0; next = Atomic.make Handle.null })
    in
    let smr =
      S.create ~pool:(Mempool.core pool) ~threads (Config.with_slots config slots_needed)
    in
    let th0 = S.thread smr ~tid:0 in
    let span = (Config.max_sentinel_index + 1) / buckets in
    let heads =
      Array.init buckets (fun b ->
          let tail = S.alloc_with_index th0 ~index:(((b + 1) * span) - 1) in
          (Mempool.unsafe_get pool tail).key <- max_int;
          let h = S.alloc_with_index th0 ~index:(b * span) in
          let hn = Mempool.unsafe_get pool h in
          hn.key <- min_int;
          Atomic.set hn.next (S.handle_of th0 tail);
          h)
    in
    { pool; smr; heads; buckets; traversed = Sc.create ~threads; threads }

  let session t ~tid =
    {
      t;
      th = S.thread t.smr ~tid;
      tid;
      cur =
        { prev = 0; prev_next = Atomic.make Handle.null; curr_w = Handle.null;
          curr_key = 0; free_ref = 0 };
      trav = 0;
    }

  let batch_enter s = S.batch_enter s.th
  let batch_exit s = S.batch_exit s.th

  let flush_trav s =
    if s.trav > 0 then begin
      Sc.add s.t.traversed ~tid:s.tid s.trav;
      s.trav <- 0
    end

  let bucket t k =
    (* Fibonacci multiplicative hashing; buckets is a power of two. *)
    let h = k * 0x2545F4914F6CDD1D in
    (h lsr 32) land (t.buckets - 1)

  (* Identical protocol to Michael_list.seek, rooted at the key's bucket;
     top-level recursion + session cursor keep it allocation-free. *)
  let rec seek_advance s k ~rp ~rc ~rn prev prev_next curr_w =
    let t = s.t in
    s.trav <- s.trav + 1;
    let curr = Handle.id curr_w in
    let curr_node = node t curr in
    let next_w = S.read s.th ~refno:rn curr_node.next in
    if Atomic.get prev_next <> curr_w then seek s k
    else if Handle.mark next_w land deleted <> 0 then begin
      let succ_w = Handle.with_mark next_w 0 in
      if Atomic.compare_and_set prev_next curr_w succ_w then begin
        S.retire s.th curr;
        seek_advance s k ~rp ~rc:rn ~rn:rc prev prev_next succ_w
      end
      else seek s k
    end
    else begin
      let ckey = curr_node.key in
      if ckey < k then seek_advance s k ~rp:rc ~rc:rn ~rn:rp curr curr_node.next next_w
      else begin
        let c = s.cur in
        c.prev <- prev;
        c.prev_next <- prev_next;
        c.curr_w <- curr_w;
        c.curr_key <- ckey;
        c.free_ref <- rn
      end
    end

  and seek s k =
    let t = s.t in
    let head = t.heads.(bucket t k) in
    let prev_next = (node t head).next in
    let curr_w = S.read s.th ~refno:1 prev_next in
    seek_advance s k ~rp:0 ~rc:1 ~rn:2 head prev_next curr_w

  let insert s ~key ~value =
    assert (key > min_int && key < max_int);
    S.start_op s.th;
    let rec loop () =
      seek s key;
      let r = s.cur in
      if r.curr_key = key then false
      else begin
        S.update_lower_bound s.th r.prev;
        S.update_upper_bound s.th (Handle.id r.curr_w);
        let id = S.alloc s.th in
        let n = Mempool.unsafe_get s.t.pool id in
        n.key <- key;
        n.value <- value;
        Atomic.set n.next r.curr_w;
        if Atomic.compare_and_set r.prev_next r.curr_w (S.handle_of s.th id) then true
        else begin
          Mempool.free s.t.pool ~tid:s.tid id;
          loop ()
        end
      end
    in
    let result = loop () in
    flush_trav s;
    S.end_op s.th;
    result

  let remove s key =
    S.start_op s.th;
    let rec loop () =
      seek s key;
      if s.cur.curr_key <> key then false
      else begin
        (* Copy out of the cursor before the splice-failure re-seek. *)
        let prev_next = s.cur.prev_next and curr_w = s.cur.curr_w in
        let curr = Handle.id curr_w in
        let curr_node = node s.t curr in
        let next_w = S.read s.th ~refno:s.cur.free_ref curr_node.next in
        if Handle.mark next_w land deleted <> 0 then loop ()
        else if Atomic.compare_and_set curr_node.next next_w (Handle.with_mark next_w deleted)
        then begin
          if Atomic.compare_and_set prev_next curr_w (Handle.with_mark next_w 0) then
            S.retire s.th curr
          else seek s key;
          true
        end
        else loop ()
      end
    in
    let result = loop () in
    flush_trav s;
    S.end_op s.th;
    result

  let contains s key =
    S.start_op s.th;
    seek s key;
    let result = s.cur.curr_key = key in
    flush_trav s;
    S.end_op s.th;
    result

  let contains_paused s key ~pause =
    S.start_op s.th;
    ignore (S.read s.th ~refno:1 (node s.t s.t.heads.(bucket s.t key)).next : Handle.t);
    pause ();
    seek s key;
    let result = s.cur.curr_key = key in
    flush_trav s;
    S.end_op s.th;
    result

  let find s key =
    S.start_op s.th;
    seek s key;
    let result =
      if s.cur.curr_key = key then Some (node s.t (Handle.id s.cur.curr_w)).value else None
    in
    flush_trav s;
    S.end_op s.th;
    result

  (* -- sequential-only inspection ---------------------------------------- *)

  let fold t f acc =
    Array.fold_left
      (fun acc head ->
        let rec go acc w =
          let id = Handle.id w in
          let n = Mempool.unsafe_get t.pool id in
          if n.key = max_int then acc else go (f acc id n) (Handle.with_mark (Atomic.get n.next) 0)
        in
        go acc (Handle.with_mark (Atomic.get (Mempool.unsafe_get t.pool head).next) 0))
      acc t.heads

  let size t = fold t (fun acc _ _ -> acc + 1) 0

  let check t =
    Array.iteri
      (fun b head ->
        let rec go last w =
          let n = Mempool.unsafe_get t.pool (Handle.id w) in
          if n.key <> max_int then begin
            if n.key <= last then failwith "hash_table: bucket keys not strictly increasing";
            if bucket t n.key <> b then failwith "hash_table: key in wrong bucket";
            if Handle.mark (Atomic.get n.next) land deleted <> 0 then
              failwith "hash_table: reachable node is marked";
            go n.key (Handle.with_mark (Atomic.get n.next) 0)
          end
        in
        go min_int (Handle.with_mark (Atomic.get (Mempool.unsafe_get t.pool head).next) 0))
      t.heads

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
