(* Manual-memory pool: slot life cycle, metadata words, exhaustion,
   incarnation bumping, the poisoning detector, and the lock-free global
   free stack under cross-thread producer/consumer pressure. *)

module Core = Mempool.Core

let mk ?(capacity = 64) ?(threads = 2) ?(check_access = false) () =
  Mempool.create ~capacity ~threads ~check_access (fun i -> ref i)

let alloc_free_roundtrip () =
  let p = mk () in
  let id = Mempool.alloc p ~tid:0 in
  Alcotest.(check int) "live after alloc" Mempool.state_live (Core.state (Mempool.core p) id);
  Mempool.free p ~tid:0 id;
  Alcotest.(check bool) "free after free" true (Core.is_free (Mempool.core p) id);
  Alcotest.(check int) "live count" 0 (Mempool.live_count p)

let metadata_words () =
  let p = mk () in
  let c = Mempool.core p in
  let id = Mempool.alloc p ~tid:0 in
  Core.set_index c id 12345;
  Core.set_birth c id 7;
  Core.set_death c id 9;
  Alcotest.(check int) "index" 12345 (Core.index c id);
  Alcotest.(check int) "birth" 7 (Core.birth c id);
  Alcotest.(check int) "death" 9 (Core.death c id);
  let h = Mempool.handle p id in
  Alcotest.(check int) "handle id" id (Handle.id h);
  Alcotest.(check int) "handle idx16" (Handle.idx16_of_index 12345) (Handle.idx16 h)

let index_reset_on_alloc () =
  let p = mk () in
  let c = Mempool.core p in
  let id = Mempool.alloc p ~tid:0 in
  Core.set_index c id 999;
  Mempool.free p ~tid:0 id;
  let id2 = Mempool.alloc p ~tid:0 in
  (* same thread free list: LIFO gives the same slot back *)
  Alcotest.(check int) "slot reused" id id2;
  Alcotest.(check int) "index cleared" 0 (Core.index c id2)

let incarnation_bumps () =
  let p = mk () in
  let c = Mempool.core p in
  let id = Mempool.alloc p ~tid:0 in
  let h1 = Mempool.handle p id in
  let inc1 = Core.incarnation c id in
  Mempool.free p ~tid:0 id;
  let id2 = Mempool.alloc p ~tid:0 in
  Alcotest.(check int) "same slot" id id2;
  Alcotest.(check int) "incarnation bumped" (inc1 + 1) (Core.incarnation c id2);
  Alcotest.(check bool) "handles differ across incarnations" false
    (Handle.equal h1 (Mempool.handle p id2))

let exhaustion () =
  let p = mk ~capacity:8 ~threads:1 () in
  let ids = List.init 8 (fun _ -> Mempool.alloc p ~tid:0) in
  Alcotest.check_raises "exhausted" Mempool.Exhausted (fun () ->
      ignore (Mempool.alloc p ~tid:0 : int));
  List.iter (fun id -> Mempool.free p ~tid:0 id) ids;
  ignore (Mempool.alloc p ~tid:0 : int)

let retired_state () =
  let p = mk () in
  let c = Mempool.core p in
  let id = Mempool.alloc p ~tid:0 in
  Core.mark_retired c id;
  Alcotest.(check int) "retired" Mempool.state_retired (Core.state c id);
  (* freeing a retired slot is legal *)
  Mempool.free p ~tid:0 id;
  Alcotest.(check bool) "free" true (Core.is_free c id)

let poisoning_detector () =
  let p = mk ~check_access:true () in
  let id = Mempool.alloc p ~tid:0 in
  ignore (Mempool.get p id : int ref);
  Alcotest.(check int) "live access ok" 0 (Mempool.violations p);
  Mempool.free p ~tid:0 id;
  ignore (Mempool.get p id : int ref);
  Alcotest.(check int) "freed access detected" 1 (Mempool.violations p)

let poisoning_off_by_default () =
  let p = mk () in
  let id = Mempool.alloc p ~tid:0 in
  Mempool.free p ~tid:0 id;
  ignore (Mempool.get p id : int ref);
  Alcotest.(check int) "no detection without flag" 0 (Mempool.violations p)

(* Producer/consumer across threads: tid 0 allocates, tid 1 frees. The
   global Treiber stack must rebalance; nothing may be lost or duplicated. *)
let cross_thread_rebalancing () =
  let capacity = 4096 and rounds = 200_000 in
  let p = mk ~capacity ~threads:2 () in
  let q = Queue.create () in
  let m = Mutex.create () in
  let produced = Atomic.make 0 in
  let producer =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          let rec grab () =
            match Mempool.alloc p ~tid:0 with
            | id -> id
            | exception Mempool.Exhausted ->
              Domain.cpu_relax ();
              grab ()
          in
          let id = grab () in
          Mutex.lock m;
          Queue.push id q;
          Mutex.unlock m;
          Atomic.incr produced
        done)
  in
  let consumer =
    Domain.spawn (fun () ->
        let consumed = ref 0 in
        while !consumed < rounds do
          let item =
            Mutex.lock m;
            let r = if Queue.is_empty q then None else Some (Queue.pop q) in
            Mutex.unlock m;
            r
          in
          match item with
          | Some id ->
            Mempool.free p ~tid:1 id;
            incr consumed
          | None -> Domain.cpu_relax ()
        done)
  in
  Domain.join producer;
  Domain.join consumer;
  Alcotest.(check int) "all slots returned" 0 (Mempool.live_count p);
  (* every slot reachable from tid 0 must come out exactly once; some may
     be parked in tid 1's local list (per-thread partitioning) *)
  let seen = Array.make capacity false in
  let taken = ref 0 in
  (try
     while true do
       let id = Mempool.alloc p ~tid:0 in
       if seen.(id) then Alcotest.failf "slot %d handed out twice" id;
       seen.(id) <- true;
       incr taken
     done
   with Mempool.Exhausted -> ());
  Alcotest.(check bool)
    (Printf.sprintf "most slots reachable (%d/%d)" !taken capacity)
    true
    (!taken >= capacity / 2)

let concurrent_alloc_free_stress () =
  let threads = 4 in
  let p = mk ~capacity:1024 ~threads () in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let held = ref [] in
            let rng = Mp_util.Rng.split ~seed:99 ~tid in
            for _ = 1 to 50_000 do
              if Mp_util.Rng.bool rng && List.length !held < 64 then (
                match Mempool.alloc p ~tid with
                | id -> held := id :: !held
                | exception Mempool.Exhausted -> ())
              else
                match !held with
                | [] -> ()
                | id :: rest ->
                  Mempool.free p ~tid id;
                  held := rest
            done;
            List.iter (fun id -> Mempool.free p ~tid id) !held))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "quiescent live count" 0 (Mempool.live_count p);
  Alcotest.(check int) "allocs = frees" (Core.alloc_count (Mempool.core p))
    (Core.free_count (Mempool.core p))

(* Producer/consumer pipe across the chain-batched transfer path: tid 0
   only allocs (drains chains from the global stack), tid 1 only frees
   (spills chains to it), so every slot crosses the global list twice per
   round trip. Incarnation counters witness that no slot is lost or
   duplicated: each free bumps exactly one slot's incarnation, so the sum
   over all slots must equal the number of frees, and a final drain from
   both tids must surface every slot exactly once. *)
let pipe_no_lost_or_duplicated () =
  let capacity = 4096 and rounds = 100_000 in
  let p = Mempool.create ~capacity ~threads:2 ~fair_share:256 (fun i -> i) in
  let c = Mempool.core p in
  let q = Queue.create () in
  let m = Mutex.create () in
  let producer =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          let rec grab () =
            match Mempool.alloc p ~tid:0 with
            | id -> id
            | exception Mempool.Exhausted ->
              Domain.cpu_relax ();
              grab ()
          in
          let id = grab () in
          Mutex.lock m;
          Queue.push id q;
          Mutex.unlock m
        done)
  in
  let consumer =
    Domain.spawn (fun () ->
        let consumed = ref 0 in
        while !consumed < rounds do
          let item =
            Mutex.lock m;
            let r = if Queue.is_empty q then None else Some (Queue.pop q) in
            Mutex.unlock m;
            r
          in
          match item with
          | Some id ->
            Mempool.free p ~tid:1 id;
            incr consumed
          | None -> Domain.cpu_relax ()
        done)
  in
  Domain.join producer;
  Domain.join consumer;
  Alcotest.(check int) "quiescent live count" 0 (Mempool.live_count p);
  Alcotest.(check int) "allocs = frees" (Core.alloc_count c) (Core.free_count c);
  (* Sum of incarnations = one bump per free, over all slots. *)
  let inc_sum = ref 0 in
  for id = 0 to capacity - 1 do
    inc_sum := !inc_sum + Core.incarnation c id
  done;
  Alcotest.(check int) "incarnation bumps = frees" (Core.free_count c) !inc_sum;
  (* Drain both tids: every slot must come out exactly once — nothing
     lost in a half-spilled chain, nothing duplicated by a double pop. *)
  let seen = Array.make capacity false in
  let taken = ref 0 in
  List.iter
    (fun tid ->
      try
        while true do
          let id = Mempool.alloc p ~tid in
          if seen.(id) then Alcotest.failf "slot %d handed out twice" id;
          seen.(id) <- true;
          incr taken
        done
      with Mempool.Exhausted -> ())
    [ 0; 1 ];
  Alcotest.(check int) "every slot reachable exactly once" capacity !taken

(* ABA regression on the version-tagged top word: popping a chain and
   pushing the same chain back must yield a *different* top word, so a
   CAS armed with the stale word (the classic A-B-A interleaving: victim
   reads top = X, others pop X, pop Y, re-push X) can never succeed. *)
let chain_aba_version_tag () =
  let p = Mempool.create ~capacity:1024 ~threads:1 ~fair_share:128 (fun i -> i) in
  let c = Mempool.core p in
  let w0 = Core.debug_top_word c in
  (match Core.debug_pop_chain c with
  | None -> Alcotest.fail "global stack unexpectedly empty"
  | Some (head, tail, len) ->
    Alcotest.(check int) "chain is fair_share long" (Core.fair_share c) len;
    (* Walk the chain: tail reachable from head in exactly len hops. *)
    let steps = ref 1 and id = ref head in
    while Core.debug_next_free c !id >= 0 do
      id := Core.debug_next_free c !id;
      incr steps
    done;
    Alcotest.(check int) "chain link count" len !steps;
    Alcotest.(check int) "memoized tail is the walked tail" tail !id;
    Core.debug_push_chain c ~head ~tail ~len);
  let w1 = Core.debug_top_word c in
  Alcotest.(check bool) "same head re-pushed, top word differs (ABA defeated)" true
    (w0 <> w1);
  (* And the pool still hands out every slot exactly once. *)
  let seen = Array.make 1024 false in
  let taken = ref 0 in
  (try
     while true do
       let id = Mempool.alloc p ~tid:0 in
       if seen.(id) then Alcotest.failf "slot %d handed out twice after ABA churn" id;
       seen.(id) <- true;
       incr taken
     done
   with Mempool.Exhausted -> ());
  Alcotest.(check int) "all slots intact" 1024 !taken

(* Version must advance on every push AND pop, never repeating a word even
   through deep pop/push cycles of the same chains. *)
let chain_version_monotonic () =
  let p = Mempool.create ~capacity:2048 ~threads:1 ~fair_share:64 (fun i -> i) in
  let c = Mempool.core p in
  let words = Hashtbl.create 64 in
  Hashtbl.add words (Core.debug_top_word c) ();
  for _ = 1 to 50 do
    match Core.debug_pop_chain c with
    | None -> Alcotest.fail "global stack unexpectedly empty"
    | Some (head, tail, len) ->
      let w = Core.debug_top_word c in
      if Hashtbl.mem words w then Alcotest.failf "top word 0x%x repeated after pop" w;
      Hashtbl.add words w ();
      Core.debug_push_chain c ~head ~tail ~len;
      let w = Core.debug_top_word c in
      if Hashtbl.mem words w then Alcotest.failf "top word 0x%x repeated after push" w;
      Hashtbl.add words w ()
  done

let capacity_validation () =
  Alcotest.check_raises "capacity < threads rejected"
    (Invalid_argument "Mempool.create: capacity < threads") (fun () ->
      ignore (Mempool.create ~capacity:1 ~threads:2 (fun _ -> ()) : unit Mempool.t))

let () =
  Alcotest.run "mempool"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "alloc/free" `Quick alloc_free_roundtrip;
          Alcotest.test_case "metadata" `Quick metadata_words;
          Alcotest.test_case "index reset" `Quick index_reset_on_alloc;
          Alcotest.test_case "incarnation" `Quick incarnation_bumps;
          Alcotest.test_case "exhaustion" `Quick exhaustion;
          Alcotest.test_case "retired state" `Quick retired_state;
          Alcotest.test_case "capacity validation" `Quick capacity_validation;
        ] );
      ( "poisoning",
        [
          Alcotest.test_case "detector fires" `Quick poisoning_detector;
          Alcotest.test_case "detector off by default" `Quick poisoning_off_by_default;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "cross-thread rebalancing" `Slow cross_thread_rebalancing;
          Alcotest.test_case "alloc/free stress" `Slow concurrent_alloc_free_stress;
          Alcotest.test_case "pipe chained: no slot lost/duplicated" `Slow
            pipe_no_lost_or_duplicated;
        ] );
      ( "chains",
        [
          Alcotest.test_case "ABA version tag" `Quick chain_aba_version_tag;
          Alcotest.test_case "top-word monotonicity" `Quick chain_version_monotonic;
        ] );
    ]
