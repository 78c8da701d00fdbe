(* Shared helpers for the data-structure test suites. *)

module Config = Smr_core.Config

let schemes : (string * (module Smr_core.Smr_intf.S)) list =
  [
    ("mp", (module Mp.Margin_ptr));
    ("hp", (module Smr_schemes.Hp));
    ("ebr", (module Smr_schemes.Ebr));
    ("he", (module Smr_schemes.He));
    ("ibr", (module Smr_schemes.Ibr));
    ("none", (module Smr_schemes.Leaky));
  ]

(* Sequential black-box correctness of the set interface. *)
let sequential_basics (module SET : Dstruct.Set_intf.SET) () =
  let t = SET.create ~threads:1 ~capacity:4096 ~check_access:true (Config.default ~threads:1) in
  let s = SET.session t ~tid:0 in
  Alcotest.(check bool) "empty contains" false (SET.contains s 7);
  Alcotest.(check bool) "insert 7" true (SET.insert s ~key:7 ~value:70);
  Alcotest.(check bool) "insert 3" true (SET.insert s ~key:3 ~value:30);
  Alcotest.(check bool) "insert 11" true (SET.insert s ~key:11 ~value:110);
  Alcotest.(check bool) "duplicate insert" false (SET.insert s ~key:7 ~value:0);
  Alcotest.(check bool) "contains 7" true (SET.contains s 7);
  Alcotest.(check bool) "contains 3" true (SET.contains s 3);
  Alcotest.(check bool) "absent 5" false (SET.contains s 5);
  Alcotest.(check (option int)) "find 3" (Some 30) (SET.find s 3);
  Alcotest.(check (option int)) "find absent" None (SET.find s 5);
  Alcotest.(check int) "size" 3 (SET.size t);
  Alcotest.(check bool) "remove 7" true (SET.remove s 7);
  Alcotest.(check bool) "remove absent" false (SET.remove s 7);
  Alcotest.(check bool) "gone" false (SET.contains s 7);
  Alcotest.(check int) "size after remove" 2 (SET.size t);
  SET.check t;
  SET.flush s;
  Alcotest.(check int) "no poison" 0 (SET.violations t)

let sequential_boundaries (module SET : Dstruct.Set_intf.SET) () =
  let t = SET.create ~threads:1 ~capacity:4096 ~check_access:true (Config.default ~threads:1) in
  let s = SET.session t ~tid:0 in
  (* smallest and largest permissible client keys, plus re-insertion *)
  Alcotest.(check bool) "insert 0" true (SET.insert s ~key:0 ~value:1);
  Alcotest.(check bool) "contains 0" true (SET.contains s 0);
  Alcotest.(check bool) "remove 0" true (SET.remove s 0);
  Alcotest.(check bool) "reinsert 0" true (SET.insert s ~key:0 ~value:2);
  Alcotest.(check (option int)) "new value visible" (Some 2) (SET.find s 0);
  for k = 0 to 99 do
    ignore (SET.insert s ~key:k ~value:k : bool)
  done;
  Alcotest.(check int) "bulk size" 100 (SET.size t);
  for k = 0 to 99 do
    if k mod 2 = 0 then ignore (SET.remove s k : bool)
  done;
  Alcotest.(check int) "half removed" 50 (SET.size t);
  SET.check t

let ascending_descending (module SET : Dstruct.Set_intf.SET) () =
  let t = SET.create ~threads:1 ~capacity:8192 ~check_access:true (Config.default ~threads:1) in
  let s = SET.session t ~tid:0 in
  for k = 0 to 199 do
    Alcotest.(check bool) "asc insert" true (SET.insert s ~key:k ~value:k)
  done;
  for k = 399 downto 200 do
    Alcotest.(check bool) "desc insert" true (SET.insert s ~key:k ~value:k)
  done;
  Alcotest.(check int) "size" 400 (SET.size t);
  SET.check t;
  for k = 0 to 399 do
    Alcotest.(check bool) "drain" true (SET.remove s k)
  done;
  Alcotest.(check int) "empty" 0 (SET.size t);
  SET.check t

let contains_paused_works (module SET : Dstruct.Set_intf.SET) () =
  let t = SET.create ~threads:1 ~capacity:1024 ~check_access:true (Config.default ~threads:1) in
  let s = SET.session t ~tid:0 in
  ignore (SET.insert s ~key:5 ~value:5 : bool);
  let paused = ref false in
  Alcotest.(check bool) "found across pause" true
    (SET.contains_paused s 5 ~pause:(fun () -> paused := true));
  Alcotest.(check bool) "pause ran" true !paused

(* Concurrent churn with poisoning armed; verifies invariants and final
   bookkeeping afterwards. *)
let churn (module SET : Dstruct.Set_intf.SET) ~threads ~ops ~range () =
  let config = Config.default ~threads in
  let capacity = (range * 8) + (ops * threads) + 1024 in
  let t = SET.create ~threads ~capacity ~check_access:true config in
  let s0 = SET.session t ~tid:0 in
  for k = 0 to (range / 2) - 1 do
    ignore (SET.insert s0 ~key:(k * 2) ~value:k : bool)
  done;
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = SET.session t ~tid in
            let rng = Mp_util.Rng.split ~seed:2024 ~tid in
            for _ = 1 to ops do
              let k = Mp_util.Rng.below rng range in
              match Mp_util.Rng.below rng 4 with
              | 0 -> ignore (SET.insert s ~key:k ~value:k : bool)
              | 1 -> ignore (SET.remove s k : bool)
              | _ -> ignore (SET.contains s k : bool)
            done;
            SET.flush s))
  in
  Array.iter Domain.join domains;
  SET.check t;
  Alcotest.(check int) "no use-after-free" 0 (SET.violations t)

(* Net-count linearizability witness: per key, successful inserts minus
   successful removes must equal final membership. *)
let net_count (module SET : Dstruct.Set_intf.SET) ~threads ~ops ~range () =
  let config = Config.default ~threads in
  let capacity = (range * 8) + (ops * threads) + 1024 in
  let t = SET.create ~threads ~capacity ~check_access:true config in
  let per_thread_net = Array.init threads (fun _ -> Array.make range 0) in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = SET.session t ~tid in
            let net = per_thread_net.(tid) in
            let rng = Mp_util.Rng.split ~seed:31337 ~tid in
            for _ = 1 to ops do
              let k = Mp_util.Rng.below rng range in
              if Mp_util.Rng.bool rng then begin
                if SET.insert s ~key:k ~value:k then net.(k) <- net.(k) + 1
              end
              else if SET.remove s k then net.(k) <- net.(k) - 1
            done))
  in
  Array.iter Domain.join domains;
  SET.check t;
  let s = SET.session t ~tid:0 in
  for k = 0 to range - 1 do
    let net = Array.fold_left (fun acc a -> acc + a.(k)) 0 per_thread_net in
    if net <> 0 && net <> 1 then Alcotest.failf "key %d net count %d" k net;
    let present = SET.contains s k in
    if present <> (net = 1) then
      Alcotest.failf "key %d: present=%b but net=%d" k present net
  done;
  Alcotest.(check int) "no use-after-free" 0 (SET.violations t)

(* Full per-scheme suite for one data structure functor. *)
let suite_for (name : string) (make : (module Smr_core.Smr_intf.S) -> (module Dstruct.Set_intf.SET)) =
  List.concat_map
    (fun (sname, s) ->
      let set = make s in
      let case cname speed f = Alcotest.test_case (sname ^ ": " ^ cname) speed f in
      [
        ( name ^ "/" ^ sname,
          [
            case "sequential basics" `Quick (sequential_basics set);
            case "boundaries" `Quick (sequential_boundaries set);
            case "ascending/descending" `Quick (ascending_descending set);
            case "contains_paused" `Quick (contains_paused_works set);
            case "concurrent churn" `Slow (churn set ~threads:4 ~ops:8_000 ~range:128);
            case "net count" `Slow (net_count set ~threads:4 ~ops:8_000 ~range:64);
          ] );
      ])
    schemes

(* Run [f] in its own domain and fail the test if it has not returned
   after [seconds]: a lost wake-up hangs instead of failing, and this
   turns the hang into a failure. A timed-out domain is left behind;
   the test process exits without joining it. *)
let within_deadline ~seconds what f =
  let finished = Atomic.make false in
  let d = Domain.spawn (fun () -> Fun.protect ~finally:(fun () -> Atomic.set finished true) f) in
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < seconds do
    Unix.sleepf 0.001
  done;
  if not (Atomic.get finished) then Alcotest.failf "%s did not finish within %.1f s" what seconds;
  Domain.join d
