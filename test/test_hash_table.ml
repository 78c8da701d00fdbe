(* The hash-table client: per-bucket ordering, cross-bucket operations,
   concurrency, and SMR behaviour through the shared pool. *)

module Config = Smr_core.Config
module H = Dstruct.Hash_table.Make (Mp.Margin_ptr)
module H_hp = Dstruct.Hash_table.Make (Smr_schemes.Hp)

let mk ?(threads = 1) ?(buckets = 16) ?(capacity = 16_384) () =
  H.create ~threads ~capacity ~check_access:true ~buckets (Config.default ~threads)

let sequential_basics () =
  let t = mk () in
  let s = H.session t ~tid:0 in
  Alcotest.(check bool) "insert" true (H.insert s ~key:42 ~value:420);
  Alcotest.(check bool) "dup" false (H.insert s ~key:42 ~value:0);
  Alcotest.(check (option int)) "find" (Some 420) (H.find s 42);
  Alcotest.(check bool) "absent" false (H.contains s 43);
  Alcotest.(check bool) "remove" true (H.remove s 42);
  Alcotest.(check bool) "gone" false (H.contains s 42);
  Alcotest.(check int) "size" 0 (H.size t);
  H.check t

let many_keys_across_buckets () =
  let t = mk ~buckets:8 () in
  let s = H.session t ~tid:0 in
  for k = 0 to 999 do
    Alcotest.(check bool) "insert" true (H.insert s ~key:k ~value:(k * 3))
  done;
  Alcotest.(check int) "size" 1000 (H.size t);
  H.check t;
  for k = 0 to 999 do
    Alcotest.(check (option int)) "lookup" (Some (k * 3)) (H.find s k)
  done;
  for k = 0 to 999 do
    if k mod 2 = 0 then Alcotest.(check bool) "remove" true (H.remove s k)
  done;
  Alcotest.(check int) "half left" 500 (H.size t);
  H.check t

let model_agreement () =
  let t = mk ~buckets:4 () in
  let s = H.session t ~tid:0 in
  let model = Hashtbl.create 64 in
  let rng = Mp_util.Rng.create 17 in
  for _ = 1 to 10_000 do
    let k = Mp_util.Rng.below rng 200 in
    if Mp_util.Rng.bool rng then begin
      let expect = not (Hashtbl.mem model k) in
      Alcotest.(check bool) "insert agrees" expect (H.insert s ~key:k ~value:k);
      Hashtbl.replace model k ()
    end
    else begin
      let expect = Hashtbl.mem model k in
      Alcotest.(check bool) "remove agrees" expect (H.remove s k);
      Hashtbl.remove model k
    end
  done;
  Alcotest.(check int) "size agrees" (Hashtbl.length model) (H.size t);
  H.check t

let concurrent_churn () =
  let threads = 4 in
  let t =
    H.create ~threads ~capacity:262_144 ~check_access:true ~buckets:64
      (Config.default ~threads)
  in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = H.session t ~tid in
            let rng = Mp_util.Rng.split ~seed:23 ~tid in
            for _ = 1 to 15_000 do
              let k = Mp_util.Rng.below rng 512 in
              match Mp_util.Rng.below rng 4 with
              | 0 -> ignore (H.insert s ~key:k ~value:k : bool)
              | 1 -> ignore (H.remove s k : bool)
              | _ -> ignore (H.contains s k : bool)
            done;
            H.flush s))
  in
  Array.iter Domain.join domains;
  H.check t;
  Alcotest.(check int) "no use-after-free" 0 (H.violations t);
  let st = H.smr_stats t in
  Alcotest.(check int) "bookkeeping" st.Smr_core.Smr_intf.retired_total
    (st.Smr_core.Smr_intf.reclaimed + st.Smr_core.Smr_intf.wasted)

let concurrent_churn_hp () =
  let threads = 4 in
  let t =
    H_hp.create ~threads ~capacity:262_144 ~check_access:true ~buckets:64
      (Config.default ~threads)
  in
  let domains =
    Array.init threads (fun tid ->
        Domain.spawn (fun () ->
            let s = H_hp.session t ~tid in
            let rng = Mp_util.Rng.split ~seed:29 ~tid in
            for _ = 1 to 15_000 do
              let k = Mp_util.Rng.below rng 512 in
              match Mp_util.Rng.below rng 4 with
              | 0 -> ignore (H_hp.insert s ~key:k ~value:k : bool)
              | 1 -> ignore (H_hp.remove s k : bool)
              | _ -> ignore (H_hp.contains s k : bool)
            done;
            H_hp.flush s))
  in
  Array.iter Domain.join domains;
  H_hp.check t;
  Alcotest.(check int) "no use-after-free" 0 (H_hp.violations t)

let paused_reader () =
  let t = mk () in
  let s = H.session t ~tid:0 in
  ignore (H.insert s ~key:9 ~value:9 : bool);
  let ran = ref false in
  Alcotest.(check bool) "found across pause" true
    (H.contains_paused s 9 ~pause:(fun () -> ran := true));
  Alcotest.(check bool) "pause ran" true !ran

(* Each bucket owns one slice of MP's index space, so a margin published
   while traversing one bucket never covers another bucket's nodes. *)
let indices_partitioned_by_bucket () =
  let buckets = 16 in
  let t = mk ~buckets () in
  let s = H.session t ~tid:0 in
  for k = 0 to 199 do
    ignore (H.insert s ~key:k ~value:k : bool)
  done;
  let span = (Config.max_sentinel_index + 1) / buckets in
  H.fold t
    (fun () id n ->
      let b = H.bucket t n.H.key and idx = Mempool.Core.index (H.pool t) id in
      Alcotest.(check bool) "index inside its bucket's range" true
        (idx > b * span && idx < ((b + 1) * span) - 1))
    ()

let () =
  Alcotest.run "hash_table"
    [
      ( "hash",
        [
          Alcotest.test_case "sequential" `Quick sequential_basics;
          Alcotest.test_case "across buckets" `Quick many_keys_across_buckets;
          Alcotest.test_case "model agreement" `Quick model_agreement;
          Alcotest.test_case "paused reader" `Quick paused_reader;
          Alcotest.test_case "indices partitioned by bucket" `Quick indices_partitioned_by_bucket;
          Alcotest.test_case "concurrent churn (mp)" `Slow concurrent_churn;
          Alcotest.test_case "concurrent churn (hp)" `Slow concurrent_churn_hp;
        ] );
    ]
