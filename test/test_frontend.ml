(* The byte-protocol front-end: the incremental parser (never raises,
   malformed input surfaces as [Bad] after resyncing at the next
   newline, parsing is invariant under arbitrary byte splits) and the
   [Conn] executor end-to-end against a real service (exact reply
   bytes, command order, noreply suppression, quit). *)

module Parser = Mp_service.Frontend.Parser
module Conn = Mp_service.Frontend.Conn
module Service = Mp_service.Service

(* Render a parsed command to a canonical string (Get's keys live in a
   reusable array, so they must be captured eagerly). *)
let show p (c : Parser.cmd) =
  match c with
  | Parser.Get { gets; nkeys } ->
    let keys = List.init nkeys (fun i : string -> string_of_int (Parser.get_key p i)) in
    Printf.sprintf "%s(%s)" (if gets then "gets" else "get") (String.concat "," keys)
  | Parser.Set { key; value; noreply } -> Printf.sprintf "set(%d,%d,%b)" key value noreply
  | Parser.Delete { key; noreply } -> Printf.sprintf "delete(%d,%b)" key noreply
  | Parser.Mget { first; count } -> Printf.sprintf "mget(%d,%d)" first count
  | Parser.Quit -> "quit"
  | Parser.Version -> "version"
  | Parser.Bad msg -> Printf.sprintf "bad(%s)" msg
  | Parser.Unknown -> "unknown"

let drain p =
  let rec go acc = match Parser.next p with Some c -> go (show p c :: acc) | None -> List.rev acc in
  go []

(* Feed that fails the test instead of asserting: -noassert builds
   (release profile) would drop an [assert (Parser.feed ...)] call
   entirely, side effect included. *)
let feed_ok p s = if not (Parser.feed p s) then Alcotest.fail "Parser.feed rejected input"

(* Parse a whole input in one feed. *)
let parse_all s =
  let p = Parser.create () in
  feed_ok p s;
  drain p

let check_cmds name expect s =
  Alcotest.(check (list string)) name expect (parse_all s)

let parser_commands () =
  check_cmds "get" [ "get(42)" ] "get 42\r\n";
  check_cmds "multi-key gets" [ "gets(1,2,3)" ] "gets 1 2 3\r\n";
  check_cmds "set + data block" [ "set(7,123,false)" ] "set 7 0 0 3\r\n123\r\n";
  check_cmds "set noreply" [ "set(7,1,true)" ] "set 7 0 0 1 noreply\r\n1\r\n";
  (* a data block that is not a decimal int stores its length *)
  check_cmds "non-numeric data stores its length" [ "set(9,5,false)" ] "set 9 0 0 5\r\nab\r01\r\n";
  check_cmds "delete" [ "delete(3,false)" ] "delete 3\r\n";
  check_cmds "delete noreply" [ "delete(3,true)" ] "delete 3 noreply\r\n";
  check_cmds "mget extension" [ "mget(100,16)" ] "mget 100 16\r\n";
  check_cmds "version and quit" [ "version"; "quit" ] "version\r\nquit\r\n";
  check_cmds "bare LF accepted" [ "get(1)" ] "get 1\n";
  check_cmds "pipelined burst"
    [ "set(1,1,false)"; "get(1,2)"; "delete(1,false)"; "mget(0,4)" ]
    "set 1 0 0 1\r\n1\r\nget 1 2\r\ndelete 1\r\nmget 0 4\r\n"

let parser_errors () =
  check_cmds "unknown verb" [ "unknown" ] "frobnicate 1 2\r\n";
  check_cmds "empty line" [ "bad(empty command)" ] "\r\n";
  check_cmds "non-integer key" [ "bad(bad key (keys are decimal integers))" ] "get abc\r\n";
  check_cmds "get without keys" [ "bad(get needs at least one key)" ] "get\r\n";
  check_cmds "set arity" [ "bad(set <key> <flags> <exptime> <bytes> [noreply])" ] "set 1 0 0\r\n";
  check_cmds "mget arity" [ "bad(mget <first> <count>)" ] "mget 5\r\n";
  check_cmds "19-digit key overflows" [ "bad(bad key (keys are decimal integers))" ]
    "get 1234567890123456789\r\n";
  check_cmds "oversize data block refused" [ "bad(data block too large)" ]
    (Printf.sprintf "set 1 0 0 %d\r\n" (Parser.max_line + 1));
  (* a lying byte count desyncs the data block; the parser resyncs at
     the next newline and the following command still parses *)
  check_cmds "bad data terminator resyncs" [ "bad(bad data chunk)"; "get(5)" ]
    "set 1 0 0 2\r\nabcdef\r\nget 5\r\n";
  (* too many get keys *)
  let keys = String.concat " " (List.init (Parser.max_get_keys + 1) string_of_int) in
  check_cmds "too many keys" [ "bad(too many keys)" ] ("get " ^ keys ^ "\r\n");
  (* an overlong line is discarded to its newline, then the stream
     recovers *)
  let long = String.make (Parser.max_line + 10) 'x' in
  check_cmds "overlong line resyncs" [ "bad(line too long)"; "get(1)" ] (long ^ "\r\nget 1\r\n")

(* Fragmentation invariance: any byte-split of the stream parses to the
   same command sequence as a single feed. Data blocks may straddle
   splits, including inside the trailing CRLF. *)
let parser_torn_feeds () =
  let input = "set 11 0 0 4\r\nab\r\n\r\nget 11 12\r\ndelete 11 noreply\r\nmget 0 8\r\nversion\r\n" in
  let expect = parse_all input in
  (* byte-at-a-time *)
  let p = Parser.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      feed_ok p (String.make 1 c);
      got := !got @ drain p)
    input;
  Alcotest.(check (list string)) "byte-at-a-time" expect !got;
  (* split at every position *)
  for cut = 1 to String.length input - 1 do
    let p = Parser.create () in
    feed_ok p (String.sub input 0 cut);
    let a = drain p in
    feed_ok p (String.sub input cut (String.length input - cut));
    Alcotest.(check (list string))
      (Printf.sprintf "split at %d" cut)
      expect
      (a @ drain p)
  done

(* -- QCheck: random command soup through random splits --------------------- *)

let gen_line =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun k -> Printf.sprintf "get %d\r\n" k) (int_bound 10_000));
        ( 2,
          map
            (fun k ->
              let d = string_of_int k in
              Printf.sprintf "set %d 0 0 %d\r\n%s\r\n" k (String.length d) d)
            (int_bound 10_000) );
        (2, map (fun k -> Printf.sprintf "delete %d\r\n" k) (int_bound 10_000));
        (1, map2 (fun a b -> Printf.sprintf "mget %d %d\r\n" a (1 + b)) (int_bound 1000) (int_bound 64));
        (1, return "version\r\n");
        (* garbage: printable noise, no newline, terminated by one *)
        ( 2,
          map
            (fun s ->
              let s = String.map (fun c -> if c = '\n' || c = '\r' then '.' else c) s in
              s ^ "\r\n")
            (string_size ~gen:printable (int_range 0 40)) );
        (* a set whose byte count lies, forcing a resync *)
        (1, map (fun k -> Printf.sprintf "set %d 0 0 2\r\nabcdef\r\n" k) (int_bound 100));
      ])

let gen_stream =
  QCheck.Gen.(
    map (fun lines -> String.concat "" lines) (list_size (int_range 1 20) gen_line))

let arb_stream_and_splits =
  QCheck.make
    ~print:(fun (s, cuts) ->
      Printf.sprintf "%S cuts=%s" s (String.concat "," (List.map string_of_int cuts)))
    QCheck.Gen.(
      gen_stream >>= fun s ->
      list_size (int_range 0 10) (int_bound (max 1 (String.length s - 1))) >>= fun cuts ->
      return (s, cuts))

(* The fuzz property: parsing never raises, and the command sequence is
   independent of how the bytes were split. *)
let fuzz_fragmentation =
  QCheck.Test.make ~count:300 ~name:"parser: split-invariant, never raises"
    arb_stream_and_splits (fun (s, cuts) ->
      let expect = parse_all s in
      let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < String.length s) cuts) in
      let p = Parser.create () in
      let got = ref [] in
      let prev = ref 0 in
      List.iter
        (fun cut ->
          feed_ok p (String.sub s !prev (cut - !prev));
          got := !got @ drain p;
          prev := cut)
        (cuts @ [ String.length s ]);
      !got = expect)

(* Malformed lines always surface as [Bad] or [Unknown], never silently
   vanish: every newline-terminated unit yields exactly one command
   (set data blocks consume one extra newline-terminated unit, resyncs
   of lying data blocks swallow the garbage line). Rather than
   re-deriving that arithmetic, check the never-raises + resync
   property directly on adversarial bytes: arbitrary binary noise never
   raises and always leaves the parser able to parse a clean command
   after a newline. *)
let fuzz_resync =
  QCheck.Test.make ~count:300 ~name:"parser: binary noise never wedges the stream"
    QCheck.(string_gen_of_size Gen.(int_range 0 200) Gen.(map Char.chr (int_bound 255)))
    (fun noise ->
      let p = Parser.create () in
      (* the noise may contain newlines and partial commands; feed it,
         drain whatever it parses to *)
      let fed = Parser.feed p noise in
      if fed then ignore (drain p : string list);
      (* a newline closes any partial line or skip state; a lying data
         block can swallow at most the clean line that follows, so feed
         the probe twice: the second must parse *)
      let ok = ref false in
      for _ = 1 to 3 do
        if not !ok then begin
          feed_ok p "\r\nget 77\r\n";
          let cmds = drain p in
          if List.exists (fun c -> c = "get(77)") cmds then ok := true
        end
      done;
      fed = false || !ok)

(* -- Conn end-to-end against a real service -------------------------------- *)

let conn_round () =
  let shards = 2 in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds (module Mp.Margin_ptr)
  in
  let config = Smr_core.Config.default ~threads:shards in
  let set = SET.create ~threads:shards ~capacity:65_536 ~check_access:true config in
  let svc = Service.create (module SET) set ~shards ~batch:4 ~ring_capacity:64 in
  Service.start svc;
  Fun.protect ~finally:(fun () -> Service.stop svc) @@ fun () ->
  let conn = Conn.create svc in
  let p = Conn.parser conn in
  let pump input =
    feed_ok p input;
    ignore (Conn.pump conn : int);
    Buffer.contents (Conn.out conn)
  in
  (* one pipelined burst: replies must come back in command order *)
  Alcotest.(check string) "pipelined burst"
    "STORED\r\nNOT_STORED\r\nVALUE 5 0 1\r\n5\r\nEND\r\nEND\r\nHITS 1\r\nDELETED\r\nNOT_FOUND\r\nEND\r\n"
    (pump
       "set 5 0 0 1\r\n5\r\nset 5 0 0 1\r\n5\r\nget 5\r\nget 6\r\nmget 5 1\r\ndelete 5\r\ndelete 5\r\nget 5\r\n");
  (* noreply suppresses the reply but the op executes *)
  Alcotest.(check string) "noreply set is silent, visible to the next get"
    "VALUE 8 0 1\r\n8\r\nEND\r\n"
    (pump "set 8 0 0 1 noreply\r\n8\r\nget 8\r\n");
  (* errors render in place without disturbing neighbours *)
  Alcotest.(check string) "errors interleave in order"
    "ERROR\r\nCLIENT_ERROR bad key (keys are decimal integers)\r\nVERSION mpserver/1\r\nEND\r\n"
    (pump "bogus\r\nget zzz\r\nversion\r\nget 9999\r\n");
  (* a multi-key get spanning both shards comes back in key order *)
  Alcotest.(check string) "cross-shard get gathers in command order"
    "STORED\r\nSTORED\r\nVALUE 1 0 1\r\n1\r\nVALUE 2 0 1\r\n2\r\nEND\r\n"
    (pump "set 1 0 0 1\r\n1\r\nset 2 0 0 1\r\n2\r\nget 1 2 3\r\n");
  (* quit closes the connection and stops processing *)
  Alcotest.(check bool) "open before quit" false (Conn.closed conn);
  ignore (pump "quit\r\n" : string);
  Alcotest.(check bool) "closed after quit" true (Conn.closed conn);
  Alcotest.(check int) "no use-after-free" 0 (SET.violations set)

(* A burst bigger than [max_chain] x shards exercises the chunked
   chain-submit path (ring capacity 64 forces several chains per
   burst). *)
let conn_large_burst () =
  let shards = 2 in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds (module Mp.Margin_ptr)
  in
  let config = Smr_core.Config.default ~threads:shards in
  let set = SET.create ~threads:shards ~capacity:65_536 ~check_access:true config in
  let svc = Service.create (module SET) set ~shards ~batch:8 ~ring_capacity:64 in
  Service.start svc;
  Fun.protect ~finally:(fun () -> Service.stop svc) @@ fun () ->
  let conn = Conn.create svc in
  let p = Conn.parser conn in
  let b = Buffer.create 4096 in
  let n = 200 in
  for k = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "set %d 0 0 %d\r\n%d\r\n" k (String.length (string_of_int k)) k)
  done;
  feed_ok p (Buffer.contents b);
  let ncmds = Conn.pump conn in
  Alcotest.(check int) "every command processed in one pump" n ncmds;
  let expect = String.concat "" (List.init n (fun _ -> "STORED\r\n")) in
  Alcotest.(check string) "every key stored" expect (Buffer.contents (Conn.out conn));
  (* and they are all really in the set *)
  Buffer.clear b;
  for k = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "get %d\r\n" k)
  done;
  feed_ok p (Buffer.contents b);
  ignore (Conn.pump conn : int);
  let expect =
    String.concat ""
      (List.init n (fun k ->
           let s = string_of_int k in
           Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" s (String.length s) s))
  in
  Alcotest.(check string) "all hits" expect (Buffer.contents (Conn.out conn));
  Alcotest.(check int) "no use-after-free" 0 (SET.violations set)

(* A random pipelined burst over keys [base, base + 24) and the exact
   bytes a sequential model of the set answers it with. Every op of a
   key lands on that key's shard in command order, so the overlapped
   per-shard chains must reproduce the sequential answer byte for byte.
   [mget] is left out: its keys span shards, so its order against a
   write to another shard in the same burst is not defined. *)
let burst rng model ~base ~ncmds =
  let input = Buffer.create 1024 and expect = Buffer.create 1024 in
  let key () = base + Mp_util.Rng.below rng 24 in
  let hit k =
    let s = string_of_int k in
    Printf.sprintf "VALUE %s 0 %d\r\n%s\r\n" s (String.length s) s
  in
  for _ = 1 to ncmds do
    match Mp_util.Rng.below rng 8 with
    | 0 | 1 | 2 ->
      let k = key () in
      let noreply = Mp_util.Rng.below rng 8 = 0 in
      let s = string_of_int k in
      Printf.bprintf input "set %d 0 0 %d%s\r\n%s\r\n" k (String.length s)
        (if noreply then " noreply" else "") s;
      let stored = not (Hashtbl.mem model k) in
      if stored then Hashtbl.replace model k ();
      if not noreply then Buffer.add_string expect (if stored then "STORED\r\n" else "NOT_STORED\r\n")
    | 3 | 4 ->
      let k = key () in
      Printf.bprintf input "delete %d\r\n" k;
      let found = Hashtbl.mem model k in
      Hashtbl.remove model k;
      Buffer.add_string expect (if found then "DELETED\r\n" else "NOT_FOUND\r\n")
    | _ ->
      let ks = List.init (1 + Mp_util.Rng.below rng 3) (fun _ -> key ()) in
      Printf.bprintf input "get %s\r\n" (String.concat " " (List.map string_of_int ks));
      List.iter (fun k -> if Hashtbl.mem model k then Buffer.add_string expect (hit k)) ks;
      Buffer.add_string expect "END\r\n"
  done;
  (Buffer.contents input, Buffer.contents expect)

(* Ring capacity 8 caps a chain at 4 ops, so a burst of 60 commands
   takes several overlapped rounds per shard. One connection must match
   the sequential model exactly; two connection domains bursting at once
   (disjoint keys, small rings, so ring-full retries happen) must both
   match and both finish. *)
let conn_overlapped ~shards () =
  let threads = shards in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds (module Mp.Margin_ptr)
  in
  let set = SET.create ~threads ~capacity:65_536 ~check_access:true (Smr_core.Config.default ~threads) in
  let svc = Service.create (module SET) set ~shards ~batch:4 ~ring_capacity:8 in
  Service.start svc;
  Fun.protect ~finally:(fun () -> Service.stop svc) @@ fun () ->
  let run_conn ~seed ~base ~bursts =
    let conn = Conn.create svc in
    let rng = Mp_util.Rng.create seed in
    let model = Hashtbl.create 32 in
    let mismatches = ref 0 in
    for _ = 1 to bursts do
      let input, expect = burst rng model ~base ~ncmds:60 in
      feed_ok (Conn.parser conn) input;
      ignore (Conn.pump conn : int);
      if Buffer.contents (Conn.out conn) <> expect then incr mismatches
    done;
    !mismatches
  in
  let solo = ref (-1) in
  Common.within_deadline ~seconds:30.0 "one connection" (fun () ->
      solo := run_conn ~seed:(0xb0 + shards) ~base:0 ~bursts:20);
  Alcotest.(check int) "one connection: every burst matches the sequential model" 0 !solo;
  let pair = Array.make 2 (-1) in
  Common.within_deadline ~seconds:30.0 "two connection domains" (fun () ->
      let ds =
        Array.init 2 (fun c ->
            Domain.spawn (fun () ->
                pair.(c) <- run_conn ~seed:(0xc0 + (10 * shards) + c) ~base:(1000 * (c + 1)) ~bursts:40))
      in
      Array.iter Domain.join ds);
  Alcotest.(check (array int)) "two connections: both match their models" [| 0; 0 |] pair;
  Alcotest.(check int) "no use-after-free" 0 (SET.violations set)

let () =
  Alcotest.run "frontend"
    [
      ( "parser",
        [
          Alcotest.test_case "command grammar" `Quick parser_commands;
          Alcotest.test_case "malformed input surfaces as Bad" `Quick parser_errors;
          Alcotest.test_case "fragmentation invariance (every split)" `Quick parser_torn_feeds;
        ] );
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest ~long:true fuzz_fragmentation;
          QCheck_alcotest.to_alcotest ~long:true fuzz_resync;
        ] );
      ( "conn",
        [
          Alcotest.test_case "pipelined replies, exact bytes" `Slow conn_round;
          Alcotest.test_case "chunked chains on a large burst" `Slow conn_large_burst;
          Alcotest.test_case "overlapped chains, ring 8, 2 shards" `Slow (conn_overlapped ~shards:2);
          Alcotest.test_case "overlapped chains, ring 8, 3 shards" `Slow (conn_overlapped ~shards:3);
        ] );
    ]
