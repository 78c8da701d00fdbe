(* kv-socket: mpserver with its defaults (hash over MP, 2 shards,
   B = 32, ring 1024, recovery on) on a Unix socket. Two connections
   from this process each run a closed loop of 32 pipelined single-key
   commands (90% get, 5% set, 5% delete) over their own half of the
   keys, and check every reply against a shadow of those keys.

   mpserver's layers run in another process, so a traced run replays
   the same command stream in process one layer down at a time after
   the server has stopped: bytes through Frontend.Conn.pump over an
   in-process Service with mpserver's defaults, the same ops as
   per-shard ring chains, the same ops as direct SET calls, and the
   parser alone. *)

module Rng = Mp_util.Rng
module Service = Mp_service.Service
module Frontend = Mp_service.Frontend

let key_range = 8192
let populated = 4096
let conns = 2
let depth = 32
let get_pct = 90
let set_pct = 5 (* remainder: delete *)
(* An end-to-end run is [trials] trials, each against a fresh server
   process with fresh client domains, so that one server's thread
   placement does not set the whole run's figures. *)
let trials = 20
let warmup_s = 0.3
let lat_cap = 1 lsl 17
let span_cap = 1 lsl 17
let server_args sock = [ "--unix"; sock; "--init"; "0"; "--key-range"; string_of_int key_range ]

(* mpserver's defaults, for the in-process replay. *)
let shards = 2
let batch = 32
let ring = 1024
let spare_tids = 1

let k_get = 0
let k_set = 1
let k_delete = 2

(* -- command batches ------------------------------------------------------ *)

type batch = { kinds : int array; keys : int array; mutable n : int }

let new_batch cap = { kinds = Array.make cap 0; keys = Array.make cap 0; n = 0 }

(* The next closed-loop batch of connection [conn]: it owns the keys
   with parity [conn]. *)
let next_batch rng ~conn b =
  for i = 0 to depth - 1 do
    let r = Rng.below rng 100 in
    b.kinds.(i) <- (if r < get_pct then k_get else if r < get_pct + set_pct then k_set else k_delete);
    b.keys.(i) <- (2 * Rng.below rng (key_range / 2)) + conn
  done;
  b.n <- depth

let put_string buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  pos + String.length s

let rec digits k = if k < 10 then 1 else 1 + digits (k / 10)

let put_int buf pos k =
  let n = digits k in
  let v = ref k in
  for i = n - 1 downto 0 do
    Bytes.unsafe_set buf (pos + i) (Char.unsafe_chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  pos + n

(* Memcached text for the batch into [buf]; returns its length. *)
let render b buf =
  let pos = ref 0 in
  for i = 0 to b.n - 1 do
    let k = b.keys.(i) in
    let p = !pos in
    pos :=
      if b.kinds.(i) = k_get then put_string buf (put_int buf (put_string buf p "get ") k) "\r\n"
      else if b.kinds.(i) = k_set then begin
        let p = put_int buf (put_string buf p "set ") k in
        let p = put_int buf (put_string buf p " 0 0 ") (digits k) in
        put_string buf (put_int buf (put_string buf p "\r\n") k) "\r\n"
      end
      else put_string buf (put_int buf (put_string buf p "delete ") k) "\r\n"
  done;
  !pos

(* -- reply checking ------------------------------------------------------- *)

(* Shadow states of a key. A key whose write failed (SERVER_ERROR) is
   unknown until a definite reply settles it. *)
let absent = '\000'
let present = '\001'
let unknown = '\002'

(* Per-connection reply checker: a byte-at-a-time line matcher that
   walks the batch's commands in order and compares each reply with the
   shadow, then updates the shadow. *)
type checker = {
  shadow : Bytes.t;
  line : Bytes.t;
  mutable len : int;
  mutable cmd : int;
  mutable value_state : int; (* get: 0 = head, 1 = after VALUE, 2 = after data *)
  mutable failed : int;
  mutable set_ok : int;
  mutable set_att : int;
  mutable del_ok : int;
  mutable del_att : int;
  mutable errors : string list;
}

let new_checker shadow =
  {
    shadow;
    line = Bytes.create 512;
    len = 0;
    cmd = 0;
    value_state = 0;
    failed = 0;
    set_ok = 0;
    set_att = 0;
    del_ok = 0;
    del_att = 0;
    errors = [];
  }

let line_is c s =
  c.len = String.length s
  &&
  let rec eq i = i >= c.len || (Bytes.unsafe_get c.line i = s.[i] && eq (i + 1)) in
  eq 0

let line_starts c s =
  c.len >= String.length s
  &&
  let rec eq i = i >= String.length s || (Bytes.unsafe_get c.line i = s.[i] && eq (i + 1)) in
  eq 0

(* Decimal integer at [pos] of the line, up to a space or the end; -1
   if malformed. *)
let line_int c pos =
  let rec go i acc =
    if i >= c.len || Bytes.get c.line i = ' ' then if i = pos then -1 else acc
    else
      match Bytes.get c.line i with
      | '0' .. '9' as d -> go (i + 1) ((acc * 10) + Char.code d - 48)
      | _ -> -1
  in
  go pos 0

let fail c msg = if List.length c.errors < 5 then c.errors <- msg :: c.errors

(* [expect] the shadow state a definite reply implies; [after] the state
   the reply leaves. *)
let settle c k ~expect ~after ~what =
  let s = Bytes.get c.shadow k in
  if s <> unknown && s <> expect then
    fail c (Printf.sprintf "key %d: %s, but the shadow says %s" k what
              (if s = present then "present" else "absent"));
  Bytes.set c.shadow k after

let on_line c b =
  let i = c.cmd in
  if i >= b.n then fail c "reply beyond the batch's commands"
  else begin
    let k = b.keys.(i) and kind = b.kinds.(i) in
    if c.value_state = 1 then begin
      if line_int c 0 <> k then fail c (Printf.sprintf "key %d: bad VALUE data" k);
      c.value_state <- 2
    end
    else if line_starts c "SERVER_ERROR" || line_starts c "CLIENT_ERROR" || line_is c "ERROR"
    then begin
      c.failed <- c.failed + 1;
      if kind <> k_get then Bytes.set c.shadow k unknown;
      c.value_state <- 0;
      c.cmd <- i + 1
    end
    else if kind = k_get then begin
      if c.value_state = 0 && line_starts c "VALUE " then begin
        if line_int c 6 <> k then fail c (Printf.sprintf "key %d: VALUE for another key" k);
        c.value_state <- 1
      end
      else if line_is c "END" then begin
        let hit = c.value_state = 2 in
        settle c k ~expect:(if hit then present else absent)
          ~after:(if hit then present else absent)
          ~what:(if hit then "get hit" else "get miss");
        c.value_state <- 0;
        c.cmd <- i + 1
      end
      else begin
        fail c (Printf.sprintf "key %d: unexpected get reply %S" k (Bytes.sub_string c.line 0 c.len));
        c.value_state <- 0;
        c.cmd <- i + 1
      end
    end
    else begin
      let ok_line, no_line = if kind = k_set then ("STORED", "NOT_STORED") else ("DELETED", "NOT_FOUND") in
      let ok = line_is c ok_line in
      if (not ok) && not (line_is c no_line) then
        fail c (Printf.sprintf "key %d: unexpected reply %S" k (Bytes.sub_string c.line 0 c.len))
      else if kind = k_set then begin
        c.set_att <- c.set_att + 1;
        if ok then c.set_ok <- c.set_ok + 1;
        settle c k ~expect:(if ok then absent else present) ~after:present ~what:(if ok then "STORED" else "NOT_STORED")
      end
      else begin
        c.del_att <- c.del_att + 1;
        if ok then c.del_ok <- c.del_ok + 1;
        settle c k ~expect:(if ok then present else absent) ~after:absent ~what:(if ok then "DELETED" else "NOT_FOUND")
      end;
      c.cmd <- i + 1
    end
  end

(* Check the outcome of one in-process op against the shadow and tally
   it, by the rules [on_line] applies to a reply line; [None] is a
   failed op. *)
let check_result c ~kind ~k result =
  match result with
  | None ->
    c.failed <- c.failed + 1;
    if kind <> k_get then Bytes.set c.shadow k unknown
  | Some ok ->
    if kind = k_get then
      settle c k ~expect:(if ok then present else absent) ~after:(if ok then present else absent)
        ~what:"contains"
    else if kind = k_set then begin
      c.set_att <- c.set_att + 1;
      if ok then c.set_ok <- c.set_ok + 1;
      settle c k ~expect:(if ok then absent else present) ~after:present ~what:"insert"
    end
    else begin
      c.del_att <- c.del_att + 1;
      if ok then c.del_ok <- c.del_ok + 1;
      settle c k ~expect:(if ok then present else absent) ~after:absent ~what:"remove"
    end

(* Feed reply bytes; the batch is answered once [c.cmd = b.n]. *)
let feed c b buf off len =
  for j = off to off + len - 1 do
    let ch = Bytes.unsafe_get buf j in
    if ch = '\n' then begin
      if c.len > 0 && Bytes.get c.line (c.len - 1) = '\r' then c.len <- c.len - 1;
      on_line c b;
      c.len <- 0
    end
    else if c.len < Bytes.length c.line then begin
      Bytes.unsafe_set c.line c.len ch;
      c.len <- c.len + 1
    end
  done

let start_batch c =
  c.cmd <- 0;
  c.value_state <- 0;
  c.len <- 0

(* The populated keys: [populated] distinct keys of [0, key_range),
   the same for a seed. *)
let initial_shadow ~seed =
  let s = Bytes.make key_range absent in
  let rng = Rng.create seed in
  let n = ref 0 in
  while !n < populated do
    let k = Rng.below rng key_range in
    if Bytes.get s k = absent then begin
      Bytes.set s k present;
      incr n
    end
  done;
  s

(* The populate stream: one [set] per populated key, in batches of
   [depth]. [f b] gets each batch. *)
let populate_batches shadow f =
  let b = new_batch depth in
  for k = 0 to key_range - 1 do
    if Bytes.get shadow k = present then begin
      b.kinds.(b.n) <- k_set;
      b.keys.(b.n) <- k;
      b.n <- b.n + 1;
      if b.n = depth then begin
        f b;
        b.n <- 0
      end
    end
  done;
  if b.n > 0 then f b

(* -- the server ----------------------------------------------------------- *)

type server = { pid : int; out : Unix.file_descr }

let live_servers = ref []

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () ->
      List.iter
        (fun s ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] s.pid : int * Unix.process_status)
          with Unix.Unix_error _ -> ())
        !live_servers)

(* Spawn mpserver and connect once it accepts. *)
let start_server ~exe ~sock =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: server_args sock)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let srv = { pid; out = r } in
  live_servers := srv :: !live_servers;
  let deadline = Meter.now_ns () + 30_000_000_000 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "mpserver exited before accepting");
      if Meter.now_ns () > deadline then failwith "mpserver did not accept within 30 s";
      Unix.sleepf 0.001;
      connect ()
  in
  (srv, connect ())

(* SIGINT makes mpserver print its stats envelope (one JSON line) and
   exit; the connections must be closed first. *)
let stop_server srv =
  Unix.kill srv.pid Sys.sigint;
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read srv.out chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ();
  Unix.close srv.out;
  let _, status = Unix.waitpid [] srv.pid in
  live_servers := List.filter (fun s -> s.pid <> srv.pid) !live_servers;
  if status <> Unix.WEXITED 0 then failwith "mpserver did not exit cleanly";
  Buffer.contents buf

(* An integer field of the envelope. *)
let envelope_int env key =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if i + String.length pat > String.length env then failwith ("envelope lacks " ^ key)
    else if String.sub env i (String.length pat) = pat then i + String.length pat
    else find (i + 1)
  in
  Scanf.sscanf (String.sub env (find 0) (String.length env - find 0)) "%d" Fun.id

(* Pipelined round trip of one batch on [fd]; returns the read calls it
   took. *)
let round_trip fd c b ~outb ~inb ~bytes_out ~bytes_in =
  let len = render b outb in
  ignore (Unix.write fd outb 0 len : int);
  bytes_out := !bytes_out + len;
  let sent = Meter.now_ns () in
  start_batch c;
  let reads = ref 0 in
  while c.cmd < b.n do
    let n = Unix.read fd inb 0 (Bytes.length inb) in
    if n = 0 then failwith "mpserver closed the connection";
    incr reads;
    bytes_in := !bytes_in + n;
    feed c b inb 0 n
  done;
  (sent, !reads)

let populate_socket fd shadow =
  let c = new_checker (Bytes.make key_range absent) in
  let outb = Bytes.create 65536 and inb = Bytes.create 65536 in
  let bo = ref 0 and bi = ref 0 in
  populate_batches shadow (fun b ->
      ignore (round_trip fd c b ~outb ~inb ~bytes_out:bo ~bytes_in:bi : int * int));
  if c.failed > 0 || c.set_ok <> populated || c.errors <> [] then
    failwith "populate through the socket did not store every key"

(* -- closed-loop clients ---------------------------------------------------- *)

(* This workload's counters, after Meter's common three (a call there
   is one command). *)
let f_batches = 3
let f_bytes = 4
let f_reads = 5
let f_set_att = 6
let f_set_ok = 7
let f_del_att = 8
let f_del_ok = 9
let nfields = 10

(* Span names. *)
let s_batch = 0
let s_send = 1
let s_recv = 2
let s_pump = 3
let s_service_batch = 4
let s_chain = 5
let s_window = 6
let s_direct = 7
let s_op = 8 (* + command kind *)

let span_names =
  [| "client.batch"; "client.send"; "client.recv"; "frontend.pump"; "service.batch";
     "service.chain"; "client.window"; "dstruct.batch"; "set.contains"; "set.insert";
     "set.remove" |]

(* The direct-call leg keeps a span for one op in 16. *)
let direct_stride_mask = 15

type conn_state = {
  conn : int;
  rng : Rng.t;
  b : batch;
  chk : checker;
  r : Meter.recorder;
}

let new_conn ~seed ~shadow ~nphases ?(domain = 0) conn =
  {
    conn;
    rng = Rng.split ~seed ~tid:conn;
    b = new_batch depth;
    chk = new_checker (Bytes.copy shadow);
    r = Meter.recorder ~nfields ~nphases ~lat_cap ~span_cap ~domain:(domain + conn);
  }

(* Fold the checker's tallies into the counters. *)
let sync st =
  let c = st.r.counters and k = st.chk in
  c.(Meter.f_failed) <- k.failed;
  c.(f_set_att) <- k.set_att;
  c.(f_set_ok) <- k.set_ok;
  c.(f_del_att) <- k.del_att;
  c.(f_del_ok) <- k.del_ok

(* One closed loop over the phases. [step st ~traced ~window] runs one
   batch and returns (start, end) of the call; it records its own child
   spans when [traced]. *)
let closed_loop ~phase ~traced ~last st step () =
  let seen = ref 0 and window = ref (-1) in
  while !seen <= last do
    let ph = Atomic.get phase in
    if ph <> !seen then begin
      sync st;
      window :=
        Meter.edge st.r ~seen:!seen ~ph ~last ~traced ~window:!window ~window_name:s_window;
      seen := ph
    end;
    if !seen <= last then begin
      next_batch st.rng ~conn:st.conn st.b;
      let tracing = !window >= 0 in
      let t0, t1 = step st ~traced:tracing ~window:!window in
      if not tracing then Meter.Lat.add st.r.lat (t1 - t0);
      let c = st.r.counters in
      c.(Meter.f_ops) <- c.(Meter.f_ops) + st.b.n;
      c.(f_batches) <- c.(f_batches) + 1
    end
  done

let run_loops ?tick ~warmup_s ~legs ~traced ~on_edge states step =
  let phase = Atomic.make 0 in
  let last = Array.length legs in
  let domains =
    Array.map (fun st -> Domain.spawn (closed_loop ~phase ~traced ~last st step)) states
  in
  let marks = Meter.drive ?tick ~phase ~warmup_s ~legs ~on_edge () in
  Array.iter Domain.join domains;
  marks

let recs states = Array.map (fun st -> st.r) states

let span_p50 states name =
  Meter.int_percentile (Meter.Spans.durations (Meter.spans_of (recs states)) name) 50.0

let checker_errors states =
  List.concat_map
    (fun st -> List.rev_map (fun e -> Printf.sprintf "conn %d: %s" st.conn e) st.chk.errors)
    (Array.to_list states)

(* -- the in-process replay (traced runs) ------------------------------------ *)

(* Hand [len] bytes of [buf] to a parser the way mpserver's serve_conn
   does: straight into its fill window. *)
let fill_parser p buf len =
  Bytes.blit buf 0 (Frontend.Parser.buffer p) (Frontend.Parser.write_off p) len;
  Frontend.Parser.fill p len

(* One replay connection's chain arrays: the batch bucketed by shard
   ([slot.(i)] is where op i went) and the harvested replies. *)
type chain_bufs = {
  ops : int array;
  keys : int array;
  values : int array;
  replies : int array;
  slot : int array;
  count : int array;
  start : int array;
}

let new_chain_bufs () =
  let a () = Array.make depth 0 in
  {
    ops = a ();
    keys = a ();
    values = a ();
    replies = a ();
    slot = a ();
    count = Array.make shards 0;
    start = Array.make shards 0;
  }

type replay = {
  pump_p50_ns : int option;
  batch_p50_ns : int option; (* service.batch: one batch's chains *)
  chain_p50_ns : int option;
  op_p50_ns : (int option * int) array; (* per command kind: p50, spans *)
  parse_ns_per_cmd : float option;
  layer : Meter.metric list; (* dstruct/smr/mempool/gc over the pump leg *)
  replay_errors : string list;
  replay_spans : Meter.Spans.t list;
}

let replay ~seed ~shadow ~pump_s ~chain_s ~direct_s ~parse_s =
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.(make Hash_ds mp)
  in
  let threads = shards + spare_tids in
  let config = Smr_core.Config.with_max_arenas (Smr_core.Config.default ~threads) 1 in
  let set = SET.create ~threads ~capacity:(threads * 65536) config in
  SET.flush (SET.session set ~tid:0);
  let service =
    Service.create
      ~recovery:{ Mp_service.Recovery.default with spare_tids }
      (module SET) set ~shards ~batch ~ring_capacity:ring
  in
  Service.start service;
  let errors = ref [] in

  let check_out conn c b inb =
    let out = Frontend.Conn.out conn in
    let len = Buffer.length out in
    Buffer.blit out 0 inb 0 len;
    start_batch c;
    feed c b inb 0 len;
    if c.cmd < b.n then fail c "pump answered only part of the batch"
  in
  (let conn = Frontend.Conn.create service in
   let c = new_checker (Bytes.make key_range absent) in
   let outb = Bytes.create 65536 and inb = Bytes.create 65536 in
   populate_batches shadow (fun b ->
       fill_parser (Frontend.Conn.parser conn) outb (render b outb);
       ignore (Frontend.Conn.pump conn : int);
       check_out conn c b inb);
   if c.set_ok <> populated then errors := "replay populate did not store every key" :: !errors);
  let states = Array.init conns (new_conn ~seed ~shadow ~nphases:2 ~domain:conns) in
  (* frontend.pump leg, with counters around it *)
  let before = ref None and after = ref None in
  let snap () =
    let pool = SET.pool set in
    ( SET.smr_stats set,
      SET.traversed set,
      Mempool.Core.alloc_count pool,
      Mempool.Core.free_count pool,
      Meter.gc_sample () )
  in
  let wasted_sum = ref 0.0 and wasted_n = ref 0 in
  let pump_conns = Array.map (fun _ -> Frontend.Conn.create service) states in
  let pump_bufs = Array.map (fun _ -> (Bytes.create 65536, Bytes.create 65536)) states in
  let pump_step st ~traced ~window =
    let conn = pump_conns.(st.conn) and outb, inb = pump_bufs.(st.conn) in
    fill_parser (Frontend.Conn.parser conn) outb (render st.b outb);
    let t0 = Meter.now_ns () in
    ignore (Frontend.Conn.pump conn : int);
    let t1 = Meter.now_ns () in
    if traced then
      ignore (Meter.Spans.add st.r.spans ~name:s_pump ~start:t0 ~stop:t1 ~parent:window
                ~call:st.r.counters.(f_batches) : int);
    check_out conn st.chk st.b inb;
    (t0, t1)
  in
  let pump_mark, _ =
    run_loops ~warmup_s:0.2 ~legs:[| pump_s |] ~traced:[| false; true |]
      ~on_edge:(fun p -> if p = 1 then before := Some (snap ()) else after := Some (snap ()))
      ~tick:(fun _ ->
        wasted_sum := !wasted_sum +. float_of_int (SET.smr_stats set).Smr_core.Smr_intf.wasted;
        incr wasted_n)
      states pump_step
  in
  let pump_ops =
    float_of_int (Meter.completed (recs states) ~p0:1 ~p1:2)
  in
  let pump_p50 = span_p50 states s_pump in
  (* service.chain leg: the same stream as per-shard chains, bucketed
     and submitted in shard order the way Conn.execute does *)
  let chains = Array.map (fun _ -> new_chain_bufs ()) states in
  let chain_step st ~traced ~window =
    let { ops; keys; values; replies; slot; count; start } = chains.(st.conn) in
    let b = st.b in
    let t0 = Meter.now_ns () in
    let parent =
      if traced then
        Meter.Spans.add st.r.spans ~name:s_service_batch ~start:t0 ~stop:(-1) ~parent:window
          ~call:st.r.counters.(f_batches)
      else -1
    in
    Array.fill count 0 shards 0;
    for i = 0 to b.n - 1 do
      let s = Service.shard_of_key service b.keys.(i) in
      count.(s) <- count.(s) + 1
    done;
    let acc = ref 0 in
    for s = 0 to shards - 1 do
      start.(s) <- !acc;
      acc := !acc + count.(s)
    done;
    for i = 0 to b.n - 1 do
      let s = Service.shard_of_key service b.keys.(i) in
      let j = start.(s) in
      start.(s) <- j + 1;
      slot.(i) <- j;
      let k = b.keys.(i) in
      ops.(j) <-
        (if b.kinds.(i) = k_get then Service.op_contains
         else if b.kinds.(i) = k_set then Service.op_insert
         else Service.op_remove);
      keys.(j) <- k;
      values.(j) <- k
    done;
    let off = ref 0 in
    for s = 0 to shards - 1 do
      let n = count.(s) in
      if n > 0 then begin
        let c0 = Meter.now_ns () in
        let ticket = ref (-1) in
        while !ticket < 0 do
          ticket := Service.try_submit_chain service ~shard:s ~n ~ops ~keys ~values ~off:!off;
          if !ticket < 0 then Domain.cpu_relax ()
        done;
        Service.await_chain service ~shard:s ~ticket:!ticket ~n;
        Service.harvest_chain service ~shard:s ~ticket:!ticket ~n ~replies ~off:!off;
        if traced then
          ignore (Meter.Spans.add st.r.spans ~name:s_chain ~start:c0 ~stop:(Meter.now_ns ())
                    ~parent ~call:st.r.counters.(f_batches) : int);
        off := !off + n
      end
    done;
    let t1 = Meter.now_ns () in
    Meter.Spans.close st.r.spans parent t1;
    (* check against the shadow through the same reply rules *)
    for i = 0 to b.n - 1 do
      let r = replies.(slot.(i)) in
      check_result st.chk ~kind:b.kinds.(i) ~k:b.keys.(i)
        (if r = Service.reply_true then Some true
         else if r = Service.reply_false then Some false
         else None)
    done;
    (t0, t1)
  in
  let _ : int array * (int * int) array =
    run_loops ~warmup_s:0.0 ~legs:[| chain_s |] ~traced:[| false; true |]
      ~on_edge:(fun _ -> ()) states chain_step
  in
  let batch_p50 = span_p50 states s_service_batch and chain_p50 = span_p50 states s_chain in
  Service.stop service;
  (* dstruct leg: the same stream as direct SET calls from the client
     domains, one layer below the service. The shards have stopped, so
     their tids are free. Fresh recorders give the per-op spans room;
     the shadows carry over. *)
  let direct =
    Array.map
      (fun st ->
        { st with r = Meter.recorder ~nfields ~nphases:2 ~lat_cap ~span_cap ~domain:((2 * conns) + st.conn) })
      states
  in
  let sessions = Array.make conns None in
  let direct_step st ~traced ~window =
    let s =
      match sessions.(st.conn) with
      | Some s -> s
      | None ->
        let s = SET.session set ~tid:st.conn in
        sessions.(st.conn) <- Some s;
        s
    in
    let b = st.b and call = st.r.counters.(f_batches) in
    let t0 = Meter.now_ns () in
    let parent =
      if traced then Meter.Spans.add st.r.spans ~name:s_direct ~start:t0 ~stop:(-1) ~parent:window ~call
      else -1
    in
    for i = 0 to b.n - 1 do
      let k = b.keys.(i) and kind = b.kinds.(i) in
      let sampled = traced && i land direct_stride_mask = 0 in
      let c0 = if sampled then Meter.now_ns () else 0 in
      let result =
        match
          if kind = k_get then SET.contains s k
          else if kind = k_set then SET.insert s ~key:k ~value:k
          else SET.remove s k
        with
        | ok -> Some ok
        | exception Mempool.Exhausted -> None
      in
      if sampled then
        ignore (Meter.Spans.add st.r.spans ~name:(s_op + kind) ~start:c0 ~stop:(Meter.now_ns ())
                  ~parent ~call : int);
      check_result st.chk ~kind ~k result
    done;
    let t1 = Meter.now_ns () in
    Meter.Spans.close st.r.spans parent t1;
    (t0, t1)
  in
  let _ : int array * (int * int) array =
    run_loops ~warmup_s:0.0 ~legs:[| direct_s |] ~traced:[| false; true |]
      ~on_edge:(fun _ -> ()) direct direct_step
  in
  let op_p50 =
    Array.init 3 (fun kind ->
        let d = Meter.Spans.durations (Meter.spans_of (recs direct)) (s_op + kind) in
        (Meter.int_percentile d 50.0, Array.length d))
  in
  (* the replay's own conservation check *)
  (try SET.check set with Failure msg -> errors := ("replay SET.check: " ^ msg) :: !errors);
  let expected =
    populated + Array.fold_left (fun acc st -> acc + st.chk.set_ok - st.chk.del_ok) 0 states
  in
  if SET.size set <> expected then
    errors := Printf.sprintf "replay SET.size = %d, expected %d" (SET.size set) expected :: !errors;
  errors := !errors @ checker_errors states;
  (* parser alone *)
  let parser = Frontend.Parser.create () in
  let rng = Rng.split ~seed ~tid:0 and b = new_batch depth and outb = Bytes.create 65536 in
  let cmds = ref 0 and ns = ref 0 in
  let until = Meter.now_ns () + int_of_float (parse_s *. 1e9) in
  while Meter.now_ns () < until do
    next_batch rng ~conn:0 b;
    fill_parser parser outb (render b outb);
    let t0 = Meter.now_ns () in
    let rec drain n = match Frontend.Parser.next parser with Some _ -> drain (n + 1) | None -> n in
    let n = drain 0 in
    ns := !ns + (Meter.now_ns () - t0);
    cmds := !cmds + n
  done;
  let layer =
    match (!before, !after) with
    | Some (s0, tr0, al0, fr0, g0), Some (s1, tr1, al1, fr1, g1) ->
      let open Smr_core.Smr_intf in
      let note = "in-process replay, frontend.pump leg" in
      let per_op x = Meter.ratio x pump_ops in
      let traversed = float_of_int (tr1 - tr0) in
      let passes = float_of_int (s1.scan_passes - s0.scan_passes) in
      let leg_s = float_of_int (pump_mark.(2) - pump_mark.(1)) *. 1e-9 in
      Meter.
        [
          metric "dstruct.nodes_per_op" "count" (per_op traversed) ~note;
          metric "smr.fences_per_node" "count" (ratio (float_of_int (s1.fences - s0.fences)) traversed) ~note;
          metric "smr.hp_fallbacks_per_op" "count" (per_op (float_of_int (s1.hp_fallbacks - s0.hp_fallbacks))) ~note;
          metric "smr.retired_per_op" "count" (per_op (float_of_int (s1.retired_total - s0.retired_total))) ~note;
          metric "smr.scans_per_kop" "count" (ratio ~scale:1000.0 passes pump_ops) ~note;
          metric "smr.scan_us_per_pass" "us" (ratio ~scale:1e6 (s1.scan_time_s -. s0.scan_time_s) passes) ~note;
          metric "smr.scan_time_frac" "fraction"
            (ratio (s1.scan_time_s -. s0.scan_time_s) (leg_s *. float_of_int shards))
            ~note:(note ^ "; share of shard-domain time");
          metric "smr.reclaimed_per_pass" "count" (ratio (float_of_int (s1.reclaimed - s0.reclaimed)) passes) ~note;
          metric "smr.wasted_avg_nodes" "count" (ratio !wasted_sum (float_of_int !wasted_n))
            ~note:(note ^ "; mpserver exposes no live SMR stats");
          metric "mempool.allocs_per_op" "count" (per_op (float_of_int (al1 - al0))) ~note;
          metric "mempool.frees_per_op" "count" (per_op (float_of_int (fr1 - fr0))) ~note;
          metric "gc.minor_words_per_op" "words" (per_op (g1.Meter.minor_words -. g0.Meter.minor_words))
            ~note:(note ^ "; process-wide, includes the replay clients");
          metric "gc.promoted_words_per_op" "words"
            (per_op (g1.Meter.promoted_words -. g0.Meter.promoted_words)) ~note;
          metric "gc.minor_gcs_per_kop" "count"
            (ratio ~scale:1000.0 (float_of_int (g1.Meter.minor_gcs - g0.Meter.minor_gcs)) pump_ops) ~note;
        ]
    | _ -> []
  in
  {
    pump_p50_ns = pump_p50;
    batch_p50_ns = batch_p50;
    chain_p50_ns = chain_p50;
    op_p50_ns = op_p50;
    parse_ns_per_cmd = Meter.ratio (float_of_int !ns) (float_of_int !cmds);
    layer;
    replay_errors = !errors;
    replay_spans = Meter.spans_of (recs states) @ Meter.spans_of (recs direct);
  }

(* -- the workload ------------------------------------------------------------- *)

type trial = {
  states : conn_state array;
  setup_s : float;
  t_mark : int array;
  steal : (int * int) array;
  env : string; (* the server's exit envelope *)
  rss : float option; (* the server's VmHWM, MiB *)
  errors : string list;
}

(* One trial: spawn mpserver until it accepts and populate it through
   the socket (timed: the set-up), run the 2 connections over [legs]
   after a warmup, then stop the server and check its envelope. *)
let trial ~server ~sock ~seed ~shadow ~legs ~traced =
  let t0 = Meter.now_ns () in
  let srv, fd = start_server ~exe:server ~sock in
  populate_socket fd shadow;
  let setup_s = float_of_int (Meter.now_ns () - t0) *. 1e-9 in
  Unix.close fd;
  let nlegs = Array.length legs in
  let states = Array.init conns (new_conn ~seed ~shadow ~nphases:(nlegs + 1)) in
  let fds =
    Array.map
      (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd)
      states
  in
  let io = Array.map (fun _ -> (Bytes.create 65536, Bytes.create 65536, ref 0, ref 0)) states in
  let socket_step st ~traced ~window =
    let outb, inb, bo, bi = io.(st.conn) in
    let t0 = Meter.now_ns () in
    let sent, reads = round_trip fds.(st.conn) st.chk st.b ~outb ~inb ~bytes_out:bo ~bytes_in:bi in
    let t1 = Meter.now_ns () in
    let c = st.r.counters in
    c.(f_reads) <- c.(f_reads) + reads;
    c.(f_bytes) <- !bo + !bi;
    if traced then begin
      let call = c.(f_batches) in
      let id = Meter.Spans.add st.r.spans ~name:s_batch ~start:t0 ~stop:t1 ~parent:window ~call in
      ignore (Meter.Spans.add st.r.spans ~name:s_send ~start:t0 ~stop:sent ~parent:id ~call : int);
      ignore (Meter.Spans.add st.r.spans ~name:s_recv ~start:sent ~stop:t1 ~parent:id ~call : int)
    end;
    (t0, t1)
  in
  let t_mark, steal = run_loops ~warmup_s ~legs ~traced ~on_edge:ignore states socket_step in
  Array.iter Unix.close fds;
  let rss = Meter.peak_rss_mb (string_of_int srv.pid) in
  let env = stop_server srv in
  (* outside-in conservation: the server executed exactly the populate
     plus every command this process got a reply to *)
  let replied = Meter.completed (recs states) ~p0:0 ~p1:(nlegs + 1) in
  let errors =
    checker_errors states
    @ (if envelope_int env "ops" = populated + replied then []
       else
         [
           Printf.sprintf "envelope ops = %d, expected %d populated + %d replied"
             (envelope_int env "ops") populated replied;
         ])
    @ List.filter_map
        (fun k ->
          let v = envelope_int env k in
          if v = 0 then None else Some (Printf.sprintf "envelope %s = %d" k v))
        [ "violations"; "rejected"; "oom" ]
  in
  { states; setup_s; t_mark; steal; env; rss; errors }

let e2e ~windows ~ts =
  let setups = List.map (fun t -> t.setup_s) ts in
  Printf.printf "set-up times %s s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  let rss = List.filter_map (fun t -> t.rss) ts in
  Meter.window_metrics windows ~call:(Printf.sprintf "one %d-command round trip" depth)
  @ Meter.
      [
        metric "peak_rss_mb" "MiB"
          (if rss = [] then None else Some (median (Array.of_list rss)))
          ~note:"VmHWM of mpserver, median over the trials";
        metric "setup_s" "s"
          (Some (median (Array.of_list setups)))
          ~note:(Printf.sprintf "median of %d spawn+accept+populate" (List.length setups));
      ]

let totals ts ~n f =
  List.fold_left (fun acc t -> acc + Meter.delta (recs t.states) ~p0:1 ~p1:(n + 1) f) 0 ts

(* The end-to-end run: [trials] trials of [Meter.window_s] windows, all
   untraced. *)
let run_e2e ~server ~sock ~seed ~seconds =
  let shadow = initial_shadow ~seed in
  let k, n = Meter.split ~trials ~seconds in
  let ts =
    List.init k (fun _ ->
        trial ~server ~sock ~seed ~shadow ~legs:(Array.make n Meter.window_s)
          ~traced:(Array.make (n + 1) false))
  in
  let windows =
    List.map (fun t -> Meter.windows (recs t.states) ~t_mark:t.t_mark ~steal:t.steal ~n) ts
  in
  ( List.concat_map (fun t -> t.errors) ts,
    totals ts ~n Meter.f_ops,
    totals ts ~n Meter.f_failed,
    e2e ~windows ~ts,
    [] )

(* The traced run: one trial, its socket legs split between untraced
   (transport counters) and traced (spans), then the in-process replay. *)
let run_traced ~server ~sock ~seed ~seconds ~out_dir =
  let shadow = initial_shadow ~seed in
  let untraced_n = max 1 (seconds * 35 / 100) in
  let traced_n = untraced_n in
  let nlegs = untraced_n + traced_n in
  let p0 = 1 and p1 = untraced_n + 1 in
  let t =
    trial ~server ~sock ~seed ~shadow ~legs:(Array.make nlegs 1.0)
      ~traced:(Array.init (nlegs + 1) (fun p -> p >= p1))
  in
  let rs = recs t.states in
  let e2e =
    e2e ~windows:[ Meter.windows rs ~t_mark:t.t_mark ~steal:t.steal ~n:untraced_n ] ~ts:[ t ]
  in
  let r =
    replay ~seed ~shadow ~pump_s:(float_of_int seconds *. 0.15)
      ~chain_s:(float_of_int seconds *. 0.1) ~direct_s:(float_of_int seconds *. 0.05)
      ~parse_s:(float_of_int seconds *. 0.05)
  in
  let d f = float_of_int (Meter.delta rs ~p0 ~p1 f) in
  let whole = "mpserver envelope, whole server run (includes populate)" in
  let env_f k = float_of_int (envelope_int t.env k) in
  let us = Option.map (fun ns -> float_of_int ns /. 1000.0) in
  let rtt_p50 = span_p50 t.states s_batch in
  (* a leg's share of one client call: its p50 over the socket
     round-trip p50 *)
  let share ns =
    match (ns, rtt_p50) with
    | Some a, Some b when b > 0 -> Some (a /. float_of_int b)
    | _ -> None
  in
  let op_p50 name kind =
    let p50, n = r.op_p50_ns.(kind) in
    Meter.metric name "ns" (Option.map float_of_int p50)
      ~note:(Printf.sprintf "traced, in-process replay, direct SET calls, %d spans" n)
  in
  let pump_ns = Option.map float_of_int r.pump_p50_ns in
  let rate_over first n =
    Meter.median (Array.init n (fun i -> Meter.leg_rate rs t.t_mark (first + i)))
  in
  let untraced_rate = rate_over p0 untraced_n and traced_rate = rate_over p1 traced_n in
  let replay_or name unit =
    match List.find_opt (fun m -> m.Meter.name = name) r.layer with
    | Some m -> m
    | None -> Meter.metric name unit None
  in
  let layers =
    Meter.
      [
        replay_or "dstruct.nodes_per_op" "count";
        metric "dstruct.update_success_frac" "fraction"
          (ratio (d f_set_ok +. d f_del_ok) (d f_set_att +. d f_del_att))
          ~note:"socket replies";
        op_p50 "dstruct.contains_p50_ns" k_get;
        op_p50 "dstruct.insert_p50_ns" k_set;
        op_p50 "dstruct.remove_p50_ns" k_delete;
        replay_or "smr.fences_per_node" "count";
        replay_or "smr.hp_fallbacks_per_op" "count";
        replay_or "smr.retired_per_op" "count";
        replay_or "smr.scans_per_kop" "count";
        replay_or "smr.scan_us_per_pass" "us";
        replay_or "smr.scan_time_frac" "fraction";
        replay_or "smr.reclaimed_per_pass" "count";
        replay_or "smr.wasted_avg_nodes" "count";
        metric "smr.wasted_peak_nodes" "count" (Some (env_f "wasted_peak")) ~note:whole;
        replay_or "mempool.allocs_per_op" "count";
        replay_or "mempool.frees_per_op" "count";
        metric "mempool.live_peak_slots" "count" (Some (env_f "live_peak")) ~note:whole;
        replay_or "gc.minor_words_per_op" "words";
        replay_or "gc.promoted_words_per_op" "words";
        replay_or "gc.minor_gcs_per_kop" "count";
        metric "service.ops_per_batch" "count" (ratio (env_f "ops") (env_f "batches")) ~note:whole;
        metric "service.max_batch" "count" (Some (env_f "max_batch")) ~note:whole;
        metric "service.conn_spins_per_op" "count"
          (ratio (env_f "client_spins") (env_f "ops"))
          ~note:whole;
        metric "service.conn_backoffs_per_op" "count"
          (ratio (env_f "client_backoffs") (env_f "ops"))
          ~note:whole;
        metric "service.batch_frac" "fraction"
          (share (Option.map float_of_int r.batch_p50_ns))
          ~note:"service.batch p50 (one batch's chains, in-process replay) / socket round-trip p50";
        metric "frontend.pump_frac" "fraction" (share pump_ns)
          ~note:"frontend.pump p50 (in-process replay) / socket round-trip p50";
        metric "frontend.parse_frac" "fraction"
          (share (Option.map (fun ns -> ns *. float_of_int depth) r.parse_ns_per_cmd))
          ~note:(Printf.sprintf "%d x parse ns per command / socket round-trip p50" depth);
        metric "transport.bytes_per_op" "bytes"
          (ratio (d f_bytes) (d Meter.f_ops))
          ~note:"client bytes written + read";
        metric "transport.reads_per_batch" "count"
          (ratio (d f_reads) (d f_batches))
          ~note:"client read calls";
        metric "transport.self_frac" "fraction"
          (Option.map (fun s -> 1.0 -. s) (share pump_ns))
          ~note:"(socket round-trip p50 - frontend.pump p50) / socket round-trip p50";
        metric "trace.overhead_frac" "fraction"
          (Some (1.0 -. (traced_rate /. untraced_rate)))
          ~note:(Printf.sprintf "traced %.0f vs untraced %.0f ops/s" traced_rate untraced_rate);
        (* the legs' own times, which the shares above divide *)
        metric "transport.rtt_us_p50" "us" (us rtt_p50) ~result:false
          ~note:"traced socket legs, client.batch spans";
        metric "frontend.pump_us_p50" "us" (us r.pump_p50_ns) ~result:false
          ~note:"traced, in-process replay";
        metric "service.batch_us_p50" "us" (us r.batch_p50_ns) ~result:false
          ~note:"traced, in-process replay";
        metric "service.chain_us_p50" "us" (us r.chain_p50_ns) ~result:false
          ~note:"traced, in-process replay";
        metric "frontend.parse_ns_per_cmd" "ns" r.parse_ns_per_cmd ~result:false
          ~note:"traced, parser alone";
        metric "transport.self_us_p50" "us"
          (match (rtt_p50, r.pump_p50_ns) with
          | Some a, Some b -> Some (float_of_int (a - b) /. 1000.0)
          | _ -> None)
          ~result:false ~note:"socket round-trip p50 - frontend.pump p50";
      ]
  in
  Meter.Spans.write
    (Filename.concat out_dir "spans-kv-socket.tsv")
    span_names
    (Meter.spans_of rs @ r.replay_spans);
  ( t.errors @ r.replay_errors,
    Meter.delta rs ~p0 ~p1 Meter.f_ops,
    Meter.delta rs ~p0 ~p1 Meter.f_failed,
    e2e,
    layers )

let run ~server ~seed ~seconds ~trace ~out_dir =
  if server = "" then failwith "kv-socket needs --server";
  let sock = Filename.concat out_dir (Printf.sprintf "mp-%d.sock" (Unix.getpid ())) in
  if trace then run_traced ~server ~sock ~seed ~seconds ~out_dir
  else run_e2e ~server ~sock ~seed ~seconds
