(** Memcached-text-style byte-protocol front-end over {!Service}.

    Two halves:

    - {!Parser}: an incremental, never-raising parser for a
      memcached-text command subset over a reusable buffer. Bytes
      arrive in arbitrary splits (sockets fragment commands anywhere,
      including inside a [set]'s data block); the parser carries its
      state across [feed]s, yields one command at a time, and recovers
      from garbage by resyncing at the next newline, reporting the bad
      line as {!cmd.Bad} so the connection can answer [CLIENT_ERROR]
      and keep going.
    - {!Conn}: one connection's executor. It gathers a whole read's
      worth of parsed commands (the pipelining win), expands them to
      flat op/key/value arrays bucketed per shard, submits one ring
      {e chain} per shard ({!Service.try_submit_chain}) — every shard's
      chain before it waits on any, so the shards serve them
      concurrently — waits once per chain, then formats every reply
      {e in command order} into one output buffer flushed with a single
      write.

    Protocol mapping — the service is an integer-keyed SET, not a KV
    cache, so the textual protocol is interpreted:

    - keys are decimal integers (up to 18 digits; anything else is a
      [CLIENT_ERROR]);
    - [get <k>...] runs [contains] per key; a hit renders the key
      itself as the value data ([VALUE <k> 0 <len>\r\n<k>\r\n]), a miss
      renders nothing; the reply ends with [END\r\n]. [gets] is
      accepted as a synonym.
    - [set <k> <flags> <exptime> <bytes>\r\n<data>\r\n] maps to
      memcached's {e add}: insert-if-absent, answering [STORED] when
      the key was inserted and [NOT_STORED] when it already existed.
      The data block's bytes are the value when they parse as a
      decimal integer, else the value is the block's length; flags and
      exptime are accepted and ignored.
    - [delete <k>] maps to [remove]: [DELETED] / [NOT_FOUND].
    - [mget <first> <n>] is this service's multi-get extension
      ({!Service.op_mget}: [n] consecutive keys through one request),
      answering [HITS <hits>\r\n].
    - [version], [quit] and [noreply] behave as in memcached. Unknown
      commands answer [ERROR]; malformed ones [CLIENT_ERROR <why>];
      degraded service replies (crash rejection, pool exhaustion,
      deadline shed) answer [SERVER_ERROR <why>]. *)

(* -- the incremental parser ----------------------------------------------- *)

module Parser = struct
  (** One parsed command. [Get] carries its keys in a reusable array
      ([keys.(0 .. nkeys - 1)] valid until the next {!next}). *)
  type cmd =
    | Get of { gets : bool; nkeys : int }
    | Set of { key : int; value : int; noreply : bool }
    | Delete of { key : int; noreply : bool }
    | Mget of { first : int; count : int }
    | Quit
    | Version
    | Bad of string  (** malformed command; answer [CLIENT_ERROR] *)
    | Unknown  (** well-formed line, unrecognized verb; answer [ERROR] *)

  let max_line = 8192
  let max_get_keys = 64

  (* What the next bytes mean. [Data] is the interior of a set's data
     block; [Skip_line] discards bytes until the newline that resyncs
     the stream after an oversized or hopeless line. *)
  type state =
    | Line
    | Data of { key : int; nbytes : int; noreply : bool }
    | Skip_line of string (* the Bad message to emit once resynced *)

  type t = {
    buf : Bytes.t; (* fill window: [read_pos, write_pos) is unconsumed *)
    mutable read_pos : int;
    mutable write_pos : int;
    mutable state : state;
    mutable data_got : int; (* bytes of the current data block consumed *)
    data : Buffer.t; (* the data block's bytes (bounded by max_line) *)
    get_keys : int array; (* Get's keys, reused across commands *)
    line : Buffer.t; (* the current line when it straddles a fill *)
  }

  let create ?(buf_size = 65536) () =
    {
      buf = Bytes.create (max buf_size 1024);
      read_pos = 0;
      write_pos = 0;
      state = Line;
      data_got = 0;
      data = Buffer.create 256;
      get_keys = Array.make max_get_keys 0;
      line = Buffer.create 256;
    }

  (** The raw fill window: read socket bytes into
      [buffer t] at [write_off t], at most [free_space t], then
      [fill t n]. *)
  let buffer t = t.buf

  let write_off t = t.write_pos
  let free_space t = Bytes.length t.buf - t.write_pos

  (** Account [n] freshly read bytes. *)
  let fill t n = t.write_pos <- t.write_pos + n

  (** Copy-convenience for tests and non-socket callers: append a
      string fragment (any split of the stream), compacting first if
      needed. Returns [false] when the fragment exceeds the free space
      even after compaction (callers then feed smaller pieces). *)
  let feed t s =
    let n = String.length s in
    if free_space t < n then begin
      (* compact: move the unconsumed window to the front *)
      let live = t.write_pos - t.read_pos in
      Bytes.blit t.buf t.read_pos t.buf 0 live;
      t.read_pos <- 0;
      t.write_pos <- live
    end;
    if free_space t < n then false
    else begin
      Bytes.blit_string s 0 t.buf t.write_pos n;
      fill t n;
      true
    end

  (** Keys of the last [Get]: [get_key t i], [i < nkeys]. *)
  let get_key t i = t.get_keys.(i)

  (* Parse a non-negative decimal int from [s.[i, j)]; [-1] on
     anything else (overflow guarded by an 18-digit cap — max_int on
     64-bit holds 19 digits). *)
  let parse_int s i j =
    if j <= i || j - i > 18 then -1
    else begin
      let v = ref 0 in
      let ok = ref true in
      for k = i to j - 1 do
        let c = s.[k] in
        if c >= '0' && c <= '9' then v := (!v * 10) + (Char.code c - Char.code '0')
        else ok := false
      done;
      if !ok then !v else -1
    end

  (* Split [line] into whitespace-separated tokens, calling
     [f i j] per token. Returns the token count. *)
  let tokens line f =
    let n = String.length line in
    let count = ref 0 in
    let i = ref 0 in
    while !i < n do
      while !i < n && line.[!i] = ' ' do
        incr i
      done;
      if !i < n then begin
        let start = !i in
        while !i < n && line.[!i] <> ' ' do
          incr i
        done;
        f !count start !i;
        incr count
      end
    done;
    !count

  (* Interpret one complete command line (CR already stripped). May
     switch the state to [Data] (set) — then returns None and the data
     block supplies the command. *)
  let run_line t line =
    let n = String.length line in
    if n = 0 then Some (Bad "empty command")
    else begin
      (* First token decides the verb. *)
      let sp = match String.index_opt line ' ' with Some i -> i | None -> n in
      let verb = String.sub line 0 sp in
      match verb with
      | "get" | "gets" ->
        let nkeys = ref 0 in
        let bad = ref false in
        let ntok =
          tokens line (fun idx i j ->
              if idx > 0 then
                if idx > max_get_keys then bad := true
                else begin
                  let k = parse_int line i j in
                  if k < 0 then bad := true
                  else begin
                    t.get_keys.(idx - 1) <- k;
                    incr nkeys
                  end
                end)
        in
        if ntok < 2 then Some (Bad "get needs at least one key")
        else if !bad then
          Some
            (Bad
               (if ntok - 1 > max_get_keys then "too many keys"
                else "bad key (keys are decimal integers)"))
        else Some (Get { gets = verb = "gets"; nkeys = !nkeys })
      | "set" ->
        (* set <key> <flags> <exptime> <bytes> [noreply] *)
        let key = ref (-1) and bytes = ref (-1) in
        let noreply = ref false in
        let bad = ref false in
        let ntok =
          tokens line (fun idx i j ->
              match idx with
              | 0 -> ()
              | 1 -> key := parse_int line i j
              | 2 | 3 -> if parse_int line i j < 0 then bad := true
              | 4 -> bytes := parse_int line i j
              | 5 -> if String.sub line i (j - i) = "noreply" then noreply := true else bad := true
              | _ -> bad := true)
        in
        if ntok < 5 || !bad || !key < 0 || !bytes < 0 then
          Some (Bad "set <key> <flags> <exptime> <bytes> [noreply]")
        else if !bytes > max_line then Some (Bad "data block too large")
        else begin
          Buffer.clear t.data;
          t.data_got <- 0;
          t.state <- Data { key = !key; nbytes = !bytes; noreply = !noreply };
          None
        end
      | "delete" ->
        let key = ref (-1) in
        let noreply = ref false in
        let bad = ref false in
        let ntok =
          tokens line (fun idx i j ->
              match idx with
              | 0 -> ()
              | 1 -> key := parse_int line i j
              | 2 -> if String.sub line i (j - i) = "noreply" then noreply := true else bad := true
              | _ -> bad := true)
        in
        if ntok < 2 || !bad || !key < 0 then Some (Bad "delete <key> [noreply]")
        else Some (Delete { key = !key; noreply = !noreply })
      | "mget" ->
        (* mget <first> <count> — the service's consecutive-key
           multi-get extension *)
        let first = ref (-1) and count = ref (-1) in
        let bad = ref false in
        let ntok =
          tokens line (fun idx i j ->
              match idx with
              | 0 -> ()
              | 1 -> first := parse_int line i j
              | 2 -> count := parse_int line i j
              | _ -> bad := true)
        in
        if ntok <> 3 || !bad || !first < 0 || !count < 1 || !count > 1024 then
          Some (Bad "mget <first> <count>")
        else Some (Mget { first = !first; count = !count })
      | "quit" -> Some Quit
      | "version" -> Some Version
      | _ -> Some Unknown
    end

  (** Pull the next complete command out of the buffered bytes; [None]
      when more bytes are needed. Never raises: malformed input yields
      {!cmd.Bad} (resynced at the next newline) and unknown verbs
      {!cmd.Unknown}. *)
  let rec next t =
    if t.read_pos >= t.write_pos then begin
      (* nothing buffered; reset the window so fills start at 0 *)
      t.read_pos <- 0;
      t.write_pos <- 0;
      None
    end
    else
      match t.state with
      | Skip_line msg ->
        (* discard until the newline that resyncs the stream *)
        let i = ref t.read_pos in
        while !i < t.write_pos && Bytes.get t.buf !i <> '\n' do
          incr i
        done;
        if !i < t.write_pos then begin
          t.read_pos <- !i + 1;
          t.state <- Line;
          Some (Bad msg)
        end
        else begin
          t.read_pos <- 0;
          t.write_pos <- 0;
          None
        end
      | Data { key; nbytes; noreply } ->
        (* consume the data block, then its trailing CRLF *)
        let want = nbytes - t.data_got in
        let avail = t.write_pos - t.read_pos in
        let take = min want avail in
        Buffer.add_subbytes t.data t.buf t.read_pos take;
        t.read_pos <- t.read_pos + take;
        t.data_got <- t.data_got + take;
        if t.data_got < nbytes then begin
          if t.read_pos >= t.write_pos then begin
            t.read_pos <- 0;
            t.write_pos <- 0
          end;
          None
        end
        else begin
          (* the block is complete; require \r\n (or \n) next *)
          let avail = t.write_pos - t.read_pos in
          if avail = 0 || (avail = 1 && Bytes.get t.buf t.read_pos = '\r') then
            None (* need the terminator bytes *)
          else begin
            let c0 = Bytes.get t.buf t.read_pos in
            let consumed, ok =
              if c0 = '\n' then (1, true)
              else if c0 = '\r' && Bytes.get t.buf (t.read_pos + 1) = '\n' then (2, true)
              else (0, false)
            in
            if ok then begin
              t.read_pos <- t.read_pos + consumed;
              t.state <- Line;
              let s = Buffer.contents t.data in
              let v = parse_int s 0 (String.length s) in
              let value = if v >= 0 then v else String.length s in
              Some (Set { key; value; noreply })
            end
            else begin
              (* data block not followed by CRLF: byte-count lied.
                 Resync at the next newline. *)
              t.state <- Skip_line "bad data chunk";
              next t
            end
          end
        end
      | Line ->
        (* find a newline in the window *)
        let i = ref t.read_pos in
        while !i < t.write_pos && Bytes.get t.buf !i <> '\n' do
          incr i
        done;
        if !i >= t.write_pos then begin
          (* no full line yet: stash the partial and reset the window
             (bounded: an overlong line flips to Skip_line) *)
          let frag = t.write_pos - t.read_pos in
          if Buffer.length t.line + frag > max_line then begin
            Buffer.clear t.line;
            t.read_pos <- 0;
            t.write_pos <- 0;
            t.state <- Skip_line "line too long";
            None
          end
          else begin
            Buffer.add_subbytes t.line t.buf t.read_pos frag;
            t.read_pos <- 0;
            t.write_pos <- 0;
            None
          end
        end
        else begin
          let eol = !i in
          let line =
            if Buffer.length t.line = 0 then begin
              let stop =
                if eol > t.read_pos && Bytes.get t.buf (eol - 1) = '\r' then eol - 1
                else eol
              in
              Bytes.sub_string t.buf t.read_pos (stop - t.read_pos)
            end
            else begin
              Buffer.add_subbytes t.line t.buf t.read_pos (eol - t.read_pos);
              let s = Buffer.contents t.line in
              Buffer.clear t.line;
              let n = String.length s in
              if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s
            end
          in
          t.read_pos <- eol + 1;
          if String.length line > max_line then
            (* the line's own newline is already consumed — the stream
               is resynced; entering Skip_line here would swallow the
               NEXT command's line *)
            Some (Bad "line too long")
          else
            match run_line t line with
            | Some c -> Some c
            | None -> next t (* set: the data block continues *)
        end
end

(* -- the per-connection executor ------------------------------------------ *)

module Conn = struct
  (* A batch of parsed commands awaiting execution, expanded to flat
     request arrays. Commands needing no service round trip (Bad,
     Unknown, Version) still occupy a command slot so replies render in
     order. *)
  type pending =
    | P_get of { gets : bool; op_start : int; nops : int }
    | P_set of { op_start : int; noreply : bool }
    | P_delete of { op_start : int; noreply : bool }
    | P_mget of { op_start : int }
    | P_bad of string
    | P_unknown
    | P_version

  type t = {
    service : Service.t;
    parser : Parser.t;
    out : Buffer.t;
    mutable cmds : pending array;
    mutable ncmds : int;
    (* flat per-op arrays in submission (command) order *)
    mutable ops : int array;
    mutable keys : int array;
    mutable values : int array;
    mutable replies : int array;
    mutable nops : int;
    (* per-shard chain bucketing, rebuilt per batch *)
    sh_count : int array;
    sh_start : int array;
    sh_fill : int array;
    sh_ticket : int array;
    sh_inflight : int array; (* length of the chain in flight per shard *)
    mutable b_ops : int array; (* shard-bucketed mirror of ops/keys/values *)
    mutable b_keys : int array;
    mutable b_values : int array;
    mutable b_replies : int array;
    mutable b_slot : int array; (* bucket index of op i *)
    mutable closed : bool;
  }

  let create service =
    let shards = Service.shards service in
    {
      service;
      parser = Parser.create ();
      out = Buffer.create 8192;
      cmds = Array.make 64 P_unknown;
      ncmds = 0;
      ops = Array.make 256 0;
      keys = Array.make 256 0;
      values = Array.make 256 0;
      replies = Array.make 256 0;
      nops = 0;
      sh_count = Array.make shards 0;
      sh_start = Array.make shards 0;
      sh_fill = Array.make shards 0;
      sh_ticket = Array.make shards 0;
      sh_inflight = Array.make shards 0;
      b_ops = Array.make 256 0;
      b_keys = Array.make 256 0;
      b_values = Array.make 256 0;
      b_replies = Array.make 256 0;
      b_slot = Array.make 256 0;
      closed = false;
    }

  let parser t = t.parser
  let out t = t.out

  (** The peer asked to close ([quit]). *)
  let closed t = t.closed

  let grow a n = Array.append a (Array.make (max n (Array.length a)) 0)

  let[@inline] ensure_ops t n =
    if t.nops + n > Array.length t.ops then begin
      t.ops <- grow t.ops n;
      t.keys <- grow t.keys n;
      t.values <- grow t.values n;
      t.replies <- grow t.replies n;
      t.b_ops <- grow t.b_ops n;
      t.b_keys <- grow t.b_keys n;
      t.b_values <- grow t.b_values n;
      t.b_replies <- grow t.b_replies n;
      t.b_slot <- grow t.b_slot n
    end

  let push_cmd t c =
    if t.ncmds = Array.length t.cmds then begin
      let bigger = Array.make (2 * t.ncmds) P_unknown in
      Array.blit t.cmds 0 bigger 0 t.ncmds;
      t.cmds <- bigger
    end;
    t.cmds.(t.ncmds) <- c;
    t.ncmds <- t.ncmds + 1

  let[@inline] push_op t ~op ~key ~value =
    let i = t.nops in
    t.ops.(i) <- op;
    t.keys.(i) <- key;
    t.values.(i) <- value;
    t.nops <- i + 1

  (* Queue one parsed command. *)
  let add t (c : Parser.cmd) =
    match c with
    | Parser.Get { gets; nkeys } ->
      ensure_ops t nkeys;
      let op_start = t.nops in
      for i = 0 to nkeys - 1 do
        let k = Parser.get_key t.parser i in
        push_op t ~op:Service.op_contains ~key:k ~value:k
      done;
      push_cmd t (P_get { gets; op_start; nops = nkeys })
    | Parser.Set { key; value; noreply } ->
      ensure_ops t 1;
      let op_start = t.nops in
      push_op t ~op:Service.op_insert ~key ~value;
      push_cmd t (P_set { op_start; noreply })
    | Parser.Delete { key; noreply } ->
      ensure_ops t 1;
      let op_start = t.nops in
      push_op t ~op:Service.op_remove ~key ~value:key;
      push_cmd t (P_delete { op_start; noreply })
    | Parser.Mget { first; count } ->
      ensure_ops t 1;
      let op_start = t.nops in
      push_op t ~op:Service.op_mget ~key:first ~value:count;
      push_cmd t (P_mget { op_start })
    | Parser.Bad msg -> push_cmd t (P_bad msg)
    | Parser.Unknown -> push_cmd t P_unknown
    | Parser.Version -> push_cmd t P_version
    | Parser.Quit -> t.closed <- true

  (* Longest chain submitted at once: a chain must stay under the
     ring's capacity/2, and 64 amortizes deeply enough; take whichever
     binds for this service's rings. *)
  let max_chain t = min 64 (Service.ring_capacity t.service / 2)

  (* Execute the queued ops: counting-sort them into per-shard buckets,
     submit each bucket as chains of at most [max_chain], coalesced-wait
     per chain, harvest, then scatter replies back to command order. *)
  let execute t =
    let shards = Service.shards t.service in
    Array.fill t.sh_count 0 shards 0;
    for i = 0 to t.nops - 1 do
      let s = Service.shard_of_key t.service t.keys.(i) in
      t.b_slot.(i) <- s;
      t.sh_count.(s) <- t.sh_count.(s) + 1
    done;
    let acc = ref 0 in
    for s = 0 to shards - 1 do
      t.sh_start.(s) <- !acc;
      t.sh_fill.(s) <- !acc;
      acc := !acc + t.sh_count.(s)
    done;
    for i = 0 to t.nops - 1 do
      let s = t.b_slot.(i) in
      let j = t.sh_fill.(s) in
      t.b_ops.(j) <- t.ops.(i);
      t.b_keys.(j) <- t.keys.(i);
      t.b_values.(j) <- t.values.(i);
      t.b_slot.(i) <- j; (* remember where op i went for the scatter *)
      t.sh_fill.(s) <- j + 1
    done;
    (* Rounds: submit every shard's next chunk of at most [max_chain]
       (from [sh_start], which advances to the bucket's end [sh_fill]),
       then await and harvest them all, so a round costs its slowest
       chain rather than the sum. *)
    let max_chain = max_chain t in
    let left = ref t.nops in
    while !left > 0 do
      (* Ascending shard order keeps ring-full retries deadlock-free: a
         connection blocked here on shard [s] holds unharvested chains
         only on shards below [s]. So the slots of the highest ring any
         connection is blocked on belong to connections past their
         submits, which harvest them; by induction downward, every
         blocked connection proceeds. *)
      for s = 0 to shards - 1 do
        let n = min (t.sh_fill.(s) - t.sh_start.(s)) max_chain in
        t.sh_inflight.(s) <- n;
        if n > 0 then begin
          let spins = ref 0 in
          let ticket =
            ref
              (Service.try_submit_chain t.service ~shard:s ~n ~ops:t.b_ops
                 ~keys:t.b_keys ~values:t.b_values ~off:t.sh_start.(s))
          in
          while !ticket < 0 do
            (* ring full: the shard is draining; brief pause and retry *)
            if !spins < 64 then begin
              incr spins;
              Domain.cpu_relax ()
            end
            else Unix.sleepf 0.0001;
            ticket :=
              Service.try_submit_chain t.service ~shard:s ~n ~ops:t.b_ops
                ~keys:t.b_keys ~values:t.b_values ~off:t.sh_start.(s)
          done;
          t.sh_ticket.(s) <- !ticket
        end
      done;
      for s = 0 to shards - 1 do
        let n = t.sh_inflight.(s) in
        if n > 0 then begin
          Service.await_chain t.service ~shard:s ~ticket:t.sh_ticket.(s) ~n;
          Service.harvest_chain t.service ~shard:s ~ticket:t.sh_ticket.(s) ~n
            ~replies:t.b_replies ~off:t.sh_start.(s);
          t.sh_start.(s) <- t.sh_start.(s) + n;
          left := !left - n
        end
      done
    done;
    (* Scatter replies back to command order. *)
    for i = 0 to t.nops - 1 do
      t.replies.(i) <- t.b_replies.(t.b_slot.(i))
    done

  let add_reply_error out r =
    if r = Service.reply_oom then Buffer.add_string out "SERVER_ERROR out of memory\r\n"
    else if r = Service.reply_busy then Buffer.add_string out "SERVER_ERROR busy\r\n"
    else Buffer.add_string out "SERVER_ERROR rejected\r\n"

  let[@inline] is_error r =
    r = Service.reply_rejected || r = Service.reply_oom || r = Service.reply_busy

  (* Render every queued command's reply, in order, into [t.out]. *)
  let render t =
    let out = t.out in
    for c = 0 to t.ncmds - 1 do
      match t.cmds.(c) with
      | P_get { gets = _; op_start; nops } ->
        (* any degraded slot degrades the whole command *)
        let err = ref (-1) in
        for i = op_start to op_start + nops - 1 do
          if !err < 0 && is_error t.replies.(i) then err := t.replies.(i)
        done;
        if !err >= 0 then add_reply_error out !err
        else begin
          for i = op_start to op_start + nops - 1 do
            if t.replies.(i) = Service.reply_true then begin
              (* the set stores membership, not bytes: a hit renders
                 the key itself as the data block *)
              let k = string_of_int t.keys.(i) in
              Buffer.add_string out "VALUE ";
              Buffer.add_string out k;
              Buffer.add_string out " 0 ";
              Buffer.add_string out (string_of_int (String.length k));
              Buffer.add_string out "\r\n";
              Buffer.add_string out k;
              Buffer.add_string out "\r\n"
            end
          done;
          Buffer.add_string out "END\r\n"
        end
      | P_set { op_start; noreply } ->
        if not noreply then begin
          let r = t.replies.(op_start) in
          if is_error r then add_reply_error out r
          else if r = Service.reply_true then Buffer.add_string out "STORED\r\n"
          else Buffer.add_string out "NOT_STORED\r\n"
        end
      | P_delete { op_start; noreply } ->
        if not noreply then begin
          let r = t.replies.(op_start) in
          if is_error r then add_reply_error out r
          else if r = Service.reply_true then Buffer.add_string out "DELETED\r\n"
          else Buffer.add_string out "NOT_FOUND\r\n"
        end
      | P_mget { op_start } ->
        let r = t.replies.(op_start) in
        if is_error r then add_reply_error out r
        else begin
          Buffer.add_string out "HITS ";
          Buffer.add_string out (string_of_int (r - Service.reply_mget_base));
          Buffer.add_string out "\r\n"
        end
      | P_bad msg ->
        Buffer.add_string out "CLIENT_ERROR ";
        Buffer.add_string out msg;
        Buffer.add_string out "\r\n"
      | P_unknown -> Buffer.add_string out "ERROR\r\n"
      | P_version -> Buffer.add_string out "VERSION mpserver/1\r\n"
    done

  (** Process everything the parser can yield from its buffered bytes:
      parse, execute (chained per shard), and render the replies into
      [out t] — the caller writes that buffer to the socket in one
      flush and clears it. Returns the number of commands processed
      (0 = need more bytes). *)
  let pump t =
    t.ncmds <- 0;
    t.nops <- 0;
    Buffer.clear t.out;
    let continue = ref true in
    while !continue && not t.closed do
      match Parser.next t.parser with
      | Some c -> add t c
      | None -> continue := false
    done;
    if t.nops > 0 then execute t;
    if t.ncmds > 0 then render t;
    t.ncmds
end
