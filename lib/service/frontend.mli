(** Memcached-text-style byte-protocol front-end over {!Service}:
    an incremental never-raising parser ({!Parser}) plus a
    per-connection executor ({!Conn}) that batches a whole read's
    commands into per-shard ring chains and renders all replies into
    one output flush. Protocol mapping (keys are decimal integers,
    [get] renders the key as the value data, [set] is insert-if-absent,
    [mget <first> <n>] is the consecutive-key multi-get extension):
    see the implementation header. *)

module Parser : sig
  type cmd =
    | Get of { gets : bool; nkeys : int }
        (** keys via {!get_key}, valid until the next {!next} *)
    | Set of { key : int; value : int; noreply : bool }
    | Delete of { key : int; noreply : bool }
    | Mget of { first : int; count : int }
    | Quit
    | Version
    | Bad of string  (** malformed; answer [CLIENT_ERROR <msg>] *)
    | Unknown  (** unrecognized verb; answer [ERROR] *)

  (** Longest accepted command line or [set] data block, bytes; longer
      input is discarded to the next newline and reported [Bad]. *)
  val max_line : int

  (** Most keys in one [get]/[gets]. *)
  val max_get_keys : int

  type t

  val create : ?buf_size:int -> unit -> t

  (** {2 Zero-copy fill window} — read socket bytes straight into
      [buffer t] at [write_off t] (at most [free_space t] bytes), then
      account them with [fill t n]. *)

  val buffer : t -> Bytes.t

  val write_off : t -> int
  val free_space : t -> int
  val fill : t -> int -> unit

  (** Copy-convenience (tests, non-socket callers): append a fragment,
      compacting first if needed; [false] if it still does not fit. *)
  val feed : t -> string -> bool

  (** [get_key t i], [i < nkeys] of the last [Get]. *)
  val get_key : t -> int -> int

  (** Next complete command, or [None] for more bytes. Never raises;
      any byte garbage surfaces as [Bad] after resyncing at the next
      newline. *)
  val next : t -> cmd option
end

module Conn : sig
  type t

  val create : Service.t -> t

  val parser : t -> Parser.t

  (** Reply bytes rendered by the last {!pump}; write then clear. *)
  val out : t -> Buffer.t

  (** The peer sent [quit]. *)
  val closed : t -> bool

  (** Parse everything buffered, execute the ops through
      {!Service.execute} (one ring chain per shard), render every reply
      in command order into [out t]. Returns the number of commands
      processed (0 = feed more bytes). *)
  val pump : t -> int
end
