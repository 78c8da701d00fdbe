(** Margin pointers — the paper's contribution (§4, Listing 10): the first
    self-contained nonblocking SMR scheme with a predetermined bound on
    wasted memory and low run-time overhead. Protection slots announce key
    {e indices}; one announcement covers every node within [margin/2] of
    it, so most dereferences are fence-free, while index collisions fall
    back to hazard pointers and an HE-style epoch filter bounds how many
    dead same-index generations a stalled thread can pin.

    Implements {!Smr_core.Smr_intf.S}; see that signature for the client
    contract. *)

include Smr_core.Smr_intf.S

(** [cover_interval ~margin v lo hi i] stores in [lo.(i)] and [hi.(i)]
    the inclusive idx16 interval that a margin of width [margin]
    announced at index [v] covers: every idx16 whose whole 16-bit
    precision range lies inside [v ± margin/2], clamped to
    [\[0, Handle.idx16_mask - 1\]] so no USE_HP node is ever covered.
    The reader's coverage mirror and the reclamation pass's margin table
    are both filled by this function. *)
val cover_interval : margin:int -> int -> int array -> int array -> int -> unit

(** Introspection hooks for tests and the wasted-memory experiments. *)
module Debug : sig
  val epoch : t -> Smr_core.Epoch.t
  val current_epoch : t -> int

  (** The thread's announced epoch ([Epoch.inactive] when idle). *)
  val local_epoch : thread -> int

  (** Whether the thread observed an epoch change mid-operation and
      switched to hazard pointers (§4.3.2). *)
  val use_hp_mode : thread -> bool

  (** Current search-interval endpoints (Listing 5 state). *)
  val bounds : thread -> int * int

  (** Raw slot values; [-1] means empty. *)
  val mp_slot : t -> tid:int -> refno:int -> int

  val hp_slot : t -> tid:int -> refno:int -> int
  val retired_length : thread -> int
end
