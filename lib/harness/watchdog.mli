(** Waste-bound watchdog: evaluates each scheme's declared wasted-memory
    bound (paper Table 1 / Thm 4.2) against live [wasted] samples and
    records violations. Unbounded schemes are checked against the robust
    reference envelope with [advisory] set — a violation is expected
    there, and {!ok} treats it as such. *)

type spec = {
  scheme : string;
  bound : int;  (** waste ceiling compared against every sample *)
  advisory : bool;  (** scheme declares Unbounded: violations are expected *)
  desc : string;  (** human-readable bound formula *)
}

(** The bound function per declared class. [size_at_arm] is a ceiling on
    the structure's {e node} count while the plan is armed — the robust
    class's "size at stall". Pass the key-range times the structure's
    nodes-per-key factor (2 for the BST's routers), not the prefill
    size: churn can grow the structure past what existed at arm time.
    Ignored for Bounded schemes. [elastic_slack] widens the bound by one
    arena's slot count for elastic pools ([max_arenas > 1]): the at most
    one draining arena's parked slots count as wasted until the SMR
    barrier completes the detach, so samples must include
    {!Mempool.Core.detaching_slots} and the ceiling gains exactly that
    per-arena term. *)
val spec_for :
  scheme:string ->
  properties:Smr_core.Smr_intf.properties ->
  config:Smr_core.Config.t ->
  threads:int ->
  ?elastic_slack:int ->
  size_at_arm:int ->
  unit ->
  spec

type t

val create : spec -> t

(** Record one sample of the live [wasted] counter. *)
val observe : t -> wasted:int -> unit

type verdict = {
  vspec : spec;
  samples : int;
  peak_wasted : int;
  violations : int;
  first_violation : int;  (** wasted at the first violating sample; 0 if none *)
}

val verdict : t -> verdict

(** No violations, or the bound was advisory (Unbounded scheme). *)
val ok : verdict -> bool

val to_string : verdict -> string

(** The [wd_*] JSON fields ([wd_bound], [wd_violations], [wd_peak],
    [wd_advisory], [wd_ok]); all [null] when no watchdog was armed, so an
    unarmed run never reads as a pass. *)
val fields : verdict option -> Report.row
