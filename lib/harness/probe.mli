(** The waste sampler and SMR/traversal counter window shared by
    {!Runner} and {!Scenario}. A sample is the scheme's [wasted] counter
    plus {!Mempool.Core.detaching_slots}: a draining arena's parked slots
    count as waste until the detach completes. *)

type t

type result = {
  wasted_avg : float;  (** mean waste over the window's ticks; 0 with none *)
  wasted_max : int;  (** largest waste any tick saw *)
  fences : int;  (** publication fences during the window *)
  traversed : int;  (** nodes visited during the window *)
  scan_passes : int;  (** reclamation passes during the window *)
  scan_time_s : float;  (** wall-clock seconds those passes took *)
}

(** Open a window: the SMR and traversal baselines are read now. *)
val start : (module Dstruct.Set_intf.SET with type t = 'a) -> 'a -> t

(** Take one waste sample, fold it into the window's mean and max, and
    return it (for the caller's watchdog). *)
val tick : t -> int

(** Close the window: counter deltas since {!start}, plus the ticks. *)
val stop : t -> result

(** [fences / traversed], 0 when nothing was traversed (Figure 5). *)
val fences_per_node : result -> float

(** The JSON fields of a window: [wasted_avg] … [scan_time_s]. *)
val fields : result -> Report.row
