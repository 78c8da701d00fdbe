(** The waste sampler and counter window every harness measurement
    shares: {!Runner.run}'s measured window and each {!Scenario} phase
    open a probe, tick it every 2 ms while the workload runs and stop it
    when the window closes.

    A sample is the scheme's live [wasted] counter plus a draining
    arena's parked slots: those are committed-but-unusable memory until
    the SMR barrier completes the detach (the watchdog's elastic slack
    widens the ceiling to match), so they count as waste. *)

type t = {
  smr_stats : unit -> Smr_core.Smr_intf.stats;
  traversed : unit -> int;
  pool : Mempool.Core.t;
  stats0 : Smr_core.Smr_intf.stats;
  traversed0 : int;
  mutable sum : float;
  mutable ticks : int;
  mutable max : int;
}

type result = {
  wasted_avg : float;  (** mean waste over the window's ticks; 0 with none *)
  wasted_max : int;  (** largest waste any tick saw *)
  fences : int;  (** publication fences during the window *)
  traversed : int;  (** nodes visited during the window *)
  scan_passes : int;  (** reclamation passes during the window *)
  scan_time_s : float;  (** wall-clock seconds those passes took *)
}

let start (type a) (module SET : Dstruct.Set_intf.SET with type t = a) (t : a) =
  {
    smr_stats = (fun () -> SET.smr_stats t);
    traversed = (fun () -> SET.traversed t);
    pool = SET.pool t;
    stats0 = SET.smr_stats t;
    traversed0 = SET.traversed t;
    sum = 0.0;
    ticks = 0;
    max = 0;
  }

let tick p =
  let w = (p.smr_stats ()).Smr_core.Smr_intf.wasted + Mempool.Core.detaching_slots p.pool in
  p.sum <- p.sum +. float_of_int w;
  p.ticks <- p.ticks + 1;
  if w > p.max then p.max <- w;
  w

let stop p =
  let s0 = p.stats0 and s1 = p.smr_stats () in
  let open Smr_core.Smr_intf in
  {
    wasted_avg = (if p.ticks = 0 then 0.0 else p.sum /. float_of_int p.ticks);
    wasted_max = p.max;
    fences = s1.fences - s0.fences;
    traversed = p.traversed () - p.traversed0;
    scan_passes = s1.scan_passes - s0.scan_passes;
    scan_time_s = s1.scan_time_s -. s0.scan_time_s;
  }

let fences_per_node r =
  if r.traversed = 0 then 0.0 else float_of_int r.fences /. float_of_int r.traversed

let fields r =
  let open Report in
  [ ("wasted_avg", Float r.wasted_avg); ("wasted_max", Int r.wasted_max);
    ("fences", Int r.fences); ("traversed", Int r.traversed);
    ("fences_per_node", Float (fences_per_node r)); ("scan_passes", Int r.scan_passes);
    ("scan_time_s", Float r.scan_time_s) ]
