(** Waste-bound watchdog: turns each scheme's declared wasted-memory
    class (paper Table 1 / Thm 4.2) into a runtime check.

    A scheme declares [Bounded] (MP, HP: predetermined bound independent
    of scheduling), [Robust] (HE, IBR: bounded by what existed at the
    stall plus an epoch window), or [Unbounded] (EBR, leaky). The
    watchdog evaluates the matching bound function against the live
    [wasted] counter on every harness sample and records violations.

    For [Unbounded] schemes no bound exists, so the watchdog evaluates
    the {e robust reference envelope} instead and flags the verdict
    [advisory]: a violation is recorded — that is the point, EBR under a
    crashed thread must blow through what the robust schemes satisfy —
    but {!ok} still reports the verdict as expected. For [Bounded] and
    [Robust] schemes any violation is a real failure of the scheme's
    theorem.

    The bound formulas are predetermined functions of the config (plus,
    for the robust class, the structure size when the faults were
    armed), never of the churn — that is what makes the check meaningful
    under an adversarial schedule. Each carries a ×4 safety factor for
    batch-timing slack; the EBR-vs-rest separation is orders of
    magnitude, so the factor costs no discrimination. *)

type spec = {
  scheme : string;
  bound : int;  (** waste ceiling compared against every sample *)
  advisory : bool;  (** scheme declares Unbounded: violations are expected *)
  desc : string;  (** human-readable bound formula *)
}

(** The kernel batching slack that exists even with no stall: every
    thread's retired list may hold a full scan batch. Uses the largest
    kernel threshold across schemes (MP scans two announcement tables). *)
let batch_slack ~(config : Smr_core.Config.t) ~threads =
  let threshold =
    Smr_core.Reclaimer.scan_threshold ~empty_freq:config.empty_freq
      ~slots:(2 * config.slots) ~threads
  in
  threads * threshold

let spec_for ~scheme ~(properties : Smr_core.Smr_intf.properties)
    ~(config : Smr_core.Config.t) ~threads ?(elastic_slack = 0) ~size_at_arm () =
  let slots = config.slots in
  (* Elastic pools drain at most one arena at a time, and every parked
     slot of the draining arena counts as wasted until the SMR barrier
     lets the detach complete — so the declared per-arena ceilings hold
     with exactly one arena of slack added on top, never a
     scheduling-dependent term. [elastic_slack] is that arena size (0 for
     fixed-size pools). *)
  let slack = batch_slack ~config ~threads + elastic_slack in
  match properties.wasted_memory with
  | Smr_core.Smr_intf.Bounded ->
    (* HP: each of the K = slots × threads announcement slots pins one
       node. MP: each margin covers [margin / 2^precision] indices and
       the epoch filter admits the generations alive at the pinned
       announcement — one per covered index plus interval slack. *)
    let covered = (config.margin asr Handle.precision) + 2 in
    let pinned = if scheme = "mp" then slots * threads * covered else slots * threads in
    {
      scheme;
      bound = 4 * (slack + pinned);
      advisory = false;
      desc =
        Printf.sprintf "4*(batch_slack %d + pinned %d) [%s]" slack pinned
          (if scheme = "mp" then "slots*T*covered" else "slots*T");
    }
  | Smr_core.Smr_intf.Robust ->
    (* Everything alive when the stall began may stay pinned, plus the
       batch slack and one era window of in-flight births: the era clock
       advances every [epoch_freq] allocations *per thread*, so up to
       T × epoch_freq nodes can be born into the era a dead thread pins
       and be retired after it. *)
    let window = 2 * threads * config.epoch_freq in
    {
      scheme;
      bound = (4 * (slack + size_at_arm + (slots * threads))) + window;
      advisory = false;
      desc =
        Printf.sprintf "4*(batch_slack %d + live_ceiling %d + slots*T) + 2*T*epoch_freq" slack
          size_at_arm;
    }
  | Smr_core.Smr_intf.Unbounded ->
    let window = 2 * threads * config.epoch_freq in
    {
      scheme;
      bound = (4 * (slack + size_at_arm + (slots * threads))) + window;
      advisory = true;
      desc =
        Printf.sprintf
          "reference robust envelope (scheme declares unbounded): 4*(%d + %d + slots*T) + \
           2*T*epoch_freq"
          slack size_at_arm;
    }

type t = {
  spec : spec;
  mutable samples : int;
  mutable peak_wasted : int;
  mutable violations : int;
  mutable first_violation : int;  (** wasted at the first violating sample; 0 if none *)
}

let create spec = { spec; samples = 0; peak_wasted = 0; violations = 0; first_violation = 0 }

(** Record one sample of the live [wasted] counter. *)
let observe t ~wasted =
  t.samples <- t.samples + 1;
  if wasted > t.peak_wasted then t.peak_wasted <- wasted;
  if wasted > t.spec.bound then begin
    if t.violations = 0 then t.first_violation <- wasted;
    t.violations <- t.violations + 1
  end

type verdict = {
  vspec : spec;
  samples : int;
  peak_wasted : int;
  violations : int;
  first_violation : int;
}

let verdict t =
  {
    vspec = t.spec;
    samples = t.samples;
    peak_wasted = t.peak_wasted;
    violations = t.violations;
    first_violation = t.first_violation;
  }

(** A verdict passes when no violation was recorded, or when the scheme
    declared Unbounded (the reference bound is advisory). *)
let ok v = v.violations = 0 || v.vspec.advisory

let to_string v =
  if v.violations = 0 then
    Printf.sprintf "OK (peak %d <= bound %d over %d samples)" v.peak_wasted v.vspec.bound
      v.samples
  else
    Printf.sprintf "%s (%d/%d samples over bound %d, peak %d, first %d)"
      (if v.vspec.advisory then "VIOLATION-expected" else "VIOLATION")
      v.violations v.samples v.vspec.bound v.peak_wasted v.first_violation

(** The [wd_*] JSON fields; all [null] when no watchdog was armed. *)
let fields v =
  let f name get = (name, match v with None -> Report.Null | Some v -> get v) in
  [ f "wd_bound" (fun v -> Report.Int v.vspec.bound);
    f "wd_violations" (fun v -> Report.Int v.violations);
    f "wd_peak" (fun v -> Report.Int v.peak_wasted);
    f "wd_advisory" (fun v -> Report.Bool v.vspec.advisory);
    f "wd_ok" (fun v -> Report.Bool (ok v)) ]
