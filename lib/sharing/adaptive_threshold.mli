(** Adaptive minimum-threshold controller (paper §8, future work).

    The paper's §6.2 mitigation rounds CPU-need estimates up to a fixed
    minimum threshold; its conclusion lists "a method for determining and
    adapting the threshold" as the natural next step. This controller
    implements the obvious feedback loop: after each planning epoch the
    platform observes, per service, the absolute gap between the estimated
    and the actually consumed CPU; the next epoch's threshold is a high
    quantile of the recent gaps (over a sliding window), clamped to a
    configurable range.

    Rationale: the fixed-threshold sweeps (Figures 5–7) show that the right
    threshold is roughly the scale of the estimation error — too low and
    small underestimated services starve, too high and the plan degrades
    toward zero-knowledge. Tracking an upper quantile of the observed error
    keeps the reserve just above what recent history justifies. *)

type t

val create :
  ?initial:float ->
  ?quantile:float ->
  ?window:int ->
  ?min_threshold:float ->
  ?max_threshold:float ->
  unit ->
  t
(** Defaults: [initial = 0.], [quantile = 90.] (percent), [window = 256]
    observations, clamp range [0, 0.5]. Raises [Invalid_argument] naming
    the parameter on a non-finite [quantile], [initial], [min_threshold]
    or [max_threshold] (NaN included), and on a quantile outside
    [0, 100], non-positive window, or an empty clamp range. The threshold
    is then always finite: it is clamped to the finite range. *)

val fresh : t -> t
(** An independent controller with the same configuration, the current
    threshold as its starting value, and an empty observation window.
    The sharded simulator hands one to each shard so that no mutable state
    is shared across domains. *)

val threshold : t -> float
(** The threshold to apply to the next epoch's estimates (feed to
    {!Workload.Errors.apply_threshold}-style rounding). *)

val observe : t -> estimated:float array -> actual:float array -> unit
(** Record one epoch's per-service estimated and actually-consumed CPU;
    updates the threshold. Raises [Invalid_argument] on length mismatch,
    and naming the array on a non-finite entry, before recording
    anything. *)

val observations : t -> int
(** Number of error samples currently in the window. *)
