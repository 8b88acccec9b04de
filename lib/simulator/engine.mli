(** Online service-hosting simulation (extension; paper §8).

    The paper studies the off-line problem: a fixed set of services placed
    once. Its conclusion describes deploying METAHVPLIGHT plus the
    error-mitigation strategy inside a resource manager — which is an
    {e online} system: services arrive (Poisson), run for a while
    (exponential lifetime), and depart; the manager re-runs the placement
    algorithm periodically, migrating services when beneficial, while the
    run-time scheduler divides CPU according to a {!Sharing.Policy} using
    (possibly erroneous) need estimates.

    This engine is a classic discrete-event simulation over that loop. At
    every event (arrival, departure, reallocation) the actual minimum yield
    is re-evaluated against the services' true needs, giving an exact
    piecewise-constant integral of the objective over time. An optional
    {!Sharing.Adaptive_threshold} controller closes the feedback loop the
    paper's future work asks for. *)

type threshold_mode =
  | Fixed of float  (** the paper's §6.2 static threshold *)
  | Adaptive of Sharing.Adaptive_threshold.t
      (** feedback controller updated after every reallocation *)

type config = {
  horizon : float;  (** simulated time to run for *)
  arrival_rate : float;  (** Poisson arrival intensity (services per time) *)
  mean_lifetime : float;  (** exponential service lifetime *)
  reallocation_period : float;  (** period of the placement loop *)
  max_error : float;  (** CPU-need estimation error for arriving services *)
  threshold : threshold_mode;
  policy : Sharing.Policy.t;  (** run-time CPU sharing policy *)
  algorithm : Heuristics.Algorithms.t;  (** placement algorithm *)
  per_core_need : float;  (** true per-core CPU need of arriving services *)
  memory_scale : float;  (** memory requirement = scale * trace fraction *)
  placement : Policy.t;
      (** how events are handled: [Resolve] re-solves the whole shard each
          reallocation epoch (the original engine); the probe policies
          place arrivals by probing candidate bins and repair locally on
          departures, falling back to a full re-solve only on drift *)
  repair_budget : int;
      (** max services re-packed per departure-triggered repair pass
          (probe policies only) *)
  yield_gap : float;
      (** drift tolerance in [0, 1): a bin whose CPU load exceeds
          capacity / (1 - yield_gap) marks the placement unhealthy and
          arms the full re-solve fallback (probe policies only) *)
}

val default_config : config
(** METAHVPLIGHT, ALLOCWEIGHTS, fixed threshold 0, horizon 100, one arrival
    per time unit, mean lifetime 20, reallocation every 5, no error,
    per-core need 0.1, memory scale 0.4, resolve placement, repair budget
    8, yield gap 0.15. *)

type stats = {
  arrivals : int;
  admitted : int;
  rejected : int;  (** arrivals whose requirements fit no node *)
  departures : int;
  reallocations : int;
  failed_reallocations : int;
      (** periods where the algorithm found no placement and the previous
          placement was kept *)
  migrations : int;  (** placement changes across reallocations *)
  mean_min_yield : float;  (** time-average of the actual minimum yield *)
  yield_samples : (float * float) list;
      (** (time, actual min yield) at every event, chronological *)
  final_threshold : float;
}

type final_service = {
  f_uid : int;
  f_node : int;
  f_mem : float;
  f_cpu : float;  (** estimated aggregate CPU need *)
}
(** A service still live at the horizon, with its final host — the
    end-of-run placement handed to the [?final] callback so tests can
    check feasibility without re-deriving it from the yield log. *)

type timeline_sample = {
  tl_time : float;  (** grid time k * interval *)
  tl_yield : float;  (** actual minimum yield at that instant *)
  tl_active : int;  (** live services at that instant *)
  tl_repairs : int;  (** cumulative repair passes that moved a service *)
  tl_bins_touched : int;  (** cumulative bins examined by decisions *)
  tl_pivots : int;  (** cumulative simplex pivots spent by this run *)
}
(** One fixed-grid telemetry sample (DESIGN.md §14). The last three
    fields are cumulative counters since the start of the run; consumers
    turn them into rates by differencing consecutive samples. They are
    counted by the engine itself (pivots via {!Lp.Pivot_clock}), never
    read from the {!Obs.Metrics} sinks, so they are exact whether or not
    metrics are enabled and independent of what else runs in the
    process. *)

val run :
  ?rng:Prng.Rng.t ->
  ?incremental:bool ->
  ?final:(final_service list -> unit) ->
  ?timeline:float * (timeline_sample -> unit) ->
  config ->
  platform:Model.Node.t array ->
  stats
(** Simulate. Deterministic given the rng (default seed 0). Raises
    [Invalid_argument] naming the field on a non-finite or non-positive
    horizon, rate, period, per-core need or memory scale, on a non-finite
    or negative error, on a non-finite fixed threshold, on a negative
    repair budget or a yield gap outside [0, 1) (NaN included), and on any
    platform that is empty or not 2-D — the admission path reads the
    memory capacity at {!Model.Service.mem_dim} and would silently
    misread any other dimension layout.

    [incremental] (default [true]) only affects the probe placement
    policies: [false] rebuilds the per-bin load state from the live
    ground truth before {e every} decision instead of updating it in
    place. Because the bin state always sums residents in a canonical
    order, the two modes are bitwise-identical — [incremental:false] is
    the slow reference the differential tests compare against, never a
    mode to run for its own sake. [final] receives the services still
    live at the horizon, in insertion order, just before [run] returns.

    [timeline] is [(interval, emit)]: [emit] receives one
    {!timeline_sample} per virtual-time grid point [k * interval] in
    [\[0, horizon\]], in order, each reflecting the piecewise-constant
    state after every event at or before that instant. Sampling is driven
    purely by the sim clock, so the sequence is deterministic for a given
    rng whatever the domain count. Raises [Invalid_argument] on a
    non-positive interval.

    The arrival/departure paths are O(log n) per event (priority-queue
    discipline plus an O(1) insertion-ordered active set); the minimum
    yield is re-evaluated only on events that can change it — rejected
    arrivals reuse the cached value, counted under the
    [simulator.reeval_skips] metric. With {!Obs.Metrics} enabled the
    engine also counts arrivals/admissions/rejections/departures/
    reallocations/migrations, bins examined per decision
    ([simulator.bins_touched]), repair passes that moved at least one
    service ([simulator.repairs]) and drift-triggered full re-solves
    ([simulator.repair_fallbacks]), and records per-epoch min-yield
    (permille) and services-per-reallocation histograms; with
    {!Obs.Trace} enabled each reallocation is a ["reallocate"] span. *)
