(** Vector-packing placement solvers.

    Adapters from {!Packing} strategies to the resource-allocation problem:
    at a candidate yield, every service becomes an item whose demand is
    [(rᵉ + y·nᵉ, rᵃ + y·nᵃ)] and every node a bin; a successful packing is
    a valid placement at that yield.

    Every probe of a solve runs through the probe-shared packing kernel
    (DESIGN.md §11), the one production probe path; the solve owns its
    kernels. The naive fresh-allocation path it must match bit-for-bit is
    {!pack_at_yield} per strategy, which the test suite's oracle drives
    under the same search.

    Packing strategies are one kind of yield-probe oracle; the LP
    relaxation is the other ({!Milp.relaxed_yield_search}, which threads a
    warm-start basis through {!Binary_search.maximize_warm} instead of a
    packing scratch state). *)

type solution = {
  placement : Model.Placement.t;
  min_yield : float;
      (** Actual minimum yield of the placement (water-filled), which is at
          least the yield the binary search proved feasible. *)
}

val items_at_yield : Model.Instance.t -> float -> Packing.Item.t array
(** Service demands at a common yield, in service-id order. *)

val fresh_bins : Model.Instance.t -> Packing.Bin.t array
(** Empty bins mirroring the instance's nodes. *)

val pack_at_yield :
  Packing.Strategy.t -> Model.Instance.t -> float -> Model.Placement.t option
(** One fixed-yield feasibility probe with a single strategy. *)

val solve :
  ?tolerance:float -> Packing.Strategy.t -> Model.Instance.t -> solution option
(** Binary-search the yield ({!Binary_search.maximize}) with a single
    strategy as oracle.

    Probes run through the probe-shared packing kernel (DESIGN.md §11):
    item/bin scratch refilled in place, memoized sort orders and
    Permutation-Pack item permutations — bit-identical to {!pack_at_yield}
    per probe, just cheaper (the test suite locks it against that naive
    path). Each solve owns its kernels: a probe takes a free one or makes
    one, so a solve holds at most one per concurrent probe, and they are
    dropped with the solve. Kernel sort-memo hits land on the
    [vp_solver.items_cache_hits] counter. *)

val solve_multi :
  ?tolerance:float ->
  Packing.Strategy.t list ->
  Model.Instance.t ->
  solution option
(** Binary-search where each probe tries the strategies in order and
    succeeds as soon as one packs — the META* construction (§3.5.3,
    §3.5.5). The achieved minimum yield is evaluated on the final
    placement. *)

val batch_oracle :
  Packing.Strategy.t list ->
  Model.Instance.t ->
  float -> Model.Placement.t option
(** The raw fixed-yield probe oracle behind {!solve_multi}, with kernels
    of its own, for callers that drive the yield search themselves — the
    batched solve driver ({!Batch}) stepping a {!Binary_search.plan}
    under {!Par.Scheduler}. Safe to call from several domains at once. *)

val evaluate : Model.Instance.t -> Model.Placement.t -> solution option
(** Water-fill a placement into a [solution] (shared by greedy and rounding
    algorithms). *)
