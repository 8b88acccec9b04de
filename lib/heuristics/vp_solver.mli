(** Vector-packing placement solvers.

    Adapters from {!Packing} strategies to the resource-allocation problem:
    at a candidate yield, every service becomes an item whose demand is
    [(rᵉ + y·nᵉ, rᵃ + y·nᵃ)] and every node a bin; a successful packing is
    a valid placement at that yield.

    Every probe of a solve runs through the probe-shared packing kernel
    (DESIGN.md §11), the one probe path; each solve owns one kernel. The
    test suite checks it bit-for-bit against a fresh-allocation reference
    probe that sorts afresh and packs Permutation-Pack by full scan
    ([Oracles.Naive_probe]). A probe that {!Packing.Strategy.infeasible}
    refutes returns no placement without running any strategy, as every
    strategy would have failed ([vp_solver.probes_certified] counts
    these).

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

val solve :
  ?tolerance:float -> Packing.Strategy.t -> Model.Instance.t -> solution option
(** Binary-search the yield ({!Binary_search.maximize}) with a single
    strategy as oracle.

    Probes run through the probe-shared packing kernel (DESIGN.md §11):
    one flat packing state per solve whose item demands are refilled in
    place per probe, memoized sort orders and Permutation-Pack item key
    classes — bit-identical to a fresh-allocation probe per strategy, just
    cheaper (the test suite locks it against that reference). Each solve makes one kernel, which its probes reuse one after
    another and which is dropped with the solve. Kernel sort-memo hits
    land on the [vp_solver.items_cache_hits] counter. *)

val solve_multi :
  ?tolerance:float ->
  Packing.Strategy.t list ->
  Model.Instance.t ->
  solution option
(** Binary-search where each probe tries the strategies in order and
    succeeds as soon as one packs — the META* construction (§3.5.3,
    §3.5.5). The achieved minimum yield is evaluated on the final
    placement. *)

val state_at_yield : Model.Instance.t -> float -> Packing.State.t
(** A fresh packing state of the instance: bin [h] is node [h], of its
    capacity, and item [j] is service [j], with the demand
    [(rᵉ + y·nᵉ, rᵃ + y·nᵃ)] at the given yield; every bin empty. The
    probe kernel builds its state the same way; the rounding pass
    admits services through one filled at yield 0. *)

val evaluate : Model.Instance.t -> Model.Placement.t -> solution option
(** Water-fill a placement into a [solution] (shared by greedy and rounding
    algorithms). *)
