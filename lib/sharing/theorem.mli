(** Theorem 1 of the paper: on a single node with a single resource,
    EQUALWEIGHTS is (2J−1)/J²-competitive against an omniscient optimal
    allocator, and the bound is tight.

    These helpers let the test suite and the [theorem] bench section check
    both directions: every random instance satisfies the bound, and the
    adversarial instance [n = (1, 1/J, …, 1/J)] achieves it exactly.

    Precondition inherited from the paper's problem definition: each need is
    at most 1 (the unit capacity of the reference machine — a need is by
    definition achievable on it). Both cases of the proof use [n̂ <= 1]; with
    needs above capacity the ratio can drop below the bound. *)

val bound : int -> float
(** [(2J - 1) / J²]. Raises [Invalid_argument] for [J <= 0]. *)

val optimal_min_yield : needs:float array -> float
(** Omniscient optimum on a unit-capacity node: every service can be given
    the same yield [min 1 (1 / Σ needs)]. *)

val competitive_ratio : needs:float array -> float
(** The minimum yield when the unit capacity is divided by the
    work-conserving EQUALWEIGHTS scheduler, over {!optimal_min_yield} (1.
    when the optimum is 0). *)

val worst_case_instance : int -> float array
(** The tight instance of the proof: [n₁ = 1] and [nⱼ = 1/J] for the
    others. *)
