(** Randomized rounding of the relaxed LP solution (paper §3.3).

    Both algorithms first solve the rational relaxation of the MILP
    ({!Milp.relaxed_e_matrix}, which solves it in reduced form) and use
    the fractional [e_jh] values as placement probabilities. Services are
    taken in id order; a drawn node that cannot satisfy the service's rigid
    requirements (given what was already committed) gets its probability
    zeroed and the draw is repeated. RRND fails when a service's entire
    probability row is exhausted; RRNZ (§3.3.2) first replaces every zero
    probability with the paper's ε = 0.01, so a service can land on any
    node that has room. *)

val rrnd : rng:Prng.Rng.t -> Model.Instance.t -> Vp_solver.solution option
(** Randomized Rounding. *)

val rrnz : rng:Prng.Rng.t -> Model.Instance.t -> Vp_solver.solution option
(** Randomized Rounding with No Zero probabilities. *)

val rrnd_probed :
  rng:Prng.Rng.t -> Model.Instance.t -> Vp_solver.solution option

val rrnz_probed :
  rng:Prng.Rng.t -> Model.Instance.t -> Vp_solver.solution option
(** Probe-based RRND/RRNZ: the probability matrix comes from
    {!Milp.relaxed_yield_search} (warm-started yield probes) instead of the
    single maximizing LP solve. Same rounding pass as {!rrnd}/{!rrnz}. *)

val round_probabilities :
  rng:Prng.Rng.t ->
  e_matrix:float array array ->
  Model.Instance.t ->
  Model.Placement.t option
(** The shared rounding pass, exposed for tests: given a J x H probability
    matrix, place services in order with requirement-feasibility retries. *)
